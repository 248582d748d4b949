"""Vectorized rate, gradient and unrolled-optimizer kernels.

Internal module.  Every kernel works on one explicit batch axis ``q``; public
modules flatten arbitrary leading axes down to it.

``unrolled_loss`` differentiates the unrolled optimizer with respect to its
per-iteration step sizes in reverse mode: a forward sweep keeps every
iterate, then one backward sweep carries a single adjoint array.  Each
backward step needs a Hessian-vector product of the objective, which is the
derivative of ``gradient_pass`` in one direction: ``rate_pass`` then carries
one tangent (the shape of ``p``) beside its values.

Index conventions: hops are numbered 1..B (hop 1 is the source broadcast);
node, message and row indices are 0-based.  Reception at hop b depends on the
coefficients of the devices transmitting into it: the source row for hop 1,
relay-layer block b-1 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelRealization, NoiseProfile, Topology
from .power import project_adjoint, project_with_tangent

LN2 = float(np.log(2.0))
INV_LN2 = 1.0 / LN2


@dataclass(frozen=True)
class NetIndex:
    """Precomputed index helpers for one topology."""

    hop_sizes: tuple[int, ...]

    @property
    def num_hops(self) -> int:
        return len(self.hop_sizes)

    @property
    def end_users(self) -> int:
        return self.hop_sizes[-1]

    @property
    def stacked_rows(self) -> int:
        return 1 + sum(self.hop_sizes[:-1])

    def block(self, layer: int) -> slice:
        start = sum(self.hop_sizes[: layer - 1])
        return slice(start, start + self.hop_sizes[layer - 1])


def net_index(topology: Topology) -> NetIndex:
    return NetIndex(hop_sizes=topology.hop_sizes)


@dataclass
class ChannelOperands:
    """Channel-dependent constants reused across many evaluations.

    ``ht_re``/``ht_im`` hold the hop-b matrices transposed to (q, receiver,
    transmitter) so gains come from a single matmul against the power block.
    The batch axis may be 1 for broadcasting against a batch of matrices.
    """

    a1: np.ndarray                      # (q, M1) squared first-hop magnitudes
    ht_re: tuple[np.ndarray, ...]       # per hop b>=2: (q, M_b, M_{b-1})
    ht_im: tuple[np.ndarray, ...]
    sig2: np.ndarray                    # (q, B) noise variances


def prepare_operands(
    first: np.ndarray,
    later: tuple[np.ndarray, ...],
    sig2: np.ndarray,
) -> ChannelOperands:
    first = np.asarray(first, dtype=np.complex128)
    if first.ndim == 1:
        first = first[None, :]
    a1 = first.real**2 + first.imag**2
    ht_re = []
    ht_im = []
    for mat in later:
        mat = np.asarray(mat, dtype=np.complex128)
        if mat.ndim == 2:
            mat = mat[None, :, :]
        t = np.swapaxes(mat, -1, -2)
        ht_re.append(np.ascontiguousarray(t.real))
        ht_im.append(np.ascontiguousarray(t.imag))
    sig2 = np.asarray(sig2, dtype=np.float64)
    if sig2.ndim == 1:
        sig2 = sig2[None, :]
    return ChannelOperands(a1=a1, ht_re=tuple(ht_re), ht_im=tuple(ht_im), sig2=sig2)


def operands_from(channel: ChannelRealization, noise: NoiseProfile) -> ChannelOperands:
    return prepare_operands(
        channel.first_hop, channel.later_hops, np.asarray(noise.hop_noise_vars)
    )


def stack_channels(channels: list[ChannelRealization]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    first = np.stack([ch.first_hop for ch in channels])
    later = tuple(
        np.stack([ch.later_hops[j] for ch in channels])
        for j in range(len(channels[0].later_hops))
    )
    return first, later


@dataclass
class RatePass:
    """All intermediates of one rate evaluation (and optional tangents)."""

    q: int
    phi: np.ndarray                     # (q, N)
    mask1: np.ndarray                   # (q, N, N) bool, [i, n] tie-inclusive interferers
    i1: np.ndarray                      # (q, N) first-hop interference sums
    den1: np.ndarray                    # (q, M1, N)
    u1: np.ndarray                      # (q, M1, N) SINR ratios
    rates: list[np.ndarray]             # reception rates per hop 1..B, each (q, nodes, N)
    c_re: list[np.ndarray | None]       # per hop (index b-1; None for hop 1)
    c_im: list[np.ndarray | None]
    gains: list[np.ndarray | None]      # (q, M_b, N) per hop b>=2
    maskb: list[np.ndarray | None]      # (q, M_b, N, N) bool
    ib: list[np.ndarray | None]         # (q, M_b, N) interference sums
    denb: list[np.ndarray | None]
    elig: np.ndarray                    # (q, N, N) end-user decode obligations [l, n]
    message: np.ndarray                 # (q, N)
    # tangents in one direction, populated when dp was supplied
    dphi: np.ndarray | None = None
    di1: np.ndarray | None = None
    dc_re: list[np.ndarray | None] = field(default_factory=list)
    dc_im: list[np.ndarray | None] = field(default_factory=list)
    dgains: list[np.ndarray | None] = field(default_factory=list)
    dib: list[np.ndarray | None] = field(default_factory=list)


def rate_pass(
    net: NetIndex,
    ops: ChannelOperands,
    p: np.ndarray,
    dp: np.ndarray | None = None,
) -> RatePass:
    """Evaluate every reception rate for a batch of power matrices.

    ``p`` is (q, stacked_rows, N); ``dp``, when given, has the same shape and
    the intermediates that ``gradient_pass`` differentiates gain a matching
    tangent.
    """
    nmsg = net.end_users
    nhops = net.num_hops
    eye = np.eye(nmsg, dtype=bool)
    want_d = dp is not None

    phi = p[:, -1, :]
    phi2 = phi * phi
    s1 = ops.sig2[:, 0]
    mask1 = (phi[:, :, None] <= phi[:, None, :]) & ~eye
    m1f = mask1.astype(np.float64)
    i1 = (phi2[:, None, :] @ m1f)[:, 0, :]
    den1 = ops.a1[:, :, None] * i1[:, None, :] + s1[:, None, None]
    num1 = ops.a1[:, :, None] * phi2[:, None, :]
    u1 = num1 / den1
    r1 = np.log1p(u1) * INV_LN2

    if want_d:
        dphi = dp[:, -1, :]
        di1 = ((2.0 * phi * dphi)[:, None, :] @ m1f)[:, 0, :]
    else:
        dphi = di1 = None

    rates: list[np.ndarray] = [r1]
    c_re: list[np.ndarray | None] = [None]
    c_im: list[np.ndarray | None] = [None]
    gains: list[np.ndarray | None] = [None]
    maskb: list[np.ndarray | None] = [None]
    ib_list: list[np.ndarray | None] = [None]
    denb_list: list[np.ndarray | None] = [None]
    dc_re: list[np.ndarray | None] = [None]
    dc_im: list[np.ndarray | None] = [None]
    dgains: list[np.ndarray | None] = [None]
    dib_list: list[np.ndarray | None] = [None]

    elig = None
    for hop in range(2, nhops + 1):
        j = hop - 2
        rows = net.block(hop - 1)
        pb = p[:, rows, :]
        cr = ops.ht_re[j] @ pb
        ci = ops.ht_im[j] @ pb
        g = cr * cr + ci * ci
        mb = (g[:, :, :, None] <= g[:, :, None, :]) & ~eye
        mbf = mb.astype(np.float64)
        ib = (g[:, :, None, :] @ mbf)[:, :, 0, :]
        sb = ops.sig2[:, hop - 1]
        denb = ib + sb[:, None, None]
        ub = g / denb
        rb = np.log1p(ub) * INV_LN2

        rates.append(rb)
        c_re.append(cr)
        c_im.append(ci)
        gains.append(g)
        maskb.append(mb)
        ib_list.append(ib)
        denb_list.append(denb)

        if want_d:
            dpb = dp[:, rows, :]
            dcr = ops.ht_re[j] @ dpb
            dci = ops.ht_im[j] @ dpb
            dg = 2.0 * (cr * dcr + ci * dci)
            dc_re.append(dcr)
            dc_im.append(dci)
            dgains.append(dg)
            dib_list.append((dg[:, :, None, :] @ mbf)[:, :, 0, :])
        else:
            dc_re.append(None)
            dc_im.append(None)
            dgains.append(None)
            dib_list.append(None)

        if hop == nhops:
            diag = np.diagonal(g, axis1=-2, axis2=-1)
            elig = g >= diag[:, :, None]

    relay_mins = [rates[r - 1].min(axis=-2) for r in range(1, nhops)]
    user_rates = np.where(elig, rates[-1], np.inf)
    user_min = user_rates.min(axis=-2)
    message = np.minimum.reduce(relay_mins + [user_min])

    q = message.shape[0]
    return RatePass(
        q=q,
        phi=phi,
        mask1=mask1,
        i1=i1,
        den1=den1,
        u1=u1,
        rates=rates,
        c_re=c_re,
        c_im=c_im,
        gains=gains,
        maskb=maskb,
        ib=ib_list,
        denb=denb_list,
        elig=elig,
        message=message,
        dphi=dphi,
        di1=di1,
        dc_re=dc_re,
        dc_im=dc_im,
        dgains=dgains,
        dib=dib_list,
    )


def _full(arr: np.ndarray, q: int) -> np.ndarray:
    """Broadcast a channel operand up to the evaluation batch size."""
    if arr.shape[0] == q:
        return arr
    return np.broadcast_to(arr, (q,) + arr.shape[1:])


def select_binding(
    net: NetIndex, rp: RatePass, nstar: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pick the binding constraint of message ``nstar`` for every element.

    Returns the reception hop (1..B) and node index.  The relay branch wins
    only on strict inequality; ties between constraints break to the lowest
    (hop, node), then to the lowest eligible end user.
    """
    q = rp.q
    qi = np.arange(q)
    nhops = net.num_hops
    relay_vals = []
    relay_args = []
    for r in range(1, nhops):
        col = rp.rates[r - 1][qi, :, nstar]
        relay_vals.append(col.min(axis=-1))
        relay_args.append(col.argmin(axis=-1))
    rv = np.stack(relay_vals)
    ra = np.stack(relay_args)
    rhop = rv.argmin(axis=0)
    relay_v = rv[rhop, qi]
    relay_m = ra[rhop, qi]

    col_b = rp.rates[-1][qi, :, nstar]
    elig_col = rp.elig[qi, :, nstar]
    masked = np.where(elig_col, col_b, np.inf)
    user_l = masked.argmin(axis=-1)
    user_v = masked.min(axis=-1)

    use_relay = relay_v < user_v
    bind_hop = np.where(use_relay, rhop + 1, nhops)
    bind_node = np.where(use_relay, relay_m, user_l)
    return bind_hop, bind_node


def gradient_pass(
    net: NetIndex,
    ops: ChannelOperands,
    rp: RatePass,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradient of the minimum message rate for every batch element.

    The gradient of the single binding rate is placed in the rows of the
    transmit block feeding the binding reception hop; all other entries are
    zero.  When the rate pass carries a tangent ``dp``, the gradient's
    derivative in that direction (the Hessian-vector product of the selected
    branch) is returned alongside.
    """
    q = rp.q
    nmsg = net.end_users
    want_d = rp.dphi is not None

    nstar = rp.message.argmin(axis=-1)
    bind_hop, bind_node = select_binding(net, rp, nstar)

    grad = np.zeros((q, net.stacked_rows, nmsg))
    dgrad = np.zeros((q, net.stacked_rows, nmsg)) if want_d else None

    for r in range(1, net.num_hops + 1):
        sel = np.nonzero(bind_hop == r)[0]
        if sel.size == 0:
            continue
        node = bind_node[sel]
        n = nstar[sel]
        si = np.arange(sel.size)
        if r == 1:
            a = _full(ops.a1, q)[sel, node]
            s1 = _full(ops.sig2, q)[sel, 0]
            phi = _full(rp.phi, q)[sel]
            phin = phi[si, n]
            inter = _full(rp.i1, q)[sel, n]
            den = a * inter + s1
            sig = a * phin * phin
            tot = sig + den
            maskrow = _full(rp.mask1, q)[sel, :, n]
            w_int = -(2.0 * INV_LN2) * a * sig / (den * tot)
            g = np.where(maskrow, w_int[:, None] * phi, 0.0)
            g[si, n] = (2.0 * INV_LN2) * a * phin / tot
            grad[sel, -1, :] = g
            if want_d:
                dphi = rp.dphi[sel]
                dphin = dphi[si, n]
                dden = a * rp.di1[sel, n]
                dsig = 2.0 * a * phin * dphin
                dtot = dsig + dden
                dw_int = -(2.0 * INV_LN2) * a * (
                    dsig - sig * (dden / den + dtot / tot)
                ) / (den * tot)
                dg = np.where(
                    maskrow, dw_int[:, None] * phi + w_int[:, None] * dphi, 0.0
                )
                dg[si, n] = (2.0 * INV_LN2) * a * (dphin - phin * dtot / tot) / tot
                dgrad[sel, -1, :] = dg
        else:
            j = r - 2
            rows = net.block(r - 1)
            hre = _full(ops.ht_re[j], q)[sel, node, :]
            him = _full(ops.ht_im[j], q)[sel, node, :]
            sb = _full(ops.sig2, q)[sel, r - 1]
            cr = rp.c_re[r - 1][sel, node, :]
            ci = rp.c_im[r - 1][sel, node, :]
            g_row = rp.gains[r - 1][sel, node, :]
            gn = g_row[si, n]
            inter = rp.ib[r - 1][sel, node, n]
            den = inter + sb
            tot = gn + den
            maskrow = rp.maskb[r - 1][sel, node, :, n]
            w = np.where(maskrow, -(2.0 * INV_LN2) * (gn / (den * tot))[:, None], 0.0)
            w[si, n] = (2.0 * INV_LN2) / tot
            response = hre[:, :, None] * cr[:, None, :] + him[:, :, None] * ci[:, None, :]
            grad[sel, rows, :] = response * w[:, None, :]
            if want_d:
                dcr = rp.dc_re[r - 1][sel, node, :]
                dci = rp.dc_im[r - 1][sel, node, :]
                dgn = rp.dgains[r - 1][sel, node, n]
                dden = rp.dib[r - 1][sel, node, n]
                dtot = dgn + dden
                dw = np.where(
                    maskrow,
                    -(2.0 * INV_LN2)
                    * ((dgn - gn * (dden / den + dtot / tot)) / (den * tot))[:, None],
                    0.0,
                )
                dw[si, n] = -(2.0 * INV_LN2) * dtot / (tot * tot)
                dresponse = hre[:, :, None] * dcr[:, None, :] + him[:, :, None] * dci[:, None, :]
                dgrad[sel, rows, :] = dresponse * w[:, None, :] + response * dw[:, None, :]
    return grad, dgrad, nstar, bind_hop, bind_node


def iterate_schedule(
    net: NetIndex,
    ops: ChannelOperands,
    p0: np.ndarray,
    mu,
    eval_ops: ChannelOperands | None = None,
):
    """Run the step schedule, yielding ``(p_k, rates_k)`` for k = 0..K.

    ``rates_k`` holds each element's min rate at iterate ``p_k``, measured
    under ``eval_ops`` (default ``ops``, the channel driving the updates).
    ``mu[k]`` is a scalar, or an array of shape (q, 1, 1) for a step per
    element.  Yielded iterates are never modified afterwards.
    """
    if eval_ops is None:
        eval_ops = ops
    p = np.array(p0, dtype=np.float64)
    for k in range(len(mu)):
        rp = rate_pass(net, ops, p)
        if eval_ops is ops:
            yield p, rp.message.min(axis=-1)
        else:
            yield p, rate_pass(net, eval_ops, p).message.min(axis=-1)
        grad, _, _, _, _ = gradient_pass(net, ops, rp)
        p = project_with_tangent(p + mu[k] * grad)[0]
    yield p, rate_pass(net, eval_ops, p).message.min(axis=-1)


def run_schedule_batch(
    net: NetIndex,
    ops: ChannelOperands,
    p0: np.ndarray,
    mu: np.ndarray,
    record_iterates: bool = False,
    eval_ops: ChannelOperands | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run the full step schedule, returning min rates per iterate.

    ``eval_ops`` lets the recorded rates be measured on a different channel
    than the one driving the updates (both default to ``ops``).
    """
    shape = np.shape(p0)
    rates = np.empty((len(mu) + 1, shape[0]))
    iterates = np.empty((len(mu) + 1,) + shape) if record_iterates else None
    for k, (p, rate) in enumerate(iterate_schedule(net, ops, p0, mu, eval_ops)):
        rates[k] = rate
        if record_iterates:
            iterates[k] = p
    return rates, iterates


@dataclass
class UnrolledResult:
    loss: float
    grad: np.ndarray | None          # (K,) d loss / d mu
    iterate_rates: np.ndarray        # (K+1, q) loss-channel min rates per iterate
    final: np.ndarray                # (q, rows, N) last iterate
    min_margin: float                # smallest tie/kink margin seen (diagnostics)


def unrolled_loss(
    net: NetIndex,
    opt_ops: ChannelOperands,
    loss_ops: ChannelOperands,
    p0: np.ndarray,
    mu: np.ndarray,
    weights: np.ndarray,
    want_grad: bool = True,
    track_margins: bool = False,
) -> UnrolledResult:
    """Iteration-weighted negative min-rate loss of the unrolled optimizer.

    The trajectory is driven by ``opt_ops`` (possibly estimated CSI) while the
    loss rates are measured under ``loss_ops`` (the true CSI).  The exact
    gradient with respect to the step sizes comes from one reverse sweep.
    With ``x_k = p_k + mu_k g_k`` and ``p_{k+1} = project(x_k)``, the adjoint
    ``lam_k = dL/dp_k`` starts at ``lam_K = -(w_K/q) grad R_loss(p_K)`` and
    runs down as ``v = project'(x_k)^T lam_{k+1}``, ``dL/dmu_k = sum(g_k v)``,
    ``lam_k = -(w_k/q) grad R_loss(p_k) + v + mu_k H_k v``, where ``H_k v`` is
    the derivative of ``gradient_pass`` at ``p_k`` in the direction ``v``.
    """
    steps = len(mu)
    if steps < 1:
        raise ValueError("the unrolled optimizer needs at least one iteration")
    p = np.array(p0, dtype=np.float64)
    q = p.shape[0]
    same = opt_ops is loss_ops
    loss = 0.0
    iterate_rates = np.empty((steps + 1, q))
    min_margin = np.inf
    # The trajectory the backward sweep needs: p_k, g_k and x_k for k < K, and
    # the gradient of the loss-channel min rate at p_k for 1 <= k < K.
    ps, gs, xs, loss_grads = [], [], [], []

    for k in range(steps):
        rp = rate_pass(net, opt_ops, p)
        rp_loss = rp if same else rate_pass(net, loss_ops, p)
        iterate_rates[k] = rp_loss.message.min(axis=-1)
        if k >= 1:
            loss -= weights[k - 1] * iterate_rates[k].mean()
        if track_margins:
            min_margin = min(min_margin, _pass_margin(net, rp))
        grad = gradient_pass(net, opt_ops, rp)[0]
        x = p + mu[k] * grad
        if track_margins:
            nz = x[x != 0.0]
            if nz.size:
                min_margin = min(min_margin, float(np.abs(nz).min()))
        if want_grad:
            if k >= 1:
                loss_grads.append(grad if same else gradient_pass(net, loss_ops, rp_loss)[0])
            ps.append(p)
            gs.append(grad)
            xs.append(x)
        p = project_with_tangent(x)[0]

    rp_loss = rate_pass(net, loss_ops, p)
    iterate_rates[steps] = rp_loss.message.min(axis=-1)
    loss -= weights[steps - 1] * iterate_rates[steps].mean()
    if track_margins and same:
        min_margin = min(min_margin, _pass_margin(net, rp_loss))
    dloss = None
    if want_grad:
        dloss = np.empty(steps)
        lam = -(weights[steps - 1] / q) * gradient_pass(net, loss_ops, rp_loss)[0]
        for k in range(steps - 1, -1, -1):
            v = project_adjoint(xs[k], lam)
            dloss[k] = np.sum(gs[k] * v)
            if k == 0:
                break
            hv = gradient_pass(net, opt_ops, rate_pass(net, opt_ops, ps[k], dp=v))[1]
            lam = -(weights[k - 1] / q) * loss_grads[k - 1] + v + mu[k] * hv
    return UnrolledResult(
        loss=float(loss),
        grad=dloss,
        iterate_rates=iterate_rates,
        final=p,
        min_margin=float(min_margin),
    )


def _gap_min(values: np.ndarray) -> float:
    """Smallest nonzero pairwise gap along the last axis (exact ties are
    treated as structurally stuck and ignored)."""
    v = np.sort(values, axis=-1)
    with np.errstate(invalid="ignore"):
        gaps = np.diff(v, axis=-1)
    nz = gaps[gaps > 0.0]
    return float(nz.min()) if nz.size else np.inf


def _pass_margin(net: NetIndex, rp: RatePass) -> float:
    """Smallest distance to any branch switch of the current pass.

    Covers interference-set membership (power and gain ties), the end-user
    decode obligations, the message argmin and the binding-constraint choice.
    """
    margin = _gap_min(rp.phi)
    for hop in range(2, net.num_hops + 1):
        margin = min(margin, _gap_min(rp.gains[hop - 1]))
    margin = min(margin, _gap_min(rp.message))
    nstar = rp.message.argmin(axis=-1)
    qi = np.arange(rp.q)
    cols = [rp.rates[r - 1][qi, :, nstar] for r in range(1, net.num_hops)]
    user = np.where(rp.elig[qi, :, nstar], rp.rates[-1][qi, :, nstar], np.inf)
    constraints = np.concatenate(cols + [user], axis=-1)
    margin = min(margin, _gap_min(constraints))
    return margin
