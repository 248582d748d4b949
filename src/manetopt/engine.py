"""Vectorized rate, gradient and unrolled-optimizer kernels.

Internal module.  Every kernel works on one explicit batch axis ``q``; public
modules flatten arbitrary leading axes down to it.

Layout: the batch axis is the last axis of every kernel array.  A batch of
power matrices is ``(stacked_rows, N, q)``, a rate table ``(nodes, N, q)``,
and each ufunc runs one contiguous inner loop of length q.  Two things stay
batch-first: the channel matrices ``ht_re``/``ht_im``, because the channel
products are stacked BLAS matmuls (transposed in and out), and the arrays
``iterate_schedule``, ``run_schedule_batch`` and ``unrolled_loss`` take and
yield, which are ``(q, stacked_rows, N)`` as everywhere else in the package.

Order contract (what keeps every result bit-identical across layouts):

- each masked interference sum adds its terms in ascending m;
- every argmin over nodes, messages or constraints takes the first
  occurrence of the minimum;
- ``dL/dmu_k`` sums ``g_k * v`` over each step group's block of the
  batch-first C-order array, whose pairwise order decides the trained
  schedules; a block is what one group alone would sum, so S schedules
  trained in one batch equal S trained one by one.

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


def batch_last(a: np.ndarray) -> np.ndarray:
    """Contiguous copy of ``a`` with its leading (batch) axis moved last."""
    return np.ascontiguousarray(a.transpose(tuple(range(1, a.ndim)) + (0,)))


def batch_first(a: np.ndarray) -> np.ndarray:
    """Contiguous copy of ``a`` with its last (batch) axis moved first."""
    return np.ascontiguousarray(_first_view(a))


def _first_view(a: np.ndarray) -> np.ndarray:
    """``a`` with its last (batch) axis moved first, as a view."""
    return a.transpose((a.ndim - 1,) + tuple(range(a.ndim - 1)))


@dataclass
class ChannelOperands:
    """Channel-dependent constants reused across many evaluations.

    ``ht_re``/``ht_im`` hold the hop-b matrices transposed to (q, receiver,
    transmitter), batch first, so gains come from one stacked matmul against
    the power block.  The batch axis may be 1 for broadcasting against a
    batch of matrices.
    """

    a1: np.ndarray                      # (M1, q) squared first-hop magnitudes
    ht_re: tuple[np.ndarray, ...]       # per hop b>=2: (q, M_b, M_{b-1})
    ht_im: tuple[np.ndarray, ...]
    sig2: np.ndarray                    # (B, q) noise variances


def prepare_operands(
    first: np.ndarray,
    later: tuple[np.ndarray, ...],
    sig2: np.ndarray,
) -> ChannelOperands:
    first = np.asarray(first, dtype=np.complex128)
    if first.ndim == 1:
        first = first[None, :]
    a1 = batch_last(first.real**2 + first.imag**2)
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
    return ChannelOperands(
        a1=a1, ht_re=tuple(ht_re), ht_im=tuple(ht_im), sig2=batch_last(sig2)
    )


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
    """All intermediates of one rate evaluation (and optional tangents).

    Every array ends in the batch axis q.
    """

    q: int
    phi: np.ndarray                     # (N, q) source coefficients
    i1: np.ndarray                      # (N, q) first-hop interference sums
    rates: list[np.ndarray]             # reception rates per hop 1..B, each (nodes, N, q)
    c_re: list[np.ndarray | None]       # per hop (index b-1; None for hop 1)
    c_im: list[np.ndarray | None]
    gains: list[np.ndarray | None]      # (M_b, N, q) per hop b>=2
    ib: list[np.ndarray | None]         # (M_b, N, q) interference sums
    user_rates: np.ndarray              # (N, N, q) end-user rates [l, n], inf where
                                        # l is not obliged to decode n
    message: np.ndarray                 # (N, q)
    # tangents in one direction, populated when dp was supplied
    dphi: np.ndarray | None = None
    di1: np.ndarray | None = None
    dc_re: list[np.ndarray | None] = field(default_factory=list)
    dc_im: list[np.ndarray | None] = field(default_factory=list)
    dgains: list[np.ndarray | None] = field(default_factory=list)
    dib: list[np.ndarray | None] = field(default_factory=list)


def _interferers(key: np.ndarray) -> np.ndarray:
    """Mask ``[..., m, n, q]``: m interferes with n (m != n, key_m <= key_n).

    ``key`` is ``(..., N, q)``; ties interfere.
    """
    mask = key[..., :, None, :] <= key[..., None, :, :]
    diag = np.arange(key.shape[-2])
    mask[..., diag, diag, :] = False
    return mask


def _masked_sum(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``sum_m mask[..., m, n, q] * values[..., m, q]``, added in ascending m.

    A product with the mask rather than ``np.where``, which branches on every
    element: for finite values it adds the same terms (a masked-out negative
    value adds -0.0, which can change a sum only in the sign of a zero).
    """
    return (values[..., :, None, :] * mask).sum(axis=-3)


def _column(values: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """``values[..., n_i, i]`` for every element i, given ``flat = n * q + i``;
    ``values`` is a contiguous ``(..., N, q)`` array."""
    return values.reshape(values.shape[:-2] + (-1,)).take(flat, axis=-1)


def _channel_products(ops: ChannelOperands, j: int, block: np.ndarray):
    """Real and imaginary parts of ``ht @ block`` per element at hop j + 2,
    for a batch-last block: each (M_b, N, q)."""
    first = batch_first(block)
    return batch_last(ops.ht_re[j] @ first), batch_last(ops.ht_im[j] @ first)


def rate_pass(
    net: NetIndex,
    ops: ChannelOperands,
    p: np.ndarray,
    dp: np.ndarray | None = None,
) -> RatePass:
    """Evaluate every reception rate for a batch of power matrices.

    ``p`` is (stacked_rows, N, q); ``dp``, when given, has the same shape and
    the intermediates that ``gradient_pass`` differentiates gain a matching
    tangent.
    """
    nhops = net.num_hops
    want_d = dp is not None

    phi = p[-1]
    phi2 = phi * phi
    mask1 = _interferers(phi)
    i1 = _masked_sum(mask1, phi2)
    a1 = ops.a1[:, None, :]
    u1 = a1 * phi2 / (a1 * i1 + ops.sig2[0])
    rates: list[np.ndarray] = [np.log1p(u1) * INV_LN2]

    if want_d:
        dphi = dp[-1]
        di1 = _masked_sum(mask1, 2.0 * phi * dphi)
    else:
        dphi = di1 = None

    c_re: list[np.ndarray | None] = [None]
    c_im: list[np.ndarray | None] = [None]
    gains: list[np.ndarray | None] = [None]
    ib_list: list[np.ndarray | None] = [None]
    dc_re: list[np.ndarray | None] = [None]
    dc_im: list[np.ndarray | None] = [None]
    dgains: list[np.ndarray | None] = [None]
    dib_list: list[np.ndarray | None] = [None]

    for hop in range(2, nhops + 1):
        j = hop - 2
        rows = net.block(hop - 1)
        cr, ci = _channel_products(ops, j, p[rows])
        g = cr * cr + ci * ci
        mb = _interferers(g)
        ib = _masked_sum(mb, g)
        rates.append(np.log1p(g / (ib + ops.sig2[hop - 1])) * INV_LN2)
        c_re.append(cr)
        c_im.append(ci)
        gains.append(g)
        ib_list.append(ib)

        if want_d:
            dcr, dci = _channel_products(ops, j, dp[rows])
            dg = 2.0 * (cr * dcr + ci * dci)
            dc_re.append(dcr)
            dc_im.append(dci)
            dgains.append(dg)
            dib_list.append(_masked_sum(mb, dg))
        else:
            dc_re.append(None)
            dc_im.append(None)
            dgains.append(None)
            dib_list.append(None)

    g = gains[-1]
    diag = np.arange(net.end_users)
    user_rates = np.where(g >= g[diag, diag][:, None, :], rates[-1], np.inf)
    message = user_rates.min(axis=0)
    for r in range(1, nhops):
        np.minimum(message, rates[r - 1].min(axis=0), out=message)

    return RatePass(
        q=message.shape[-1],
        phi=phi,
        i1=i1,
        rates=rates,
        c_re=c_re,
        c_im=c_im,
        gains=gains,
        ib=ib_list,
        user_rates=user_rates,
        message=message,
        dphi=dphi,
        di1=di1,
        dc_re=dc_re,
        dc_im=dc_im,
        dgains=dgains,
        dib=dib_list,
    )


def _full(arr: np.ndarray, q: int, axis: int) -> np.ndarray:
    """Broadcast a channel operand's batch axis up to the batch size."""
    if arr.shape[axis] == q:
        return arr
    shape = list(arr.shape)
    shape[axis] = q
    return np.broadcast_to(arr, shape)


def select_binding(
    net: NetIndex, rp: RatePass, nstar: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pick the binding constraint of message ``nstar`` for every element.

    Returns the reception hop (1..B) and node index.  The relay branch wins
    only on strict inequality; ties between constraints break to the lowest
    (hop, node), then to the lowest eligible end user.
    """
    flat = nstar * rp.q + np.arange(rp.q)
    nhops = net.num_hops
    col = _column(rp.rates[0], flat)
    relay_v, relay_node = col.min(axis=0), col.argmin(axis=0)
    relay_hop = np.ones_like(relay_node)
    for r in range(2, nhops):
        col = _column(rp.rates[r - 1], flat)
        v = col.min(axis=0)
        lower = v < relay_v
        relay_v = np.where(lower, v, relay_v)
        relay_hop = np.where(lower, r, relay_hop)
        relay_node = np.where(lower, col.argmin(axis=0), relay_node)
    col = _column(rp.user_rates, flat)
    user_v, user_l = col.min(axis=0), col.argmin(axis=0)

    use_relay = relay_v < user_v
    bind_hop = np.where(use_relay, relay_hop, nhops)
    bind_node = np.where(use_relay, relay_node, user_l)
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
    branch) is returned alongside.  Gradients are (stacked_rows, N, q).
    """
    q = rp.q
    nmsg = net.end_users
    want_d = rp.dphi is not None

    nstar = rp.message.argmin(axis=0)
    bind_hop, bind_node = select_binding(net, rp, nstar)

    grad = np.zeros((net.stacked_rows, nmsg, q))
    dgrad = np.zeros((net.stacked_rows, nmsg, q)) if want_d else None

    for r in range(1, net.num_hops + 1):
        sel = np.flatnonzero(bind_hop == r)
        if sel.size == 0:
            continue
        node = bind_node[sel]
        n = nstar[sel]
        si = np.arange(sel.size)
        if r == 1:
            a = _full(ops.a1, q, -1)[node, sel]
            s1 = _full(ops.sig2, q, -1)[0, sel]
            phi = _full(rp.phi, q, -1)[:, sel]
            phin = phi[n, si]
            inter = _full(rp.i1, q, -1)[n, sel]
            den = a * inter + s1
            sig = a * phin * phin
            tot = sig + den
            maskrow = phi <= phin
            maskrow[n, si] = False
            w_int = -(2.0 * INV_LN2) * a * sig / (den * tot)
            g = np.where(maskrow, w_int * phi, 0.0)
            g[n, si] = (2.0 * INV_LN2) * a * phin / tot
            grad[-1][:, sel] = g
            if want_d:
                dphi = rp.dphi[:, sel]
                dphin = dphi[n, si]
                dden = a * rp.di1[n, sel]
                dsig = 2.0 * a * phin * dphin
                dtot = dsig + dden
                dw_int = -(2.0 * INV_LN2) * a * (
                    dsig - sig * (dden / den + dtot / tot)
                ) / (den * tot)
                dg = np.where(maskrow, dw_int * phi + w_int * dphi, 0.0)
                dg[n, si] = (2.0 * INV_LN2) * a * (dphin - phin * dtot / tot) / tot
                dgrad[-1][:, sel] = dg
        else:
            j = r - 2
            rows = net.block(r - 1)
            hre = _full(ops.ht_re[j], q, 0)[sel, node].T[:, None, :]
            him = _full(ops.ht_im[j], q, 0)[sel, node].T[:, None, :]
            sb = _full(ops.sig2, q, -1)[r - 1, sel]
            cr = rp.c_re[r - 1][node, :, sel].T
            ci = rp.c_im[r - 1][node, :, sel].T
            g_row = rp.gains[r - 1][node, :, sel].T
            gn = g_row[n, si]
            inter = rp.ib[r - 1][node, n, sel]
            den = inter + sb
            tot = gn + den
            maskrow = g_row <= gn
            maskrow[n, si] = False
            w = np.where(maskrow, -(2.0 * INV_LN2) * (gn / (den * tot)), 0.0)
            w[n, si] = (2.0 * INV_LN2) / tot
            response = hre * cr + him * ci
            grad[rows][..., sel] = response * w
            if want_d:
                dcr = rp.dc_re[r - 1][node, :, sel].T
                dci = rp.dc_im[r - 1][node, :, sel].T
                dgn = rp.dgains[r - 1][node, n, sel]
                dden = rp.dib[r - 1][node, n, sel]
                dtot = dgn + dden
                dw = np.where(
                    maskrow,
                    -(2.0 * INV_LN2) * ((dgn - gn * (dden / den + dtot / tot)) / (den * tot)),
                    0.0,
                )
                dw[n, si] = -(2.0 * INV_LN2) * dtot / (tot * tot)
                dresponse = hre * dcr + him * dci
                dgrad[rows][..., sel] = dresponse * w + response * dw
    return grad, dgrad, nstar, bind_hop, bind_node


def iterate_schedule(
    net: NetIndex,
    ops: ChannelOperands,
    p0: np.ndarray,
    mu,
    eval_ops: ChannelOperands | None = None,
):
    """Run the step schedule, yielding ``(p_k, rates_k)`` for k = 0..K.

    ``p0`` and every yielded ``p_k`` are (q, stacked_rows, N); ``p_k`` is a
    view of batch-last memory that is never modified afterwards.
    ``rates_k`` holds each element's min rate at iterate ``p_k``, measured
    under ``eval_ops`` (default ``ops``, the channel driving the updates).
    ``mu[k]`` is a scalar, or an array of shape (q,) for a step per element.
    """
    if eval_ops is None:
        eval_ops = ops
    p = batch_last(np.asarray(p0, dtype=np.float64))
    for k in range(len(mu)):
        rp = rate_pass(net, ops, p)
        if eval_ops is ops:
            yield _first_view(p), rp.message.min(axis=0)
        else:
            yield _first_view(p), rate_pass(net, eval_ops, p).message.min(axis=0)
        grad = gradient_pass(net, ops, rp)[0]
        p = project_with_tangent(p + mu[k] * grad)[0]
    yield _first_view(p), rate_pass(net, eval_ops, p).message.min(axis=0)


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
    loss: float | np.ndarray         # float, or (S,) per step group
    grad: np.ndarray | None          # (K,) or (S, K) d loss / d mu
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
    ``p0`` and ``final`` are (q, stacked_rows, N).

    ``mu`` is (K,), or (S, K) for S schedules on S equal contiguous groups of
    the batch: group s is elements ``s*q/S`` to ``(s+1)*q/S - 1``, steps by
    ``mu[s]``, and averages its loss over its own q/S elements.  The loss is
    then (S,) and the gradient (S, K), each row bit-identical to a call on
    that group alone.
    """
    mu = np.asarray(mu, dtype=np.float64)
    groups = mu.reshape(-1, mu.shape[-1])
    count, steps = groups.shape
    if steps < 1:
        raise ValueError("the unrolled optimizer needs at least one iteration")
    p = batch_last(np.asarray(p0, dtype=np.float64))
    q = p.shape[-1]
    if q % count:
        raise ValueError(f"a batch of {q} does not split into {count} equal groups")
    size = q // count
    # each element's step per iteration, (K, q)
    step = np.repeat(groups.T, size, axis=1)
    same = opt_ops is loss_ops
    loss = np.zeros(count)
    iterate_rates = np.empty((steps + 1, q))
    min_margin = np.inf
    # The trajectory the backward sweep needs: p_k, g_k and x_k for k < K, and
    # the gradient of the loss-channel min rate at p_k for 1 <= k < K.
    ps, gs, xs, loss_grads = [], [], [], []

    def group_means(values: np.ndarray) -> np.ndarray:
        return values.reshape(count, size).mean(axis=1)

    for k in range(steps):
        rp = rate_pass(net, opt_ops, p)
        rp_loss = rp if same else rate_pass(net, loss_ops, p)
        iterate_rates[k] = rp_loss.message.min(axis=0)
        if k >= 1:
            loss -= weights[k - 1] * group_means(iterate_rates[k])
        if track_margins:
            min_margin = min(min_margin, _pass_margin(net, rp))
        grad = gradient_pass(net, opt_ops, rp)[0]
        x = p + step[k] * grad
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
    iterate_rates[steps] = rp_loss.message.min(axis=0)
    loss -= weights[steps - 1] * group_means(iterate_rates[steps])
    if track_margins and same:
        min_margin = min(min_margin, _pass_margin(net, rp_loss))
    dloss = None
    if want_grad:
        dloss = np.empty((count, steps))
        lam = -(weights[steps - 1] / size) * gradient_pass(net, loss_ops, rp_loss)[0]
        for k in range(steps - 1, -1, -1):
            v = project_adjoint(xs[k], lam)
            # summed batch first, one block per group: its pairwise order
            # decides the schedules
            dloss[:, k] = batch_first(gs[k] * v).reshape(count, -1).sum(axis=1)
            if k == 0:
                break
            hv = gradient_pass(net, opt_ops, rate_pass(net, opt_ops, ps[k], dp=v))[1]
            lam = -(weights[k - 1] / size) * loss_grads[k - 1] + v + step[k] * hv
    if mu.ndim == 1:
        loss = float(loss[0])
        dloss = None if dloss is None else dloss[0]
    return UnrolledResult(
        loss=loss,
        grad=dloss,
        iterate_rates=iterate_rates,
        final=batch_first(p),
        min_margin=float(min_margin),
    )


def _gap_min(values: np.ndarray) -> float:
    """Smallest nonzero pairwise gap along axis -2, the axis before the batch
    axis (exact ties are treated as structurally stuck and ignored)."""
    v = np.sort(values, axis=-2)
    with np.errstate(invalid="ignore"):
        gaps = np.diff(v, axis=-2)
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
    flat = rp.message.argmin(axis=0) * rp.q + np.arange(rp.q)
    constraints = np.concatenate(
        [_column(rates, flat) for rates in rp.rates[:-1] + [rp.user_rates]]
    )
    margin = min(margin, _gap_min(constraints))
    return margin
