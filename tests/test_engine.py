"""The batch-last kernels against a batch-first reference, bit for bit.

The reference below is the engine's batch-first formulation: arrays are
(q, rows, N), the batch axis first, and every reduction over messages or
nodes is numpy's own reduction over the last axis.  Two things differ from
the batch-first code as it was.  Each masked interference sum adds its terms
in ascending m: the 0/1-mask matmul it replaces adds in that order up to
five messages under OpenBLAS, and in blocks from six on, so results with six
or more end users moved in the last bits.  And the projection's tangent
divides by a row's rescale factor last.

Values are compared with ``np.array_equal``, so +0.0 and -0.0 compare equal.
Topologies with eight or more end users pin the projection's row sums,
which numpy adds pairwise from eight terms on.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import manetopt as mo
from manetopt import engine, gridsearch, power
from manetopt.training import iteration_weights

from margins import unrolled_min_margin

INV_LN2 = engine.INV_LN2

TOPOLOGIES = [
    (2, 2), (3, 3), (4, 4), (1, 2, 2), (2, 2, 2), (2, 3), (3, 2), (1, 4), (4, 4, 4),
    (2, 9),
]


# --- batch-first reference -------------------------------------------------


def ref_operands(first, later, sig2):
    first = np.asarray(first, dtype=np.complex128)
    ht_re, ht_im = [], []
    for mat in later:
        t = np.swapaxes(np.asarray(mat, dtype=np.complex128), -1, -2)
        ht_re.append(np.ascontiguousarray(t.real))
        ht_im.append(np.ascontiguousarray(t.imag))
    return SimpleNamespace(
        a1=first.real**2 + first.imag**2,
        ht_re=tuple(ht_re),
        ht_im=tuple(ht_im),
        sig2=np.asarray(sig2, dtype=np.float64),
    )


def ascending(values, mask):
    """``sum_m values[..., m] * mask[..., m, n]``, added in ascending m."""
    terms = np.where(mask, values[..., :, None], 0.0)
    total = terms[..., 0, :]
    for m in range(1, terms.shape[-2]):
        total = total + terms[..., m, :]
    return total


def ref_rate_pass(topology, ops, p, dp=None):
    nmsg = topology.end_users
    eye = np.eye(nmsg, dtype=bool)
    phi = p[:, -1, :]
    phi2 = phi * phi
    mask1 = (phi[:, :, None] <= phi[:, None, :]) & ~eye
    i1 = ascending(phi2, mask1)
    den1 = ops.a1[:, :, None] * i1[:, None, :] + ops.sig2[:, 0][:, None, None]
    u1 = ops.a1[:, :, None] * phi2[:, None, :] / den1
    rp = SimpleNamespace(
        phi=phi, mask1=mask1, i1=i1, rates=[np.log1p(u1) * INV_LN2],
        c_re=[None], c_im=[None], gains=[None], maskb=[None], ib=[None],
        dphi=None, di1=None, dc_re=[None], dc_im=[None], dgains=[None], dib=[None],
    )
    if dp is not None:
        rp.dphi = dp[:, -1, :]
        rp.di1 = ascending(2.0 * phi * rp.dphi, mask1)
    for hop in range(2, topology.num_hops + 1):
        j = hop - 2
        rows = topology.block_rows(hop - 1)
        cr = ops.ht_re[j] @ p[:, rows, :]
        ci = ops.ht_im[j] @ p[:, rows, :]
        g = cr * cr + ci * ci
        mb = (g[:, :, :, None] <= g[:, :, None, :]) & ~eye
        ib = ascending(g, mb)
        denb = ib + ops.sig2[:, hop - 1][:, None, None]
        rp.rates.append(np.log1p(g / denb) * INV_LN2)
        rp.c_re.append(cr)
        rp.c_im.append(ci)
        rp.gains.append(g)
        rp.maskb.append(mb)
        rp.ib.append(ib)
        if dp is not None:
            dcr = ops.ht_re[j] @ dp[:, rows, :]
            dci = ops.ht_im[j] @ dp[:, rows, :]
            dg = 2.0 * (cr * dcr + ci * dci)
            rp.dc_re.append(dcr)
            rp.dc_im.append(dci)
            rp.dgains.append(dg)
            rp.dib.append(ascending(dg, mb))
        if hop == topology.num_hops:
            diag = np.diagonal(g, axis1=-2, axis2=-1)
            rp.elig = g >= diag[:, :, None]
    relay_mins = [rp.rates[r - 1].min(axis=-2) for r in range(1, topology.num_hops)]
    user_min = np.where(rp.elig, rp.rates[-1], np.inf).min(axis=-2)
    rp.message = np.minimum.reduce(relay_mins + [user_min])
    rp.q = rp.message.shape[0]
    return rp


def ref_select_binding(topology, rp, nstar):
    qi = np.arange(rp.q)
    relay_vals, relay_args = [], []
    for r in range(1, topology.num_hops):
        col = rp.rates[r - 1][qi, :, nstar]
        relay_vals.append(col.min(axis=-1))
        relay_args.append(col.argmin(axis=-1))
    rv, ra = np.stack(relay_vals), np.stack(relay_args)
    rhop = rv.argmin(axis=0)
    relay_v, relay_m = rv[rhop, qi], ra[rhop, qi]
    masked = np.where(rp.elig[qi, :, nstar], rp.rates[-1][qi, :, nstar], np.inf)
    use_relay = relay_v < masked.min(axis=-1)
    bind_hop = np.where(use_relay, rhop + 1, topology.num_hops)
    bind_node = np.where(use_relay, relay_m, masked.argmin(axis=-1))
    return bind_hop, bind_node


def loop_select_binding(topology, rp, nstar):
    """``engine.select_binding`` as a hop-by-hop loop on the batch-last
    pass: the relay minimum moves to a later hop only on a strict decrease,
    then the relay binds only if strictly below the end users' minimum."""
    flat = nstar * rp.q + np.arange(rp.q)
    nhops = topology.num_hops
    col = engine._column(rp.rates[0], flat)
    relay_v, relay_node = col.min(axis=0), col.argmin(axis=0)
    relay_hop = np.ones_like(relay_node)
    for r in range(2, nhops):
        col = engine._column(rp.rates[r - 1], flat)
        v = col.min(axis=0)
        lower = v < relay_v
        relay_v = np.where(lower, v, relay_v)
        relay_hop = np.where(lower, r, relay_hop)
        relay_node = np.where(lower, col.argmin(axis=0), relay_node)
    col = engine._column(rp.user_rates, flat)
    user_v, user_l = col.min(axis=0), col.argmin(axis=0)
    use_relay = relay_v < user_v
    return np.where(use_relay, relay_hop, nhops), np.where(use_relay, relay_node, user_l)


def ref_gradient_pass(topology, ops, rp):
    q = rp.q
    want_d = rp.dphi is not None
    nstar = rp.message.argmin(axis=-1)
    bind_hop, bind_node = ref_select_binding(topology, rp, nstar)
    grad = np.zeros((q, topology.stacked_rows, topology.end_users))
    dgrad = np.zeros_like(grad) if want_d else None
    for r in range(1, topology.num_hops + 1):
        sel = np.nonzero(bind_hop == r)[0]
        if sel.size == 0:
            continue
        node, n, si = bind_node[sel], nstar[sel], np.arange(sel.size)
        if r == 1:
            a = ops.a1[sel, node]
            s1 = ops.sig2[sel, 0]
            phi = rp.phi[sel]
            phin = phi[si, n]
            den = a * rp.i1[sel, n] + s1
            sig = a * phin * phin
            tot = sig + den
            maskrow = rp.mask1[sel, :, n]
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
                dg = np.where(maskrow, dw_int[:, None] * phi + w_int[:, None] * dphi, 0.0)
                dg[si, n] = (2.0 * INV_LN2) * a * (dphin - phin * dtot / tot) / tot
                dgrad[sel, -1, :] = dg
        else:
            j = r - 2
            rows = topology.block_rows(r - 1)
            hre = ops.ht_re[j][sel, node, :]
            him = ops.ht_im[j][sel, node, :]
            sb = ops.sig2[sel, r - 1]
            cr = rp.c_re[r - 1][sel, node, :]
            ci = rp.c_im[r - 1][sel, node, :]
            gn = rp.gains[r - 1][sel, node, :][si, n]
            den = rp.ib[r - 1][sel, node, n] + sb
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


def _ref_row_factors(x):
    positive = x > 0.0
    u = np.where(positive, x, 0.0)
    sumsq = np.sum(u * u, axis=-1, keepdims=True)
    norms = np.sqrt(sumsq)
    passthrough = np.abs(norms - 1.0) <= power.NORM_TOL
    inexact = (sumsq < np.finfo(np.float64).tiny) | (sumsq == np.inf)
    scale = None
    if np.any(inexact):
        peak = np.max(u, axis=-1, keepdims=True)
        scale = np.where(inexact & (peak > 0.0), peak, 1.0)
        u = u / scale
        norms = np.sqrt(np.sum(u * u, axis=-1, keepdims=True))
    degenerate = norms == 0.0
    safe = np.where(degenerate, 1.0, norms)
    return positive, u, scale, passthrough, degenerate, safe


def ref_project_with_tangent(x, dx=None):
    positive, u, scale, passthrough, degenerate, safe = _ref_row_factors(x)
    unit = u / safe
    out = np.where(passthrough, u, np.minimum(unit, 1.0))
    out = np.where(degenerate, 1.0 / np.sqrt(x.shape[-1]), out)
    if dx is None:
        return out, None
    du = np.where(positive, dx, 0.0)
    radial = np.sum(unit * du, axis=-1, keepdims=True)
    dout = np.where(passthrough, du, (du - unit * radial) / safe)
    if scale is not None:
        dout = dout / scale
    return out, np.where(degenerate, 0.0, dout)


def ref_project_adjoint(x, a):
    positive, u, scale, passthrough, _, safe = _ref_row_factors(x)
    unit = u / safe
    radial = np.sum(unit * a, axis=-1, keepdims=True)
    back = np.where(passthrough, a, (a - unit * radial) / safe)
    back = np.where(positive, back, 0.0)
    return back if scale is None else back / scale


def ref_iterate(topology, ops, p0, mu):
    p = np.array(p0, dtype=np.float64)
    for k in range(len(mu)):
        rp = ref_rate_pass(topology, ops, p)
        yield p, rp.message.min(axis=-1)
        grad = ref_gradient_pass(topology, ops, rp)[0]
        p = ref_project_with_tangent(p + mu[k] * grad)[0]
    yield p, ref_rate_pass(topology, ops, p).message.min(axis=-1)


def _ref_gap_min(values):
    with np.errstate(invalid="ignore"):
        gaps = np.diff(np.sort(values, axis=-1), axis=-1)
    nz = gaps[gaps > 0.0]
    return float(nz.min()) if nz.size else np.inf


def ref_pass_margin(topology, rp):
    margin = _ref_gap_min(rp.phi)
    for hop in range(2, topology.num_hops + 1):
        margin = min(margin, _ref_gap_min(rp.gains[hop - 1]))
    margin = min(margin, _ref_gap_min(rp.message))
    nstar = rp.message.argmin(axis=-1)
    qi = np.arange(rp.q)
    cols = [rp.rates[r - 1][qi, :, nstar] for r in range(1, topology.num_hops)]
    user = np.where(rp.elig[qi, :, nstar], rp.rates[-1][qi, :, nstar], np.inf)
    return min(margin, _ref_gap_min(np.concatenate(cols + [user], axis=-1)))


def ref_unrolled_loss(topology, opt_ops, loss_ops, p0, mu, weights):
    """Loss, gradient, iterate rates, final iterate and min margin."""
    steps = len(mu)
    p = np.array(p0, dtype=np.float64)
    q = p.shape[0]
    same = opt_ops is loss_ops
    loss = 0.0
    rates = np.empty((steps + 1, q))
    margin = np.inf
    ps, gs, xs, loss_grads = [], [], [], []
    for k in range(steps):
        rp = ref_rate_pass(topology, opt_ops, p)
        rp_loss = rp if same else ref_rate_pass(topology, loss_ops, p)
        rates[k] = rp_loss.message.min(axis=-1)
        if k >= 1:
            loss -= weights[k - 1] * rates[k].mean()
        margin = min(margin, ref_pass_margin(topology, rp))
        grad = ref_gradient_pass(topology, opt_ops, rp)[0]
        x = p + mu[k] * grad
        nz = x[x != 0.0]
        if nz.size:
            margin = min(margin, float(np.abs(nz).min()))
        if k >= 1:
            loss_grads.append(grad if same else ref_gradient_pass(topology, loss_ops, rp_loss)[0])
        ps.append(p)
        gs.append(grad)
        xs.append(x)
        p = ref_project_with_tangent(x)[0]
    rp_loss = ref_rate_pass(topology, loss_ops, p)
    rates[steps] = rp_loss.message.min(axis=-1)
    loss -= weights[steps - 1] * rates[steps].mean()
    if same:
        margin = min(margin, ref_pass_margin(topology, rp_loss))
    dloss = np.empty(steps)
    lam = -(weights[steps - 1] / q) * ref_gradient_pass(topology, loss_ops, rp_loss)[0]
    for k in range(steps - 1, -1, -1):
        v = ref_project_adjoint(xs[k], lam)
        dloss[k] = np.sum(gs[k] * v)
        if k == 0:
            break
        hv = ref_gradient_pass(topology, opt_ops, ref_rate_pass(topology, opt_ops, ps[k], dp=v))[1]
        lam = -(weights[k - 1] / q) * loss_grads[k - 1] + v + mu[k] * hv
    return float(loss), dloss, rates, p, float(margin)


# --- inputs ----------------------------------------------------------------


def _entries(topology, count, seed):
    rng = np.random.default_rng(seed)
    noise = mo.NoiseProfile((1.0,) * topology.num_hops)
    return [(mo.sample_channel(topology, 1.0, rng), noise) for _ in range(count)]


def _both_operands(channels, noise_rows):
    first, later = engine.stack_channels(list(channels))
    sig2 = np.asarray(noise_rows, dtype=np.float64)
    return engine.prepare_operands(first, later, sig2), ref_operands(first, later, sig2)


def _starts(topology, count, seed):
    """Random feasible starts, with tied (uniform) rows in every third start
    and, in the second start, a source row whose only positive entry is
    1e-170: its squares underflow, so the first step rescales that row."""
    rng = np.random.default_rng(seed)
    starts = np.stack([mo.random_init(topology, rng) for _ in range(count)])
    starts[::3, ::2] = 1.0 / np.sqrt(topology.end_users)
    starts[1, -1] = 0.0
    starts[1, -1, -1] = 1e-170
    return starts


def _assert_same(new, ref):
    assert np.array_equal(new, ref), np.max(np.abs(np.asarray(new) - np.asarray(ref)))


# --- tests -----------------------------------------------------------------


def _unprojected_starts(topology, count, seed):
    """Starts that no projection made: random feasible rows with -0.0 in
    place of some zeros, rows within the norm tolerance of the sphere, and
    rows off it.  Only a step that re-projects every row maps them all onto
    projection outputs."""
    starts = _starts(topology, count, seed)
    starts[0, :, 0] = -0.0
    starts[1, 0] = -0.0
    starts[1, 0, -1] = 1.0
    starts[2] *= 1.0 + 4e-10
    starts[3] *= 2.0
    starts[4, -1] = np.linspace(-0.5, 0.5, topology.end_users)
    return starts


def dense_iterate(topology, ops, p0, mu):
    """``iterate_schedule`` as a fresh rate pass and a dense gradient at
    every iterate, with every row re-projected: the engine's own kernels,
    so NaN rates bind as in the engine."""
    p = engine.batch_last(np.asarray(p0, dtype=np.float64))
    for k in range(len(mu)):
        rp = engine.rate_pass(topology, ops, p)
        yield engine.batch_first(p), rp.message.min(axis=0)
        p = engine.project_with_tangent(p + mu[k] * engine.gradient_pass(topology, ops, rp)[0])[0]
    yield engine.batch_first(p), engine.rate_pass(topology, ops, p).message.min(axis=0)


def _patch_nan_projection(monkeypatch):
    """Make the engine's projection give a NaN row wherever x holds an entry
    above 1e300, as a row holding +inf does; it still acts on each row
    alone."""
    project = engine.project_with_tangent

    def patched(x, dx=None):
        out, second = project(x, dx)
        return np.where((x > 1e300).any(axis=-2, keepdims=True), np.nan, out), second

    monkeypatch.setattr(engine, "project_with_tangent", patched)


def _assert_same_bits(new, ref):
    """Equal values, NaN where NaN, and equal signs of zeros."""
    new, ref = np.asarray(new), np.asarray(ref)
    assert np.array_equal(new, ref, equal_nan=True)
    zeros = ref == 0.0
    assert np.array_equal(np.signbit(new[zeros]), np.signbit(ref[zeros]))


ITERATE_INPUTS = ["batch", "single", "one_start", "uniform", "zero_noise", "unprojected", "nan"]


@pytest.mark.parametrize("case", ITERATE_INPUTS)
@pytest.mark.parametrize("hop_sizes", TOPOLOGIES)
def test_iterate_schedule_matches_reference(monkeypatch, hop_sizes, case):
    # The block-local steps against references that re-project every row
    # and recompute every hop at every step: the engine's kernels stepping
    # densely, and the batch-first reference wherever no rate is NaN (it
    # binds NaN rates by other rules).
    # "one_start": one start over nine channels, as a stride-0 stack.
    # "uniform": small constant steps from uniform starts, where the relay
    # blocks of most elements stay still for long stretches of steps.
    # "zero_noise": rates hold NaN once a coefficient reaches 0.
    # "unprojected": starts holding -0.0 and rows no projection made, which
    # only a full first step maps onto projection outputs.
    # "nan": two huge steps, with a projection patched to give NaN rows
    # where x is huge, put NaN in projection outputs, so the steps after
    # them must be full.
    topology = mo.Topology(hop_sizes)
    entries = _entries(topology, 9, seed=[71, len(hop_sizes), hop_sizes[-1]])
    noise_rows = [n.hop_noise_vars for _, n in entries]
    if case == "single":
        entries, noise_rows = entries[1:2], noise_rows[1:2]
    if case == "zero_noise":
        noise_rows = np.zeros_like(noise_rows)
    ops, ref_ops = _both_operands([ch for ch, _ in entries], noise_rows)
    mu = np.random.default_rng(3).uniform(0.01, 1.0, 300)
    p0 = _starts(topology, 9, seed=7)
    if case == "single":
        p0 = p0[1:2]
    elif case == "one_start":
        p0 = np.broadcast_to(p0[1:2], p0.shape)
    elif case == "uniform":
        p0 = np.stack([power.uniform_init(topology)] * 9)
        mu = np.full(300, mo.FIXED_STEP)
    elif case == "unprojected":
        p0 = _unprojected_starts(topology, 9, seed=7)
    elif case == "nan":
        mu = mu[:60]
        mu[[3, 30]] = 1e303
        _patch_nan_projection(monkeypatch)
    saw_nan = False
    with np.errstate(all="ignore"):
        refs = [dense_iterate(topology, ops, p0, mu)]
        if case not in ("zero_noise", "nan"):
            refs.append(ref_iterate(topology, ref_ops, p0, mu))
        for k, (got, *expected) in enumerate(
            zip(engine.iterate_schedule(topology, ops, p0, mu), *refs)
        ):
            for want in expected:
                _assert_same_bits(got[0], want[0])
                _assert_same_bits(got[1], want[1])
            saw_nan |= bool(np.isnan(got[0]).any())
    assert k == len(mu)
    assert saw_nan == (case == "nan")


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("one_channel", [False, True], ids=["channels", "broadcast"])
@pytest.mark.parametrize("hop_sizes", [(2, 2, 2), (2, 9)])
def test_iterate_schedule_recomputes_exactly_the_bound_columns(monkeypatch, hop_sizes, one_channel):
    # Steps 0 and 6 are full: step 0 always, step 6 because the huge step 5
    # puts NaN in projection outputs (through a patched projection).  After
    # a full step every relay-fed hop is recomputed on every column; after
    # any other step, hop b on exactly the columns that bound at hop b,
    # which on (2, 9) include one-column subsets summing nine end users'
    # interference.  Every pass reads kept relay arrays and an end-user
    # table equal to fresh ones bit for bit.  "broadcast" runs one channel
    # over every start, its operands widened by stride-0 views.
    topology = mo.Topology(hop_sizes)
    q = 6
    entries = _entries(topology, 1 if one_channel else q, seed=[76, len(hop_sizes)])
    ops = engine.operands_from([ch for ch, _ in entries], entries[0][1], repeat=q // len(entries))
    assert one_channel == (ops.ht[-1].strides[0] == 0)  # views of one channel
    p0 = _starts(topology, q, seed=11)
    mu = np.random.default_rng(12).uniform(0.05, 1.0, 40)
    mu[5] = 1e303
    _patch_nan_projection(monkeypatch)
    relay_hop, select_binding = engine._relay_hop, engine.select_binding
    pass_from = engine._pass_from
    calls, bound, checking = [], [], []

    def spy_relay_hop(ops, hop, block, cols=None):
        if not checking:
            calls[-1].append((hop, None if cols is None else cols.tolist()))
        return relay_hop(ops, hop, block, cols)

    def spy_select_binding(topology, rp, nstar):
        hop, node = select_binding(topology, rp, nstar)
        bound.append(hop)
        return hop, node

    def spy_pass_from(ops, p, relay, users):
        checking.append(True)
        fresh = engine._relay_hops(topology, ops, p)
        checking.clear()
        assert all(_same_bits(kept, new) for kept, new in zip(relay, fresh))
        fresh_users = engine._end_users(*engine._hop_views(fresh[-1])[2::2])
        assert all(_same_bits(kept, new) for kept, new in zip(users, fresh_users))
        calls.append([])
        return pass_from(ops, p, relay, users)

    monkeypatch.setattr(engine, "_relay_hop", spy_relay_hop)
    monkeypatch.setattr(engine, "select_binding", spy_select_binding)
    monkeypatch.setattr(engine, "_pass_from", spy_pass_from)
    calls.append([])
    with np.errstate(all="ignore"):
        iterates = [p for p, _ in engine.iterate_schedule(topology, ops, p0, mu)]
    relay_hops = range(2, topology.num_hops + 1)
    every = [(hop, None) for hop in relay_hops]
    assert calls[0] == every  # the starting pass
    nan_after = [k for k, p in enumerate(iterates) if np.isnan(p).any()]
    assert nan_after[0] == 6
    subsets = []
    for k in range(len(mu)):
        if k == 0 or k in nan_after:
            expected = every
        else:
            expected = [(hop, (bound[k] == hop).nonzero()[0].tolist())
                        for hop in relay_hops if (bound[k] == hop).any()]
            subsets += [cols for _, cols in expected]
        assert calls[k + 1] == expected, k
    assert any(len(cols) == 1 for cols in subsets)
    assert any(1 < len(cols) < q for cols in subsets)


def _check_unrolled_loss(hop_sizes, noisy, pick):
    topology = mo.Topology(hop_sizes)
    entries = _entries(topology, 8, seed=[72, len(hop_sizes), hop_sizes[-1]])[pick]
    noise_rows = [n.hop_noise_vars for _, n in entries]
    truth = drive = [ch for ch, _ in entries]
    loss_ops, ref_loss_ops = _both_operands(truth, noise_rows)
    opt_ops, ref_opt_ops = loss_ops, ref_loss_ops
    if noisy:
        drive = mo.lmmse_estimates(
            truth, [n for _, n in entries],
            [np.random.default_rng([9, i]) for i in range(len(entries))],
        )
        opt_ops, ref_opt_ops = _both_operands(drive, noise_rows)
    p0 = _starts(topology, 8, seed=8)[pick]
    mu = np.random.default_rng(4).uniform(0.02, 0.5, 12)
    weights = iteration_weights(len(mu))
    result = engine.unrolled_loss(topology, opt_ops, loss_ops, p0, mu, weights, want_grad=True)
    loss, grad, rates, final, margin = ref_unrolled_loss(
        topology, ref_opt_ops, ref_loss_ops, p0, mu, weights
    )
    assert result.loss == loss
    _assert_same(result.grad, grad)
    _assert_same(result.iterate_rates, rates)
    _assert_same(result.final, final)
    # the margin the step-size gradient tests compute from public calls
    assert unrolled_min_margin(drive, truth, entries[0][1], p0, mu) == margin


@pytest.mark.parametrize("noisy", [False, True], ids=["full", "noisy"])
@pytest.mark.parametrize("hop_sizes", TOPOLOGIES)
def test_unrolled_loss_matches_reference(hop_sizes, noisy):
    _check_unrolled_loss(hop_sizes, noisy, slice(None))


@pytest.mark.parametrize("noisy", [False, True], ids=["full", "noisy"])
@pytest.mark.parametrize("hop_sizes", [(3, 3), (1, 2, 9)])
def test_single_element_unrolled_loss_matches_reference(hop_sizes, noisy):
    # One element per binding branch: with nine end users a plain reduction
    # over that one column would add the tangent's interference terms
    # pairwise (noisy 1x1x2x9 shows it).
    _check_unrolled_loss(hop_sizes, noisy, slice(0, 1))


def _start_batch_calls(topology, count):
    """``iterate_schedule`` and ``unrolled_loss`` from ``count`` starts on
    the operands of two channels, and ``unrolled_loss`` scoring them on
    three."""
    entries = _entries(topology, 3, seed=[77, count])
    two = engine.operands_from([ch for ch, _ in entries[:2]], entries[0][1])
    three = engine.operands_from([ch for ch, _ in entries], entries[0][1])
    p0 = np.broadcast_to(
        power.uniform_init(topology), (count, topology.stacked_rows, topology.end_users)
    )
    mu = np.array([0.1])
    return [
        lambda: engine.iterate_schedule(topology, two, p0, mu),
        lambda: engine.unrolled_loss(topology, two, two, p0, mu, iteration_weights(1)),
        lambda: engine.unrolled_loss(topology, two, three, p0, mu, iteration_weights(1)),
    ]


def test_empty_start_batch_is_refused():
    for call in _start_batch_calls(mo.Topology((2, 2)), 0):
        with pytest.raises(ValueError, match="at least one start"):
            call()


def test_start_batch_of_another_width_is_refused():
    # One start is not widened to the operands' two columns, and starts as
    # wide as the driving operands are not scored on wider loss operands.
    one, two = (_start_batch_calls(mo.Topology((2, 2)), count) for count in (1, 2))
    for call in one[:2]:
        with pytest.raises(ValueError, match="1 starts for operands 2 columns wide"):
            call()
    with pytest.raises(ValueError, match="2 starts for operands 3 columns wide"):
        two[2]()


@pytest.mark.parametrize("hop_sizes, chunk", [
    pytest.param((2, 2), None, id="hop_sizes0"),
    pytest.param((1, 2, 2), None, id="hop_sizes1"),
    # Both relay blocks (101^2 points) and the source row span many 7-column
    # chunks and end on a partial one.
    pytest.param((2, 2, 2), 7, id="hop_sizes2-chunk7"),
])
def test_grid_chunk_matches_reference(hop_sizes, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(gridsearch, "_CHUNK", chunk)
    topology = mo.Topology(hop_sizes)
    channel = mo.sample_channel(topology, 1.0, np.random.default_rng(5))
    noise = mo.NoiseProfile((1.0,) * topology.num_hops)
    ops = engine.operands_from([channel], noise, repeat=gridsearch._CHUNK)
    ref_ops = ref_operands(
        channel.first_hop[None], tuple(m[None] for m in channel.later_hops),
        np.asarray(noise.hop_noise_vars)[None],
    )
    axis = np.linspace(0.0, 1.0, 101)
    grid = np.stack([axis, np.sqrt(1.0 - axis * axis)], axis=-1)
    for rows, hop in gridsearch._blocks(topology):
        values = gridsearch._block_values(topology, ops, grid, rows, hop)
        shape = values.shape
        combo = np.array(np.unravel_index(np.arange(values.size), shape)).T
        p = np.broadcast_to(grid[0], (values.size, topology.stacked_rows, 2)).copy()
        p[:, rows] = grid[combo]
        rp = ref_rate_pass(topology, ref_ops, p)
        hop_rates = rp.rates[hop - 1]
        if hop == topology.num_hops:
            hop_rates = np.where(rp.elig, hop_rates, np.inf)
        _assert_same(values, hop_rates.min(axis=(-2, -1)).reshape(shape))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 9, 17, 130])
def test_projection_matches_reference(n):
    rng = np.random.default_rng([6, n])
    rows = 40
    x = rng.normal(size=(rows, n))
    x[0] = 1.0 / np.sqrt(n)                # tied, passes through
    x[1] = 0.0                             # degenerate
    x[2] = -np.abs(x[2])                   # degenerate after clamping
    x[3] = np.abs(x[3]) * 1e-170           # squares underflow: rescaled
    x[4] = 0.0
    x[4, -1] = 2.2e-313                    # only positive entry is subnormal
    x[5] = np.abs(x[5]) * 1e200            # squares overflow: rescaled
    x[6] = rng.integers(0, 3, n) * 0.25    # repeated values
    dx = rng.normal(size=(rows, n))
    a = rng.normal(size=(rows, n))
    with np.errstate(over="ignore"):
        ref_out, ref_tangent = ref_project_with_tangent(x, dx)
        ref_back = ref_project_adjoint(x, a)
        # the rows as a batch, (N, rows)
        out, tangent = power.project_with_tangent(x.T, dx.T)
        back = power.project_adjoint(x.T, a.T)
    _assert_same(out.T, ref_out)
    _assert_same(tangent.T, ref_tangent)
    _assert_same(back.T, ref_back)
    # and as one matrix, (rows, N, 1)
    with np.errstate(over="ignore"):
        out_m, tangent_m = power.project_with_tangent(x[..., None], dx[..., None])
    _assert_same(out_m[..., 0], ref_out)
    _assert_same(tangent_m[..., 0], ref_tangent)
    _assert_same(mo.project(x), ref_out)


@pytest.mark.parametrize("drive", ["full", "mixed"])
@pytest.mark.parametrize("hop_sizes", [(2, 2), (3, 3), (1, 2, 2)])
def test_grouped_unrolled_loss_matches_separate_calls(hop_sizes, drive):
    # Four schedules on four contiguous groups of one batch, the second and
    # fourth driven by estimated CSI in the mixed case, where half of the
    # fourth group's estimates equal the truth bit for bit: each group's
    # loss, gradient, iterate rates and final iterate equal a call on that
    # group alone, and the joint margin is the smallest of the groups'.
    topology = mo.Topology(hop_sizes)
    groups, size, steps = 4, 4, 10
    entries = _entries(topology, groups * size, seed=[73, len(hop_sizes), hop_sizes[-1]])
    noise_rows = np.array([n.hop_noise_vars for _, n in entries])
    truth = [ch for ch, _ in entries]
    estimates = mo.lmmse_estimates(
        truth, [n for _, n in entries],
        [np.random.default_rng([10, i]) for i in range(len(entries))],
    )
    for i in range(3 * size, groups * size, 2):
        estimates[i] = mo.ChannelRealization(
            first_hop=truth[i].first_hop.copy(),
            later_hops=tuple(m.copy() for m in truth[i].later_hops),
        )
    noisy = [False, drive == "mixed", False, drive == "mixed"]

    def operands(channels, block):
        first, later = engine.stack_channels(channels[block])
        return engine.prepare_operands(first, later, noise_rows[block])

    everything = slice(None)
    loss_ops = operands(truth, everything)
    drive_channels = [
        est if noisy[i // size] else ch for i, (ch, est) in enumerate(zip(truth, estimates))
    ]
    opt_ops = operands(drive_channels, everything) if any(noisy) else loss_ops
    p0 = _starts(topology, groups * size, seed=9)
    mu = np.random.default_rng(5).uniform(0.02, 0.5, (groups, steps))
    weights = iteration_weights(steps)
    joint = engine.unrolled_loss(topology, opt_ops, loss_ops, p0, mu, weights)
    assert joint.loss.shape == (groups,)
    assert joint.grad.shape == (groups, steps)
    for s in range(groups):
        block = slice(s * size, (s + 1) * size)
        own_loss = operands(truth, block)
        own_opt = operands(estimates, block) if noisy[s] else own_loss
        alone = engine.unrolled_loss(topology, own_opt, own_loss, p0[block], mu[s], weights)
        assert joint.loss[s] == alone.loss
        _assert_same(joint.grad[s], alone.grad)
        _assert_same(joint.iterate_rates[:, block], alone.iterate_rates)
        _assert_same(joint.final[block], alone.final)
    with pytest.raises(ValueError, match="equal groups"):
        engine.unrolled_loss(topology, loss_ops, loss_ops, p0, np.full((5, steps), 0.1), weights)


def test_unrolled_loss_makes_one_rate_pass_per_step(monkeypatch):
    # A full-CSI group and a noisy group whose first estimate equals the
    # truth: each of the K steps makes one pass over the driving columns and
    # the noisy group's other loss columns, the last iterate one over the
    # loss columns, and the backward sweep makes none.
    topology = mo.Topology((3, 3))
    size, steps = 5, 7
    entries = _entries(topology, size, seed=74)
    truth = [ch for ch, _ in entries]
    estimates = mo.lmmse_estimates(
        truth, [n for _, n in entries], [np.random.default_rng([11, i]) for i in range(size)]
    )
    estimates[0] = truth[0]
    noise_rows = [n.hop_noise_vars for _, n in entries] * 2
    loss_ops = _both_operands(truth * 2, noise_rows)[0]
    opt_ops = _both_operands(truth + estimates, noise_rows)[0]
    events = []
    rate_pass, project_adjoint = engine.rate_pass, engine.project_adjoint

    def counted_rate_pass(topology, ops, p):
        events.append(("rate_pass", p.shape[-1]))
        return rate_pass(topology, ops, p)

    def marked_adjoint(x, lam):
        events.append(("adjoint", None))
        return project_adjoint(x, lam)

    monkeypatch.setattr(engine, "rate_pass", counted_rate_pass)
    monkeypatch.setattr(engine, "project_adjoint", marked_adjoint)
    mu = np.random.default_rng(6).uniform(0.02, 0.5, (2, steps))
    p0 = _starts(topology, 2 * size, seed=10)
    result = engine.unrolled_loss(topology, opt_ops, loss_ops, p0, mu, iteration_weights(steps))
    assert result.grad.shape == (2, steps)
    widths = [width for name, width in events if name == "rate_pass"]
    assert widths == [2 * size + size - 1] * steps + [2 * size]
    backward = events[events.index(("adjoint", None)):]
    assert all(name == "adjoint" for name, _ in backward)
    # Without the step-size gradient, each step still makes one gradient
    # pass over the whole pass batch, and the backward sweep none; the
    # results are those of the call with it.
    widths = []
    gradient_pass = engine.gradient_pass

    def counted_gradient_pass(topology, ops, rp, columns=None):
        widths.append(rp.q)
        return gradient_pass(topology, ops, rp, columns)

    monkeypatch.setattr(engine, "gradient_pass", counted_gradient_pass)
    plain = engine.unrolled_loss(
        topology, opt_ops, loss_ops, p0, mu, iteration_weights(steps), want_grad=False
    )
    assert widths == [2 * size + size - 1] * steps
    assert plain.grad is None
    _assert_same(plain.loss, result.loss)
    _assert_same(plain.iterate_rates, result.iterate_rates)
    _assert_same(plain.final, result.final)


# --- the binding table against the hop-by-hop loop --------------------------


def _coarse_pass(hop_sizes, seed, q=60):
    """A rate pass whose constraint values are rounded to a coarse grid, so
    that users, relays, hops and nodes tie often, with the message rates
    recomputed from them; the coefficients and gains stay those of the
    pass, so every branch's gradient is defined."""
    topology = mo.Topology(hop_sizes)
    entries = _entries(topology, q, seed=[75, seed])
    ops = engine.operands_from([ch for ch, _ in entries], entries[0][1])
    p = engine.batch_last(_starts(topology, q, seed=seed))
    rp = engine.rate_pass(topology, ops, p)
    rp.rates = [np.round(r * 4.0) / 4.0 for r in rp.rates]
    rp.user_rates = np.where(np.isinf(rp.user_rates), np.inf, np.round(rp.user_rates * 4.0) / 4.0)
    return topology, ops, rp


def _remessage(topology, rp):
    rp.message = np.minimum.reduce(
        [rp.user_rates.min(axis=0)] + [r.min(axis=0) for r in rp.rates[:-1]]
    )


def _check_binding(monkeypatch, topology, ops, rp):
    nstar = rp.message.argmin(axis=0)
    hop, node = engine.select_binding(topology, rp, nstar)
    ref_hop, ref_node = loop_select_binding(topology, rp, nstar)
    assert np.array_equal(hop, ref_hop)
    assert np.array_equal(node, ref_node)
    with np.errstate(invalid="ignore"):
        grad = engine.gradient_pass(topology, ops, rp)[0]
        monkeypatch.setattr(engine, "select_binding", loop_select_binding)
        ref_grad = engine.gradient_pass(topology, ops, rp)[0]
    monkeypatch.undo()
    assert np.array_equal(grad, ref_grad, equal_nan=True)
    return hop, node


@pytest.mark.parametrize("hop_sizes", [(2, 2), (3, 3), (1, 2, 2), (2, 2, 2), (2, 3, 4), (2, 9)])
def test_select_binding_matches_loop_on_random_passes(hop_sizes):
    topology = mo.Topology(hop_sizes)
    entries = _entries(topology, 50, seed=[76, len(hop_sizes)])
    ops = engine.operands_from([ch for ch, _ in entries], entries[0][1])
    p = engine.batch_last(_starts(topology, 50, seed=11))
    rp = engine.rate_pass(topology, ops, p)
    rng = np.random.default_rng(12)
    for nstar in (rp.message.argmin(axis=0), rng.integers(0, topology.end_users, 50)):
        hop, node = engine.select_binding(topology, rp, nstar)
        ref_hop, ref_node = loop_select_binding(topology, rp, nstar)
        assert np.array_equal(hop, ref_hop)
        assert np.array_equal(node, ref_node)


@pytest.mark.parametrize("hop_sizes", [(2, 2), (3, 3), (1, 2, 2), (2, 2, 2), (2, 3, 4)])
def test_select_binding_matches_loop_on_coarse_passes(monkeypatch, hop_sizes):
    topology, ops, rp = _coarse_pass(hop_sizes, seed=13)
    _remessage(topology, rp)
    hop, _ = _check_binding(monkeypatch, topology, ops, rp)
    # an end user tied with a relay node, and won
    nstar = rp.message.argmin(axis=0)
    flat = nstar * rp.q + np.arange(rp.q)
    relay_best = np.minimum.reduce([engine._column(r, flat).min(axis=0) for r in rp.rates[:-1]])
    assert np.any((hop == topology.num_hops) & (relay_best == rp.message[nstar, np.arange(rp.q)]))


@pytest.mark.parametrize("hop_sizes", [(3, 3), (2, 2, 2)])
def test_select_binding_matches_loop_on_exact_ties(monkeypatch, hop_sizes):
    # Every constraint of every message equal, so an end user binds in
    # element 0; the end users raised in the others, so the first node of
    # hop 1 binds in element 1; hop 1 raised to the end users in element 2,
    # so the end user beats hop 1, unless hop 2 is lower; and all but the
    # first node of hop 1 lowered in element 3, so the second node binds.
    topology, ops, rp = _coarse_pass(hop_sizes, seed=14, q=6)
    finite = np.isfinite(rp.user_rates)
    for r in rp.rates:
        r[...] = 0.5
    rp.user_rates = np.where(finite, 0.5, np.inf)
    rp.user_rates[..., 1:] = np.where(finite[..., 1:], 0.75, np.inf)
    rp.rates[0][..., 2] = 0.75
    rp.rates[0][1:, :, 3] = 0.25
    _remessage(topology, rp)
    hop, node = _check_binding(monkeypatch, topology, ops, rp)
    assert np.all(rp.message.argmin(axis=0) == 0)
    assert (hop[0], node[0]) == (topology.num_hops, finite[:, 0, 0].argmax())
    assert (hop[1], node[1]) == (1, 0)
    if topology.num_hops > 2:
        assert (hop[2], node[2]) == (2, 0)
    else:
        assert (hop[2], node[2]) == (topology.num_hops, finite[:, 0, 2].argmax())
    assert (hop[3], node[3]) == (1, 1)


@pytest.mark.parametrize("hop_sizes", [(3, 3), (2, 2, 2)])
def test_select_binding_matches_loop_on_inf_and_nan(monkeypatch, hop_sizes):
    topology, ops, rp = _coarse_pass(hop_sizes, seed=15, q=12)
    # element 0: no end user need decode any message
    rp.user_rates[..., 0] = np.inf
    # a NaN at an end user, at a node of hop 1 and, with three hops, of hop 2
    rp.user_rates[1, :, 1] = np.nan
    rp.rates[0][1, :, 2] = np.nan
    rp.rates[0][0, 0, 3] = np.nan
    if topology.num_hops > 2:
        rp.rates[1][1, :, 4] = np.nan
        rp.rates[1][0, 0, 5] = np.nan
        rp.rates[0][..., 5] = 0.0
    _remessage(topology, rp)
    _check_binding(monkeypatch, topology, ops, rp)


# --- kept projection factors -----------------------------------------------


def test_adjoint_from_kept_factors_equals_fresh_adjoint():
    rng = np.random.default_rng(16)
    rows, n = 12, 5
    x = rng.normal(size=(rows, n))
    x[0] = 1.0 / np.sqrt(n)                # passes through
    x[1] = 0.0                             # degenerate
    x[2] = -np.abs(x[2])                   # degenerate after clamping
    x[3] = np.abs(x[3]) * 1e-170           # squares underflow: rescaled
    x[4] = 0.0
    x[4, -1] = 2.2e-313                    # only positive entry is subnormal
    x[5] = np.abs(x[5]) * 1e200            # squares overflow: rescaled
    a = rng.normal(size=(rows, n))
    a[6] = -0.0
    for batch in (x.T, x[..., None]):      # the rows as a batch, and as one matrix
        cot = a.T if batch.ndim == 2 else a[..., None]
        with np.errstate(over="ignore"):
            out, kept = power.project_with_tangent(batch)
            fresh = power.project_adjoint(batch, cot)
            out_t, _ = power.project_with_tangent(batch, cot)
        assert isinstance(kept, power.RowFactors)
        assert out.tobytes() == out_t.tobytes()
        assert power.project_adjoint(kept, cot).tobytes() == fresh.tobytes()


def test_backward_sweep_recomputes_no_row_factors(monkeypatch):
    topology = mo.Topology((3, 3))
    entries = _entries(topology, 6, seed=77)
    ops = engine.operands_from([ch for ch, _ in entries], entries[0][1])
    p0 = _starts(topology, 6, seed=12)
    events = []
    row_factors, project_adjoint = power._row_factors, engine.project_adjoint

    def counted_row_factors(x):
        events.append("row_factors")
        return row_factors(x)

    def marked_adjoint(x, lam):
        events.append("adjoint")
        return project_adjoint(x, lam)

    monkeypatch.setattr(power, "_row_factors", counted_row_factors)
    monkeypatch.setattr(engine, "project_adjoint", marked_adjoint)
    steps = 5
    mu = np.full(steps, 0.2)
    engine.unrolled_loss(topology, ops, ops, p0, mu, iteration_weights(steps))
    assert events.count("row_factors") == steps
    assert events[events.index("adjoint"):] == ["adjoint"] * steps
