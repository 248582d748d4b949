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
from manetopt.training import _estimate_entries, iteration_weights

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


def ref_rate_pass(net, ops, p, dp=None):
    nmsg = net.end_users
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
    for hop in range(2, net.num_hops + 1):
        j = hop - 2
        rows = net.block(hop - 1)
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
        if hop == net.num_hops:
            diag = np.diagonal(g, axis1=-2, axis2=-1)
            rp.elig = g >= diag[:, :, None]
    relay_mins = [rp.rates[r - 1].min(axis=-2) for r in range(1, net.num_hops)]
    user_min = np.where(rp.elig, rp.rates[-1], np.inf).min(axis=-2)
    rp.message = np.minimum.reduce(relay_mins + [user_min])
    rp.q = rp.message.shape[0]
    return rp


def _full(arr, q):
    return arr if arr.shape[0] == q else np.broadcast_to(arr, (q,) + arr.shape[1:])


def ref_select_binding(net, rp, nstar):
    qi = np.arange(rp.q)
    relay_vals, relay_args = [], []
    for r in range(1, net.num_hops):
        col = rp.rates[r - 1][qi, :, nstar]
        relay_vals.append(col.min(axis=-1))
        relay_args.append(col.argmin(axis=-1))
    rv, ra = np.stack(relay_vals), np.stack(relay_args)
    rhop = rv.argmin(axis=0)
    relay_v, relay_m = rv[rhop, qi], ra[rhop, qi]
    masked = np.where(rp.elig[qi, :, nstar], rp.rates[-1][qi, :, nstar], np.inf)
    use_relay = relay_v < masked.min(axis=-1)
    bind_hop = np.where(use_relay, rhop + 1, net.num_hops)
    bind_node = np.where(use_relay, relay_m, masked.argmin(axis=-1))
    return bind_hop, bind_node


def ref_gradient_pass(net, ops, rp):
    q = rp.q
    want_d = rp.dphi is not None
    nstar = rp.message.argmin(axis=-1)
    bind_hop, bind_node = ref_select_binding(net, rp, nstar)
    grad = np.zeros((q, net.stacked_rows, net.end_users))
    dgrad = np.zeros_like(grad) if want_d else None
    for r in range(1, net.num_hops + 1):
        sel = np.nonzero(bind_hop == r)[0]
        if sel.size == 0:
            continue
        node, n, si = bind_node[sel], nstar[sel], np.arange(sel.size)
        if r == 1:
            a = _full(ops.a1, q)[sel, node]
            s1 = _full(ops.sig2, q)[sel, 0]
            phi = _full(rp.phi, q)[sel]
            phin = phi[si, n]
            den = a * _full(rp.i1, q)[sel, n] + s1
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
                dg = np.where(maskrow, dw_int[:, None] * phi + w_int[:, None] * dphi, 0.0)
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


def ref_iterate(net, ops, p0, mu):
    p = np.array(p0, dtype=np.float64)
    for k in range(len(mu)):
        rp = ref_rate_pass(net, ops, p)
        yield p, rp.message.min(axis=-1)
        grad = ref_gradient_pass(net, ops, rp)[0]
        p = ref_project_with_tangent(p + mu[k] * grad)[0]
    yield p, ref_rate_pass(net, ops, p).message.min(axis=-1)


def _ref_gap_min(values):
    with np.errstate(invalid="ignore"):
        gaps = np.diff(np.sort(values, axis=-1), axis=-1)
    nz = gaps[gaps > 0.0]
    return float(nz.min()) if nz.size else np.inf


def ref_pass_margin(net, rp):
    margin = _ref_gap_min(rp.phi)
    for hop in range(2, net.num_hops + 1):
        margin = min(margin, _ref_gap_min(rp.gains[hop - 1]))
    margin = min(margin, _ref_gap_min(rp.message))
    nstar = rp.message.argmin(axis=-1)
    qi = np.arange(rp.q)
    cols = [rp.rates[r - 1][qi, :, nstar] for r in range(1, net.num_hops)]
    user = np.where(rp.elig[qi, :, nstar], rp.rates[-1][qi, :, nstar], np.inf)
    return min(margin, _ref_gap_min(np.concatenate(cols + [user], axis=-1)))


def ref_unrolled_loss(net, opt_ops, loss_ops, p0, mu, weights):
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
        rp = ref_rate_pass(net, opt_ops, p)
        rp_loss = rp if same else ref_rate_pass(net, loss_ops, p)
        rates[k] = rp_loss.message.min(axis=-1)
        if k >= 1:
            loss -= weights[k - 1] * rates[k].mean()
        margin = min(margin, ref_pass_margin(net, rp))
        grad = ref_gradient_pass(net, opt_ops, rp)[0]
        x = p + mu[k] * grad
        nz = x[x != 0.0]
        if nz.size:
            margin = min(margin, float(np.abs(nz).min()))
        if k >= 1:
            loss_grads.append(grad if same else ref_gradient_pass(net, loss_ops, rp_loss)[0])
        ps.append(p)
        gs.append(grad)
        xs.append(x)
        p = ref_project_with_tangent(x)[0]
    rp_loss = ref_rate_pass(net, loss_ops, p)
    rates[steps] = rp_loss.message.min(axis=-1)
    loss -= weights[steps - 1] * rates[steps].mean()
    if same:
        margin = min(margin, ref_pass_margin(net, rp_loss))
    dloss = np.empty(steps)
    lam = -(weights[steps - 1] / q) * ref_gradient_pass(net, loss_ops, rp_loss)[0]
    for k in range(steps - 1, -1, -1):
        v = ref_project_adjoint(xs[k], lam)
        dloss[k] = np.sum(gs[k] * v)
        if k == 0:
            break
        hv = ref_gradient_pass(net, opt_ops, ref_rate_pass(net, opt_ops, ps[k], dp=v))[1]
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


@pytest.mark.parametrize("pick", [slice(None), slice(1, 2)], ids=["batch", "single"])
@pytest.mark.parametrize("hop_sizes", TOPOLOGIES)
def test_iterate_schedule_matches_reference(hop_sizes, pick):
    topology = mo.Topology(hop_sizes)
    net = engine.net_index(topology)
    entries = _entries(topology, 9, seed=[71, len(hop_sizes), hop_sizes[-1]])[pick]
    ops, ref_ops = _both_operands(
        [ch for ch, _ in entries], [n.hop_noise_vars for _, n in entries]
    )
    p0 = _starts(topology, 9, seed=7)[pick]
    mu = np.random.default_rng(3).uniform(0.01, 1.0, 300)
    new = engine.iterate_schedule(net, ops, p0, mu)
    for k, ((p, rates), (p_ref, rates_ref)) in enumerate(
        zip(new, ref_iterate(net, ref_ops, p0, mu))
    ):
        _assert_same(p, p_ref)
        _assert_same(rates, rates_ref)
    assert k == len(mu)


@pytest.mark.parametrize("noisy", [False, True], ids=["full", "noisy"])
@pytest.mark.parametrize("hop_sizes", TOPOLOGIES)
def test_unrolled_loss_matches_reference(hop_sizes, noisy):
    topology = mo.Topology(hop_sizes)
    net = engine.net_index(topology)
    entries = _entries(topology, 8, seed=[72, len(hop_sizes), hop_sizes[-1]])
    noise_rows = [n.hop_noise_vars for _, n in entries]
    loss_ops, ref_loss_ops = _both_operands([ch for ch, _ in entries], noise_rows)
    opt_ops, ref_opt_ops = loss_ops, ref_loss_ops
    if noisy:
        estimates = _estimate_entries(
            entries, topology, 1.0, [np.random.default_rng([9, i]) for i in range(8)]
        )
        opt_ops, ref_opt_ops = _both_operands(estimates, noise_rows)
    p0 = _starts(topology, 8, seed=8)
    mu = np.random.default_rng(4).uniform(0.02, 0.5, 12)
    weights = iteration_weights(len(mu))
    result = engine.unrolled_loss(
        net, opt_ops, loss_ops, p0, mu, weights, want_grad=True, track_margins=True
    )
    loss, grad, rates, final, margin = ref_unrolled_loss(
        net, ref_opt_ops, ref_loss_ops, p0, mu, weights
    )
    assert result.loss == loss
    _assert_same(result.grad, grad)
    _assert_same(result.iterate_rates, rates)
    _assert_same(result.final, final)
    assert result.min_margin == margin


@pytest.mark.parametrize("hop_sizes", [(2, 2), (1, 2, 2)])
def test_grid_chunk_matches_reference(hop_sizes):
    topology = mo.Topology(hop_sizes)
    net = engine.net_index(topology)
    channel = mo.sample_channel(topology, 1.0, np.random.default_rng(5))
    noise = mo.NoiseProfile((1.0,) * topology.num_hops)
    ops = engine.operands_from(channel, noise)
    ref_ops = ref_operands(
        channel.first_hop[None], tuple(m[None] for m in channel.later_hops),
        np.asarray(noise.hop_noise_vars)[None],
    )
    axis = np.linspace(0.0, 1.0, 101)
    grid = np.stack([axis, np.sqrt(1.0 - axis * axis)], axis=-1)
    for rows, hop in gridsearch._blocks(topology):
        values = gridsearch._block_values(net, ops, grid, rows, hop)
        shape = values.shape
        combo = np.array(np.unravel_index(np.arange(values.size), shape)).T
        p = np.broadcast_to(grid[0], (values.size, net.stacked_rows, 2)).copy()
        p[:, rows] = grid[combo]
        rp = ref_rate_pass(net, ref_ops, p)
        hop_rates = rp.rates[hop - 1]
        if hop == net.num_hops:
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
    # Three schedules on three contiguous groups of one batch, the middle one
    # driven by estimated CSI in the mixed case: each group's loss, gradient,
    # iterate rates and final iterate equal a call on that group alone.
    topology = mo.Topology(hop_sizes)
    net = engine.net_index(topology)
    groups, size, steps = 3, 4, 10
    entries = _entries(topology, groups * size, seed=[73, len(hop_sizes), hop_sizes[-1]])
    noise_rows = np.array([n.hop_noise_vars for _, n in entries])
    truth = [ch for ch, _ in entries]
    estimates = _estimate_entries(
        entries, topology, 1.0, [np.random.default_rng([10, i]) for i in range(len(entries))]
    )
    noisy = [False, drive == "mixed", False]

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
    joint = engine.unrolled_loss(net, opt_ops, loss_ops, p0, mu, weights)
    assert joint.loss.shape == (groups,)
    assert joint.grad.shape == (groups, steps)
    for s in range(groups):
        block = slice(s * size, (s + 1) * size)
        own_loss = operands(truth, block)
        own_opt = operands(estimates, block) if noisy[s] else own_loss
        alone = engine.unrolled_loss(net, own_opt, own_loss, p0[block], mu[s], weights)
        assert joint.loss[s] == alone.loss
        _assert_same(joint.grad[s], alone.grad)
        _assert_same(joint.iterate_rates[:, block], alone.iterate_rates)
        _assert_same(joint.final[block], alone.final)
    with pytest.raises(ValueError, match="equal groups"):
        engine.unrolled_loss(net, loss_ops, loss_ops, p0, np.full((5, steps), 0.1), weights)
