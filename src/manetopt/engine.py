"""Vectorized rate, gradient and unrolled-optimizer kernels.

Internal module.  Every kernel works on one batch axis ``q``.  A batch is a
sequence of q channels and an equal-length stack of q power matrices, and
every ``ChannelOperands`` array is exactly q columns wide.

Layout: the batch axis is the last axis of every kernel array.  A batch of
power matrices is ``(stacked_rows, N, q)``, a rate table ``(nodes, N, q)``,
and each ufunc runs one contiguous inner loop of length q.  Two things stay
batch-first: the channel matrices ``ht_re``/``ht_im``, because the channel
products are stacked BLAS matmuls (transposed in and out), and the arrays
``iterate_schedule`` and ``unrolled_loss`` take and yield, which are
``(q, stacked_rows, N)`` as everywhere else in the package.

Order contract (what keeps every result bit-identical across layouts):

- each masked interference sum adds its terms in ascending m;
- every argmin over nodes, messages or constraints takes the first
  occurrence of the minimum; the binding constraint is one such argmin
  over a table ordered [end users; nodes of relay hops 1..B-1], so a tie
  goes to an end user, then to the lowest hop, then to the lowest node;
- the real and imaginary channel products of a hop come from one matmul
  of the stacked matrices, whose rows do not depend on each other;
- ``dL/dmu_k`` sums ``g_k * v`` over each step group's block of the
  batch-first C-order array, whose pairwise order decides the trained
  schedules; a block is what one group alone would sum, so S schedules
  trained in one batch equal S trained one by one.  All K steps' blocks
  are summed in one reduction after the backward sweep, each block in the
  same pairwise order.

``unrolled_loss`` differentiates the unrolled optimizer with respect to its
per-iteration step sizes in reverse mode.  The forward sweep makes one rate
pass per step, whose batch holds the driving channels and, appended, the
loss channels that differ from them; it keeps each step's gradient, the row
factors and unit rows the projection computed at the point before it
(``power.RowFactors``) and the branches ``gradient_pass`` selected.  One
backward sweep then carries a single adjoint array: the projection's
adjoint reads the kept factors instead of recomputing them, and each
backward step needs a Hessian-vector product of the objective, the
derivative of ``gradient_pass`` in one direction: ``hessian_vector`` runs
only its tangent, reading the forward values from the kept branches.

``iterate_schedule`` takes block-local steps.  A step's gradient is nonzero
only in the block feeding each element's binding hop (the source row for
hop 1, relay block b-1 for hop b), so a step re-projects only those rows:
the source row of every element plus block b-1 of each element bound at
hop b, laid along the batch axis of one projection call.  It recomputes
relay-fed hop b only on the columns bound at hop b, writing them over the
hop's kept (5 M_b, N, q) array with one scatter, and keeps hop B's end-user
table and its per-message minimum the same way; hop 1 and the message rates
are made anew.  Step 0, and any step after a projection output held a NaN,
is full: every row is re-projected and every hop recomputed on every
column.  Four invariants make the result bit-identical to re-projecting
every row and recomputing every hop at every step:

1. a column's bits do not depend on the columns computed with it (each
   stacked matrix's product is its own, a masked sum adds in ascending m
   at any width, one column included, and the projection acts on each row
   and column alone);
2. from step 1 on, every row of p is the projection of a finite x (a NaN
   or -inf entry of x projects as 0 would); the projection returns such a
   row bit for bit and never yields -0.0 or NaN for finite input, so a row
   with zero gradient (x = p + mu * 0 = p) does not move, the bound columns
   are a superset of the moved ones, and recomputing a column that did not
   move gives the same bits;
3. ``mu * 0 == 0``, so steps must be finite, which ``iterate_schedule``
   checks;
4. a NaN output comes only from +inf in x (a huge step, or a gradient at
   zero noise) and breaks invariant 2, so the next step is full; step 0 is
   full because p0 may hold -0.0 or rows no projection made.

Every other caller makes fresh passes.

Index conventions: hops are numbered 1..B (hop 1 is the source broadcast);
node, message and row indices are 0-based.  Reception at hop b depends on the
coefficients of the devices transmitting into it: the source row for hop 1,
relay-layer block b-1 (``Topology.block_rows``) otherwise.  Every kernel
takes the package's ``Topology``; the constraint table's row numbering is
built once per topology and cached, so equal topologies share it.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import ChannelRealization, NoiseProfile, Topology
from .power import project_adjoint, project_with_tangent

LN2 = float(np.log(2.0))
INV_LN2 = 1.0 / LN2


@functools.cache
def _constraints(topology: Topology) -> tuple[np.ndarray, np.ndarray]:
    """Reception hop and node of each row of a constraint table
    (``_constraint_table``): the end users at hop B, then the nodes of
    relay-fed hops 1..B-1."""
    sizes = (topology.end_users,) + topology.hop_sizes[:-1]
    hops = (topology.num_hops,) + tuple(range(1, topology.num_hops))
    return np.repeat(hops, sizes), np.concatenate([np.arange(m) for m in sizes])


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

    ``ht`` holds the hop-b matrices transposed to (q, receiver, transmitter),
    batch first, with the rows of the real parts above those of the
    imaginary parts, so the real and imaginary gains come from one stacked
    matmul against the power block.  Every array is q columns wide; the
    columns of a channel repeated over the batch may be views of one.
    """

    a1: np.ndarray                      # (M1, q) squared first-hop magnitudes
    ht: tuple[np.ndarray, ...]          # per hop b>=2: (q, 2 M_b, M_{b-1})
    sig2: np.ndarray                    # (B, q) noise variances


def prepare_operands(
    first: np.ndarray,
    later: tuple[np.ndarray, ...],
    sig2: np.ndarray,
) -> ChannelOperands:
    """Operands of q stacked channels: ``first`` (q, M_1), ``later`` one
    (q, M_{b-1}, M_b) array per hop b >= 2 and ``sig2`` (q, B)."""
    first = np.asarray(first, dtype=np.complex128)
    a1 = batch_last(first.real**2 + first.imag**2)
    ht = []
    for mat in later:
        t = np.swapaxes(np.asarray(mat, dtype=np.complex128), -1, -2)
        ht.append(np.concatenate((t.real, t.imag), axis=-2))
    sig2 = batch_last(np.asarray(sig2, dtype=np.float64))
    return ChannelOperands(a1=a1, ht=tuple(ht), sig2=sig2)


def operands_from(
    channels: Sequence[ChannelRealization], noise: NoiseProfile, repeat: int = 1
) -> ChannelOperands:
    """Operands of a sequence of channels under one noise profile, each
    channel over ``repeat`` consecutive batch columns.  The noise variances
    of every column, and the columns of a single repeated channel, are
    stride-0 views of one, so widening one channel to a batch copies no
    channel data."""
    first, later = stack_channels(list(channels))
    count, hops = len(first), len(noise.hop_noise_vars)
    ops = prepare_operands(first, later, np.broadcast_to(noise.hop_noise_vars, (count, hops)))

    def widen(x: np.ndarray, axis: int) -> np.ndarray:
        if count > 1:
            return x if repeat == 1 else np.repeat(x, repeat, axis=axis)
        shape = list(x.shape)
        shape[axis] = repeat
        return np.broadcast_to(x, shape)

    return ChannelOperands(
        a1=widen(ops.a1, -1),
        ht=tuple(widen(h, 0) for h in ops.ht),
        sig2=np.broadcast_to(ops.sig2[:, :1], (hops, count * repeat)),
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
    """All intermediates of one rate evaluation.

    Every array ends in the batch axis q.
    """

    q: int
    phi: np.ndarray                     # (N, q) source coefficients
    i1: np.ndarray                      # (N, q) first-hop interference sums
    rates: list[np.ndarray]             # reception rates per hop 1..B, each (nodes, N, q)
    relay: list[np.ndarray]             # per hop b>=2 (index b-2): its (5 M_b, N, q)
                                        # array, read through ``_hop_views``
    user_rates: np.ndarray              # (N, N, q) end-user rates [l, n], inf where
                                        # l is not obliged to decode n
    message: np.ndarray                 # (N, q)


@functools.cache
def _off_diagonal(n: int) -> np.ndarray:
    """``(n, n, 1)`` mask, False on the diagonal."""
    return ~np.eye(n, dtype=bool)[:, :, None]


def _interferers(key: np.ndarray) -> np.ndarray:
    """Mask ``[..., m, n, q]``: m interferes with n (m != n, key_m <= key_n).

    ``key`` is ``(..., N, q)``; ties interfere.
    """
    mask = key[..., :, None, :] <= key[..., None, :, :]
    mask &= _off_diagonal(key.shape[-2])
    return mask


def _masked_sum(mask: np.ndarray, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``sum_m mask[..., m, n, q] * values[..., m, q]``, added in ascending m
    (into ``out`` when given).

    A product with the mask rather than ``np.where``, which branches on every
    element: for finite values it adds the same terms (a masked-out negative
    value adds -0.0, which can change a sum only in the sign of a zero).
    """
    return (values[..., :, None, :] * mask).sum(axis=-3, out=out)


def _ascending_sum(terms: np.ndarray) -> np.ndarray:
    """``terms`` summed over axis 0 in ascending order, as ``_masked_sum``
    adds them; a plain reduction over a single column adds pairwise from
    eight terms on."""
    return np.add.accumulate(terms, axis=0)[-1]


def _column(values: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """``values[..., n_i, i]`` for every element i, given ``flat = n * q + i``;
    ``values`` is a contiguous ``(..., N, q)`` array."""
    return values.reshape(values.shape[:-2] + (-1,)).take(flat, axis=-1)


def _products(ht: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The (2 M_b, N, q) products, real rows above imaginary rows, of a
    batch-last block with the stacked channel matrices ``ht``
    (q, 2 M_b, M_{b-1}) of ``ChannelOperands``, as a batch-last view of one
    stacked matmul: each row's product does not depend on the rows stacked
    with it."""
    return (ht @ batch_first(block)).transpose(1, 2, 0)


def _hop_views(hop: np.ndarray) -> tuple[np.ndarray, ...]:
    """The real and imaginary channel products, gains, masked interference
    sums and rates, each (M_b, N, s), held by the (5 M_b, N, s) array of a
    relay-fed hop (``_relay_hop``)."""
    m = len(hop) // 5
    return hop[:m], hop[m : 2 * m], hop[2 * m : 3 * m], hop[3 * m : 4 * m], hop[4 * m :]


def _relay_hop(
    ops: ChannelOperands, hop: int, block: np.ndarray, cols: np.ndarray | None = None
) -> np.ndarray:
    """Relay-fed hop ``hop`` (>= 2) for the batch-last transmit block
    ``block`` (M_{b-1}, N, s): of every batch column, or of the operands'
    batch columns ``cols``.  Its arrays are views of one (5 M_b, N, s)
    array (``_hop_views``), so a step writes recomputed columns back with
    one scatter.  A column's bits do not depend on the columns computed with
    it."""
    ht, sig2 = ops.ht[hop - 2], ops.sig2[hop - 1]
    if cols is not None:
        ht, sig2 = ht[cols], sig2[cols]
    c = _products(ht, block)
    out = np.empty((len(c) // 2 * 5,) + c.shape[1:])
    out[: len(c)] = c
    cr, ci, g, ib, rate = _hop_views(out)
    del c  # not held through the masked sum
    np.multiply(cr, cr, out=g)
    g += ci * ci
    _masked_sum(_interferers(g), g, out=ib)
    np.divide(g, ib + sig2, out=rate)
    np.log1p(rate, out=rate)
    rate *= INV_LN2
    return out


def _relay_hops(topology: Topology, ops: ChannelOperands, p: np.ndarray) -> list[np.ndarray]:
    """``_relay_hop`` of hops 2..B at ``p`` (stacked_rows, N, q)."""
    return [
        _relay_hop(ops, hop, p[topology.block_rows(hop - 1)])
        for hop in range(2, topology.num_hops + 1)
    ]


def _end_users(g: np.ndarray, rate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (N, N, s) end-user rate table of hop B's gains and rates, inf
    where end user l need not decode message n, and its per-message minimum
    (N, s)."""
    diag = g.diagonal(0, 0, 1).T  # (N, s): receiver l's own gain
    table = np.where(g >= diag[:, None, :], rate, np.inf)
    return table, table.min(axis=0)


def _pass_from(
    ops: ChannelOperands, p: np.ndarray, relay: list[np.ndarray], users: tuple | None = None
) -> RatePass:
    """The rate pass at ``p`` (stacked_rows, N, q), given ``relay``, its
    ``_relay_hops``, and ``users``, the ``_end_users`` of the last (computed
    here when not given): hop 1 and the message rates are computed here,
    and the pass holds the relay hops' arrays."""
    phi = p[-1]
    phi2 = phi * phi
    i1 = _masked_sum(_interferers(phi), phi2)
    a1 = ops.a1[:, None, :]
    u1 = a1 * phi2  # the SINR a1 phi^2 / (a1 i1 + sigma_1^2), in place its rate
    u1 /= a1 * i1 + ops.sig2[0]
    np.log1p(u1, out=u1)
    u1 *= INV_LN2
    rates = [u1] + [_hop_views(hop)[4] for hop in relay]
    user_rates, message = users or _end_users(*_hop_views(relay[-1])[2::2])
    for r in range(1, len(rates)):
        message = np.minimum(message, rates[r - 1].min(axis=0))

    return RatePass(
        q=message.shape[-1],
        phi=phi,
        i1=i1,
        rates=rates,
        relay=relay,
        user_rates=user_rates,
        message=message,
    )


def rate_pass(topology: Topology, ops: ChannelOperands, p: np.ndarray) -> RatePass:
    """Evaluate every reception rate for a batch of power matrices.

    ``p`` is (stacked_rows, N, q).
    """
    return _pass_from(ops, p, _relay_hops(topology, ops, p))


def _constraint_table(rp: RatePass, flat: np.ndarray) -> np.ndarray:
    """Every constraint on message ``flat = n * q + i`` of each element i:
    the rates of the end users, inf where one need not decode it, then those
    of the nodes of relay-fed hops 1..B-1, one row per constraint as
    ``_constraints`` numbers them."""
    return np.concatenate(
        [_column(rp.user_rates, flat)] + [_column(rates, flat) for rates in rp.rates[:-1]]
    )


def select_binding(
    topology: Topology, rp: RatePass, nstar: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pick the binding constraint of message ``nstar`` for every element.

    Returns the reception hop (1..B) and node index, from one first-occurrence
    argmin over the constraint table: a tie goes to an end user over a relay,
    then to the lowest hop, then to the lowest node.  A NaN binds as follows:
    the first NaN among the end users binds; otherwise a relay hop that
    holds a NaN is skipped, and every relay hop is once hop 1 holds one.
    """
    table = _constraint_table(rp, flat=nstar * rp.q + np.arange(rp.q))
    hop, node = _constraints(topology)
    if np.isnan(table.min()):
        # argmin stops at the first NaN; rule out the relay hops to skip
        table = table.copy()
        skip_all = np.isnan(table[hop == 1]).any(axis=0)
        for r in range(1, topology.num_hops):
            rows = hop == r
            skip = skip_all | np.isnan(table[rows]).any(axis=0)
            table[np.ix_(rows, skip)] = np.inf
    pick = table.argmin(axis=0)
    return hop[pick], node[pick]


@dataclass
class _SourceBranch:
    """The elements ``sel`` of a pass that bind at hop 1, the source
    broadcast, with the forward values the derivative of their gradient
    reads.  Every array ends in the axis of ``sel``."""

    sel: np.ndarray        # (s,) batch columns
    n: np.ndarray          # (s,) binding message
    a: np.ndarray          # (s,) squared first-hop gain of the binding node
    phi: np.ndarray        # (N, s) source coefficients
    maskrow: np.ndarray    # (N, s) messages that interfere with n
    sig: np.ndarray        # (s,) signal, interference-plus-noise and total power
    den: np.ndarray
    tot: np.ndarray
    w_int: np.ndarray      # (s,) gradient weight of an interferer

    def tangent(self, topology: Topology, ops: ChannelOperands, dp: np.ndarray, dgrad: np.ndarray):
        n, a, phi, den, tot = self.n, self.a, self.phi, self.den, self.tot
        si = np.arange(self.sel.size)
        phin = phi[n, si]
        dphi = dp[-1][:, self.sel]
        dphin = dphi[n, si]
        dden = a * _ascending_sum(2.0 * phi * dphi * self.maskrow)
        dsig = 2.0 * a * phin * dphin
        dtot = dsig + dden
        dw_int = -(2.0 * INV_LN2) * a * (
            dsig - self.sig * (dden / den + dtot / tot)
        ) / (den * tot)
        dg = np.where(self.maskrow, dw_int * phi + self.w_int * dphi, 0.0)
        dg[n, si] = (2.0 * INV_LN2) * a * (dphin - phin * dtot / tot) / tot
        dgrad[-1][:, self.sel] = dg


@dataclass
class _RelayBranch:
    """The elements ``sel`` of a pass that bind at relay-fed hop ``hop``
    (>= 2), with the forward values the derivative of their gradient reads.
    Every array ends in the axis of ``sel``."""

    hop: int
    sel: np.ndarray        # (s,) batch columns
    n: np.ndarray          # (s,) binding message
    node: np.ndarray       # (s,) binding receiver
    hre: np.ndarray        # (M_{b-1}, 1, s) its channel from the transmitters
    him: np.ndarray
    cr: np.ndarray         # (N, s) its received coefficients
    ci: np.ndarray
    maskrow: np.ndarray    # (N, s) messages that interfere with n
    gn: np.ndarray         # (s,) signal, interference-plus-noise and total power
    den: np.ndarray
    tot: np.ndarray
    w: np.ndarray          # (N, s) gradient weight of each message's gain
    response: np.ndarray   # (M_{b-1}, N, s) gain response to the transmit block

    def tangent(self, topology: Topology, ops: ChannelOperands, dp: np.ndarray, dgrad: np.ndarray):
        n, gn, den, tot = self.n, self.gn, self.den, self.tot
        j = self.hop - 2
        rows = topology.block_rows(self.hop - 1)
        si = np.arange(self.sel.size)
        dc = _products(ops.ht[j][self.sel], dp[rows][..., self.sel])
        dcr = dc[self.node, :, si].T
        dci = dc[self.node + len(dc) // 2, :, si].T
        dg = 2.0 * (self.cr * dcr + self.ci * dci)
        dgn = dg[n, si]
        dden = _ascending_sum(dg * self.maskrow)
        dtot = dgn + dden
        dw = np.where(
            self.maskrow,
            -(2.0 * INV_LN2) * ((dgn - gn * (dden / den + dtot / tot)) / (den * tot)),
            0.0,
        )
        dw[n, si] = -(2.0 * INV_LN2) * dtot / (tot * tot)
        dresponse = self.hre * dcr + self.him * dci
        dgrad[rows][..., self.sel] = dresponse * self.w + self.response * dw


Branch = _SourceBranch | _RelayBranch


def _first_columns(values: tuple, columns: int | None) -> tuple:
    """A branch's arrays, each cut to the batch columns below ``columns``;
    ``values[0]`` is the branch's sorted ``sel``."""
    keep = values[0].size if columns is None else int(values[0].searchsorted(columns))
    if keep == values[0].size:
        return values
    cut = (Ellipsis, slice(keep))
    return tuple([v[cut] for v in values])


class _HopGradient(NamedTuple):
    """The elements ``sel`` of a pass that bind at hop ``hop``, the stacked
    rows ``rows`` that feed that hop (the source row's index -1 for hop 1, a
    slice of relay rows otherwise), their gradient ``block`` ((N, s) for
    hop 1, (rows, N, s) otherwise), and the branch ``hessian_vector``
    reads."""

    hop: int
    sel: np.ndarray
    rows: int | slice
    block: np.ndarray
    branch: Branch


def _binding(topology: Topology, rp: RatePass) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each element's minimum-rate message and the reception hop and node of
    its binding constraint (``select_binding``)."""
    nstar = rp.message.argmin(axis=0)
    return (nstar,) + select_binding(topology, rp, nstar)


def _hop_gradients(
    topology: Topology,
    ops: ChannelOperands,
    rp: RatePass,
    binding: tuple[np.ndarray, np.ndarray, np.ndarray],
    columns: int | None = None,
) -> list[_HopGradient]:
    """The gradient of each element's binding rate, one ``_HopGradient`` per
    hop at which some element binds.  A branch keeps only the batch columns
    below ``columns`` when given."""
    q = rp.q
    nstar, bind_hop, bind_node = binding
    parts = []
    left = q  # elements whose hop is still to come
    for r in range(1, topology.num_hops + 1):
        if not left:
            break
        sel = (bind_hop == r).nonzero()[0]
        if sel.size == 0:
            continue
        left -= sel.size
        node = bind_node[sel]
        n = nstar[sel]
        si = np.arange(sel.size)
        if r == 1:
            # a slice, not an index array, when every element binds here
            cols = slice(q) if sel.size == q else sel
            a = ops.a1[node, sel]
            s1 = ops.sig2[0, cols]
            phi = rp.phi[:, cols]
            phin = phi[n, si]
            inter = rp.i1[n, sel]
            den = a * inter + s1
            sig = a * phin * phin
            tot = sig + den
            maskrow = phi <= phin
            maskrow[n, si] = False
            w_int = -(2.0 * INV_LN2) * a * sig / (den * tot)
            g = np.where(maskrow, w_int * phi, 0.0)
            g[n, si] = (2.0 * INV_LN2) * a * phin / tot
            parts.append(_HopGradient(r, sel, -1, g, _SourceBranch(*_first_columns(
                (sel, n, a, phi, maskrow, sig, den, tot, w_int), columns
            ))))
        else:
            j = r - 2
            rows = topology.block_rows(r - 1)
            ht = ops.ht[j]
            m = ht.shape[1] // 2  # real parts in rows :m, imaginary in m:
            hre = ht[:, :m][sel, node].T[:, None, :]
            him = ht[:, m:][sel, node].T[:, None, :]
            sb = ops.sig2[r - 1, sel]
            c_re, c_im, gains, ib, _ = _hop_views(rp.relay[j])
            cr = c_re[node, :, sel].T
            ci = c_im[node, :, sel].T
            g_row = gains[node, :, sel].T
            gn = g_row[n, si]
            inter = ib[node, n, sel]
            den = inter + sb
            tot = gn + den
            maskrow = g_row <= gn
            maskrow[n, si] = False
            w = np.where(maskrow, -(2.0 * INV_LN2) * (gn / (den * tot)), 0.0)
            w[n, si] = (2.0 * INV_LN2) / tot
            response = hre * cr + him * ci
            parts.append(_HopGradient(r, sel, rows, response * w, _RelayBranch(r, *_first_columns(
                (sel, n, node, hre, him, cr, ci, maskrow, gn, den, tot, w, response), columns
            ))))
    return parts


def _scatter(topology: Topology, parts: list[_HopGradient], q: int) -> np.ndarray:
    """The dense (stacked_rows, N, q) gradient holding ``parts``, zero
    elsewhere."""
    grad = np.zeros((topology.stacked_rows, topology.end_users, q))
    for part in parts:
        grad[part.rows][..., part.sel] = part.block
    return grad


def gradient_pass(
    topology: Topology,
    ops: ChannelOperands,
    rp: RatePass,
    columns: int | None = None,
) -> tuple[np.ndarray, list[Branch], np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradient of the minimum message rate for every batch element.

    The gradient of the single binding rate is placed in the rows of the
    transmit block feeding the binding reception hop; all other entries are
    zero.  Gradients are (stacked_rows, N, q).  The elements that bind at
    each hop come back as a branch holding what ``hessian_vector`` reads,
    restricted to the first ``columns`` batch columns when given.
    """
    binding = _binding(topology, rp)
    parts = _hop_gradients(topology, ops, rp, binding, columns)
    return (_scatter(topology, parts, rp.q), [part.branch for part in parts]) + binding


def hessian_vector(
    topology: Topology, ops: ChannelOperands, branches: list[Branch], dp: np.ndarray
) -> np.ndarray:
    """Derivative of ``gradient_pass``'s gradient in the direction ``dp``
    (stacked_rows, N, q), the Hessian-vector product of each element's
    selected branch, from the ``branches`` that call returned.  Only the
    tangent runs: the forward values come from the branches."""
    dgrad = np.zeros(dp.shape)
    for branch in branches:
        branch.tangent(topology, ops, dp, dgrad)
    return dgrad


def iterate_schedule(
    topology: Topology,
    ops: ChannelOperands,
    p0: np.ndarray,
    mu,
):
    """Run the step schedule, yielding ``(p_k, rates_k)`` for k = 0..K.

    ``p0`` and every yielded ``p_k`` are (q, stacked_rows, N), with q the
    operands' width; ``p_k`` is a view of batch-last memory that is never
    modified afterwards.  ``rates_k`` holds each element's min rate at
    iterate ``p_k`` on the channel driving the updates.  ``mu[k]`` is a
    scalar, or an array of shape (q,) for a step per element.  An empty
    ``p0``, one of another width than the operands, or a step that is not
    finite is refused (``ValueError``, raised by the call itself).

    A step is block-local.  Step 0 is full: every row is re-projected and
    every relay-fed hop recomputed on every column, as is any step after a
    projection output held a NaN.  Any other step re-projects the source
    row of every element and block b-1 of each element bound at hop b, laid
    along the batch axis in one projection call, recomputes relay-fed hop b
    on the columns bound at hop b, and updates hop B's end-user table and
    its per-message minimum with it.  This is bit-identical to
    re-projecting every row and recomputing every hop at every step, by the
    module docstring's four invariants: columns are independent; from step
    1 on every row of p is a projection output, which the projection
    returns bit for bit and which holds no -0.0 or NaN, so rows with zero
    gradient do not move; ``mu * 0 == 0`` for finite steps; and a NaN
    output, which only +inf in x makes, is followed by a full step.  Only
    the relay hops' arrays, the end-user table and its minimum outlive a
    step.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if not np.isfinite(mu).all():
        raise ValueError("every step size must be finite")
    return _iterate(topology, ops, _batch_last_starts(p0, ops), mu)


def _batch_last_starts(p0, *operands: ChannelOperands) -> np.ndarray:
    """The batch-last copy of the starts ``p0`` (q, stacked_rows, N), after
    checking that there is at least one and that ``operands`` are q columns
    wide."""
    p0 = np.asarray(p0, dtype=np.float64)
    if not len(p0):
        raise ValueError("a batch needs at least one start")
    for ops in operands:
        if ops.a1.shape[-1] != len(p0):
            raise ValueError(f"{len(p0)} starts for operands {ops.a1.shape[-1]} columns wide")
    return batch_last(p0)


def _iterate(topology: Topology, ops: ChannelOperands, p: np.ndarray, mu: np.ndarray):
    """``iterate_schedule``'s steps from the batch-last ``p``."""
    relay = users = None
    full = True
    for k in range(len(mu) + 1):
        if relay is None:  # at p0, and after a full step: every column
            relay = _relay_hops(topology, ops, p)
            users = _end_users(*_hop_views(relay[-1])[2::2])
        rp = _pass_from(ops, p, relay, users)
        yield _first_view(p), rp.message.min(axis=0)
        if k == len(mu):
            return
        parts = _hop_gradients(topology, ops, rp, _binding(topology, rp))
        del rp  # hop 1 and the message rates go
        if full:
            relay = users = None  # freed before the step makes new arrays
        p, nan = _step(topology, p, parts, mu[k], full)
        if not full:
            _refresh(topology, ops, p, parts, relay, users)
        del parts  # the step's gradients go before the next rate pass
        full = nan


def _refresh(
    topology: Topology,
    ops: ChannelOperands,
    p: np.ndarray,
    parts: list[_HopGradient],
    relay: list[np.ndarray],
    users: tuple[np.ndarray, np.ndarray],
) -> None:
    """Recompute, in place, the columns of ``relay`` and ``users`` that a
    block-local step moved: relay-fed hop b at the new iterate ``p`` on the
    columns its part of ``parts`` binds, and the end-user table with hop B."""
    for part in parts:
        if part.hop == 1:
            continue
        fresh = _relay_hop(ops, part.hop, p[part.rows].take(part.sel, axis=-1), part.sel)
        relay[part.hop - 2][..., part.sel] = fresh
        if part.hop == topology.num_hops:
            for kept, new in zip(users, _end_users(*_hop_views(fresh)[2::2])):
                kept[..., part.sel] = new


def _step(
    topology: Topology,
    p: np.ndarray,
    parts: list[_HopGradient],
    step: np.ndarray,
    full: bool,
) -> tuple[np.ndarray, bool]:
    """The next iterate after ``p`` (stacked_rows, N, q), given the step's
    ``_hop_gradients``, and whether a projection output holds a NaN.

    A full step re-projects every row.  Any other step re-projects the
    source row of every element and, for each relay-fed hop's part, the
    rows of its columns, laid along the batch axis of one (N, rows)
    projection call: the projection acts on each row alone, so the layout
    changes no bits.
    """
    n, q = p.shape[-2:]
    if full:
        new = project_with_tangent(p + step * _scatter(topology, parts, q))[0]
        return new, bool(np.isnan(new).any())
    source = p[-1]
    pieces = []
    for part in parts:
        if part.hop > 1:
            part_step = step if step.ndim == 0 else step[part.sel]
            x = p[part.rows].take(part.sel, axis=-1) + part_step * part.block
            pieces.append((part, x.transpose(1, 0, 2).reshape(n, -1)))
        elif part.sel.size == q:
            source = source + step * part.block
        else:
            # x = p + step * 0 = p in the other columns (invariants 2, 3)
            grad = np.zeros((n, q))
            grad[:, part.sel] = part.block
            source = source + step * grad
    if pieces:
        source = np.concatenate([source] + [x for _, x in pieces], axis=-1)
    out = project_with_tangent(source)[0]
    new = np.concatenate((p[:-1], out[None, :, :q]))
    start = q
    for part, _ in pieces:
        m, s = part.block.shape[0], part.sel.size
        block = out[:, start : start + m * s].reshape(n, m, s)
        new[part.rows][..., part.sel] = block.transpose(1, 0, 2)
        start += m * s
    return new, bool(np.isnan(out).any())


@dataclass
class UnrolledResult:
    loss: float | np.ndarray         # float, or (S,) per step group
    grad: np.ndarray | None          # (K,) or (S, K) d loss / d mu
    iterate_rates: np.ndarray        # (K+1, q) loss-channel min rates per iterate
    final: np.ndarray                # (q, rows, N) last iterate


def _differing_columns(a: ChannelOperands, b: ChannelOperands, q: int) -> np.ndarray:
    """The batch columns (of q) whose operands in ``a`` and ``b`` differ in
    any bit."""
    differ = np.zeros(q, dtype=bool)
    if a is not b:
        for x, y in ((a.a1, b.a1), (a.sig2, b.sig2)):
            differ |= (x.view(np.uint64) != y.view(np.uint64)).any(axis=0)
        for x, y in zip(a.ht, b.ht):
            differ |= (x.view(np.uint64) != y.view(np.uint64)).any(axis=(1, 2))
    return np.flatnonzero(differ)


def _with_columns(
    ops: ChannelOperands, other: ChannelOperands, cols: np.ndarray
) -> ChannelOperands:
    """The columns of ``ops`` followed by the columns ``cols`` of ``other``."""

    def join(x: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
        return np.concatenate((x, y.take(cols, axis=axis)), axis=axis)

    return ChannelOperands(
        a1=join(ops.a1, other.a1, -1),
        ht=tuple(join(x, y, 0) for x, y in zip(ops.ht, other.ht)),
        sig2=join(ops.sig2, other.sig2, -1),
    )


def unrolled_loss(
    topology: Topology,
    opt_ops: ChannelOperands,
    loss_ops: ChannelOperands,
    p0: np.ndarray,
    mu: np.ndarray,
    weights: np.ndarray,
    want_grad: bool = True,
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
    ``p0`` and ``final`` are (q, stacked_rows, N), and both operands are q
    columns wide; an empty ``p0`` or one of another width is refused
    (``ValueError``).

    One rate pass per step serves both channels: the elements whose driving
    and loss operands differ in any bit get a second column, appended after
    the q driving columns, and every other element scores its loss on its
    driving column.  Each step makes one gradient pass over the pass batch
    and steps by its q driving columns; only the backward sweep reads the
    gradient of the appended columns.  The backward sweep runs only the
    tangent of each step's selected branches (``hessian_vector``), which the
    forward sweep kept, so a call makes K + 1 rate passes.

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
    p = _batch_last_starts(p0, opt_ops, loss_ops)
    q = p.shape[-1]
    if q % count:
        raise ValueError(f"a batch of {q} does not split into {count} equal groups")
    size = q // count
    # each element's step per iteration, (K, q)
    step = np.repeat(groups.T, size, axis=1)
    differ = _differing_columns(opt_ops, loss_ops, q)
    # each element's loss column in the pass batch
    loss_cols: np.ndarray | slice = slice(None)
    ops = opt_ops
    # the pass batch's columns of p (taken, not indexed: an index array on
    # the last axis would give a batch-first layout)
    pass_cols: np.ndarray | None = None
    if differ.size:
        ops = _with_columns(opt_ops, loss_ops, differ)
        loss_cols = np.arange(q)
        loss_cols[differ] = q + np.arange(differ.size)
        pass_cols = np.concatenate((np.arange(q), differ))
    iterate_rates = np.empty((steps + 1, q))
    # What the backward sweep reads: for k < K the pass gradient (driving
    # columns, then appended loss columns) and the projection's row factors
    # at x_k, and for 1 <= k < K the branches of the driving columns.
    grads, factors, branches = [], [], []

    for k in range(steps):
        rp = rate_pass(topology, ops, p if pass_cols is None else p.take(pass_cols, axis=-1))
        iterate_rates[k] = rp.message.min(axis=0)[loss_cols]
        pass_grad, pass_branches = gradient_pass(topology, ops, rp, q)[:2]
        p, kept = project_with_tangent(p + step[k] * pass_grad[..., :q])
        if want_grad:
            grads.append(pass_grad)
            factors.append(kept)
            if k >= 1:
                branches.append([b for b in pass_branches if b.sel.size])

    rp_loss = rate_pass(topology, loss_ops, p)
    iterate_rates[steps] = rp_loss.message.min(axis=0)
    # the weighted group means of iterates 1..K, subtracted in that order
    terms = np.zeros((steps + 1, count))
    terms[1:] = np.asarray(weights[:steps])[:, None] * (
        iterate_rates[1:].reshape(steps, count, size).mean(axis=2)
    )
    loss = np.subtract.accumulate(terms)[-1]
    dloss = None
    if want_grad:
        products = np.empty((steps, q) + p.shape[:-1])  # g_k * v, batch first
        lam = -(weights[steps - 1] / size) * gradient_pass(topology, loss_ops, rp_loss)[0]
        for k in range(steps - 1, -1, -1):
            v = project_adjoint(factors[k], lam)
            products[k] = _first_view(grads[k][..., :q] * v)
            if k == 0:
                break
            hv = hessian_vector(topology, opt_ops, branches[k - 1], v)
            loss_grad = grads[k] if pass_cols is None else grads[k].take(loss_cols, axis=-1)
            lam = -(weights[k - 1] / size) * loss_grad + v + step[k] * hv
        # summed in one block per (step, group): its pairwise order decides
        # the schedules
        dloss = np.ascontiguousarray(products.reshape(steps, count, -1).sum(axis=2).T)
    if mu.ndim == 1:
        loss = float(loss[0])
        dloss = None if dloss is None else dloss[0]
    return UnrolledResult(
        loss=loss,
        grad=dloss,
        iterate_rates=iterate_rates,
        final=batch_first(p),
    )


def _gap_min(values: np.ndarray) -> np.ndarray:
    """Smallest nonzero pairwise gap along axis -2, the axis before the batch
    axis, of each batch column, inf where there is none (exact ties are
    treated as structurally stuck and ignored)."""
    v = np.sort(values, axis=-2)
    with np.errstate(invalid="ignore"):
        gaps = np.diff(v, axis=-2)
    gaps = np.where(gaps > 0.0, gaps, np.inf)
    return gaps.reshape(-1, gaps.shape[-1]).min(axis=0, initial=np.inf)


def _pass_margin(rp: RatePass) -> np.ndarray:
    """Smallest distance to any branch switch of the current pass, for each
    of its batch columns.

    Covers interference-set membership (power and gain ties), the end-user
    decode obligations, the message argmin and the binding-constraint choice.
    """
    margin = _gap_min(rp.phi)
    for hop in rp.relay:
        margin = np.minimum(margin, _gap_min(_hop_views(hop)[2]))
    margin = np.minimum(margin, _gap_min(rp.message))
    table = _constraint_table(rp, rp.message.argmin(axis=0) * rp.q + np.arange(rp.q))
    return np.minimum(margin, _gap_min(table))
