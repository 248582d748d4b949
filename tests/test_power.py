import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import manetopt as mo
from manetopt import power


def test_project_scales_rows():
    out = mo.project(np.array([[3.0, 4.0]]))
    assert np.allclose(out, [[0.6, 0.8]])


def test_project_clamps_then_normalizes():
    out = mo.project(np.array([[-1.0, 2.0]]))
    assert np.array_equal(out, [[0.0, 1.0]])


def test_project_degenerate_row_falls_back_to_uniform():
    out = mo.project(np.array([[-1.0, -2.0]]))
    assert np.allclose(out, np.full((1, 2), 1.0 / np.sqrt(2)))
    assert mo.is_feasible(out)
    # deterministic: same fallback every time
    assert np.array_equal(out, mo.project(np.array([[-5.0, -0.1]])))


def test_project_rescales_tiny_and_huge_rows():
    # Squares that underflow to zero used to trigger the uniform fallback,
    # squares that overflow used to zero the row.
    assert np.array_equal(mo.project(np.array([[1e-170, 0.0]])), [[1.0, 0.0]])
    assert np.allclose(mo.project(np.array([[1e200, 1e200]])), 1.0 / np.sqrt(2))


def test_project_rescaled_rows_leave_other_rows_bit_identical():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(6, 3))
    mixed = raw.copy()
    mixed[2] = [1e-170, 3e-171, -1.0]
    out, mixed_out = mo.project(raw), mo.project(mixed)
    keep = [0, 1, 3, 4, 5]
    assert np.array_equal(mixed_out[keep], out[keep])
    assert mo.is_feasible(mixed_out)


def test_project_tangent_is_scale_invariant():
    # One row of three entries: the kernels take rows along axis -2.
    x = np.array([[0.4, 1.3, -0.2]]).T
    dx = np.array([[0.3, -0.1, 0.5]]).T
    out, dout = power.project_with_tangent(x, dx)
    for c in (1e-170, 1e200):
        with np.errstate(over="ignore"):
            scaled_out, scaled_dout = power.project_with_tangent(c * x, c * dx)
        assert np.allclose(scaled_out, out, rtol=1e-14, atol=0.0)
        assert np.allclose(scaled_dout, dout, rtol=1e-12, atol=1e-15)


@st.composite
def rows_with_directions(draw):
    """A matrix of rows, a tangent direction and an adjoint of its shape."""
    shape = draw(st.tuples(st.integers(1, 5), st.integers(1, 4)))
    values = st.floats(-3, 3, allow_nan=False)
    # A row's Jacobian is about 1/|x+|, which overflows as entries near the
    # subnormal range, so tinier entries are zeroed.  Rows of entries near
    # 1e-300 still take the rescaled branch.
    entries = values.map(lambda v: v if abs(v) >= 1e-300 else 0.0)
    x = draw(hnp.arrays(np.float64, shape, elements=entries))
    dx = draw(hnp.arrays(np.float64, shape, elements=values))
    a = draw(hnp.arrays(np.float64, shape, elements=values))
    return x, dx, a


def _pair(x, dx, a):
    return np.array(x), np.array(dx), np.array(a)


@given(rows_with_directions())
@settings(max_examples=200, deadline=None)
@example(_pair([[-0.5, 0.8, 0.3]], [[0.7, -0.2, 0.4]], [[0.9, 0.1, -1.3]]))  # clamped
@example(_pair([[0.6, 0.8]], [[0.3, -1.1]], [[-0.4, 2.0]]))  # unit row passes through
@example(_pair([[0.0, 0.0]], [[1.0, -2.0]], [[0.5, 0.7]]))  # zero row: uniform fallback
@example(_pair([[3.3e-162, 3.3e-162]], [[0.2, -0.9]], [[1.5, 0.3]]))  # subnormal squares
@example(_pair([[1e200, 1e200]], [[0.2, -0.9]], [[1.5, 0.3]]))  # squares overflow
@example(_pair([[1e-120, 2e-120]], [[0.3, 0.5]], [[1.0, -0.7]]))  # norm cubed underflows
@example(_pair([[1e120, 2e120]], [[0.3, 0.5]], [[1.0, -0.7]]))  # norm cubed overflows
@example(_pair([[2.2e-313]], [[1.0]], [[0.6]]))  # the only entry is subnormal
@example(_pair([[2.2e-313, 0.0, -1.0]], [[1.0, 0.4, -0.3]], [[0.6, 1.1, 0.2]]))
def test_project_adjoint_is_the_tangent_transpose(rows):
    # <J dx, a> == <dx, J^T a> for the per-row Jacobian J of the selected
    # branch, to 1e-12 of |J| |dx| |a| summed over rows.  Both sides may
    # cancel, so |J| is bounded from the input: 2/|x+| on a row with a
    # positive entry (|I/s| + |u u^T/s^3|; about 1 on a pass-through row),
    # 0 on a degenerate one.
    x, dx, a = rows
    with np.errstate(over="ignore"):  # the kernels take rows along axis -2
        _, tangent = power.project_with_tangent(x.T, dx.T)
        back = power.project_adjoint(x.T, a.T).T
    tangent = tangent.T
    clamped = np.where(x > 0.0, x, 0.0)
    jac_bound = np.zeros(len(x))
    live = clamped.max(axis=-1) > 0.0
    with np.errstate(over="ignore"):  # a subnormal row's bound is inf
        jac_bound[live] = 2.0 / _row_norms(clamped[live])
    bound = np.sum(jac_bound * _row_norms(dx) * _row_norms(a))
    floor = np.finfo(np.float64).tiny  # products of subnormal entries round absolutely
    assert abs(np.sum(tangent * a) - np.sum(dx * back)) <= 1e-12 * bound + floor


@pytest.mark.parametrize(
    "row", [[2.2e-313], [2.2e-313, 0.0, -1.0], [0.0, -4.0, 5e-324, -0.0]]
)
def test_project_tangent_is_zero_when_the_only_positive_entry_is_subnormal(row):
    # The projected row is constant (the unit vector of that entry), so its
    # tangent is exactly 0; rescaling the direction first used to give nan.
    x = np.array([row]).T
    dx = np.linspace(1.0, -2.0, len(row))[:, None]
    out, tangent = power.project_with_tangent(x, dx)
    assert np.array_equal(out[:, 0], np.where(x[:, 0] > 0.0, 1.0, 0.0))
    assert np.array_equal(tangent, np.zeros_like(x))
    assert np.array_equal(power.project_adjoint(x, dx), np.zeros_like(x))


def _row_norms(v):
    """Euclidean row norms that neither under- nor overflow in the squares."""
    peak = np.abs(v).max(axis=-1)
    unit = np.where(peak > 0.0, peak, 1.0)
    return unit * np.linalg.norm(v / unit[:, None], axis=-1)


def test_project_rejects_non_finite():
    with pytest.raises(ValueError):
        mo.project(np.array([[np.nan, 1.0]]))


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 4)),
        elements=st.floats(-3, 3, allow_nan=False),
    )
)
@settings(max_examples=200, deadline=None)
@example(np.array([[3.3e-162, 3.3e-162]]))  # squares are subnormal
@example(np.array([[1e-170, 0.0]]))  # squares underflow to zero
def test_project_idempotent_and_feasible(raw):
    once = mo.project(raw)
    assert mo.is_feasible(once)
    assert np.array_equal(mo.project(once), once)


_EDGE_VALUES = [
    0.0, -0.0, 5e-324, 2.2e-313, 1e-160, 1e-150, 0.5, 1.0, 1e154, 1e300, 1.7976931348623157e308,
]


@st.composite
def finite_rows(draw):
    """Rows along axis -2, the kernel layout, of 2 to 9 finite entries:
    zero (either sign), subnormal, tiny, tied and huge values among
    arbitrary ones."""
    n = draw(st.sampled_from([2, 3, 4, 8, 9]))
    special = st.sampled_from(_EDGE_VALUES)
    arbitrary = st.floats(allow_nan=False, allow_infinity=False)
    value = st.one_of(special, special.map(lambda v: -v), arbitrary)
    x = draw(hnp.arrays(np.float64, (n, draw(st.integers(1, 4))), elements=value))
    if draw(st.booleans()):  # a tied row
        x[:, 0] = draw(value)
    return x


@given(finite_rows())
@settings(max_examples=300, deadline=None)
@example(np.array([[-0.0], [0.0]]))
@example(np.array([[1.7976931348623157e308], [1.7976931348623157e308]]))
@example(np.full((9, 1), 5e-324))
def test_projection_of_finite_rows_is_a_fixed_point(x):
    # The block-local PGD step skips rows with zero gradient, which is exact
    # only because every projection output of a finite row holds no NaN and
    # no -0.0 and is returned bit for bit by a second projection.
    with np.errstate(over="ignore"):
        out = power.project_with_tangent(x)[0]
        again = power.project_with_tangent(out)[0]
    assert not np.isnan(out).any()
    assert not np.signbit(out).any()
    assert np.array_equal(again.view(np.uint64), out.view(np.uint64))


def test_project_identity_on_feasible():
    rng = np.random.default_rng(5)
    p = mo.random_init(mo.Topology((3, 3)), rng)
    assert np.array_equal(mo.project(p), p)


def test_uniform_init_values():
    topo = mo.Topology((2, 2))
    p = mo.uniform_init(topo)
    assert p.shape == (3, 2)
    assert np.allclose(p, 1.0 / np.sqrt(2))
    assert mo.is_feasible(p)
    assert np.allclose(mo.uniform_init(mo.Topology((3, 4))), 0.5)
    assert np.array_equal(mo.uniform_init(mo.Topology((2, 1))), np.ones((3, 1)))


def test_random_init_deterministic_and_feasible():
    topo = mo.Topology((2, 3, 3))
    a = mo.random_init(topo, 7)
    b = mo.random_init(topo, 7)
    assert np.array_equal(a, b)
    assert mo.is_feasible(a)


def test_random_init_first_entry_mean():
    # Independent Monte Carlo oracle for E[u1 / ||(u1, u2)||], u ~ U(0,1)^2.
    rng = np.random.default_rng(123)
    u = rng.uniform(size=(200_000, 2))
    oracle = float(np.mean(u[:, 0] / np.linalg.norm(u, axis=1)))
    assert 0.6 < oracle < 0.8

    topo = mo.Topology((2, 2))
    draws = np.array(
        [mo.random_init(topo, np.random.default_rng([9, i]))[0, 0] for i in range(10_000)]
    )
    assert 0.6 < draws.mean() < 0.8
    assert abs(draws.mean() - oracle) < 0.02


def test_is_feasible():
    topo = mo.Topology((2, 3))
    assert mo.is_feasible(mo.uniform_init(topo))
    assert not mo.is_feasible(np.zeros((3, 3)))
    block = mo.uniform_init(topo)
    block[0] = [0.6, 0.8, 0.0]
    assert mo.is_feasible(block)
    assert not mo.is_feasible(np.array([[1.2, 0.0], [0.6, 0.8]]))
    assert not mo.is_feasible(np.array([[np.inf, 0.0]]))

