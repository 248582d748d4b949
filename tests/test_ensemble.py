import numpy as np
import pytest

import manetopt as mo
from manetopt import ensemble
from manetopt.ensemble import member_starts


def _candidates(csi, noise, mu, ensemble_size, seed):
    """Min rates (K+1, E) and iterates (K+1, E, rows, N) of every member."""
    starts = member_starts(mo.topology_of(csi), ensemble_size, seed)
    return mo.run_pgd_batch(csi, noise, starts, mu, record_iterates=True)


def reference_infer(csi, noise, mu, ensemble_size, seed):
    """The selection rule as one C-order argmax over the (member, iteration)
    table of every candidate, with NaN ranked below every number."""
    rates, iterates = _candidates(csi, noise, mu, ensemble_size, seed)
    table = rates[1:].T
    flat = int(np.argmax(np.where(np.isnan(table), -np.inf, table)))
    member, slot = divmod(flat, table.shape[1])
    return mo.EnsembleResult(
        selected=iterates[slot + 1, member],
        selected_min_rate_eval=float(table[member, slot]),
        member_index=member,
        iteration_index=slot + 1,
    )


@pytest.fixture
def world():
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(20))
    mu = np.geomspace(0.5, 0.01, 12)
    return topo, noise, ch, mu


def test_single_member_equals_best_over_iterations(world):
    topo, noise, ch, mu = world
    result = mo.infer(ch, noise, mu, ensemble_size=1, seed=3)
    traj = mo.run_pgd(ch, noise, mo.uniform_init(topo), mu)
    best_k = 1 + int(np.argmax(traj.min_rates[1:]))
    assert result.member_index == 0
    assert result.iteration_index == best_k
    assert result.selected_min_rate_eval == traj.min_rates[best_k]
    assert np.array_equal(result.selected, traj.iterates[best_k])


def test_selection_is_argmax_with_low_index_ties(world):
    topo, noise, ch, mu = world
    res = mo.infer(ch, noise, mu, ensemble_size=4, seed=5)
    ref = reference_infer(ch, noise, mu, 4, 5)
    rates, _ = _candidates(ch, noise, mu, 4, 5)
    assert res.selected_min_rate_eval == ref.selected_min_rate_eval == rates[1:].max()
    assert (res.member_index, res.iteration_index) == (ref.member_index, ref.iteration_index)
    assert np.array_equal(res.selected, ref.selected)


def test_ensemble_monotone_in_size(world):
    topo, noise, ch, mu = world
    values = [
        mo.infer(ch, noise, mu, ensemble_size=e, seed=9).selected_min_rate_eval
        for e in (1, 2, 4, 6)
    ]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_ensemble_monotone_over_channels(world):
    topo, noise, _, mu = world
    rng = np.random.default_rng(77)
    for i in range(30):
        ch = mo.sample_channel(topo, 1.0, rng)
        lone = mo.infer(ch, noise, mu, 1, seed=i).selected_min_rate_eval
        six = mo.infer(ch, noise, mu, 6, seed=i).selected_min_rate_eval
        assert six >= lone - 1e-15


def test_member_starts_nested(world):
    topo, *_ = world
    small = member_starts(topo, 3, seed=4)
    large = member_starts(topo, 6, seed=4)
    assert np.array_equal(small, large[:3])
    assert np.allclose(small[0], 1.0 / np.sqrt(2))


def test_selected_allocation_feasible(world):
    topo, noise, ch, mu = world
    for e in (1, 3):
        res = mo.infer(ch, noise, mu, ensemble_size=e, seed=1)
        assert mo.is_feasible(res.selected)


def test_full_csi_reduces_to_parallel_runs(world):
    # With true channels the ensemble is E independent runs plus an argmax.
    topo, noise, ch, mu = world
    rates, iterates = _candidates(ch, noise, mu, 3, 8)
    starts = member_starts(topo, 3, seed=8)
    for e in range(3):
        traj = mo.run_pgd(ch, noise, starts[e], mu)
        assert np.array_equal(rates[:, e], traj.min_rates)
        for a, b in zip(iterates[:, e], traj.iterates):
            assert np.array_equal(a, b)


def test_pilot_input_estimates_then_optimizes(world):
    topo, noise, ch, mu = world
    block = mo.simulate_pilot_rx(ch, noise, mo.make_pilots(topo), np.random.default_rng(3))
    res = mo.infer(block, noise, mu, ensemble_size=2, seed=1)
    est = mo.lmmse_estimate(block, noise, 1.0)
    value, _ = mo.min_rate(est, res.selected, noise)
    # selection rate is measured under the estimate, not the true channel
    assert res.selected_min_rate_eval == pytest.approx(value, abs=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_noiseless_pilot_inference_matches_full_csi(world):
    # With noiseless pilots the estimate is exact, so inference from pilots is
    # bit-identical to inference from the true channel.  (Rates themselves can
    # be 0/0 at zero noise, so the comparison is structural.)
    topo, _, ch, mu = world
    clean = mo.NoiseProfile((0.0, 0.0))
    block = mo.simulate_pilot_rx(ch, clean, mo.make_pilots(topo), np.random.default_rng(4))
    from_pilots = mo.infer(block, clean, mu, ensemble_size=2, seed=6)
    direct = mo.infer(ch, clean, mu, ensemble_size=2, seed=6)
    assert np.array_equal(from_pilots.selected, direct.selected)
    assert from_pilots.member_index == direct.member_index
    assert from_pilots.iteration_index == direct.iteration_index
    assert np.array_equal(
        np.array([from_pilots.selected_min_rate_eval]),
        np.array([direct.selected_min_rate_eval]),
        equal_nan=True,
    )


def test_infer_rejects_empty_ensemble(world):
    topo, noise, ch, mu = world
    with pytest.raises(ValueError):
        mo.infer(ch, noise, mu, ensemble_size=0, seed=0)
    with pytest.raises(ValueError):
        mo.infer(ch, noise, np.zeros(0), ensemble_size=1, seed=0)


def test_result_serializes(world, tmp_path):
    topo, noise, ch, mu = world
    res = mo.infer(ch, noise, mu, ensemble_size=2, seed=0)
    path = tmp_path / "result.json"
    res.save(str(path))
    import json

    doc = json.loads(path.read_text())
    assert doc["member_index"] == res.member_index
    assert np.allclose(doc["selected"], res.selected)


def _assert_batch_matches_infer(batch, references):
    assert len(batch.selected) == len(references)
    for i, ref in enumerate(references):
        np.testing.assert_array_equal(batch.selected[i], ref.selected)
        np.testing.assert_array_equal(
            batch.selected_min_rate_eval[i], ref.selected_min_rate_eval
        )
        assert batch.member_index[i] == ref.member_index
        assert batch.iteration_index[i] == ref.iteration_index


@pytest.mark.parametrize("hop_sizes", [(2, 2), (3, 3), (1, 2, 2)])
@pytest.mark.parametrize("ensemble_size", [1, 4])
def test_infer_batch_matches_infer_full_csi(monkeypatch, hop_sizes, ensemble_size):
    # Seven channels over chunks of three also cover a partial last chunk.
    monkeypatch.setattr(ensemble, "_CHUNK", 3)
    topo = mo.Topology(hop_sizes)
    noise = mo.NoiseProfile((0.5,) * topo.num_hops)
    rng = np.random.default_rng(31)
    channels = [mo.sample_channel(topo, 1.0, rng) for _ in range(7)]
    mu = np.geomspace(0.5, 0.01, 10)
    seeds = [100 + i for i in range(7)]
    batch = mo.infer_batch(channels, noise, mu, ensemble_size, seeds)
    _assert_batch_matches_infer(
        batch,
        [reference_infer(ch, noise, mu, ensemble_size, s) for ch, s in zip(channels, seeds)],
    )


def test_infer_batch_matches_infer_from_pilots(world):
    topo, noise, _, mu = world
    rng = np.random.default_rng(41)
    pilots = mo.make_pilots(topo)
    blocks = [
        mo.simulate_pilot_rx(mo.sample_channel(topo, 1.0, rng), noise, pilots, rng)
        for _ in range(5)
    ]
    estimates = [mo.lmmse_estimate(block, noise, 1.0) for block in blocks]
    batch = mo.infer_batch(estimates, noise, mu, 3, [7, 8, 9, 10, 11])
    _assert_batch_matches_infer(
        batch, [reference_infer(e, noise, mu, 3, s) for e, s in zip(estimates, range(7, 12))]
    )
    for i, block in enumerate(blocks):
        single = mo.infer(block, noise, mu, 3, seed=7 + i)
        assert np.array_equal(single.selected, batch.selected[i])
        assert single.selected_min_rate_eval == batch.selected_min_rate_eval[i]


def test_infer_batch_tie_rule_matches_infer(world):
    # A zero schedule never moves: every iteration of a member ties, so the
    # first iterate wins.  With one end user every feasible matrix is all
    # ones, so every member and iteration ties and member 0, iteration 1 wins.
    topo, noise, ch, mu = world
    zero = np.zeros(5)
    batch = mo.infer_batch([ch, ch], noise, zero, 4, [3, 4])
    _assert_batch_matches_infer(
        batch, [reference_infer(ch, noise, zero, 4, s) for s in (3, 4)]
    )
    assert list(batch.iteration_index) == [1, 1]

    single = mo.Topology((2, 1))
    rng = np.random.default_rng(8)
    channels = [mo.sample_channel(single, 1.0, rng) for _ in range(3)]
    batch = mo.infer_batch(channels, noise, mu, 3, [0, 1, 2])
    _assert_batch_matches_infer(
        batch, [reference_infer(c, noise, mu, 3, s) for c, s in zip(channels, range(3))]
    )
    assert list(batch.member_index) == [0, 0, 0]
    assert list(batch.iteration_index) == [1, 1, 1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_candidate_never_beats_a_number(world):
    # At zero noise member 0's rate is 0/0 from its second iterate on, while
    # member 1's first iterate is finite: that one wins.
    topo, _, ch, mu = world
    clean = mo.NoiseProfile((0.0, 0.0))
    res = mo.infer(ch, clean, mu, ensemble_size=2, seed=6)
    assert (res.member_index, res.iteration_index) == (1, 1)
    assert res.selected_min_rate_eval == pytest.approx(2.3261276, abs=1e-7)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("hop_sizes", [(2, 2), (3, 3), (1, 2, 2)])
def test_infer_batch_selects_nan_only_when_every_candidate_is(hop_sizes):
    topo = mo.Topology(hop_sizes)
    clean = mo.NoiseProfile((0.0,) * topo.num_hops)
    rng = np.random.default_rng(12)
    channels = [mo.sample_channel(topo, 1.0, rng) for _ in range(10)]
    mu = np.geomspace(0.5, 0.01, 12)
    batch = mo.infer_batch(channels, clean, mu, 4, range(10))
    references = [reference_infer(ch, clean, mu, 4, s) for s, ch in enumerate(channels)]
    _assert_batch_matches_infer(batch, references)
    for s, (ch, value) in enumerate(zip(channels, batch.selected_min_rate_eval)):
        rates, _ = _candidates(ch, clean, mu, 4, s)
        assert np.isnan(value) == np.isnan(rates[1:]).all()


def test_infer_batch_rejects_empty_ensemble(world):
    topo, noise, ch, mu = world
    with pytest.raises(ValueError):
        mo.infer_batch([ch], noise, mu, 0, [0])
    with pytest.raises(ValueError):
        mo.infer_batch([ch], noise, np.zeros(0), 1, [0])


def test_infer_batch_rejects_seed_count_mismatch(world):
    topo, noise, ch, mu = world
    with pytest.raises(ValueError, match="seeds for"):
        mo.infer_batch([ch, ch], noise, mu, 4, [0])
    with pytest.raises(ValueError, match="seeds for"):
        mo.infer_batch([ch], noise, mu, 4, [0, 1])


def test_infer_batch_rejects_no_channels(world):
    topo, noise, ch, mu = world
    with pytest.raises(ValueError):
        mo.infer_batch([], noise, mu, 4, [])
