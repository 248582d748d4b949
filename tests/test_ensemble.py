from types import SimpleNamespace

import numpy as np
import pytest

import manetopt as mo
from manetopt import ensemble
from manetopt.ensemble import member_starts


def _candidates(csi, noise, mu, ensemble_size, seed):
    """Min rates (K+1, E) and iterates (K+1, E, rows, N) of every member."""
    starts = member_starts(mo.topology_of(csi), ensemble_size, [seed])
    return mo.run_pgd_batch([csi] * ensemble_size, noise, starts, mu, record_iterates=True)


def reference_infer(csi, noise, mu, ensemble_size, seed):
    """The selection rule as one C-order argmax over the (member, iteration)
    table of every candidate, with NaN ranked below every number."""
    rates, iterates = _candidates(csi, noise, mu, ensemble_size, seed)
    table = rates[1:].T
    flat = int(np.argmax(np.where(np.isnan(table), -np.inf, table)))
    member, slot = divmod(flat, table.shape[1])
    return SimpleNamespace(
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
    result = mo.infer_batch([ch], noise, mu, 1, [3])
    rates, iterates = mo.run_pgd_batch(
        [ch], noise, mo.uniform_init(topo)[None], mu, record_iterates=True
    )
    best_k = 1 + int(np.argmax(rates[1:, 0]))
    assert result.member_index[0] == 0
    assert result.iteration_index[0] == best_k
    assert result.selected_min_rate_eval[0] == rates[best_k, 0]
    assert np.array_equal(result.selected[0], iterates[best_k, 0])


def test_selection_is_argmax_with_low_index_ties(world):
    topo, noise, ch, mu = world
    res = mo.infer_batch([ch], noise, mu, 4, [5])
    ref = reference_infer(ch, noise, mu, 4, 5)
    rates, _ = _candidates(ch, noise, mu, 4, 5)
    assert res.selected_min_rate_eval[0] == ref.selected_min_rate_eval == rates[1:].max()
    assert (res.member_index[0], res.iteration_index[0]) == (
        ref.member_index, ref.iteration_index
    )
    assert np.array_equal(res.selected[0], ref.selected)


def test_ensemble_monotone_in_size(world):
    topo, noise, ch, mu = world
    values = [
        mo.infer_batch([ch], noise, mu, e, [9]).selected_min_rate_eval[0]
        for e in (1, 2, 4, 6)
    ]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_ensemble_monotone_over_channels(world):
    topo, noise, _, mu = world
    rng = np.random.default_rng(77)
    for i in range(30):
        ch = mo.sample_channel(topo, 1.0, rng)
        lone = mo.infer_batch([ch], noise, mu, 1, [i]).selected_min_rate_eval[0]
        six = mo.infer_batch([ch], noise, mu, 6, [i]).selected_min_rate_eval[0]
        assert six >= lone - 1e-15


def test_member_starts_nested(world):
    topo, *_ = world
    small = member_starts(topo, 3, seeds=[4])
    large = member_starts(topo, 6, seeds=[4])
    assert np.array_equal(small, large[:3])
    assert np.allclose(small[0], 1.0 / np.sqrt(2))


def _looped_starts(topology, ensemble_size, seed):
    """Reference starts, one member at a time: the uniform row, then one
    ``random_init`` per member from its own stream."""
    starts = [mo.uniform_init(topology)]
    for member in range(1, ensemble_size):
        starts.append(mo.random_init(topology, np.random.default_rng([seed, member])))
    return np.stack(starts)


@pytest.mark.parametrize("hop_sizes", [(2, 2), (3, 3), (1, 2, 2), (4, 4)])
@pytest.mark.parametrize("ensemble_size", [1, 2, 6])
def test_bulk_starts_match_per_member_loop(monkeypatch, hop_sizes, ensemble_size):
    # member_starts, of one seed and of several, and the starts infer_batch
    # builds for a whole chunk at once, equal the per-member loop bit for bit.
    # Seven channels in chunks of three cross two chunk boundaries and end in
    # a partial chunk.
    topo = mo.Topology(hop_sizes)
    seeds = [0, 1, 7, 42, 99, 123456789, 2**63 + 5]
    for seed in seeds:
        expected = _looped_starts(topo, ensemble_size, seed)
        assert member_starts(topo, ensemble_size, [seed]).tobytes() == expected.tobytes()

    seen = []
    iterate = ensemble.engine.iterate_schedule

    def spy(topology, ops, p0, mu):
        seen.append(np.array(p0))
        return iterate(topology, ops, p0, mu)

    monkeypatch.setattr(ensemble.engine, "iterate_schedule", spy)
    monkeypatch.setattr(ensemble, "_CHUNK", 3 * ensemble_size)
    rng = np.random.default_rng(17)
    channels = [mo.sample_channel(topo, 1.0, rng) for _ in seeds]
    noise = mo.NoiseProfile((0.5,) * topo.num_hops)
    mo.infer_batch(channels, noise, np.full(2, 0.1), ensemble_size, seeds)
    assert [len(p0) for p0 in seen] == [3 * ensemble_size, 3 * ensemble_size, ensemble_size]
    expected = np.concatenate([_looped_starts(topo, ensemble_size, s) for s in seeds])
    assert np.concatenate(seen).tobytes() == expected.tobytes()
    assert member_starts(topo, ensemble_size, seeds).tobytes() == expected.tobytes()


def test_selected_allocation_feasible(world):
    topo, noise, ch, mu = world
    for e in (1, 3):
        res = mo.infer_batch([ch], noise, mu, e, [1])
        assert mo.is_feasible(res.selected[0])


def test_full_csi_reduces_to_parallel_runs(world):
    # With true channels the ensemble is E independent runs plus an argmax.
    topo, noise, ch, mu = world
    rates, iterates = _candidates(ch, noise, mu, 3, 8)
    starts = member_starts(topo, 3, seeds=[8])
    for e in range(3):
        single_rates, single_iterates = mo.run_pgd_batch(
            [ch], noise, starts[e][None], mu, record_iterates=True
        )
        assert np.array_equal(rates[:, e], single_rates[:, 0])
        assert np.array_equal(iterates[:, e], single_iterates[:, 0])


def test_pilot_input_estimates_then_optimizes(world):
    topo, noise, ch, mu = world
    [est] = mo.lmmse_estimates([ch], [noise], [np.random.default_rng(3)])
    res = mo.infer_batch([est], noise, mu, 2, [1])
    (value,), _ = mo.min_rate([est], res.selected[:1], noise)
    # selection rate is measured under the estimate, not the true channel
    assert res.selected_min_rate_eval[0] == pytest.approx(value, abs=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_noiseless_pilot_inference_matches_full_csi(world):
    # With noiseless pilots the estimate is exact, so inference from pilots is
    # bit-identical to inference from the true channel.  (Rates themselves can
    # be 0/0 at zero noise, so the comparison is structural.)
    topo, _, ch, mu = world
    clean = mo.NoiseProfile((0.0, 0.0))
    [est] = mo.lmmse_estimates([ch], [clean], [np.random.default_rng(4)])
    from_pilots = mo.infer_batch([est], clean, mu, 2, [6])
    direct = mo.infer_batch([ch], clean, mu, 2, [6])
    assert np.array_equal(from_pilots.selected, direct.selected)
    assert np.array_equal(from_pilots.member_index, direct.member_index)
    assert np.array_equal(from_pilots.iteration_index, direct.iteration_index)
    assert np.array_equal(
        from_pilots.selected_min_rate_eval, direct.selected_min_rate_eval, equal_nan=True
    )


def test_infer_rejects_empty_ensemble(world):
    topo, noise, ch, mu = world
    with pytest.raises(ValueError, match="at least one member"):
        mo.infer_batch([ch], noise, mu, 0, [0])
    with pytest.raises(ValueError, match="at least one step"):
        mo.infer_batch([ch], noise, np.zeros(0), 1, [0])


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
    monkeypatch.setattr(ensemble, "_CHUNK", 3 * ensemble_size)
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
    estimates = []
    for _ in range(5):
        ch = mo.sample_channel(topo, 1.0, rng)
        estimates += mo.lmmse_estimates([ch], [noise], [rng])
    batch = mo.infer_batch(estimates, noise, mu, 3, [7, 8, 9, 10, 11])
    _assert_batch_matches_infer(
        batch, [reference_infer(e, noise, mu, 3, s) for e, s in zip(estimates, range(7, 12))]
    )
    for i, est in enumerate(estimates):
        single = mo.infer_batch([est], noise, mu, 3, [7 + i])
        assert np.array_equal(single.selected[0], batch.selected[i])
        assert single.selected_min_rate_eval[0] == batch.selected_min_rate_eval[i]


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
    res = mo.infer_batch([ch], clean, mu, 2, [6])
    assert (res.member_index[0], res.iteration_index[0]) == (1, 1)
    assert res.selected_min_rate_eval[0] == pytest.approx(2.3261276, abs=1e-7)


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
    with pytest.raises(ValueError, match="at least one member"):
        mo.infer_batch([ch] * 3, noise, mu, 0, [0, 1, 2])
    with pytest.raises(ValueError, match="at least one step"):
        mo.infer_batch([ch] * 3, noise, np.zeros(0), 1, [0, 1, 2])


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


@pytest.mark.parametrize("hop_sizes", [(2, 2), (3, 3), (1, 2, 2)])
def test_grouped_infer_batch_equals_separate_calls(monkeypatch, hop_sizes):
    # Three schedules on three groups of four channels, over chunks of five:
    # chunk boundaries fall inside groups, and the last chunk is partial.
    monkeypatch.setattr(ensemble, "_CHUNK", 5 * 3)
    topo = mo.Topology(hop_sizes)
    noise = mo.NoiseProfile((0.5,) * topo.num_hops)
    rng = np.random.default_rng(32)
    channels = [mo.sample_channel(topo, 1.0, rng) for _ in range(12)]
    mu = np.random.default_rng(33).uniform(0.01, 0.5, (3, 10))
    seeds = [200 + i for i in range(12)]
    joint = mo.infer_batch(channels, noise, mu, 3, seeds)
    for s in range(3):
        block = slice(4 * s, 4 * (s + 1))
        alone = mo.infer_batch(channels[block], noise, mu[s], 3, seeds[block])
        for field in ("selected", "selected_min_rate_eval", "member_index", "iteration_index"):
            assert getattr(joint, field)[block].tobytes() == getattr(alone, field).tobytes()
    with pytest.raises(ValueError, match="equal groups"):
        mo.infer_batch(channels, noise, np.full((5, 10), 0.1), 3, seeds)
