import math

import numpy as np
import pytest
from scipy import stats

from bosonbudget import (
    DistributionTable,
    NetworkUnitary,
    NumericError,
    ResourceLimitError,
    full_distribution,
    prob_ideal,
    sample_ideal,
    variational_distance,
)
from bosonbudget import fock, ideal_sampler
from bosonbudget.fock import enumerate_outputs, mu
from bosonbudget.ideal_sampler import _device_probs, _draw_indices
from bosonbudget.permanent import permanent_contingency

from conftest import make_haar


def test_hom_probabilities(beamsplitter):
    assert prob_ideal(beamsplitter, (1, 1), (1, 1)) <= 1e-12
    assert prob_ideal(beamsplitter, (1, 1), (2, 0)) == pytest.approx(0.5, abs=1e-12)
    assert prob_ideal(beamsplitter, (1, 1), (0, 2)) == pytest.approx(0.5, abs=1e-12)


def test_prob_ideal_checks_the_network_once(monkeypatch):
    # a plain array is scanned for non-finite entries once, by prob_ideal's own check, and a
    # NetworkUnitary, checked when it was built, not at all; the permanent is the same either way
    u = make_haar(6, 21)
    n, s = (1, 1, 1, 0, 0, 0), (0, 2, 0, 1, 0, 0)
    want = prob_ideal(u, n, s)
    calls = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda *args, **kwargs: calls.append(1) or isfinite(*args, **kwargs))
    assert prob_ideal(u.matrix.copy(), n, s) == want
    assert len(calls) == 1
    assert prob_ideal(u, n, s) == want
    assert len(calls) == 1


def test_single_mode_phase_conserves():
    u = np.array([[np.exp(1.3j)]])
    assert prob_ideal(u, (4,), (4,)) == pytest.approx(1.0, rel=1e-12)


def test_identity_network():
    u = np.eye(4)
    assert prob_ideal(u, (1, 0, 2, 0), (1, 0, 2, 0)) == pytest.approx(1.0, rel=1e-12)
    assert prob_ideal(u, (1, 0, 2, 0), (0, 1, 2, 0)) == 0.0


def test_mismatched_totals_give_zero():
    u = make_haar(3, 0)
    assert prob_ideal(u, (1, 1, 0), (1, 0, 0)) == 0.0


def test_full_distribution_beamsplitter(beamsplitter):
    dist = full_distribution(beamsplitter, (1, 1))
    d = dist.as_dict()
    assert d[(2, 0)] == pytest.approx(0.5, abs=1e-12)
    assert d[(0, 2)] == pytest.approx(0.5, abs=1e-12)
    assert d[(1, 1)] <= 1e-12
    assert dist.is_complete(1e-10)


def test_full_distribution_vacuum():
    u = make_haar(4, 1)
    dist = full_distribution(u, (0, 0, 0, 0))
    assert dist.outcomes.tolist() == [[0, 0, 0, 0]]
    assert dist.probs[0] == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(4))
def test_full_distribution_normalised(seed):
    u = make_haar(8, seed)
    dist = full_distribution(u, (1, 1, 1, 0, 0, 0, 0, 0))
    assert abs(dist.total_mass - 1.0) <= 1e-10


def test_full_distribution_budget():
    # C(41, 12) outcomes, refused before any row is built
    u = make_haar(30, 2)
    with pytest.raises(ResourceLimitError, match=f"{math.comb(41, 12)} outcomes"):
        full_distribution(u, (1,) * 12 + (0,) * 18)


def test_sampling_degenerate_table():
    dist = DistributionTable(((0, 2), (1, 1)), np.array([0.0, 1.0]))
    draws = sample_ideal(dist, 100, np.random.default_rng(0))
    assert draws.tolist() == [[1, 1]] * 100


def test_sampling_never_hits_zero_outcome(beamsplitter):
    dist = full_distribution(beamsplitter, (1, 1))
    draws = sample_ideal(dist, 100_000, np.random.default_rng(1))
    assert [1, 1] not in draws.tolist()


def _no_work(*args, **kwargs):
    raise AssertionError("work started")


def test_exact_table_refused_over_the_permanent_order(monkeypatch):
    # 32 outcomes, each a permanent of order 31: refused like prob_ideal, before any outcome or permanent
    monkeypatch.setattr(fock, "_pattern_chunks", _no_work)
    monkeypatch.setattr(ideal_sampler, "_permanent_batch", _no_work)
    message = "^permanent: 31 rows, over the 'permanent_order' limit; capped at 30 rows$"
    with pytest.raises(ResourceLimitError, match=message):
        prob_ideal(np.eye(2), (31, 0), (31, 0))
    with pytest.raises(ResourceLimitError, match=message):
        full_distribution(np.eye(2), (31, 0))


def test_table_route_draws_from_the_networks_the_device_sample_accepts():
    # a Haar network scaled by 1 + 4.9e-9: its defect, 9.8e-9, is under the 1e-8 that --unitary accepts,
    # and the five photons' total mass is 1 + 4.9e-8, over a fixed 1e-8 but within 1e-8 + 2 N d
    u = NetworkUnitary.from_matrix(make_haar(16, 0).matrix * (1 + 4.9e-9), max_defect=1e-8)
    n = (1,) * 5 + (0,) * 11
    for network in (u, u.matrix):
        dist = full_distribution(network, n)
        assert dist.is_complete() and not dist.is_complete(1e-8)
        draws = sample_ideal(dist, 10, np.random.default_rng(3))
        np.testing.assert_array_equal(draws, dist.outcomes[_draw_indices(_device_probs(u, n), 10, np.random.default_rng(3))])
    # off the unitary group the bound stays 1e-8: 0.9 U (defect 0.19, total mass 0.6561) and 2 U (defect 3, mass 4)
    for matrix, n in ((0.9 * make_haar(4, 0).matrix, (1, 1, 0, 0)), (2 * make_haar(4, 0).matrix, (1, 0, 0, 0))):
        dist = full_distribution(matrix, n)
        assert dist.tol == 1e-8 and not dist.is_complete()
        with pytest.raises(ValueError, match="^distribution is incomplete"):
            sample_ideal(dist, 10, np.random.default_rng(3))


def test_sampling_incomplete_rejected():
    dist = DistributionTable(((0,), (1,)), np.array([0.3, 0.3]))
    with pytest.raises(ValueError):
        sample_ideal(dist, 10, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_table_refuses_non_finite_probabilities(bad):
    # a NaN passes the negative-probability test and survives the clip
    with pytest.raises(NumericError):
        DistributionTable(((0,), (1,)), [bad, 1.0])


def test_sampling_chi_square_fit():
    u = make_haar(6, 3)
    dist = full_distribution(u, (1, 1, 0, 0, 0, 0))
    rng = np.random.default_rng(4)
    draws = sample_ideal(dist, 100_000, rng)
    counts = {}
    for d in map(tuple, draws.tolist()):
        counts[d] = counts.get(d, 0) + 1
    observed = []
    expected = []
    for outcome, p in zip(map(tuple, dist.outcomes.tolist()), dist.probs):
        if p * len(draws) >= 5:  # chi-square validity
            observed.append(counts.get(outcome, 0))
            expected.append(p * len(draws))
    observed.append(len(draws) - sum(observed))
    expected.append(len(draws) - sum(expected))
    res = stats.chisquare(observed, expected)
    assert res.pvalue >= 0.01


def test_variational_distance_basics():
    p = DistributionTable(((0,), (1,)), np.array([0.5, 0.5]))
    assert variational_distance(p, p) == 0.0
    q = DistributionTable(((2,), (3,)), np.array([0.5, 0.5]))
    assert variational_distance(p, q) == pytest.approx(2.0)
    r = {(0,): 1.0}
    s = {(0,): 0.5, (1,): 0.5}
    assert variational_distance(r, s) == pytest.approx(1.0)


def test_variational_distance_is_metric():
    rng = np.random.default_rng(5)
    outcomes = tuple((i,) for i in range(6))
    tables = []
    for _ in range(3):
        w = rng.random(6)
        tables.append(DistributionTable(outcomes, w / w.sum()))
    a, b, c = tables
    assert variational_distance(a, b) == pytest.approx(variational_distance(b, a))
    assert variational_distance(a, c) <= variational_distance(a, b) + variational_distance(b, c) + 1e-12
    assert variational_distance(a, a) == 0.0


def test_variational_distance_matches_the_dict_sum():
    # the tuple-keyed sum the array union replaced, to the last bit, over partly shared supports
    rng = np.random.default_rng(12)
    outcomes = enumerate_outputs(5, 3)
    for trial in range(20):
        p_rows, q_rows = (np.sort(rng.choice(len(outcomes), size, replace=False)) for size in (20, 30))
        p = DistributionTable(outcomes[p_rows], rng.random(20) / 20)
        q = dict(zip(map(tuple, outcomes[q_rows].tolist()), (rng.random(30) / 30).tolist()))
        pm = p.as_dict()
        want = math.fsum(abs(pm.get(k, 0.0) - q.get(k, 0.0)) for k in set(pm) | set(q))
        assert variational_distance(p, q) == want
        assert variational_distance(q, p) == want
    assert variational_distance({}, {(0, 1): 0.25}) == 0.25
    assert variational_distance({(1,): 0.5}, {(1, 0): 0.25}) == 0.75


def test_haar_average_transition_probability():
    # ensemble mean of P(s|n) approaches N!/M^N in the dilute regime
    n, m = 2, 80
    rng = np.random.default_rng(6)
    n0 = (1,) * n + (0,) * (m - n)
    s0 = (0,) * (m - n) + (1,) * n
    vals = np.array([prob_ideal(make_haar(m, int(rng.integers(1 << 31))), n0, s0) for _ in range(400)])
    target = math.factorial(n) / m**n
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - target) <= 3.0 * se


def test_full_distribution_repeated_rows_match_contingency():
    u = make_haar(5, 17)
    n = (2, 1, 0, 0, 0)
    dist = full_distribution(u, n)
    assert dist.outcomes.tolist() == enumerate_outputs(5, 3).tolist()
    for s, p in zip(dist.outcomes, dist.probs):
        want = abs(permanent_contingency(u, n, s)) ** 2 / (mu(n) * mu(s))
        assert p == pytest.approx(want, abs=1e-14)
