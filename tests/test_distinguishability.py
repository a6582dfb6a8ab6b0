import math
from itertools import permutations

import numpy as np
import pytest
from scipy import integrate

from bosonbudget import (
    Indistinguishability,
    JitterSourceSpec,
    PhotonCountError,
    ResourceLimitError,
    arrangement_count,
    cycle_counts,
    cycle_types,
    mismatch_bound,
    mismatch_bound_small,
    permutation_overlap,
    prob_ideal,
    prob_mismatch,
)
from bosonbudget.distinguishability import sigma_table
from bosonbudget.fock import enumerate_outputs, mode_indices, mu
from bosonbudget.permanent import permanent_naive

from conftest import make_haar


# ---------------------------------------------------------------- cycle types


def test_cycle_types_s3():
    got = {c: size for c, size in cycle_types(3)}
    assert got == {(3, 0, 0): 1, (1, 1, 0): 3, (0, 0, 1): 2}


def test_cycle_types_s2():
    got = {c: size for c, size in cycle_types(2)}
    assert got == {(2, 0): 1, (0, 1): 1}


@pytest.mark.parametrize("n", [1, 4, 5, 7])
def test_class_sizes_sum_to_factorial(n):
    assert sum(size for _, size in cycle_types(n)) == math.factorial(n)


def test_cycle_types_cap():
    with pytest.raises(ResourceLimitError):
        cycle_types(31)


def test_cycle_counts_match_enumeration():
    # brute-force check on S_4: class sizes from explicit permutations
    from collections import Counter

    counter = Counter(cycle_counts(p) for p in permutations(range(4)))
    assert counter == {c: size for c, size in cycle_types(4)}


# ------------------------------------------------------------- chi / overlaps


def test_arrangement_count_small_values():
    assert arrangement_count(0) == 1
    assert arrangement_count(1) == 2
    assert arrangement_count(2) == 5
    assert arrangement_count(3) == 16


def test_arrangement_count_integral_identity():
    # same quantity as the integral of z^n e^(1-z) over [1, inf)
    for n in range(6):
        val, err = integrate.quad(lambda z, n=n: z**n * math.exp(1.0 - z), 1.0, np.inf)
        assert arrangement_count(n) == pytest.approx(val, rel=1e-9)


def test_permutation_overlap_cases():
    g = Indistinguishability((0.7, 0.4, 0.3))
    assert permutation_overlap(g, (0, 1, 2, 3)) == 1.0
    assert permutation_overlap(g, (1, 0, 2, 3)) == pytest.approx(0.7)
    assert permutation_overlap(g, (1, 2, 0, 3)) == pytest.approx(0.4)  # 3-cycle + fixed point
    assert permutation_overlap(g, (1, 0, 3, 2)) == pytest.approx(0.49)  # two 2-cycles


# ------------------------------------------------------------------- jitter


def test_jitter_zero_is_perfect():
    ind = Indistinguishability.from_jitter(JitterSourceSpec(1.0, 0.0), 5)
    assert all(g == 1.0 for g in ind.orders)
    assert ind.avg_fidelity == 1.0


def test_jitter_large_kills_overlap():
    ind = Indistinguishability.from_jitter(JitterSourceSpec(1.0, 1000.0), 4)
    assert all(g < 1e-3 for g in ind.orders)
    assert ind.avg_fidelity < 1e-3


def test_jitter_small_mismatch_relation():
    # at sigma_w * sigma_t = 0.1: 1 - g_2 matches 2 (1 - F) within 10%
    ind = Indistinguishability.from_jitter(JitterSourceSpec(1.0, 0.1), 2)
    lhs = 1.0 - ind.overlap(2)
    rhs = 2.0 * (1.0 - ind.avg_fidelity)
    assert abs(lhs / rhs - 1.0) < 0.10


def test_jitter_overlaps_are_monotone_in_order():
    ind = Indistinguishability.from_jitter(JitterSourceSpec(2.0, 0.7), 8)
    orders = ind.orders
    assert all(orders[i] >= orders[i + 1] for i in range(len(orders) - 1))


def test_jitter_matches_quadrature_oracle():
    # independent evaluation of the cyclic overlap integral by Gauss-Hermite
    spec = JitterSourceSpec(1.3, 0.45)
    ind = Indistinguishability.from_jitter(spec, 3)
    x, w = np.polynomial.hermite.hermgauss(64)
    st, sw = spec.jitter_std, spec.spectral_width
    taus = math.sqrt(2.0) * st * x

    for k in (2, 3):
        total = 0.0
        for idx in np.ndindex(*(len(x),) * k):
            t = taus[list(idx)]
            weight = np.prod(w[list(idx)])
            f = 1.0
            for i in range(k):
                d = t[i] - t[(i + 1) % k]
                f *= math.exp(-sw * sw * d * d / 2.0)
            total += weight * f
        total /= math.pi ** (k / 2.0)
        assert ind.overlap(k) == pytest.approx(total, rel=1e-9)


def test_jitter_order4_matches_monte_carlo():
    spec = JitterSourceSpec(1.0, 0.8)
    ind = Indistinguishability.from_jitter(spec, 4)
    rng = np.random.default_rng(0)
    t = rng.normal(0.0, spec.jitter_std, size=(200_000, 4))
    f = np.ones(len(t))
    for i in range(4):
        d = t[:, i] - t[:, (i + 1) % 4]
        f *= np.exp(-spec.spectral_width**2 * d * d / 2.0)
    se = f.std(ddof=1) / math.sqrt(len(f))
    assert abs(ind.overlap(4) - f.mean()) <= 4.0 * se


def test_overlap_bounds_validated():
    with pytest.raises(ValueError):
        Indistinguishability((1.2,))
    with pytest.raises(ValueError):
        JitterSourceSpec(0.0, 1.0)


# ------------------------------------------------------------ probabilities


def test_mismatch_reduces_to_ideal(beamsplitter):
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = int(rng.integers(2, 5))
        u = make_haar(m, int(rng.integers(1 << 31)))
        total = int(rng.integers(1, 4))
        n = _random_occupation(rng, m, total)
        s = _random_occupation(rng, m, total)
        perfect = Indistinguishability.perfect(total)
        assert abs(prob_mismatch(u, n, s, perfect) - prob_ideal(u, n, s)) <= 1e-10


def test_mismatch_hom_interpolation(beamsplitter):
    for g2 in (0.0, 0.25, 0.5, 0.75, 1.0):
        ind = Indistinguishability((g2,))
        p = prob_mismatch(beamsplitter, (1, 1), (1, 1), ind)
        assert p == pytest.approx((1.0 - g2) / 2.0, abs=1e-12)


def test_mismatch_distinguishable_is_classical(beamsplitter):
    ind = Indistinguishability.constant(0.0, 2)
    p = prob_mismatch(beamsplitter, (1, 1), (1, 1), ind)
    assert p == pytest.approx(0.5, abs=1e-12)
    # general instance: permanent of the entrywise squared-modulus block
    u = make_haar(4, 7)
    n, s = (1, 1, 0, 0), (0, 1, 0, 1)
    from bosonbudget.permanent import permanent_ryser

    block = np.abs(u.matrix[np.ix_([0, 1], [1, 3])]) ** 2
    expected = permanent_ryser(block).real
    assert prob_mismatch(u, n, s, Indistinguishability.constant(0.0, 2)) == pytest.approx(
        expected, abs=1e-10
    )


def test_mismatch_completeness():
    rng = np.random.default_rng(2)
    for m, n_tot in ((4, 2), (5, 3)):
        u = make_haar(m, int(rng.integers(1 << 31)))
        ind = Indistinguishability(tuple(rng.uniform(0.2, 1.0, n_tot - 1)))
        n0 = (1,) * n_tot + (0,) * (m - n_tot)
        total = sum(prob_mismatch(u, n0, s, ind) for s in enumerate_outputs(m, n_tot))
        assert abs(total - 1.0) <= 1e-9


def test_mismatch_positivity():
    rng = np.random.default_rng(3)
    u = make_haar(4, 11)
    ind = Indistinguishability(tuple(rng.uniform(0.0, 1.0, 2)))
    for s in enumerate_outputs(4, 3):
        assert prob_mismatch(u, (1, 1, 1, 0), s, ind) >= 0.0


def test_mismatch_photon_count_error():
    u = make_haar(3, 4)
    with pytest.raises(PhotonCountError):
        prob_mismatch(u, (1, 1, 0), (1, 0, 0), Indistinguishability.perfect(2))


def test_mismatch_cap():
    u = make_haar(8, 5)
    with pytest.raises(ResourceLimitError):
        prob_mismatch(u, (1,) * 8, (1,) * 8, Indistinguishability.perfect(8))


# ------------------------------------------------------------------- bounds


def test_bound_zero_for_perfect_photons():
    for n in range(1, 31):
        assert mismatch_bound(n, Indistinguishability.perfect(n)) == 0.0


def test_bound_two_photon_closed_form():
    for g2 in (0.0, 0.3, 0.9, 0.99):
        ind = Indistinguishability((g2,))
        assert mismatch_bound(2, ind) == pytest.approx((1.0 - g2) ** 2 / 2.0, rel=1e-12)


def test_bound_three_photon_distinguishable():
    ind = Indistinguishability.constant(0.0, 3)
    assert mismatch_bound(3, ind) == pytest.approx(4.0 / 3.0, rel=1e-12)


def _cycle_type_sum_50_digits(n, indist):
    """The bound's sum over cycle types, term by term, at 50 significant digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for counts, _size in cycle_types(n):
            overlap, denom = mpmath.mpf(1), 1
            for k, c in enumerate(counts, start=1):
                denom *= k**c * math.factorial(c)
                if k >= 2 and c:
                    overlap *= mpmath.mpf(indist.overlap(k)) ** c
            total += arrangement_count(counts[0]) * (1 - overlap) ** 2 / denom
        return total


_OVERLAP_FAMILIES = {
    "g=0.97": lambda n, rng: Indistinguishability.constant(0.97, n),
    "g=1-1e-7": lambda n, rng: Indistinguishability.constant(1.0 - 1e-7, n),
    "g=0": lambda n, rng: Indistinguishability.constant(0.0, n),
    "g-uniform-0.9-1": lambda n, rng: Indistinguishability(tuple(rng.uniform(0.9, 1.0, n - 1))),
    # budget --fidelity 0.97: the small-mismatch linearisation g_k = max(1 - k (1 - F), 0)
    "fidelity=0.97": lambda n, rng: Indistinguishability(tuple(max(1.0 - k * (1.0 - 0.97), 0.0)
                                                              for k in range(2, n + 1))),
}


@pytest.mark.parametrize("family", sorted(_OVERLAP_FAMILIES))
def test_mismatch_bound_matches_50_digit_cycle_type_sum(family):
    rng = np.random.default_rng(8)
    for n in range(2, 31):
        indist = _OVERLAP_FAMILIES[family](n, rng)
        want = _cycle_type_sum_50_digits(n, indist)
        got = mismatch_bound(n, indist)
        assert abs(got - want) <= 1e-14 * want, (n, got, want)


def test_mismatch_bound_cap():
    assert mismatch_bound(30, Indistinguishability.constant(0.9, 30)) > 0.0
    with pytest.raises(ResourceLimitError):
        mismatch_bound(31, Indistinguishability.constant(0.9, 31))


def test_small_mismatch_bound_vanishes_at_one_photon():
    assert mismatch_bound_small(1, 0.5) == 0.0


def test_small_mismatch_bound_two_photons():
    assert mismatch_bound_small(2, 0.999) == pytest.approx(2.0 * (1e-3) ** 2, rel=1e-9)


@pytest.mark.parametrize("n", range(2, 9))
def test_small_mismatch_bound_matches_cycle_sum(n):
    for deficit in (1e-3, 1e-4):
        f = 1.0 - deficit
        orders = tuple(1.0 - k * deficit for k in range(2, n + 1))
        full = mismatch_bound(n, Indistinguishability(orders))
        approx = mismatch_bound_small(n, f)
        assert abs(full / approx - 1.0) <= 0.20


def _random_occupation(rng, modes, total):
    occ = [0] * modes
    for _ in range(total):
        occ[int(rng.integers(0, modes))] += 1
    return tuple(occ)


def _mismatch_by_sigma_loop(u, n, s, indist):
    v = u.matrix[np.ix_(mode_indices(n), mode_indices(s))]
    total = 0.0
    for sigma in permutations(range(len(v))):
        b = v.conj() * v[:, np.argsort(sigma)]
        total += permutation_overlap(indist, sigma) * permanent_naive(b).real
    return total / (mu(n) * mu(s))


@pytest.mark.parametrize(
    "orders", [(0.9, 0.8, 0.7), (0.6, 0.0, 0.4)], ids=["all-nonzero", "zero-g3"]
)
def test_prob_mismatch_matches_sigma_loop(orders):
    u = make_haar(5, 23)
    ind = Indistinguishability(orders)
    # g_3 = 0 drops the eight permutations of S_4 with a 3-cycle
    assert len(sigma_table(4, ind).overlaps) == (16 if orders[1] == 0.0 else 24)
    n = (2, 1, 1, 0, 0)
    for s in [(0, 1, 1, 2, 0), (1, 1, 1, 1, 0), (0, 0, 0, 0, 4), (2, 0, 1, 0, 1)]:
        want = _mismatch_by_sigma_loop(u, n, s, ind)
        assert prob_mismatch(u, n, s, ind) == pytest.approx(want, rel=1e-10, abs=1e-15)
