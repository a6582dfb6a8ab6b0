import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from bosonbudget import (
    DetectorModel,
    DeviceConfig,
    Indistinguishability,
    ResourceLimitError,
    SourceModel,
    collision_free_patterns,
    enumerate_outputs,
    fourier_matrix,
    full_distribution,
    prob_mismatch,
    row_norm_witness,
    sample_ideal,
    suppression_test,
    unitarity_roundtrip,
    verify,
)
from bosonbudget.verify import SUPPRESSION_TOL

from conftest import make_haar

M, N = 9, 3
N0 = (1, 1, 1, 0, 0, 0, 0, 0, 0)


def _bs_patterns(u, count, rng):
    dist = full_distribution(u.matrix, N0)
    return [tuple(1 if x else 0 for x in s) for s in sample_ideal(dist, count, rng)]


def _uniform_patterns(count, rng):
    pats = collision_free_patterns(M, N)
    out = []
    for i in rng.integers(0, len(pats), count):
        p = [0] * M
        for c in pats[i]:
            p[c] = 1
        out.append(tuple(p))
    return out


@pytest.fixture(scope="module")
def witness_unitary():
    return make_haar(M, 2024)


def test_witness_detects_device_output(witness_unitary):
    samples = _bs_patterns(witness_unitary, 10_000, np.random.default_rng(5))
    res = row_norm_witness(witness_unitary, N0, samples)
    assert res.decision == "bs-like"
    assert res.n_used + res.n_rejected == 10_000
    assert res.n_rejected > 0  # bunched outcomes produce fewer than N clicks


def test_witness_detects_uniform_noise(witness_unitary):
    samples = _uniform_patterns(10_000, np.random.default_rng(6))
    res = row_norm_witness(witness_unitary, N0, samples)
    assert res.decision == "uniform-like"
    assert res.sample_mean == pytest.approx(res.reference_uniform, abs=5 * res.sample_se)


def test_witness_insufficient_statistics(witness_unitary):
    samples = _uniform_patterns(10, np.random.default_rng(31))
    res = row_norm_witness(witness_unitary, N0, samples)
    assert res.decision == "inconclusive"


def test_witness_rejects_wrong_click_counts(witness_unitary):
    bad = [(1, 1, 0, 0, 0, 0, 0, 0, 0), (1,) * 9]
    res = row_norm_witness(witness_unitary, N0, bad)
    assert res.n_rejected == 2
    assert res.decision == "inconclusive"


def test_witness_reference_order(witness_unitary):
    res = row_norm_witness(witness_unitary, N0, _uniform_patterns(100, np.random.default_rng(1)))
    # device reference sits above the uniform one: its outputs favour heavy columns
    assert res.reference_device > res.reference_uniform
    assert res.reference_uniform == pytest.approx(1.0, abs=0.15)


@pytest.mark.parametrize("modes, n", [(9, 3), (12, 4), (20, 2), (7, 7), (5, 1), (40, 4), (30, 6)])
def test_witness_uniform_reference_is_the_mean_over_all_patterns(modes, n):
    # the closed form e_N(c) / C(M, N) against the mean over every N-subset, to a few ulp:
    # both sum non-negative terms, in different orders
    u = make_haar(modes, 2)
    col_mass = (np.abs(u.matrix[:n]) ** 2).sum(axis=0)
    patterns = np.array(list(combinations(range(modes), n)))
    want = float(np.prod((modes / n) * col_mass[patterns], axis=-1).mean())
    got = row_norm_witness(u, (1,) * n + (0,) * (modes - n), []).reference_uniform
    assert got == pytest.approx(want, rel=1e-15, abs=0)


@pytest.mark.parametrize("modes, n", [(9, 3), (12, 4), (16, 5), (10, 6), (7, 7), (5, 1)])
def test_witness_calibration_matches_the_full_table(modes, n):
    # the references over the collision-free rows of the full ideal table, as the calibration once read them
    u = make_haar(modes, 40 + n)
    n0 = (1,) * n + (0,) * (modes - n)
    dist = full_distribution(u.matrix, n0)
    cf = dist.outcomes.max(axis=1) <= 1
    clicked = np.nonzero(dist.outcomes[cf])[1].reshape(-1, n)
    col_mass = (np.abs(u.matrix[:n]) ** 2).sum(axis=0)
    w = np.prod((modes / n) * col_mass[clicked], axis=-1)
    want_device = math.fsum(dist.probs[cf] * w) / math.fsum(dist.probs[cf])
    res = row_norm_witness(u, n0, [])
    assert res.reference_uniform == pytest.approx(float(w.mean()), rel=1e-15, abs=0)
    assert res.reference_device == want_device  # both sums exactly rounded: to the last bit


def test_witness_calibration_memory_per_pattern():
    # C(56, 4) = 367,290 subsets: the held weights take 8 bytes each, the prefix table and one
    # chunk's arrays the rest; the full table with its weight arrays took 80 bytes each
    u = make_haar(56, 12)
    n0 = (1,) * 4 + (0,) * 52
    row_norm_witness(u, n0, [])  # lazily imported code is not the calibration's
    tracemalloc.start()
    try:
        row_norm_witness(u, n0, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * math.comb(56, 4)


def test_witness_refused_by_the_table_cap():
    # the calibration sweeps the C(60, 5) = 5,461,512 collision-free outputs, over the pattern cap
    with pytest.raises(ResourceLimitError, match="'patterns' limit"):
        row_norm_witness(make_haar(60, 1), (1,) * 5 + (0,) * 55, [])


def test_roundtrip_ideal_is_one():
    for seed in (3, 4):
        cfg = DeviceConfig.ideal(make_haar(6, seed), 2)
        assert abs(unitarity_roundtrip(cfg) - 1.0) <= 1e-10


def test_roundtrip_vacuum_component():
    cfg = DeviceConfig(make_haar(6, 11), 2, SourceModel.single_photon(0.9), DetectorModel.ideal())
    assert unitarity_roundtrip(cfg) == pytest.approx(0.81, abs=1e-10)


def test_roundtrip_dark_counts_leak():
    cfg = DeviceConfig(make_haar(6, 12), 2, SourceModel.ideal(), DetectorModel(0.0, 0.01))
    val = unitarity_roundtrip(cfg)
    assert val < 1.0 - 1e-6


def test_suppression_two_photons():
    res = suppression_test(2, Indistinguishability.perfect(2))
    assert res.law_valid
    assert res.n_suppressed == 1  # the coincidence outcome
    assert res.suppressed_mass <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_suppression_ideal_mass_is_zero(n):
    res = suppression_test(n, Indistinguishability.perfect(n))
    assert res.law_valid
    assert res.law_violations == 0
    assert res.suppressed_mass <= 1e-10


def test_suppression_leaks_with_mismatch():
    res = suppression_test(3, Indistinguishability.constant(0.9, 3))
    assert res.law_valid
    assert res.suppressed_mass > 1e-4


def test_suppression_leak_monotone_in_overlap():
    masses = [
        suppression_test(3, Indistinguishability.constant(g, 3)).suppressed_mass
        for g in (0.5, 0.7, 0.9, 0.99, 1.0)
    ]
    assert all(masses[i] >= masses[i + 1] - 1e-12 for i in range(len(masses) - 1))


def test_suppression_mass_closed_form_two_photons():
    # leak of the two-photon test is the residual coincidence rate (1-g2)/2
    for g2 in (0.2, 0.6, 0.95):
        res = suppression_test(2, Indistinguishability((g2,)))
        assert res.suppressed_mass == pytest.approx((1.0 - g2) / 2.0, abs=1e-12)


def _per_output_mass(n, ind):
    # the leaked mass summed output by output, one prob_mismatch call per flagged output
    u = fourier_matrix(n)
    outcomes = enumerate_outputs(n, n)
    flagged = outcomes[(outcomes @ np.arange(n)) % n != 0]
    return math.fsum(prob_mismatch(u, (1,) * n, s, ind) for s in flagged.tolist())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("overlaps", ["constant", "graded"])
def test_suppression_orbit_sum_matches_per_output_sum(n, overlaps):
    ind = (Indistinguishability.constant(0.9, n) if overlaps == "constant"
           else Indistinguishability(tuple(np.linspace(0.8, 0.95, n - 1))))
    res = suppression_test(n, ind)
    assert res.law_valid
    assert res.suppressed_mass == pytest.approx(_per_output_mass(n, ind), rel=1e-13, abs=0)


def test_suppression_refused_when_the_network_breaks_the_symmetry(monkeypatch):
    # entries scaled by 1 + 1e-6 x: the flagged outputs gain mass only at second order, under
    # 1e-10 each, while the orbits' probabilities part at first order, so the orbit check refuses
    n = 4
    q = fourier_matrix(n).matrix * (1.0 + 1e-6 * np.random.default_rng(8).standard_normal((n, n)))
    outcomes = enumerate_outputs(n, n)
    flagged = (outcomes @ np.arange(n)) % n != 0
    assert full_distribution(q, (1,) * n).probs[flagged].max() < SUPPRESSION_TOL
    monkeypatch.setattr(verify, "fourier_matrix", lambda modes: q)
    res = suppression_test(n, Indistinguishability.constant(0.9, n))
    assert not res.law_valid
    assert res.law_violations > 0
    assert math.isnan(res.suppressed_mass)
