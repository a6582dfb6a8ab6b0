import dataclasses
import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from mpmath import exp as mp_exp
from mpmath import fprod, fsum, mp, mpc, mpf

from bosonbudget import (
    DetectorModel,
    DeviceConfig,
    DimensionError,
    ResourceLimitError,
    SourceModel,
    click_pattern_prob,
    collision_free_patterns,
    detector_prob,
    distance_parts,
    full_distribution,
    input_prob,
    noise_bound,
    noise_bound_additive,
    output_click_distribution,
    prob_ideal,
)
from bosonbudget import noise_model, permanent
from bosonbudget.fock import _colex_rank, _colex_unrank
from bosonbudget.noise_model import (
    _input_support,
    _pattern_probs,
    _subset_table,
)
from bosonbudget.permanent import STACK, _permanent_batch

from conftest import glynn_mp, make_haar


# ----------------------------------------------------------------- models


def test_source_validation():
    with pytest.raises(ValueError):
        SourceModel((0.5, 0.6))
    with pytest.raises(ValueError):
        SourceModel((-0.1, 1.0))
    with pytest.raises(ValueError):
        SourceModel((0.0, math.nan))
    src = SourceModel((0.1, 0.8, 0.05))
    assert src.kmax == 2
    assert src.truncated_mass == pytest.approx(0.05)
    assert src.p(3) == 0.0


def test_detector_validation():
    with pytest.raises(ValueError):
        DetectorModel(loss_prob=1.5)
    with pytest.raises(ValueError):
        DetectorModel(dark_rate=-1.0)
    with pytest.raises(ValueError):
        DetectorModel(dark_rate=math.nan)


def test_detector_refuses_an_infinite_dark_rate():
    # at M = N the factor e^(-(M - N) nu) would be exp(-0 * inf) = NaN
    with pytest.raises(ValueError, match="dark_rate must be finite"):
        DetectorModel(dark_rate=math.inf)


def test_device_config_validation():
    u = make_haar(3, 0)
    with pytest.raises(DimensionError):
        DeviceConfig(u, 4, SourceModel.ideal(), DetectorModel.ideal())


# ------------------------------------------------------------ input model


def test_input_prob_ideal_source():
    cfg = DeviceConfig.ideal(make_haar(5, 1), 3)
    assert input_prob(cfg, (1, 1, 1, 0, 0)) == 1.0
    assert input_prob(cfg, (1, 1, 0, 0, 0)) == 0.0


def test_input_prob_product_formula():
    cfg = DeviceConfig(make_haar(4, 2), 2, SourceModel((0.1, 0.9)), DetectorModel.ideal())
    assert input_prob(cfg, (1, 0, 0, 0)) == pytest.approx(0.09)
    assert input_prob(cfg, (1, 1, 0, 0)) == pytest.approx(0.81)


def test_input_prob_vacuum_modes_enforced():
    cfg = DeviceConfig(make_haar(4, 3), 2, SourceModel((0.1, 0.9)), DetectorModel.ideal())
    assert input_prob(cfg, (1, 0, 1, 0)) == 0.0


def test_input_prob_sums_to_one_minus_truncation():
    src = SourceModel((0.07, 0.88, 0.04))
    cfg = DeviceConfig(make_haar(3, 4), 2, src, DetectorModel.ideal())
    total = sum(
        input_prob(cfg, occ + (0,)) for occ in product(range(3), repeat=2)
    )
    assert total == pytest.approx((1.0 - src.truncated_mass) ** 2, rel=1e-12)


# --------------------------------------------------------------- detectors


def test_detector_perfect():
    det = DetectorModel.ideal()
    assert detector_prob(det, (1, 0), (3, 0)) == 1.0
    assert detector_prob(det, (0, 0), (0, 0)) == 1.0
    assert detector_prob(det, (0, 1), (1, 0)) == 0.0


def test_detector_single_value():
    det = DetectorModel(loss_prob=0.1, dark_rate=0.01)
    expected = math.exp(-0.01) * 0.1  # no-click weight for one arriving photon
    assert detector_prob(det, (0,), (1,)) == pytest.approx(expected, rel=1e-12)
    assert detector_prob(det, (1,), (1,)) == pytest.approx(1.0 - expected, rel=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_detector_normalisation(seed):
    rng = np.random.default_rng(seed)
    det = DetectorModel(loss_prob=float(rng.uniform(0, 1)), dark_rate=float(rng.uniform(0, 0.5)))
    m = 5
    s = tuple(int(x) for x in rng.integers(0, 3, m))
    total = sum(detector_prob(det, pattern, s) for pattern in product((0, 1), repeat=m))
    assert total == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------- exact output distribution


def _noisy_cfg(seed=42, modes=5, sources=2):
    u = make_haar(modes, seed)
    src = SourceModel((0.08, 0.87, 0.05))
    det = DetectorModel(loss_prob=0.07, dark_rate=0.03)
    return DeviceConfig(u, sources, src, det)


def test_output_distribution_normalised():
    table = output_click_distribution(_noisy_cfg())
    assert abs(table.total_mass - 1.0) <= 1e-9


def test_output_distribution_vacuum_source():
    cfg = DeviceConfig(make_haar(4, 5), 2, SourceModel((1.0,)), DetectorModel.ideal())
    table = output_click_distribution(cfg).as_dict()
    assert table[(0, 0, 0, 0)] == pytest.approx(1.0)


def test_output_distribution_ideal_matches_collapsed_ideal_table():
    # perfect hardware: click patterns are the occupied-mode maps of the exact table
    u = make_haar(6, 6)
    cfg = DeviceConfig.ideal(u, 2)
    clicks = output_click_distribution(cfg).as_dict()
    ideal = full_distribution(u, (1, 1, 0, 0, 0, 0))
    collapsed = {}
    for outcome, p in zip(ideal.outcomes, ideal.probs):
        key = tuple(1 if x else 0 for x in outcome)
        collapsed[key] = collapsed.get(key, 0.0) + p
    for pattern, p in collapsed.items():
        assert clicks[pattern] == pytest.approx(p, abs=1e-10)


def test_output_distribution_resource_guard():
    with pytest.raises(ResourceLimitError, match="click table of 2\\^17 patterns: 17 modes, .* capped at 16 modes"):
        output_click_distribution(DeviceConfig.ideal(make_haar(17, 7), 2))
    # 136 two-photon outcomes times 2^16 patterns: about 8.9M terms
    with pytest.raises(ResourceLimitError, match=f"{136 * 2**16} terms"):
        output_click_distribution(DeviceConfig.ideal(make_haar(16, 7), 2))


@pytest.mark.parametrize(
    "source",
    [_noisy_cfg().source, SourceModel.single_photon(0.9), SourceModel((1.0,))],
    ids=["multi_photon", "single_photon", "vacuum"],
)
def test_click_pattern_prob_matches_table(source):
    # sources with at most one photon take the collapsed single-input path
    cfg = dataclasses.replace(_noisy_cfg(), source=source)
    table = output_click_distribution(cfg).as_dict()
    for pattern, p_slow in table.items():
        assert click_pattern_prob(cfg, pattern) == pytest.approx(p_slow, abs=1e-12)


def test_click_pattern_prob_brute_force():
    # third route: literal sum of P_I * P_U * P_D straight from the definitions
    from bosonbudget.fock import enumerate_outputs
    from bosonbudget.noise_model import _input_support

    cfg = _noisy_cfg(seed=9, modes=4)
    pattern = (1, 0, 1, 0)
    total = 0.0
    for occ, p_in in _input_support(cfg.source, cfg.n_sources):
        n_full = tuple(occ) + (0,) * (cfg.modes - cfg.n_sources)
        for s in enumerate_outputs(cfg.modes, sum(occ)):
            total += p_in * prob_ideal(cfg.matrix, n_full, s) * detector_prob(
                cfg.detector, pattern, s
            )
    assert click_pattern_prob(cfg, pattern) == pytest.approx(total, rel=1e-12)


def test_pattern_probs_independent_of_subset_stacking(monkeypatch):
    # 5-click patterns from three two-photon sources: 6 x 6 slot matrices
    # take the Glynn walk. The network-wide table and the full-size stack
    # are cut into kernel calls of 1, 7 and 4096 matrices, and each pattern
    # also runs alone, with a table of its own; sizes with C(5, k) >= 8
    # subsets show any summation order that depends on the batch.
    cfg = DeviceConfig(make_haar(8, 5), 3, SourceModel((0.02, 0.97, 0.01)), DetectorModel(0.01, 1e-4))
    args = (cfg.matrix, cfg.n_sources, cfg.source, cfg.detector)
    cols = collision_free_patterns(8, 5)
    results = []
    for stack in (1, 7, 4096):
        monkeypatch.setattr(permanent, "STACK", stack)
        monkeypatch.setattr(noise_model, "STACK", stack)
        results.append(_pattern_probs(*args, cols))
    results.append(np.array([_pattern_probs(*args, cols[i : i + 1])[0] for i in range(len(cols))]))
    for got in results[1:]:
        np.testing.assert_array_equal(got, results[0])


def _mp_pattern_prob(cfg, clicked):
    """P_out of one click pattern as the per-input sum, at 40 digits.

    For every kept-click subset T, every input occupation n adds
    prod_i (p_(n_i) / n_i!) per(A_T[n|n]), A_T = r I + (1 - r) G_T: the
    sum that ``_pattern_probs`` folds into one slot matrix, taken one input
    at a time from the same float network.
    """
    with mp.workdps(40):
        n, r, nu = cfg.n_sources, mpf(cfg.detector.loss_prob), mpf(cfg.detector.dark_rate)
        u = [[mpc(complex(z)) for z in row] for row in cfg.matrix[:n]]
        weights = [mpf(p) / math.factorial(k) for k, p in enumerate(cfg.source.photon_probs)]
        c = len(clicked)
        total = mpf(0)
        for size in range(c + 1):
            for kept in combinations(clicked, size):
                a = [[(r if i == k else 0) + (1 - r) * fsum(u[i][l].conjugate() * u[k][l] for l in kept)
                      for k in range(n)] for i in range(n)]
                inputs = mpf(0)
                for occ in product(range(len(weights)), repeat=n):
                    rows = [i for i, k in enumerate(occ) for _ in range(k)]
                    inputs += fprod(weights[k] for k in occ) * glynn_mp([[a[i][k] for k in rows] for i in rows])
                total += (-1) ** (c - size) * mp_exp(-(c - size) * nu) * inputs
        return float((total * mp_exp(-(cfg.modes - c) * nu)).real)


@pytest.mark.parametrize(
    "probs, n_sources",
    [((0.02, 0.97, 0.01), 3), ((0.0, 0.97, 0.03), 3), ((0.5, 0.0, 0.5), 3), ((0.1, 0.8, 0.05, 0.05), 2)],
    ids=["p2", "p0_zero", "complex_factors", "kmax3"],
)
def test_slot_matrix_matches_40_digit_input_sum(probs, n_sources):
    # patterns of 1..N clicks, as the distance sweep and the round trip evaluate;
    # (0.5, 0, 0.5) factors into complex conjugate slots, kmax = 3 takes np.roots
    cfg = DeviceConfig(make_haar(6, 3), n_sources, SourceModel(probs), DetectorModel(0.01, 1e-4))
    for clicks in range(1, n_sources + 1):
        cols = collision_free_patterns(6, clicks)[::3]
        got = _pattern_probs(cfg.matrix, n_sources, cfg.source, cfg.detector, cols)
        want = np.array([_mp_pattern_prob(cfg, list(p)) for p in cols])
        np.testing.assert_allclose(got, want, rtol=5e-13, atol=0)


def test_slot_matrix_accuracy_on_the_stress_config():
    # 4 clicks from 2 sources: only two-photon inputs and dark counts reach
    # them, so the alternating subset sum cancels and sets the floor
    cfg = _noisy_cfg(modes=6)
    cols = collision_free_patterns(6, 4)
    got = _pattern_probs(cfg.matrix, 2, cfg.source, cfg.detector, cols)
    want = np.array([_mp_pattern_prob(cfg, list(p)) for p in cols])
    np.testing.assert_allclose(got, want, rtol=5e-13, atol=0)


@pytest.mark.parametrize("dark", [1e-4, 0.0])
def test_full_click_set_term_is_the_ideal_probability(dark):
    # N clicks from N single-photon sources: the full click set contributes
    # p1^N (1 - r)^N |per|^2, and only the dark-count corrections are signed
    cfg = DeviceConfig(make_haar(7, 3), 3, SourceModel((0.02, 0.98)), DetectorModel(0.01, dark))
    cols = collision_free_patterns(7, 3)
    got = _pattern_probs(cfg.matrix, 3, cfg.source, cfg.detector, cols)
    want = np.array([_mp_pattern_prob(cfg, list(p)) for p in cols])
    np.testing.assert_allclose(got, want, rtol=5e-15, atol=0)


def test_more_clicks_than_photons_without_the_full_click_set():
    # 4 clicks from 3 single-photon sources need a dark count: no exact full-set term is left
    cfg = DeviceConfig(make_haar(7, 3), 3, SourceModel((0.02, 0.98)), DetectorModel(0.01, 1e-4))
    cols = collision_free_patterns(7, 4)
    got = _pattern_probs(cfg.matrix, 3, cfg.source, cfg.detector, cols)
    want = np.array([_mp_pattern_prob(cfg, list(p)) for p in cols])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_single_photon_sweep_evaluates_only_the_subset_table(monkeypatch):
    # the full click sets take the sweep's own ideal |per|^2: no slot permanent of N clicks
    sizes = []
    slot_perms = noise_model._slot_perms

    def counting(base, proj, subsets):
        sizes.append(subsets.shape)
        return slot_perms(base, proj, subsets)

    monkeypatch.setattr(noise_model, "_slot_perms", counting)
    cfg = DeviceConfig(make_haar(9, 4), 3, SourceModel((0.02, 0.98)), DetectorModel(0.01, 1e-4))
    distance_parts(cfg)
    assert sizes == [(1, 0), (9, 1), (36, 2)]


@pytest.mark.parametrize("source", [SourceModel((0.02, 0.98)), SourceModel((0.02, 0.97, 0.01))], ids=["kmax1", "p2"])
def test_subset_table_matches_lone_pattern_tables_and_oracle(source):
    # The network-wide table read at colex ranks against each pattern's own
    # table, to the bit: 3 x 3 slot matrices take closed forms, the 6 x 6
    # ones of the p2 source the Glynn walk, whose bits do not depend on the
    # stack either.
    cfg = DeviceConfig(make_haar(9, 4), 3, source, DetectorModel(0.01, 1e-4))
    args = (cfg.matrix, 3, source, cfg.detector)
    cols = collision_free_patterns(9, 3)
    table = _subset_table(*args, np.arange(9), 3, len(cols))
    assert len(table.values) == 1 + 9 + 36
    shared = _pattern_probs(*args, cols, table)
    lone = np.array([_pattern_probs(*args, cols[i : i + 1])[0] for i in range(len(cols))])
    np.testing.assert_array_equal(shared, lone)
    want = np.array([_mp_pattern_prob(cfg, list(p)) for p in cols[::3]])
    np.testing.assert_allclose(shared[::3], want, rtol=5e-13, atol=0)


def test_term_cap_refuses_before_building_inputs(monkeypatch):
    # 2^13 slot matrices of order 26, 2^25 Gray steps each: refused from the counts alone
    def fail(*args):
        raise AssertionError("slot matrices built before the Gray-step cap was checked")

    monkeypatch.setattr(noise_model, "_slot_perms", fail)
    cfg = DeviceConfig(np.eye(20), 13, SourceModel((0.02, 0.97, 0.01)), DetectorModel())
    with pytest.raises(ResourceLimitError, match=f"8192 slot permanents of order 26: {2**38} Gray steps"):
        click_pattern_prob(cfg, (1,) * 13 + (0,) * 7)


def test_limits_refuse_before_any_kernel_call(monkeypatch):
    def fail(*args):
        raise AssertionError("a permanent was evaluated before the limits were checked")

    monkeypatch.setattr(noise_model, "_permanent_batch", fail)
    p2 = SourceModel((0.02, 0.97, 0.01))
    # the subsets of fewer than 12 of 16 modes and the 1820 patterns: all subsets but those of 13 or more
    cfg = DeviceConfig(make_haar(16, 3), 12, p2, DetectorModel())
    with pytest.raises(ResourceLimitError, match=f"{2**16 - 560 - 120 - 16 - 1} slot permanents of order 24"):
        distance_parts(cfg)
    with pytest.raises(ResourceLimitError, match="'gray_steps' limit"):
        click_pattern_prob(cfg, (1,) * 16)
    # three two-photon sources make slot matrices of order 6, over a cap of 5
    monkeypatch.setenv("BOSONBUDGET_MAX_N", "5")
    cfg = DeviceConfig(make_haar(6, 3), 3, p2, DetectorModel())
    for run in (lambda: distance_parts(cfg), lambda: click_pattern_prob(cfg, (1, 1, 0, 0, 0, 0))):
        with pytest.raises(ResourceLimitError, match="slot matrix: 6 rows, over the 'permanent_order' limit"):
            run()


# ------------------------------------------------------------ distance parts


def test_collision_free_patterns_matches_itertools():
    for m in range(13):
        for k in range(m + 1):
            got = collision_free_patterns(m, k)
            want = np.array(list(combinations(range(m), k)), dtype=np.intp)
            assert got.dtype == np.intp
            assert got.shape == want.shape == (math.comb(m, k), k)
            np.testing.assert_array_equal(got, want)
    with pytest.raises(ResourceLimitError, match=f"{math.comb(40, 20)} patterns"):
        collision_free_patterns(40, 20)
    for k in (-1, 6):
        with pytest.raises(ValueError, match="n_clicks"):
            collision_free_patterns(5, k)


def test_colex_rank_matches_itertools():
    # colex order: by largest member first, i.e. lexicographic on the reversed tuples
    for m in range(13):
        for k in range(m + 1):
            rows = collision_free_patterns(m, k)
            colex = sorted(combinations(range(m), k), key=lambda c: c[::-1])
            want = [colex.index(tuple(row)) for row in rows.tolist()]
            got = _colex_rank(rows.T)
            assert sorted(got.tolist()) == list(range(math.comb(m, k)))
            np.testing.assert_array_equal(got, want)
            unranked = _colex_unrank(np.arange(math.comb(m, k)), m, k)
            np.testing.assert_array_equal(unranked, np.array(colex, dtype=np.intp))


@pytest.mark.parametrize("bad", [[[-1, 0]], [[0, 0]], [[3, 1]], [[0, 6]], [[0.0, 1.0]]],
                         ids=["negative", "repeated", "unsorted", "past-last", "float"])
def test_distance_parts_refuses_bad_patterns(bad):
    cfg = DeviceConfig(make_haar(6, 2), 2, SourceModel((0.02, 0.98)), DetectorModel(0.01, 1e-4))
    with pytest.raises(ValueError, match="strictly increasing"):
        distance_parts(cfg, patterns=np.array(bad))
    with pytest.raises(ValueError, match="strictly increasing"):
        distance_parts(cfg, patterns=bad)


@pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int32])
def test_distance_parts_any_integer_patterns(dtype):
    # colex ranks reach C(39, 2) = 741, past what 8-bit indices hold
    cfg = DeviceConfig(make_haar(40, 3), 3, SourceModel((0.02, 0.98)), DetectorModel(0.01, 1e-4))
    patterns = collision_free_patterns(40, 3)
    assert distance_parts(cfg, patterns=patterns.astype(dtype)) == distance_parts(cfg)


def test_distance_parts_few_patterns_table_over_their_modes():
    # a table over all 60 modes would hold sum_(k<8) C(60, k), about 4.4e8 entries,
    # over the cap; one pattern needs only its own 255 proper subsets
    cfg = DeviceConfig(make_haar(60, 6), 8, SourceModel((0.02, 0.98)), DetectorModel(0.01, 1e-4))
    clicked = [0, 7, 15, 22, 30, 37, 45, 59]
    parts = distance_parts(cfg, patterns=np.array([clicked]))
    bits = [int(l in clicked) for l in range(60)]
    assert parts.v1 == pytest.approx(1.0 - click_pattern_prob(cfg, bits), abs=1e-14)


@pytest.mark.parametrize(
    "source", [SourceModel((0.02, 0.98)), SourceModel((0.02, 0.97, 0.01))], ids=["kmax1", "p2"]
)
def test_distance_parts_chunked_matches_one_pass(source):
    cfg = DeviceConfig(make_haar(40, 31), 3, source, DetectorModel(0.01, 1e-4))
    patterns = collision_free_patterns(40, 3)
    assert math.ceil(len(patterns) / STACK) == 3  # 9880 patterns, three chunks, the last short
    u = cfg.matrix
    pout = _pattern_probs(u, 3, source, cfg.detector, patterns)
    # one pass, pattern-major stack: [b, a, j] = U[a, patterns[b, j]]
    pideal = np.abs(_permanent_batch(np.moveaxis(np.take(u[:3], patterns, axis=1), 0, 1))) ** 2
    parts = distance_parts(cfg)
    assert parts == distance_parts(cfg, patterns=patterns)  # the streamed rows are the table's, in its chunks
    modelled = (1.0 - source.truncated_mass) ** 3
    assert parts.v1 == pytest.approx(max(modelled - math.fsum(pout), 0.0), abs=1e-13)
    assert parts.v2 == pytest.approx(math.fsum(np.abs(pout - pideal)), abs=1e-13)
    assert parts.vb == pytest.approx(max(1.0 - math.fsum(pideal), 0.0), abs=1e-13)


@pytest.mark.parametrize("modes, bound", [(120, 3_000_000), (180, 4_000_000)])
def test_default_sweep_holds_no_pattern_table(modes, bound):
    # the C(M, 3) x 3 intp table alone is 6.7 MB at M = 120 and 22.9 MB at M = 180
    cfg = DeviceConfig(make_haar(modes, 5), 3, SourceModel((0.02, 0.98)), DetectorModel(0.01, 1e-4))
    cfg.matrix  # the checked matrix is the caller's, not the sweep's
    tracemalloc.start()
    try:
        distance_parts(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_distance_parts_matches_slow_route():
    cfg = _noisy_cfg()
    parts = distance_parts(cfg)
    table = output_click_distribution(cfg).as_dict()
    n = cfg.n_sources
    v1_slow = sum(p for m, p in table.items() if sum(m) != n)
    ideal = full_distribution(cfg.matrix, (1, 1, 0, 0, 0))
    collapsed = {
        tuple(1 if x else 0 for x in o): p
        for o, p in zip(ideal.outcomes, ideal.probs)
        if max(o) <= 1
    }
    v2_slow = sum(abs(table[m] - collapsed.get(m, 0.0)) for m in table if sum(m) == n)
    vb_slow = 1.0 - sum(collapsed.values())
    assert parts.v1 == pytest.approx(v1_slow, abs=1e-12)
    assert parts.v2 == pytest.approx(v2_slow, abs=1e-12)
    assert parts.vb == pytest.approx(vb_slow, abs=1e-12)


def test_distance_parts_single_photon_support_path():
    # the collapsed evaluation (sources limited to 0/1 photons) agrees too
    u = make_haar(5, 21)
    cfg = DeviceConfig(u, 2, SourceModel.single_photon(0.9), DetectorModel(0.07, 0.03))
    parts = distance_parts(cfg)
    table = output_click_distribution(cfg).as_dict()
    v1_slow = sum(p for m, p in table.items() if sum(m) != 2)
    assert parts.v1 == pytest.approx(v1_slow, abs=1e-12)


def test_distance_parts_few_patterns_over_many_modes():
    # ten 8-click patterns over 60 modes: a table over the modes they touch would hold
    # tens of millions of subsets, so each pattern gets a table of its own, as a lone one does
    cfg = DeviceConfig(make_haar(60, 6), 8, SourceModel((0.02, 0.98)), DetectorModel(0.01, 1e-4))
    rng = np.random.default_rng(1)
    patterns = np.array([np.sort(rng.choice(60, 8, replace=False)) for _ in range(10)])
    assert len(np.unique(patterns)) > 40
    parts = distance_parts(cfg, patterns=patterns)
    lone = [click_pattern_prob(cfg, np.isin(np.arange(60), row).astype(int).tolist()) for row in patterns]
    assert abs(parts.v1 - (1.0 - math.fsum(lone))) <= 1e-14


def test_distance_parts_ideal_device():
    cfg = DeviceConfig.ideal(make_haar(12, 8), 2)
    parts = distance_parts(cfg)
    assert parts.v2 <= 1e-12
    assert parts.v1 == pytest.approx(parts.vb, abs=1e-12)


def test_distance_parts_vacuum_source():
    u = make_haar(6, 9)
    cfg = DeviceConfig(u, 2, SourceModel((1.0,)), DetectorModel.ideal())
    parts = distance_parts(cfg)
    assert parts.v1 == pytest.approx(1.0, abs=1e-12)
    # no output at all: the gap on N-click patterns is the whole ideal click mass
    assert parts.v2 == pytest.approx(1.0 - parts.vb, abs=1e-12)


def test_distance_parts_single_photon_device():
    u = make_haar(2, 10)
    cfg = DeviceConfig.ideal(u, 1)
    parts = distance_parts(cfg)
    assert parts.vb <= 1e-12
    assert parts.v2 <= 1e-12
    assert parts.v1 <= 1e-12


# ------------------------------------------------------------------- bounds


def test_noise_bound_ideal_closed_form():
    for n in range(1, 21):
        m = 20 * n * n
        value = noise_bound(n, m, SourceModel.ideal(), DetectorModel.ideal()).value
        assert abs(value - 3.0 * n * n / (2.0 * m)) <= 1e-14


def test_noise_bound_dead_source():
    nb = noise_bound(3, 100, SourceModel((1.0, 0.0)), DetectorModel.ideal())
    assert nb.click_prob == 0.0
    assert nb.bad_input_prob == 1.0
    assert nb.value == pytest.approx(9.0 / 200.0 + 4.0)


def test_additive_bound_worked_example():
    src = SourceModel.single_photon(0.999)
    det = DetectorModel(loss_prob=1e-3, dark_rate=1e-6)
    val = noise_bound_additive(20, 8000, src, det)
    expected = 0.075 + 3.0 * (7980e-6 + 0.02) + 4.0 * 20.0 * 0.001
    assert val == pytest.approx(expected, rel=1e-12)
    assert val == pytest.approx(0.23894, rel=1e-9)


def test_additive_dominates_exact_on_grid():
    rng = np.random.default_rng(14)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        m = int(n * n * rng.uniform(2.0, 100.0)) + n
        src = SourceModel.single_photon(float(rng.uniform(0.97, 1.0)))
        det = DetectorModel(
            loss_prob=float(rng.uniform(0, 0.01)), dark_rate=float(rng.uniform(0, 2e-6))
        )
        exact = noise_bound(n, m, src, det).value
        simple = noise_bound_additive(n, m, src, det)
        assert simple >= exact - 1e-12  # dominance holds everywhere
        if exact <= 1.0 and simple <= 1.0:
            checked += 1
    assert checked > 400
