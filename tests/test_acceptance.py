"""Acceptance gates for the package, one test per criterion.

Each test prints a single `[acceptance] ...: PASS/FAIL` line (run with
``pytest -s`` to see them inline; ``pytest -v`` already gives one line per
criterion through the test names). Tolerances are pinned here and nowhere
else. The statistical criteria use fixed seeds, so the whole suite is
reproducible bit for bit.
"""

import math
import time
import warnings
from itertools import product

import numpy as np

from bosonbudget import (
    DetectorModel,
    DeviceConfig,
    Indistinguishability,
    SourceModel,
    collision_free_patterns,
    detector_prob,
    distance_parts,
    full_distribution,
    fourier_matrix,
    gaussian_submatrix,
    haar_unitary,
    input_prob,
    invert_budget,
    mismatch_bound,
    mismatch_bound_small,
    noise_bound,
    noise_bound_additive,
    permanent_contingency,
    permanent_naive,
    permanent_repeated,
    permanent_ryser,
    prob_ideal,
    prob_mismatch,
    row_norm_witness,
    sample_ideal,
    scaling_table,
    suppression_test,
    unitarity_roundtrip,
)
from bosonbudget.cli import main as cli_main
from bosonbudget.fock import enumerate_outputs


def _report(name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)
    assert ok, f"{name}{tail}"


def _random_occupation(rng, modes, total):
    occ = [0] * modes
    for _ in range(total):
        occ[int(rng.integers(0, modes))] += 1
    return tuple(occ)


def test_c01_permanent_oracle_equivalence():
    """Fast permanent agrees with the brute-force permutation sum."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for n in range(2, 9):
        for _ in range(500):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            fast = permanent_ryser(a)
            slow = permanent_naive(a)
            worst = max(worst, abs(fast - slow) / max(1.0, abs(slow)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    _report("C01 permanent oracle equivalence", ok,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_c02_contingency_table_identity():
    """Contingency-table expansion equals the repeated-index permanent."""
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        modes = int(rng.integers(2, 6))
        u = haar_unitary(modes, rng)
        total = int(rng.integers(1, 5))
        n = _random_occupation(rng, modes, total)
        s = _random_occupation(rng, modes, total)
        a = permanent_contingency(u, n, s)
        b = permanent_repeated(u, n, s)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    _report("C02 contingency-table identity", worst <= 1e-9, f"worst rel err {worst:.2e}")


def test_c03_haar_average_law():
    """Ensemble mean of a fixed transition probability is N!/M^N."""
    t0 = time.monotonic()
    details = []
    ok = True
    for n, m, seed in ((2, 80, 1003), (3, 180, 1004)):
        rng = np.random.default_rng(seed)
        n0 = (1,) * n + (0,) * (m - n)
        s0 = (0,) * (m - n) + (1,) * n
        vals = np.array([prob_ideal(haar_unitary(m, rng), n0, s0) for _ in range(1000)])
        target = math.factorial(n) / m**n
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        pull = abs(vals.mean() - target) / se
        ok = ok and pull <= 3.0
        details.append(f"N={n}: pull {pull:.2f} sigma")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    _report("C03 Haar-average law", ok, "; ".join(details) + f", {elapsed:.0f}s")


def test_c04_hom_exactness():
    """Two photons never coincide on a balanced beamsplitter."""
    bs = fourier_matrix(2)
    p11 = prob_ideal(bs, (1, 1), (1, 1))
    p20 = prob_ideal(bs, (1, 1), (2, 0))
    p02 = prob_ideal(bs, (1, 1), (0, 2))
    ok = p11 <= 1e-12 and abs(p20 - 0.5) <= 1e-12 and abs(p02 - 0.5) <= 1e-12
    _report("C04 two-photon interference exactness", ok,
            f"P(1,1)={p11:.1e}, P(2,0)-1/2={p20 - 0.5:.1e}")


def test_c05_normalisation_suite():
    """Network, detector, and source distributions all sum to one."""
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(50):
        modes = int(rng.integers(2, 7))
        n_src = int(rng.integers(1, min(modes, 3) + 1))
        u = haar_unitary(modes, rng)
        total = int(rng.integers(1, 4))
        n = _random_occupation(rng, modes, total)

        mass = math.fsum(prob_ideal(u, n, s) for s in enumerate_outputs(modes, total))
        worst = max(worst, abs(mass - 1.0))

        det = DetectorModel(loss_prob=float(rng.uniform(0, 0.5)),
                            dark_rate=float(rng.uniform(0, 0.3)))
        s = _random_occupation(rng, modes, total)
        mass = math.fsum(detector_prob(det, m, s) for m in product((0, 1), repeat=modes))
        worst = max(worst, abs(mass - 1.0))

        p2 = float(rng.uniform(0, 0.1))
        p1 = float(rng.uniform(0.5, 1.0 - p2))
        src = SourceModel((1.0 - p1 - p2, p1, p2))
        cfg = DeviceConfig(u, n_src, src, det)
        mass = math.fsum(
            input_prob(cfg, occ + (0,) * (modes - n_src))
            for occ in product(range(src.kmax + 1), repeat=n_src)
        )
        worst = max(worst, abs(mass - (1.0 - src.truncated_mass) ** n_src))

        dist = full_distribution(u, n)
        worst = max(worst, abs(dist.total_mass - 1.0))
    _report("C05 normalisation suite", worst <= 1e-9, f"worst defect {worst:.2e}")


def test_c06_noise_bound_dominates_ensemble_mean():
    """Monte Carlo mean of the exact distance stays under the noise bound."""
    t0 = time.monotonic()
    details = []
    ok = True
    cases = (
        # (N, M, source, detector, base seed); p1 >= 0.98, dark <= 1e-4, loss <= 0.02
        (2, 80, SourceModel((0.015, 0.98, 0.005)), DetectorModel(0.02, 1e-4), 1006),
        (3, 180, SourceModel.single_photon(0.98), DetectorModel(0.02, 1e-4), 1007),
    )
    for n, m, src, det, seed in cases:
        rng = np.random.default_rng(seed)
        totals = np.empty(200)
        for i in range(200):
            cfg = DeviceConfig(haar_unitary(m, rng), n, src, det)
            parts = distance_parts(cfg)
            totals[i] = parts.v1 + parts.v2 + parts.vb
        bound = noise_bound(n, m, src, det).value
        ok = ok and totals.mean() <= bound
        details.append(f"N={n}: mean {totals.mean():.3f} <= bound {bound:.3f}")

    # additive form dominates the exact bound wherever both are meaningful
    rng = np.random.default_rng(1008)
    checked = 0
    dominated = True
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        m = int(n * n * rng.uniform(2.0, 100.0)) + n
        src = SourceModel.single_photon(float(rng.uniform(0.97, 1.0)))
        det = DetectorModel(loss_prob=float(rng.uniform(0, 0.01)),
                            dark_rate=float(rng.uniform(0, 2e-6)))
        exact = noise_bound(n, m, src, det).value
        simple = noise_bound_additive(n, m, src, det)
        if exact <= 1.0 and simple <= 1.0:
            checked += 1
            dominated = dominated and simple >= exact - 1e-12
    ok = ok and dominated and checked >= 400
    elapsed = time.monotonic() - t0
    _report("C06 noise bound dominates ensemble mean", ok,
            "; ".join(details) + f"; grid {checked} pts, {elapsed:.0f}s")


def test_c07_ideal_parameter_closed_form():
    """Perfect hardware reduces the noise bound to pure geometry."""
    worst = 0.0
    for n in range(1, 21):
        m = 20 * n * n
        value = noise_bound(n, m, SourceModel.ideal(), DetectorModel.ideal()).value
        worst = max(worst, abs(value - 3.0 * n * n / (2.0 * m)))
    _report("C07 ideal-parameter closed form", worst <= 1e-14, f"worst gap {worst:.1e}")


def test_c08_mismatch_bound_consistency():
    """Cycle-sum bound, its two-photon closed form, and the polynomial form."""
    ok = True
    details = []
    for g2 in (0.0, 0.37, 0.9, 0.999):
        got = mismatch_bound(2, Indistinguishability((g2,)))
        ok = ok and got == (1.0 - g2) ** 2 / 2.0
    details.append("two-photon closed form exact")

    worst = 0.0
    for n in range(2, 9):
        for deficit in (1e-3, 3e-4, 1e-4):
            orders = tuple(1.0 - k * deficit for k in range(2, n + 1))
            full = mismatch_bound(n, Indistinguishability(orders))
            small = mismatch_bound_small(n, 1.0 - deficit)
            worst = max(worst, abs(full / small - 1.0))
    ok = ok and worst <= 0.20
    details.append(f"polynomial form rel gap {worst:.3f}")

    ok = ok and mismatch_bound_small(1, 0.3) == 0.0
    details.append("vanishes at N=1")
    _report("C08 mismatch bound consistency", ok, "; ".join(details))


def test_c09_mismatch_probability_limits():
    """Partial-overlap probability: both limits plus completeness."""
    rng = np.random.default_rng(1009)
    worst_ideal = 0.0
    for _ in range(100):
        modes = int(rng.integers(2, 6))
        u = haar_unitary(modes, rng)
        total = int(rng.integers(1, 5))
        n = _random_occupation(rng, modes, total)
        s = _random_occupation(rng, modes, total)
        gap = abs(
            prob_mismatch(u, n, s, Indistinguishability.perfect(total))
            - prob_ideal(u, n, s)
        )
        worst_ideal = max(worst_ideal, gap)

    worst_classical = 0.0
    for _ in range(25):
        modes = int(rng.integers(2, 6))
        u = haar_unitary(modes, rng)
        total = int(rng.integers(1, min(modes, 4) + 1))
        rows = sorted(rng.choice(modes, size=total, replace=False))
        cols = sorted(rng.choice(modes, size=total, replace=False))
        n = tuple(1 if i in rows else 0 for i in range(modes))
        s = tuple(1 if i in cols else 0 for i in range(modes))
        classical = permanent_ryser(np.abs(u.matrix[np.ix_(rows, cols)]) ** 2).real
        gap = abs(prob_mismatch(u, n, s, Indistinguishability.constant(0.0, total)) - classical)
        worst_classical = max(worst_classical, gap)

    worst_mass = 0.0
    for _ in range(10):
        modes = int(rng.integers(3, 6))
        total = int(rng.integers(2, 4))
        u = haar_unitary(modes, rng)
        ind = Indistinguishability(tuple(rng.uniform(0.1, 1.0, total - 1)))
        n0 = (1,) * total + (0,) * (modes - total)
        mass = math.fsum(prob_mismatch(u, n0, s, ind) for s in enumerate_outputs(modes, total))
        worst_mass = max(worst_mass, abs(mass - 1.0))

    ok = worst_ideal <= 1e-10 and worst_classical <= 1e-10 and worst_mass <= 1e-9
    _report("C09 mismatch probability limits", ok,
            f"ideal {worst_ideal:.1e}, classical {worst_classical:.1e}, mass {worst_mass:.1e}")


def test_c10_mismatch_bound_gaussian_ensemble():
    """Scaled mean-square deviation in the Gaussian ensemble obeys the bound."""
    t0 = time.monotonic()
    n, m = 3, 180
    indist = Indistinguishability.constant(0.99, n)
    n0 = s0 = (1,) * n
    scale = m**n / math.factorial(n)
    rng = np.random.default_rng(1010)
    draws = 5000
    vals = np.empty(draws)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # M=180 < 10 N^2 warning does not apply at N=3
        for i in range(draws):
            w = gaussian_submatrix(n, m, rng)
            vals[i] = (scale * (prob_mismatch(w, n0, s0, indist) - prob_ideal(w, n0, s0))) ** 2
    bound = mismatch_bound(n, indist)
    se = vals.std(ddof=1) / math.sqrt(draws)
    elapsed = time.monotonic() - t0
    ok = vals.mean() <= bound + 3.0 * se and elapsed < 1200.0
    _report("C10 mismatch bound vs Gaussian ensemble", ok,
            f"mean {vals.mean():.3e} vs bound {bound:.3e} + 3se {3 * se:.1e}, {elapsed:.0f}s")


def test_c11_budget_inversion_and_scaling():
    """Inverted thresholds hit the budget exactly; scaling laws hold."""
    worst = 0.0
    n, m, eps, delta = 6, 30000, 0.15, 0.2
    for free in ("dark_rate", "loss_prob", "p1_deficit"):
        fixed = {"dark_rate": 1e-8, "loss_prob": 1e-5, "p1": 0.99995}
        th = invert_budget(n, m, eps, delta, free,
                           dark_rate=0.0 if free == "dark_rate" else fixed["dark_rate"],
                           loss_prob=0.0 if free == "loss_prob" else fixed["loss_prob"],
                           p1=1.0 if free == "p1_deficit" else fixed["p1"])
        values = dict(fixed)
        if free == "dark_rate":
            values["dark_rate"] = th
        elif free == "loss_prob":
            values["loss_prob"] = th
        else:
            values["p1"] = 1.0 - th
        lhs = noise_bound_additive(
            n, m, SourceModel.single_photon(values["p1"]),
            DetectorModel(values["loss_prob"], values["dark_rate"]))
        worst = max(worst, abs(lhs - eps * delta))
    th = invert_budget(12, 10**6, eps, delta, "fidelity_deficit")
    worst = max(worst, abs(mismatch_bound_small(12, 1.0 - th) - eps**2 * delta))

    rows = {r.n_sources: r for r in scaling_table(0.01, [10, 40])}
    ratio = rows[40].max_fidelity_deficit / rows[10].max_fidelity_deficit
    ratio_ok = abs(ratio / 0.125 - 1.0) <= 0.10
    ok = worst <= 1e-12 and ratio_ok
    _report("C11 budget inversion and scaling", ok,
            f"worst equality gap {worst:.1e}; fidelity ratio {ratio:.4f} vs 1/8")


def test_c12_verification_suite():
    """Witness reliability, round trip, and suppression leakage."""
    t0 = time.monotonic()
    modes, n = 9, 3
    n0 = (1,) * n + (0,) * (modes - n)
    u = haar_unitary(modes, np.random.default_rng(2024))
    dist = full_distribution(u, n0)
    pats = collision_free_patterns(modes, n)

    correct = 0
    for trial in range(100):
        rng = np.random.default_rng(3000 + trial)
        if trial % 2 == 0:
            samples = [tuple(1 if x else 0 for x in s) for s in sample_ideal(dist, 10_000, rng)]
            expected = "bs-like"
        else:
            samples = []
            for i in rng.integers(0, len(pats), 10_000):
                p = [0] * modes
                for c in pats[i]:
                    p[c] = 1
                samples.append(tuple(p))
            expected = "uniform-like"
        if row_norm_witness(u, n0, samples).decision == expected:
            correct += 1

    cfg_ideal = DeviceConfig.ideal(haar_unitary(6, np.random.default_rng(31)), 2)
    rt_ideal = unitarity_roundtrip(cfg_ideal)
    cfg_dark = DeviceConfig(cfg_ideal.unitary, 2, SourceModel.ideal(), DetectorModel(0.0, 1e-3))
    rt_dark = unitarity_roundtrip(cfg_dark)

    supp_ok = True
    for k in range(2, 6):
        res = suppression_test(k, Indistinguishability.perfect(k))
        supp_ok = supp_ok and res.law_valid and res.suppressed_mass <= 1e-10
    leak = suppression_test(3, Indistinguishability.constant(0.9, 3)).suppressed_mass

    elapsed = time.monotonic() - t0
    ok = (correct >= 99 and abs(rt_ideal - 1.0) <= 1e-10 and rt_dark < 1.0
          and supp_ok and leak > 0.0)
    _report("C12 verification suite", ok,
            f"witness {correct}/100; roundtrip {rt_ideal:.12f}, dark {rt_dark:.6f}; "
            f"leak {leak:.2e}; {elapsed:.0f}s")


def test_c13_deterministic_reports(tmp_path):
    """Same seed gives byte-identical reports."""
    commands = {
        "sample": ["sample", "--modes", "6", "--sources", "2", "--count", "200",
                   "--seed", "5", "--samples-out", None, "--out", None],
        "distribution": ["distribution", "--modes", "5", "--photons", "2",
                         "--seed", "6", "--out", None],
        "distance": ["distance", "--modes", "10", "--sources", "2", "--p1", "0.99",
                     "--p0", "0.01", "--loss", "0.01", "--dark", "1e-5",
                     "--seed", "7", "--out", None],
        "budget": ["budget", "--sources", "10", "--modes", "4000", "--epsilon", "0.1",
                   "--delta", "0.1", "--g", "0.99", "--scaling", "5,10,20", "--out", None],
        "verify": ["verify", "--test", "suppression", "--photons", "4", "--g", "0.95",
                   "--out", None],
        "bench": ["bench", "--sizes", "2,4,8", "--seed", "8", "--out", None],
    }
    ok = True
    mismatched = []
    for name, template in commands.items():
        outputs = []
        for run in (1, 2):
            args = list(template)
            for i, v in enumerate(args):
                if v is None:
                    # every run writes to the same paths, mimicking a re-run
                    args[i] = str(tmp_path / f"{name}{'_samples' if args[i - 1] == '--samples-out' else ''}.out")
            rc = cli_main(args)
            assert rc == 0, f"{name} exited {rc}"
            outputs.append((tmp_path / f"{name}.out").read_bytes())
        if outputs[0] != outputs[1]:
            ok = False
            mismatched.append(name)
    _report("C13 deterministic reports", ok,
            "all byte-identical" if ok else f"mismatch: {mismatched}")
