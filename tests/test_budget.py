import math

import numpy as np
import pytest

from bosonbudget import (
    DetectorModel,
    DeviceConfig,
    Indistinguishability,
    InfeasibleBudgetError,
    SourceModel,
    distance_parts,
    evaluate_budget,
    invert_budget,
    mismatch_bound_small,
    noise_bound_additive,
    scaling_table,
)

from conftest import make_haar


def _ideal_budget(n, m, eps=0.1, delta=0.1):
    return evaluate_budget(
        n, m, SourceModel.ideal(), DetectorModel.ideal(), Indistinguishability.perfect(n), eps, delta
    )


def test_ideal_device_passes_with_enough_modes():
    eps = delta = 0.1
    n = 4
    m = math.ceil(3 * n * n / (2 * eps * delta)) + 1
    report = _ideal_budget(n, m, eps, delta)
    assert report.noise_ok
    assert report.mismatch_ok
    assert report.mismatch_bound == 0.0


def test_worked_example_n20_fails():
    report = _ideal_budget(20, 8000)
    assert report.noise_bound == pytest.approx(0.075, rel=1e-12)
    assert not report.noise_ok  # 0.075 > eps*delta = 0.01: the mode count must grow
    assert report.mismatch_ok


def test_report_fields():
    report = _ideal_budget(3, 2000, 0.2, 0.5)
    assert report.networks_per_hard_instance == pytest.approx(2.0)
    assert report.noise_bound_clamped <= 2.0
    assert set(report.max_tolerable) == {
        "dark_rate",
        "loss_prob",
        "p1_deficit",
        "fidelity_deficit",
    }
    assert any("1/N^2" in note or "N^-2" in note for note in report.notes)


def test_invert_fidelity_worked_example():
    got = invert_budget(20, 8000, 0.1, 0.1, "fidelity_deficit")
    poly = 20**3 / 3 - 20**2 / 2 + 7 * 20 / 6 - 1
    assert poly == pytest.approx(2489.0, rel=1e-12)
    assert got == pytest.approx(math.sqrt(0.001 / 2489.0), rel=1e-12)
    assert got == pytest.approx(6.34e-4, rel=2e-3)


def test_invert_infeasible_names_dominant_term():
    # the mode-count term alone exceeds the budget: no dark rate can help
    with pytest.raises(InfeasibleBudgetError) as err:
        invert_budget(10, 2000, 0.1, 0.1, "dark_rate")
    assert err.value.dominant_term == "mode_count"


def test_invert_loss_linear_rearrangement():
    n, m, eps, delta = 4, 48000, 0.1, 0.1
    geom = 3 * n * n / (2 * m)
    assert geom <= eps * delta / 2
    got = invert_budget(n, m, eps, delta, "loss_prob")
    assert got == pytest.approx((eps * delta - geom) / (3 * n), rel=1e-12)


@pytest.mark.parametrize("free", ["dark_rate", "loss_prob", "p1_deficit"])
def test_invert_resubstitution_equality(free):
    n, m, eps, delta = 6, 30000, 0.15, 0.2
    fixed = {"dark_rate": 1e-7, "loss_prob": 1e-4, "p1": 0.9995}
    kwargs = dict(fixed)
    kwargs.pop({"dark_rate": "dark_rate", "loss_prob": "loss_prob", "p1_deficit": "p1"}[free])
    threshold = invert_budget(n, m, eps, delta, free, **{
        k: v for k, v in kwargs.items()
    })
    values = {
        "dark_rate": fixed["dark_rate"],
        "loss_prob": fixed["loss_prob"],
        "p1": fixed["p1"],
    }
    if free == "dark_rate":
        values["dark_rate"] = threshold
    elif free == "loss_prob":
        values["loss_prob"] = threshold
    else:
        values["p1"] = 1.0 - threshold
    lhs = noise_bound_additive(
        n, m, SourceModel.single_photon(values["p1"]),
        DetectorModel(values["loss_prob"], values["dark_rate"]),
    )
    assert abs(lhs - eps * delta) <= 1e-12


def test_invert_fidelity_resubstitution_equality():
    n, eps, delta = 12, 0.1, 0.25
    threshold = invert_budget(n, 10**6, eps, delta, "fidelity_deficit")
    lhs = mismatch_bound_small(n, 1.0 - threshold)
    assert abs(lhs - eps**2 * delta) <= 1e-12


def test_invert_single_photon_fidelity_unbounded():
    assert invert_budget(1, 100, 0.1, 0.1, "fidelity_deficit") == math.inf


def test_invert_dark_rate_unbounded_without_spare_modes():
    # M = N: the additive bound's dark-count term 3 (M - N) nu vanishes
    assert invert_budget(1, 1, 2.0, 0.99, "dark_rate") == math.inf


def test_thresholds_monotone_in_targets():
    base = dict(dark_rate=1e-9, loss_prob=1e-5, p1=0.99995)
    for free in ("dark_rate", "loss_prob", "p1_deficit", "fidelity_deficit"):
        kwargs = dict(base)
        kwargs.pop({"dark_rate": "dark_rate", "loss_prob": "loss_prob",
                    "p1_deficit": "p1", "fidelity_deficit": "p1"}[free], None)
        lo = invert_budget(5, 40000, 0.05, 0.1, free, **kwargs)
        hi_eps = invert_budget(5, 40000, 0.1, 0.1, free, **kwargs)
        hi_delta = invert_budget(5, 40000, 0.05, 0.2, free, **kwargs)
        assert hi_eps >= lo
        assert hi_delta >= lo


def test_scaling_table_ratios():
    rows = {r.n_sources: r for r in scaling_table(0.01, [10, 20, 40])}
    # loss ceiling halves when N doubles
    assert rows[20].max_loss_prob == pytest.approx(rows[10].max_loss_prob / 2.0, rel=1e-12)
    # required modes grow like N^2
    assert rows[40].required_modes == pytest.approx(16 * rows[10].required_modes, rel=1e-2)
    # fidelity ceiling falls like N^(-3/2)
    ratio = rows[40].max_fidelity_deficit / rows[10].max_fidelity_deficit
    assert abs(ratio / (1.0 / 8.0) - 1.0) <= 0.10
    assert "N^-2" in rows[10].element_fidelity


def test_markov_fraction_check():
    # passing verdicts really do control the fraction of bad networks:
    # empirical fraction of networks with V > eps stays within the
    # first-moment tail estimate mean(V)/eps plus sampling error
    eps = 0.5
    src = SourceModel.single_photon(0.995)
    det = DetectorModel(loss_prob=0.005, dark_rate=1e-5)
    totals = []
    for seed in range(60):
        cfg = DeviceConfig(make_haar(80, 1000 + seed), 2, src, det)
        parts = distance_parts(cfg)
        totals.append(parts.v1 + parts.v2 + parts.vb)
    totals = np.array(totals)
    frac = float((totals > eps).mean())
    se = totals.std(ddof=1) / math.sqrt(len(totals))
    assert frac <= totals.mean() / eps + 3.0 * se / eps
