"""Scalability verdicts and inversion of the error bounds into hardware budgets.

A device counts as scalable at target distance epsilon for a fraction
1 - delta of networks when the mean-distance bound stays below epsilon*delta
(first-moment tail bound) and the mean-square mismatch bound stays below
epsilon^2*delta (second-moment tail bound). Both are evaluated and reported
independently: the two error families are treated separately in the
small-error regime and no joint bound is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .distinguishability import Indistinguishability, mismatch_bound, mismatch_bound_small, mismatch_polynomial
from .errors import InfeasibleBudgetError
from .noise_model import DetectorModel, SourceModel, additive_coefficients, noise_bound, noise_bound_additive

FREE_PARAMS = ("dark_rate", "loss_prob", "p1_deficit", "fidelity_deficit")

_ELEMENT_FIDELITY_NOTE = (
    "network elements: infidelity must shrink like 1/N^2 (informational only; "
    "no constant is available, so no numeric verdict is emitted)"
)
_SEPARATE_REGIME_NOTE = (
    "small-error regime: source/detector noise and photon mismatch are budgeted "
    "separately; the verdicts are not a joint bound"
)


@dataclass(frozen=True)
class BudgetReport:
    """Evaluated bounds, verdicts, and per-parameter tolerances for one device."""

    epsilon: float
    delta: float
    n_sources: int
    modes: int
    noise_bound: float
    noise_bound_clamped: float
    noise_bound_additive: float
    click_prob: float
    bad_input_prob: float
    mismatch_bound: float
    mismatch_bound_small: float | None
    noise_ok: bool
    mismatch_ok: bool
    max_tolerable: dict[str, float | None]
    networks_per_hard_instance: float
    notes: tuple[str, ...] = field(default_factory=tuple)


def _validate_targets(epsilon: float, delta: float):
    if not 0.0 < epsilon <= 2.0:
        raise ValueError("epsilon must be in (0, 2]")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")


def evaluate_budget(
    n_sources: int,
    modes: int,
    source: SourceModel,
    detector: DetectorModel,
    indist: Indistinguishability,
    epsilon: float,
    delta: float,
) -> BudgetReport:
    """Evaluate all bounds and both pass/fail verdicts for one configuration."""
    _validate_targets(epsilon, delta)
    nb = noise_bound(n_sources, modes, source, detector)
    nb_add = noise_bound_additive(n_sources, modes, source, detector)
    mb = mismatch_bound(n_sources, indist)
    mb_small = (
        mismatch_bound_small(n_sources, indist.avg_fidelity)
        if indist.avg_fidelity is not None
        else None
    )

    tolerances: dict[str, float | None] = {}
    for name in FREE_PARAMS:
        try:
            tolerances[name] = invert_budget(
                n_sources,
                modes,
                epsilon,
                delta,
                name,
                dark_rate=detector.dark_rate,
                loss_prob=detector.loss_prob,
                p1=source.p(1),
            )
        except InfeasibleBudgetError:
            tolerances[name] = None

    return BudgetReport(
        epsilon=epsilon,
        delta=delta,
        n_sources=n_sources,
        modes=modes,
        noise_bound=nb.value,
        noise_bound_clamped=min(nb.value, 2.0),
        noise_bound_additive=nb_add,
        click_prob=nb.click_prob,
        bad_input_prob=nb.bad_input_prob,
        mismatch_bound=mb,
        mismatch_bound_small=mb_small,
        noise_ok=nb.value <= epsilon * delta,
        mismatch_ok=mb <= epsilon**2 * delta,
        max_tolerable=tolerances,
        networks_per_hard_instance=1.0 / (1.0 - delta),
        notes=(_SEPARATE_REGIME_NOTE, _ELEMENT_FIDELITY_NOTE),
    )


def invert_budget(
    n_sources: int,
    modes: int,
    epsilon: float,
    delta: float,
    free_param: str,
    *,
    dark_rate: float = 0.0,
    loss_prob: float = 0.0,
    p1: float = 1.0,
) -> float:
    """Largest value of one error parameter that still meets the budget.

    For ``dark_rate``, ``loss_prob`` and ``p1_deficit`` the additive noise
    condition is solved at equality (it is linear in each rate); for
    ``fidelity_deficit`` the small-mismatch polynomial condition is solved
    (quadratic, so a square root). The returned value substituted back into
    the respective condition reproduces the budget exactly.

    Raises
    ------
    InfeasibleBudgetError
        If the fixed terms alone exceed the budget; the dominant fixed term
        is named on the exception.
    """
    _validate_targets(epsilon, delta)
    if free_param not in FREE_PARAMS:
        raise ValueError(f"free_param must be one of {FREE_PARAMS}")
    n, m = n_sources, modes
    if not 1 <= n <= m:
        raise ValueError("need 1 <= n_sources <= modes")

    if free_param == "fidelity_deficit":
        poly = mismatch_polynomial(n)
        if poly <= 0.0:
            return math.inf  # a single photon has no mismatch error
        return math.sqrt(epsilon**2 * delta / poly)

    budget = epsilon * delta
    coeffs = additive_coefficients(n, m)
    terms = {
        "mode_count": coeffs["mode_count"],
        "dark_rate": coeffs["dark_rate"] * dark_rate,
        "loss_prob": coeffs["loss_prob"] * loss_prob,
        "p1_deficit": coeffs["p1_deficit"] * (1.0 - p1),
    }
    fixed = {k: v for k, v in terms.items() if k != free_param}
    residual = budget - math.fsum(fixed.values())
    if residual < 0.0:
        dominant = max(fixed, key=fixed.get)
        raise InfeasibleBudgetError(
            f"fixed terms already exceed the budget {budget:.3e} "
            f"(dominant: {dominant} = {fixed[dominant]:.3e})",
            dominant_term=dominant,
        )
    coeff = coeffs[free_param]
    if coeff == 0.0:
        return math.inf  # no mode without a source: dark counts enter no term
    return residual / coeff


@dataclass(frozen=True)
class ScalingRow:
    """Per-channel error ceilings at one problem size (each channel alone)."""

    n_sources: int
    required_modes: int
    max_dark_rate: float
    max_loss_prob: float
    max_p1_deficit: float
    max_fidelity_deficit: float
    element_fidelity: str


def scaling_table(budget: float, n_values) -> list[ScalingRow]:
    """How each error ceiling shrinks as the photon number grows.

    ``budget`` is applied to both conditions (epsilon*delta for the additive
    noise bound, epsilon^2*delta for the mismatch bound). For each N the row
    reports the mode count at which the geometry term alone spends the
    budget, and the ceiling of each error rate with every other term zeroed;
    the dark-count ceiling is quoted at that required mode count. Loss and
    source deficits fall off like 1/N while the fidelity deficit falls off
    like N^(-3/2); the element-fidelity column is informational only.
    """
    if budget <= 0.0:
        raise ValueError("budget must be positive")
    rows = []
    for n in n_values:
        n = int(n)
        if n < 1:
            raise ValueError("photon numbers must be positive")
        # the geometry term 3N^2/(2M) equals the budget at M = 3N^2/(2 budget), the same expression
        m_req = max(math.ceil(additive_coefficients(n, budget)["mode_count"]), n)
        coeffs = additive_coefficients(n, m_req)
        poly = mismatch_polynomial(n)
        rows.append(
            ScalingRow(
                n_sources=n,
                required_modes=m_req,
                max_dark_rate=budget / coeffs["dark_rate"] if m_req > n else math.inf,
                max_loss_prob=budget / coeffs["loss_prob"],
                max_p1_deficit=budget / coeffs["p1_deficit"],
                max_fidelity_deficit=math.sqrt(budget / poly) if poly > 0 else math.inf,
                element_fidelity="O(N^-2) scaling required; constant unknown",
            )
        )
    return rows
