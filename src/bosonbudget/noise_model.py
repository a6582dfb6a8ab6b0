"""Realistic device: imperfect sources, lossy dark-counting bucket detectors.

The output of a run is a click pattern m (one bit per detector). Its exact
probability chains the source distribution, the network transition
probabilities, and the per-detector response:

    P_out(m) = sum_s P_D(m|s) sum_n P_U(s|n) P_I(n).

Two independent evaluation routes are provided. ``output_click_distribution``
performs the literal triple sum (desk scale only). The other route is one
evaluator, ``_pattern_probs``, which folds the detector weights into small
permanents for a batch of click patterns; ``click_pattern_prob`` (and so the
round-trip test) and ``distance_parts`` both run on it. For factorised
per-mode weights x_l the network satisfies

    sum_s P_U(s|n) prod_l x_l^(s_l) = per(W(x)) / mu(n),
    W(x)[a, b] = sum_l x_l conj(U[k_a, l]) U[k_b, l],

so a pattern's probability needs only 2^(clicks) permanents of K x K Gram
matrices (K = photon total), independent of the mode count. That is what
makes exact evaluation possible at hundreds of modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, ResourceLimitError
from .fock import count_outputs, enumerate_outputs, mode_indices, mu, total_photons
from .ideal_sampler import DistributionTable, prob_ideal
from .permanent import _gray_steps, _permanent_batch
from .random_ensembles import as_matrix

MAX_PATTERNS = 4_000_000
MAX_CLICK_TABLE_MODES = 16

# Patterns per chunk in ``distance_parts`` (the sweep's counterpart of
# ``ideal_sampler._TABLE_CHUNK``): small enough that a chunk's Gram stacks
# stay in cache. The chunk fixes the summation order, so it is pinned.
_SWEEP_CHUNK = 4096


@dataclass(frozen=True)
class SourceModel:
    """Photon-number distribution of one source; all sources are replicas.

    ``photon_probs[k]`` is the chance of emitting k photons. The tuple may
    sum to less than 1; the remainder is truncated mass, reported but never
    silently renormalised.
    """

    photon_probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.photon_probs)
        if not probs:
            raise ValueError("photon_probs must be non-empty")
        if any(p < 0 for p in probs):
            raise ValueError("photon probabilities must be non-negative")
        if math.fsum(probs) > 1.0 + 1e-12:
            raise ValueError(f"photon probabilities sum to {math.fsum(probs)} > 1")
        object.__setattr__(self, "photon_probs", probs)

    @property
    def kmax(self) -> int:
        return len(self.photon_probs) - 1

    @property
    def truncated_mass(self) -> float:
        return max(0.0, 1.0 - math.fsum(self.photon_probs))

    def p(self, k: int) -> float:
        if k < 0:
            return 0.0
        return self.photon_probs[k] if k <= self.kmax else 0.0

    @classmethod
    def ideal(cls) -> "SourceModel":
        return cls((0.0, 1.0))

    @classmethod
    def single_photon(cls, p1: float, p2: float = 0.0) -> "SourceModel":
        """Mostly-single-photon source; the rest of the mass sits in vacuum."""
        p0 = 1.0 - p1 - p2
        if p0 < -1e-12:
            raise ValueError("p1 + p2 exceeds 1")
        probs = (max(p0, 0.0), p1) if p2 == 0.0 else (max(p0, 0.0), p1, p2)
        return cls(probs)


@dataclass(frozen=True)
class DetectorModel:
    """Bucket detector: click/no-click only.

    ``loss_prob`` is the chance a single photon fails to register (losses are
    modelled here, at the detection stage, not inside the network), and
    ``dark_rate`` the integral dark-count exponent: exp(-dark_rate) is the
    per-run zero-dark-count probability.
    """

    loss_prob: float = 0.0
    dark_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss_prob must be in [0, 1]")
        if self.dark_rate < 0.0:
            raise ValueError("dark_rate must be non-negative")

    def no_click_prob(self, photons: int) -> float:
        return math.exp(-self.dark_rate) * self.loss_prob ** photons

    def click_prob(self, photons: int) -> float:
        return 1.0 - self.no_click_prob(photons)

    @classmethod
    def ideal(cls) -> "DetectorModel":
        return cls(0.0, 0.0)


@dataclass(frozen=True)
class DeviceConfig:
    """Network plus source/detector models; sources feed modes 1..N."""

    unitary: object
    n_sources: int
    source: SourceModel
    detector: DetectorModel

    def __post_init__(self):
        m = as_matrix(self.unitary)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"network matrix must be square, got {m.shape}")
        if not 1 <= self.n_sources <= m.shape[0]:
            raise DimensionError(
                f"n_sources must be in [1, modes], got {self.n_sources} with {m.shape[0]} modes"
            )

    @property
    def matrix(self) -> np.ndarray:
        return as_matrix(self.unitary)

    @property
    def modes(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def ideal(cls, unitary, n_sources: int) -> "DeviceConfig":
        return cls(unitary, n_sources, SourceModel.ideal(), DetectorModel.ideal())


def input_prob(cfg: DeviceConfig, n: Sequence[int]) -> float:
    """Probability of the input occupation ``n``: product of source weights.

    Zero whenever a mode beyond the sources is occupied or an occupation
    exceeds the source truncation.
    """
    if len(n) != cfg.modes:
        raise DimensionError("occupation vector must have one entry per mode")
    if any(int(k) > 0 for k in n[cfg.n_sources:]):
        return 0.0
    out = 1.0
    for k in n[: cfg.n_sources]:
        out *= cfg.source.p(int(k))
        if out == 0.0:
            return 0.0
    return out


def detector_prob(det: DetectorModel, m: Sequence[int], s: Sequence[int]) -> float:
    """Joint click-pattern probability given the photon arrivals ``s``."""
    if len(m) != len(s):
        raise DimensionError("click pattern and occupation must have equal length")
    out = 1.0
    for click, photons in zip(m, s):
        p0 = det.no_click_prob(int(photons))
        out *= 1.0 - p0 if click else p0
    return out


def _input_support(source: SourceModel, n_sources: int):
    """Yield (occupation-over-sources, probability) for the truncated sources."""
    for occ in product(range(source.kmax + 1), repeat=n_sources):
        p = 1.0
        for k in occ:
            p *= source.photon_probs[k]
        if p > 0.0:
            yield occ, p


def output_click_distribution(
    cfg: DeviceConfig, *, max_terms: int = 5_000_000
) -> DistributionTable:
    """Exact distribution over all 2^M click patterns by the literal triple sum.

    Desk scale only (the table itself has 2^M entries); serves as the slow
    oracle for the permanent-based pattern probabilities.
    """
    u = cfg.matrix
    modes = cfg.modes
    if modes > MAX_CLICK_TABLE_MODES:
        raise ResourceLimitError(
            f"click table has 2^{modes} entries; capped at 2^{MAX_CLICK_TABLE_MODES} patterns"
        )
    totals = {total_photons(occ) for occ, _ in _input_support(cfg.source, cfg.n_sources)}
    n_terms = sum(count_outputs(modes, k) for k in totals) * (1 << modes)
    if n_terms > max_terms:
        raise ResourceLimitError(f"triple sum needs about {n_terms} terms, over the {max_terms} cap")

    det = cfg.detector
    pvec = np.zeros(1 << modes)
    for occ, p_in in _input_support(cfg.source, cfg.n_sources):
        n_full = tuple(occ) + (0,) * (modes - cfg.n_sources)
        for s in enumerate_outputs(modes, total_photons(occ)):
            p_us = prob_ideal(u, n_full, s)
            if p_us == 0.0:
                continue
            w = np.array([1.0])
            for s_l in s:
                p0 = det.no_click_prob(int(s_l))
                w = np.kron(w, np.array([p0, 1.0 - p0]))
            pvec += (p_in * p_us) * w

    outcomes = tuple(
        tuple((i >> (modes - 1 - j)) & 1 for j in range(modes)) for i in range(1 << modes)
    )
    return DistributionTable(outcomes, pvec)


def _gray_subset_walk(n_clicked: int, dark_rate: float):
    """Kept-click subsets T in Gray order as (flip_bit, add, coeff) steps.

    Expanding prod_{clicked}(1 - e^-nu r^s) gives, for each subset T of
    clicked modes kept un-expanded, the sign (-1)^(clicked-|T|) and dark
    factor e^(-(clicked-|T|) nu); ``coeff`` is their product. The steps are
    ``_gray_steps``: the first has flip_bit None (the empty subset), each
    later one flips exactly one member in or out.
    """
    coeffs = [
        (-1.0) ** (n_clicked - k) * math.exp(-(n_clicked - k) * dark_rate)
        for k in range(n_clicked + 1)
    ]
    size = 0
    for flip, add in _gray_steps(n_clicked):
        if flip is not None:
            size += 1 if add else -1
        yield flip, add, coeffs[size]


def _fold_inputs(n_sources, source, r):
    """The inputs (rows, base, scale, weight) that ``_pattern_probs`` sums over."""
    if source.kmax <= 1:
        p0, p1 = source.p(0), source.p(1)
        return [(np.arange(n_sources), (p0 + p1 * r) * np.eye(n_sources), p1 * (1.0 - r), 1.0)]
    inputs = []
    for occ, p_in in _input_support(source, n_sources):
        rows = np.asarray(mode_indices(occ), dtype=np.intp)
        delta = (rows[:, None] == rows[None, :]).astype(float)
        inputs.append((rows, r * delta, 1.0 - r, p_in / mu(occ)))
    return inputs


def _pattern_probs(u, n_sources, source, detector, cols):
    """P_out for a batch of click patterns, each given by its clicked modes.

    ``cols`` is a (batch, clicks) array of clicked mode indices, any click
    count. The sum runs over inputs (rows, base, scale, weight), each adding
    weight * per(base + scale * G_T) for every kept-click subset T, with G_T
    the Gram matrix of its rows over T; the Gray walk makes that one batched
    K x K permanent per subset. When the sources carry at most one photon,
    the inputs collapse into one whose diagonal shift (p0 + p1 r) absorbs
    every source that is empty or lost. Otherwise each input occupation is
    its own input, with base r on the repeated-row diagonal; the vacuum
    input (K = 0) needs no special case, since a 0 x 0 permanent is 1.
    """
    batch, clicks = cols.shape
    nu = detector.dark_rate
    pout = np.zeros(batch)
    for rows, base, scale, weight in _fold_inputs(n_sources, source, detector.loss_prob):
        # Entry-major stacks, batch last, so that every matrix entry is one
        # contiguous row: v[j, a, b] = U[rows[a], cols[b, j]],
        # projs[j, a, c, b] = scale conj(v[j, a, b]) v[j, c, b], g[a, c, b]
        v = np.take(u[rows], cols.T, axis=1).transpose(1, 0, 2)
        projs = scale * (v.conj()[:, :, None, :] * v[:, None, :, :])
        g = np.empty(base.shape + (batch,), dtype=complex)
        g[...] = base[:, :, None]
        for flip, add, coeff in _gray_subset_walk(clicks, nu):
            if flip is not None:
                if add:
                    g += projs[flip]
                else:
                    g -= projs[flip]
            pout += (weight * coeff) * _permanent_batch(g.transpose(2, 0, 1)).real
    pout *= math.exp(-(u.shape[0] - clicks) * nu)
    return pout


def click_pattern_prob(cfg: DeviceConfig, pattern: Sequence[int]) -> float:
    """Exact probability of one click pattern, any mode count.

    Cost is 2^(clicks) permanents of K x K matrices per Gram-fold input
    (K = photon total), so it stays cheap even for very wide networks.
    Requires the network matrix to be numerically unitary.
    """
    modes = cfg.modes
    if len(pattern) != modes:
        raise DimensionError("pattern must have one bit per mode")
    if any(b not in (0, 1) for b in pattern):
        raise ValueError("pattern entries must be 0 or 1")
    clicked = [l for l, b in enumerate(pattern) if b]
    n_clicked = len(clicked)
    n_inputs = len(_fold_inputs(cfg.n_sources, cfg.source, cfg.detector.loss_prob))
    if (1 << n_clicked) * n_inputs > 5_000_000:
        raise ResourceLimitError(
            f"pattern with {n_clicked} clicks and {n_inputs} inputs is over the term cap"
        )
    cols = np.array([clicked], dtype=np.intp)
    prob = _pattern_probs(cfg.matrix, cfg.n_sources, cfg.source, cfg.detector, cols)
    return max(float(prob[0]), 0.0)


class DistanceParts(NamedTuple):
    v1: float  # probability mass on patterns with a click count other than N
    v2: float  # L1 gap to the ideal device on the N-click patterns
    vb: float  # bunched-output mass of the ideal device


def collision_free_patterns(modes: int, n_clicks: int, *, max_patterns: int = MAX_PATTERNS) -> np.ndarray:
    """Index array (count, n_clicks) of every pattern with exactly n_clicks clicks.

    Rows are the n_clicks-subsets of range(modes) in lexicographic order,
    the order of ``itertools.combinations``. The table is grown one column
    at a time: a prefix ending in mode c continues with every mode from
    c + 1 up to the last that still leaves room for the remaining clicks.
    """
    if not 0 <= n_clicks <= modes:
        raise ValueError(f"n_clicks must be in [0, modes={modes}], got {n_clicks}")
    n_pat = math.comb(modes, n_clicks)
    if n_pat > max_patterns:
        raise ResourceLimitError(f"{n_pat} patterns exceed the cap of {max_patterns}")
    table = np.zeros((1, 0), dtype=np.intp)
    last = np.full(1, -1, dtype=np.intp)
    for t in range(n_clicks):
        counts = modes - n_clicks + t - last
        starts = np.cumsum(counts) - counts
        table = np.repeat(table, counts, axis=0)
        last = np.arange(len(table), dtype=np.intp) + np.repeat(last + 1 - starts, counts)
        table = np.column_stack((table, last))
    return table


def distance_parts(cfg: DeviceConfig, *, patterns: np.ndarray | None = None) -> DistanceParts:
    """Exact decomposition of the distance between the device and its ideal twin.

    v1 collects the output mass that lands on patterns with the wrong click
    count, v2 the pointwise L1 gap on patterns with exactly N clicks, and vb
    the bunched-output mass of the ideal device. All three are computed
    exactly; pass a precomputed ``patterns`` array when sweeping many
    networks of the same shape. Truncated source mass, if any, is unmodelled
    output and is excluded from v1.

    The sweep runs in chunks of ``_SWEEP_CHUNK`` (4096) patterns, summed in
    order; that order is part of the reproducibility contract. A sweep of at
    most 4096 patterns is one chunk and gives the same bytes as one pass over
    the whole table. Larger sweeps agree with earlier 131072-pattern chunks
    to 1e-12 absolute (rounding in the order of the partial sums only).
    """
    u = cfg.matrix
    n = cfg.n_sources
    if patterns is None:
        patterns = collision_free_patterns(cfg.modes, n)
    if patterns.ndim != 2 or patterns.shape[1] != n:
        raise DimensionError(f"patterns must be (count, {n}) mode indices")
    if (cfg.source.kmax + 1) ** n > 100_000 or n > 10:
        raise ResourceLimitError("input support too large for the pattern sweep")

    sum_out = 0.0
    sum_gap = 0.0
    sum_ideal = 0.0
    for lo in range(0, patterns.shape[0], _SWEEP_CHUNK):
        cols = patterns[lo : lo + _SWEEP_CHUNK]
        pideal = np.abs(_permanent_batch(np.take(u[:n], cols.T, axis=1).transpose(2, 0, 1))) ** 2
        pout = _pattern_probs(u, n, cfg.source, cfg.detector, cols)
        sum_out += float(pout.sum())
        sum_gap += float(np.abs(pout - pideal).sum())
        sum_ideal += float(pideal.sum())
    modelled = (1.0 - cfg.source.truncated_mass) ** n
    return DistanceParts(
        v1=max(modelled - sum_out, 0.0),
        v2=sum_gap,
        vb=max(1.0 - sum_ideal, 0.0),
    )


class NoiseBound(NamedTuple):
    value: float  # bound on the ensemble-mean total distance (raw, may exceed 2)
    click_prob: float  # chance of the fully ideal event: N clicks, no dark counts, ideal input
    bad_input_prob: float  # chance the input is not exactly one photon per source


def noise_bound(
    n_sources: int, modes: int, source: SourceModel, detector: DetectorModel
) -> NoiseBound:
    """Mean-distance bound from source, loss, and dark-count imperfections.

    With Q the all-ideal event probability and Q' the bad-input probability,

        value = N^2/(2M) + 2 (1 - Q (1 - N^2/(2M))) + (1 - Q) + Q'.

    The value is a bound, not a probability: it can exceed the distance
    range [0, 2] for poor hardware, and is reported raw.
    """
    if not 1 <= n_sources <= modes:
        raise ValueError("need 1 <= n_sources <= modes")
    p1 = source.p(1)
    r = detector.loss_prob
    nu = detector.dark_rate
    geom = n_sources**2 / (2.0 * modes)
    q = math.exp(-(modes - n_sources) * nu) * (1.0 - math.exp(-nu) * r) ** n_sources * p1**n_sources
    q_prime = 1.0 - p1**n_sources
    value = geom + 2.0 * (1.0 - q * (1.0 - geom)) + (1.0 - q) + q_prime
    return NoiseBound(value, q, q_prime)


def noise_bound_additive(
    n_sources: int, modes: int, source: SourceModel, detector: DetectorModel
) -> float:
    """Additive relaxation of :func:`noise_bound`, linear in each error rate.

        3N^2/(2M) + 3[(M - N) nu + N r] + 4N (1 - p1)

    Dominates the exact bound whenever both are meaningful, and is the form
    the budget inverter solves in closed form.
    """
    if not 1 <= n_sources <= modes:
        raise ValueError("need 1 <= n_sources <= modes")
    n, m = n_sources, modes
    return (
        3.0 * n**2 / (2.0 * m)
        + 3.0 * ((m - n) * detector.dark_rate + n * detector.loss_prob)
        + 4.0 * n * (1.0 - source.p(1))
    )
