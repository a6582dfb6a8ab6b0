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

so each kept-click subset of a pattern needs the permanent of one small
matrix over the source rows, independent of the mode count. The sum over
the sources' photon numbers folds into that same permanent: each source
gets one row per linear factor of its generating function sum_k p_k z^k/k!,
so the matrix is N x N for sources of at most one photon and N kmax x
N kmax otherwise. A kept-click subset smaller than the click count is shared
by every pattern that holds it, so it is evaluated once, in a table
(``_subset_table``). The full click set's term needs no slot permanent
once the clicks fill the K = N kmax slots: it is then the ideal |per|^2 of
the pattern, scaled. So a sweep over the N-click patterns of M modes from
sources of at most one photon costs sum_(k<N) C(M, k) slot permanents per
network besides the ideal |per|^2 it needs anyway, and a lone pattern with
c clicks 2^c permanents. That is what makes exact evaluation possible at
hundreds of modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations, product
from typing import NamedTuple, Sequence

import numpy as np

from . import limits
from .errors import DimensionError
from .fock import (
    _colex_rank,
    _colex_unrank,
    _pattern_chunks,
    collision_free_patterns,  # re-exported: perfbench's tracer times it under this module
    count_outputs,
    enumerate_outputs,
    total_photons,
)
from .ideal_sampler import DistributionTable, _squared_permanents, prob_ideal
from .permanent import STACK, _permanent_batch
from .random_ensembles import as_matrix


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
        if not all(p >= 0.0 for p in probs):  # NaN fails too
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
    def single_photon(cls, p1: float, p2: float = 0.0, p0: float | None = None) -> "SourceModel":
        """Mostly-single-photon source; without ``p0`` the rest of the mass sits in vacuum."""
        if p0 is None:
            p0 = 1.0 - p1 - p2
            if p0 < -1e-12:
                raise ValueError("p1 + p2 exceeds 1")
            p0 = max(p0, 0.0)
        return cls((p0, p1) if p2 == 0.0 else (p0, p1, p2))


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
        if not 0.0 <= self.dark_rate < math.inf:  # NaN fails too
            raise ValueError("dark_rate must be finite and non-negative")

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
        # self.modes reads self.matrix, so the network is checked here
        if not 1 <= self.n_sources <= self.modes:
            raise DimensionError(
                f"n_sources must be in [1, modes], got {self.n_sources} with {self.modes} modes"
            )

    @cached_property
    def matrix(self) -> np.ndarray:
        """The network as ``as_matrix`` checks it, converted once."""
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
    as_matrix(cfg.unitary, n)  # refuses an occupation vector of the wrong length
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


def output_click_distribution(cfg: DeviceConfig) -> DistributionTable:
    """Exact distribution over all 2^M click patterns by the literal triple sum.

    Desk scale only (the table itself has 2^M entries); serves as the slow
    oracle for the permanent-based pattern probabilities.
    """
    u = cfg.unitary  # a NetworkUnitary is not scanned again by each prob_ideal call
    modes = cfg.modes
    limits.check("click_table_modes", modes, f"click table of 2^{modes} patterns")
    totals = {total_photons(occ) for occ, _ in _input_support(cfg.source, cfg.n_sources)}
    limits.check("triple_sum_terms", sum(count_outputs(modes, k) for k in totals) * (1 << modes), "triple sum")

    det = cfg.detector
    pvec = np.zeros(1 << modes)
    for occ, p_in in _input_support(cfg.source, cfg.n_sources):
        n_full = tuple(occ) + (0,) * (modes - cfg.n_sources)
        for s in enumerate_outputs(modes, total_photons(occ)).tolist():
            p_us = prob_ideal(u, n_full, s)
            if p_us == 0.0:
                continue
            w = np.array([1.0])
            for s_l in s:
                p0 = det.no_click_prob(int(s_l))
                w = np.kron(w, np.array([p0, 1.0 - p0]))
            pvec += (p_in * p_us) * w

    # pattern i has bit j at mode j, the first mode most significant
    outcomes = (np.arange(1 << modes)[:, None] >> np.arange(modes - 1, -1, -1)) & 1
    return DistributionTable(outcomes, pvec)


def _slot_factors(source):
    """Linear factors of the source's generating function g(z) = sum_k p_k z^k / k!.

    Returns (x, w) with g(z) = prod_j (x_j + w z): an array x with one entry
    per degree of g (trailing zero probabilities dropped, at least one) and
    one scalar w. At degree 1 the factor is (p0 + p1 z) itself. Above, the
    leading coefficient is spread as w = lead^(1/d) over the d factors and
    x_j = -z_j w for the roots z_j of g: a cancellation-free quadratic at
    degree 2, ``np.roots`` above. Complex roots give complex x.
    """
    coeffs = [p / math.factorial(k) for k, p in enumerate(source.photon_probs)] + [0.0]
    while len(coeffs) > 2 and coeffs[-1] == 0.0:
        coeffs.pop()
    d = len(coeffs) - 1
    if d == 1:
        return np.array(coeffs[:1]), coeffs[1]
    if d == 2:
        c, b, a = coeffs
        q = -0.5 * (b + np.sqrt(complex(b * b - 4.0 * a * c)))  # b = p1 >= 0: no cancellation
        roots = np.array([q / a, c / q if q else 0.0])
    else:
        roots = np.roots(coeffs[::-1])
    w = coeffs[-1] ** (1.0 / d)
    return -w * roots, w


def _slot_perms(base: np.ndarray, proj: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """f(T) = per(X + w A_T[sigma|sigma]) for the rows T of the (count, k) mode array ``subsets``.

    For a kept-click subset T let A_T = r I + (1 - r) G_T, with G_T the
    Gram matrix of the N source rows over T. The input occupation n, of
    weight prod_i p_(n_i) / n_i!, contributes per(A_T[n|n]). Writing
    g(z) = sum_k p_k z^k / k! as prod_j (x_j + w z) (``_slot_factors``)
    and giving each source one slot per factor, with sigma mapping a slot
    to its source and X the diagonal of the slots' x_j, the sum over every
    occupation is the one permanent f(T). Expanding it over the slots that
    take their entry from X leaves, for n_i slots of source i taken from
    w A_T, per(A_T[n|n]) times the z^(n_i) coefficients of the factor
    products, which are the p_(n_i) / n_i!. When the sources carry at most
    one photon the one factor is (p0 + p1 z), so the matrix is
    (p0 + p1 r) I + p1 (1 - r) G_T.

    Every slot matrix is K x K whatever |T|, built as
    base + proj[:, :, T_0] + proj[:, :, T_1] + ... in the order of the row
    (``_SubsetTable`` defines both parts). The rows go to the kernel as one
    stack, so callers keep them to ``permanent.STACK``.
    """
    # entry-major, batch last, so that every matrix entry is one contiguous row
    g = np.repeat(base[:, :, None].astype(complex), len(subsets), axis=2)
    for col in subsets.T:
        g += np.take(proj, col, axis=2)
    return _permanent_batch(g.transpose(2, 0, 1)).real


class _SubsetTable(NamedTuple):
    base: np.ndarray  # (K, K): the slot matrix at T empty, X + w r I[sigma|sigma]
    # (K, K, M): what mode l adds to it on joining T, w (1 - r) conj(U[sigma, l]) U[sigma, l]^T
    proj: np.ndarray
    modes: np.ndarray  # the sorted modes the subsets are drawn from
    values: np.ndarray  # f(T) by size of T, then by colex rank of T within ``modes``
    offsets: list  # offsets[k]: index of the first subset of size k; the last is the size


def _subset_table(u, n_sources, source, detector, modes, clicks, patterns) -> _SubsetTable:
    """f(T) (``_slot_perms``) for every subset T of ``modes`` with fewer than ``clicks`` members.

    A subset smaller than a pattern is shared by every pattern that holds
    it, so the table evaluates it once for all of them, one size per
    kernel call of at most ``permanent.STACK`` entries, each unranked when
    built. The work of the whole evaluation, the table and the caller's
    ``patterns`` full-size permanents, is checked against the limits first.
    """
    m = len(modes)
    offsets = [0]
    for k in range(clicks):
        offsets.append(offsets[-1] + math.comb(m, k))
    limits.check("patterns", offsets[-1], "subset table")
    # one block of N slots per factor: slot a has source rows[a], factor (xs[a] + w z)
    x, w = _slot_factors(source)
    limits.check_slot_permanents(len(x) * n_sources, offsets[-1] + patterns)
    r = detector.loss_prob
    xs = np.repeat(x, n_sources)
    rows = np.tile(np.arange(n_sources), len(x))
    base = np.diag(xs) + (w * r) * (rows[:, None] == rows[None, :])
    v = u[rows]
    proj = (w * (1.0 - r)) * (v.conj()[:, None, :] * v[None, :, :])
    values = np.empty(offsets[-1])
    for k, (start, end) in enumerate(zip(offsets, offsets[1:])):
        for lo in range(start, end, STACK):
            hi = min(lo + STACK, end)
            values[lo:hi] = _slot_perms(base, proj, modes[_colex_unrank(np.arange(lo - start, hi - start), m, k)])
    return _SubsetTable(base, proj, modes, values, offsets)


def _table_modes(patterns: np.ndarray, modes: int) -> np.ndarray | None:
    """The modes one subset table for ``patterns`` covers, or None when no one table pays.

    Over all modes the table needs no remapping of mode indices; it covers
    only the modes the patterns touch when it would otherwise hold more
    entries than the patterns have proper subsets, as for a lone pattern.
    When even that table would hold more, the patterns are few and spread
    over many modes, and each is better evaluated with a table of its own.
    """
    batch, clicks = patterns.shape
    subsets = batch * ((1 << clicks) - 1)
    if sum(math.comb(modes, k) for k in range(clicks)) <= subsets:
        return np.arange(modes)
    touched = np.unique(patterns)
    return touched if sum(math.comb(len(touched), k) for k in range(clicks)) <= subsets else None


def _pattern_probs(u, n_sources, source, detector, cols, table=None, ideal=None):
    """P_out for a batch of click patterns, each given by its increasing clicked modes.

    ``cols`` is a (batch, clicks) array of clicked mode indices, any click
    count. Expanding prod_(clicked)(1 - e^-nu r^s) gives, for each subset T
    of the clicked modes kept un-expanded, the sign (-1)^(clicks - |T|)
    and dark factor e^(-(clicks - |T|) nu) on f(T) (``_slot_perms``). Every
    proper subset is read from ``table``, a ``_subset_table`` over modes
    that hold every clicked mode, built here (over ``_table_modes``, which
    always covers a lone pattern) if none is given.

    f(T) is the chance that every detected photon lands in T: the sum of
    g(C') over C' in T, g(C') the chance that they cover exactly C'. Below
    K = ``len(table.base)`` clicks the full subset costs one slot permanent
    per pattern. From K on, Moebius inversion over the clicked set C leaves
    g(C), with expm1 in place of each dark factor e^(-(clicks - |T|) nu):
    c clicks need c photons, so g(C) = (w (1 - r))^K |per(U[sigma, C])|^2
    at c = K and 0 above. ``ideal`` may hold the |per(U[:N, C])|^2, read
    when sigma is the N source rows; otherwise they are evaluated here.

    The f(T) of each size are summed first, row by row (numpy's ``sum``
    would add a lone pattern's pairwise), then the sizes in increasing
    order, the full subset last, so a result's bits depend neither on its
    batch nor on the stacks. The full-size permanents go to the kernel as
    one stack, so callers keep ``cols`` to ``permanent.STACK`` patterns.
    """
    batch, clicks = cols.shape
    nu = detector.dark_rate
    if table is None:
        table = _subset_table(u, n_sources, source, detector, _table_modes(cols, u.shape[0]), clicks, batch)
    local = cols if len(table.modes) == u.shape[0] else np.searchsorted(table.modes, cols)
    slots = len(table.base)
    dark = math.expm1 if clicks >= slots else math.exp
    pout = np.zeros(batch)
    for k in range(clicks):
        # members[t, s, b]: the t-th smallest clicked mode of the s-th k-subset of pattern b
        positions = np.array(list(combinations(range(clicks), k)), dtype=np.intp)
        members = local.T[positions.T]
        coeff = (-1.0) ** (clicks - k) * dark(-(clicks - k) * nu)
        pout += coeff * reduce(np.add, table.values[table.offsets[k] + _colex_rank(members)])
    if clicks < slots:
        pout += _slot_perms(table.base, table.proj, cols)
    elif clicks == slots:
        if ideal is None or slots != n_sources:
            ideal = _squared_permanents(np.tile(u[:n_sources], (slots // n_sources, 1)), cols)
        pout += (_slot_factors(source)[1] * (1.0 - detector.loss_prob)) ** slots * ideal
    pout *= math.exp(-(u.shape[0] - clicks) * nu)
    return pout


def click_pattern_prob(cfg: DeviceConfig, pattern: Sequence[int]) -> float:
    """Exact probability of one click pattern, any mode count.

    Cost is 2^(clicks) permanents of K x K matrices (K = N for sources of
    at most one photon, N kmax otherwise): a subset table over the clicked
    modes, and for the full click set a slot permanent below K clicks or
    the ideal |per(U[sigma, C])|^2 at K. It stays cheap even for very wide
    networks. K and the Gray steps are checked against the limits first.
    Requires the network matrix to be numerically unitary.
    """
    modes = cfg.modes
    if len(pattern) != modes:
        raise DimensionError("pattern must have one bit per mode")
    if any(b not in (0, 1) for b in pattern):
        raise ValueError("pattern entries must be 0 or 1")
    cols = np.array([[l for l, b in enumerate(pattern) if b]], dtype=np.intp)
    prob = _pattern_probs(cfg.matrix, cfg.n_sources, cfg.source, cfg.detector, cols)
    return max(float(prob[0]), 0.0)


class DistanceParts(NamedTuple):
    v1: float  # probability mass on patterns with a click count other than N
    v2: float  # L1 gap to the ideal device on the N-click patterns
    vb: float  # bunched-output mass of the ideal device


def distance_parts(cfg: DeviceConfig, *, patterns: np.ndarray | None = None) -> DistanceParts:
    """Exact decomposition of the distance between the device and its ideal twin.

    v1 collects the output mass that lands on patterns with the wrong click
    count, v2 the pointwise L1 gap on patterns with exactly N clicks, and vb
    the bunched-output mass of the ideal device. All three are computed
    exactly; pass a precomputed ``patterns`` array when sweeping many
    networks of the same shape; each row must list strictly increasing modes
    in [0, M). Truncated source mass, if any, is unmodelled output and is
    excluded from v1.

    Every kept-click subset smaller than N is evaluated once per call, in
    a table over every mode or over the modes the patterns touch
    (``_table_modes``); each pattern then costs 2^N - 1 table reads and
    one permanent of its full click set, which for sources of at most one
    photon is the ideal |per|^2 that v2 and vb read anyway. A few patterns
    spread over many modes, for which even the touched-mode table would
    hold more entries than the patterns have proper subsets, are each
    evaluated with a table of their own, with the same bits. The sweep sums
    the probabilities in chunks of ``permanent.STACK`` (4096) patterns, or
    of one pattern on that route, in order; that order is part of the
    reproducibility contract: a sweep of at most 4096 patterns gives the
    same bytes as one pass over the whole table. The work of the whole call
    is checked against the limits once, before any permanent is evaluated.

    Without ``patterns`` the sweep never holds the C(M, N) x N table of
    patterns: it reads the same rows, in the same chunks, from
    ``fock._pattern_chunks``, so its memory does not grow with C(M, N).
    What it holds is the subset table, sum_(k<N) C(M, k) floats, the
    prefix table of C(M - 1, N - 1) rows, and one chunk's arrays.
    """
    u = cfg.matrix
    n = cfg.n_sources
    if patterns is None:
        # every subset smaller than N lies in some N-subset, so the table over all modes always pays
        chunks = _pattern_chunks(cfg.modes, n, STACK)
        count, modes = math.comb(cfg.modes, n), np.arange(cfg.modes)
    else:
        patterns = np.asarray(patterns)
        if patterns.ndim != 2 or patterns.shape[1] != n:
            raise DimensionError(f"patterns must be (count, {n}) mode indices")
        if not np.issubdtype(patterns.dtype, np.integer) or len(patterns) and (
            patterns[:, 0].min() < 0
            or patterns[:, -1].max() >= cfg.modes
            or any(np.any(patterns[:, j] <= patterns[:, j - 1]) for j in range(1, n))
        ):
            raise ValueError(f"each pattern must list strictly increasing modes in [0, {cfg.modes})")
        count, modes = len(patterns), _table_modes(patterns, cfg.modes)
        step = 1 if modes is None else STACK
        chunks = (patterns[lo : lo + step] for lo in range(0, count, step))
    if modes is None:  # chunks of one pattern, each evaluated with its own table
        limits.check_slot_permanents(len(_slot_factors(cfg.source)[0]) * n, count << n)
        table = None
    else:
        table = _subset_table(u, n, cfg.source, cfg.detector, modes, n, count)
    sum_out = 0.0
    sum_gap = 0.0
    sum_ideal = 0.0
    for cols in chunks:
        pideal = _squared_permanents(u[:n], cols)
        pout = _pattern_probs(u, n, cfg.source, cfg.detector, cols, table, pideal)
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
    c = additive_coefficients(n, m)
    # dark counts and loss share the factor 3, taken out of their sum
    dark_and_loss = 3.0 * ((m - n) * detector.dark_rate + n * detector.loss_prob)
    return c["mode_count"] + dark_and_loss + c["p1_deficit"] * (1.0 - source.p(1))


def additive_coefficients(n_sources: int, modes: int) -> dict[str, float]:
    """The pieces of :func:`noise_bound_additive` that the budget inverter solves for.

    ``mode_count`` is the geometry term 3N^2/(2M); ``dark_rate``,
    ``loss_prob`` and ``p1_deficit`` are the coefficients 3(M - N), 3N and
    4N of nu, r and 1 - p1.
    """
    n, m = n_sources, modes
    return {"mode_count": 3.0 * n**2 / (2.0 * m), "dark_rate": 3.0 * (m - n), "loss_prob": 3.0 * n,
            "p1_deficit": 4.0 * n}
