"""Realistic device: imperfect sources, lossy dark-counting bucket detectors.

The output of a run is a click pattern m (one bit per detector). Its exact
probability chains the source distribution, the network transition
probabilities, and the per-detector response:

    P_out(m) = sum_s P_D(m|s) sum_n P_U(s|n) P_I(n).

Two independent evaluation routes are provided. ``output_click_distribution``
performs the literal triple sum (desk scale only). The other route is one
evaluator, ``_pattern_probs``, which folds the detector weights into small
permanents for a chunk of click patterns, given as pieces: one first click
followed by rows of clicks after it. ``click_pattern_prob`` (and so the
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
hundreds of modes. For 2 <= N <= 4 the sweep does not evaluate a permanent
per pattern for that |per|^2 either: the kernel's closed forms there are
Laplace expansions along row 0, so it tabulates the C(M, N - 1) minors
per(U[1:N, T]) once and adds N products per pattern, with the kernel's
bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, combinations, product
from typing import NamedTuple, Sequence

import numpy as np

from . import limits
from .errors import DimensionError
from .fock import (
    _colex_terms,
    _colex_unrank,
    _first_click_pieces,
    _pattern_count,
    _piece_rows,
    _suffix_rows,
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
    w: float  # the factors' common slope, g(z) = prod_j (x_j + w z) (``_slot_factors``)
    modes: np.ndarray  # the sorted modes the subsets are drawn from
    terms: np.ndarray  # ``fock._colex_terms`` over ``modes``, one row per position in the largest subset
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
    terms = _colex_terms(m, max(clicks - 1, 0))
    values = np.empty(offsets[-1])
    for k, (start, end) in enumerate(zip(offsets, offsets[1:])):
        for lo in range(start, end, STACK):
            hi = min(lo + STACK, end)
            values[lo:hi] = _slot_perms(base, proj, modes[_colex_unrank(np.arange(lo - start, hi - start), terms[:k])])
    return _SubsetTable(base, proj, w, modes, terms, values, offsets)


def _local(table, modes):
    """The positions within ``table.modes`` of the network modes ``modes``, which the table holds."""
    return modes if len(table.modes) == table.proj.shape[2] else np.searchsorted(table.modes, modes)


class _Suffix(NamedTuple):
    """What ``_pattern_probs`` reads of some rows, each the clicks that follow a first click, over one subset table.

    A pattern's clicks are numbered by position from 0, the first click; a
    key P is a tuple of the positions 1 .. clicks - 1 of a kept-click
    subset that come from the row. Every entry is one column, a value per
    row (``_suffix_columns``).
    """

    modes: np.ndarray  # (clicks - 1, rows) intp, C-contiguous: the network mode at each position 1 .. clicks - 1
    values: dict  # P -> f of the subset at positions P, read from the table
    ranks: dict  # P, 1 <= |P| <= clicks - 2 -> the colex rank of the subset at (0, *P) less the first click's term


def _suffix_columns(table, rows) -> _Suffix:
    """The ``_Suffix`` of ``rows``, a (count, clicks - 1) array of increasing modes, over ``table``.

    A subset's colex rank within ``table.modes`` is sum_t C(l_t, t + 1)
    over its members l_0 < l_1 < ... (``fock._colex_terms``). A subset
    that holds the first click l_0 has the rank l_0 + rank', where rank'
    sums the terms of the row's members at subset positions 1, 2, ...,
    which do not depend on the first click. Each key's sums are its
    prefix's plus one term, and each column is formed from ``table`` by
    integer sums and reads alone, so it holds exactly what a read at each
    pattern's own ranks gives. The columns take 8 bytes a row each:
    clicks - 1 modes, 2^(clicks - 1) - 1 values and 2^(clicks - 1) - 2
    ranks.
    """
    modes = np.ascontiguousarray(rows.T)
    local = _local(table, modes)
    count = len(modes)
    # term[t, p]: C(l, t + 1) for the row's mode l at position p, its term as member t of a subset
    term = {}
    for p in range(1, count + 1):
        for t in range(min(p + 1, count)):
            term[t, p] = table.terms[t][local[p - 1]] if t else local[p - 1]  # C(l, 1) = l
    own, shifted = {}, {}  # each key's rank, without and with the first click ahead of it
    for k in range(1, count + 1):
        for key in combinations(range(1, count + 1), k):
            own[key] = term[k - 1, key[-1]] + own[key[:-1]] if k > 1 else term[0, key[0]]
            if k < count:
                shifted[key] = term[k, key[-1]] + shifted[key[:-1]] if k > 1 else term[1, key[0]]
    values = {key: table.values[table.offsets[len(key)] :][rank] for key, rank in own.items()}
    return _Suffix(modes, values, shifted)


def _pattern_probs(u, n_sources, source, detector, table, suffix, pieces, ideal=None):
    """P_out for a chunk of click patterns, as pieces: one first click followed by each of some rows of ``suffix``.

    ``pieces`` is a list of (first, lo, hi), in turn: the patterns
    (first, *row) for the rows lo .. hi - 1 of ``suffix``
    (``_suffix_columns``). The no-click pattern is the one piece
    (None, 0, 1) of a suffix with no positions. Expanding
    prod_(clicked)(1 - e^-nu r^s) gives, for each subset T of the clicked
    modes kept un-expanded, the sign (-1)^(clicks - |T|) and dark factor
    e^(-(clicks - |T|) nu) on f(T) (``_slot_perms``). Every proper subset
    is read from ``table``, a ``_subset_table`` over modes that hold every
    clicked mode; f(T) does not depend on the table that holds it.

    f(T) is the chance that every detected photon lands in T: the sum of
    g(C') over C' in T, g(C') the chance that they cover exactly C'. Below
    K = ``len(table.base)`` clicks the full subset costs one slot permanent
    per pattern. From K on, Moebius inversion over the clicked set C leaves
    g(C), with expm1 in place of each dark factor e^(-(clicks - |T|) nu):
    c clicks need c photons, so g(C) = (w (1 - r))^K |per(U[sigma, C])|^2
    at c = K and 0 above. ``ideal`` may hold the |per(U[:N, C])|^2, read
    when sigma is the N source rows; otherwise they are evaluated here.

    A proper subset T is read in one of three ways. Without the first
    click, f(T) is a column of ``suffix``, formed once for every first
    click that reads its rows. The first click alone is one entry of the
    table. With the first click and more, f(T) is read at the first
    click's position within ``table.modes`` plus the rank' column of the
    rest of T, from the part of the table that starts there.

    The f(T) of each size are summed first, in ``combinations`` order, row
    by row (numpy's ``sum`` would add a lone pattern's pairwise), then the
    sizes in increasing order, the full subset last, so a result's bits
    depend neither on its pieces nor on the stacks. The full-size
    permanents of every piece go to the kernel as one stack, so callers
    keep the pieces to ``permanent.STACK`` patterns in all.
    """
    clicks = len(suffix.modes) + (pieces[0][0] is not None)
    nu = detector.dark_rate
    slots = len(table.base)
    dark = math.expm1 if clicks >= slots else math.exp
    values, offsets = table.values, table.offsets
    count = sum(hi - lo for _, lo, hi in pieces)
    # 0 + the term of f of the empty subset, which every pattern with a click holds, as one scalar
    empty = 0.0 + (-1.0) ** clicks * dark(-clicks * nu) * values[0] if clicks else 0.0
    pout = np.full(count, empty) if clicks < 2 else np.empty(count)
    part, read = np.empty((2, count))
    for k in range(1, clicks):
        end = 0
        for first, lo, hi in pieces:
            acc, buf = part[end : end + hi - lo], read[end : end + hi - lo]  # the piece's patterns in the chunk
            end += hi - lo
            # f of the k-subsets that hold the first click, by rank'
            held = values[offsets[k] + _local(table, first) : offsets[k + 1]]
            keys = combinations(range(clicks), k)
            rest = next(keys)[1:]  # the first key, (0, 1, ..., k - 1)
            if rest:
                np.take(held, suffix.ranks[rest][lo:hi], out=acc, mode="clip")  # in range: "clip" writes unbuffered
            else:
                acc.fill(held[0])
            for key in keys:
                if key[0]:
                    np.add(acc, suffix.values[key][lo:hi], out=acc)
                else:
                    np.add(acc, np.take(held, suffix.ranks[key[1:]][lo:hi], out=buf, mode="clip"), out=acc)
        np.multiply(part, (-1.0) ** (clicks - k) * dark(-(clicks - k) * nu), out=part)
        if k == 1:
            np.add(part, empty, out=pout)
        else:
            pout += part
    if clicks < slots:
        pout += _slot_perms(table.base, table.proj, _piece_cols(suffix, pieces))
    elif clicks == slots:
        if ideal is None or slots != n_sources:
            ideal = _squared_permanents(np.tile(u[:n_sources], (slots // n_sources, 1)), _piece_cols(suffix, pieces))
        pout += np.multiply(ideal, (table.w * (1.0 - detector.loss_prob)) ** slots, out=part)
    pout *= math.exp(-(u.shape[0] - clicks) * nu)
    return pout


def _piece_cols(suffix, pieces) -> np.ndarray:
    """The (rows, clicks) modes of the patterns of ``pieces``, in turn, as ``fock._piece_rows`` lays them out."""
    if pieces[0][0] is None:
        return suffix.modes.T[pieces[0][1] : pieces[0][2]]
    return _piece_rows(suffix.modes.T, pieces)


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
    clicked = np.array([l for l, b in enumerate(pattern) if b], dtype=np.intp)
    u = cfg.matrix
    table = _subset_table(u, cfg.n_sources, cfg.source, cfg.detector, clicked, len(clicked), 1)
    # one piece of one row: the first click, then the rest of the pattern as a one-row suffix
    first = int(clicked[0]) if len(clicked) else None
    suffix = _suffix_columns(table, clicked[None, 1:])
    prob = _pattern_probs(u, cfg.n_sources, cfg.source, cfg.detector, table, suffix, [(first, 0, 1)])
    return max(float(prob[0]), 0.0)


def _row0_minors(u, n, terms) -> np.ndarray:
    """per(U[1:n, T]) for every (n - 1)-subset T of the modes, by colex rank: the row-0 Laplace minors.

    ``terms`` is ``fock._colex_terms`` over the modes, at least n - 1 rows.
    The subsets are unranked and go to the kernel ``permanent.STACK`` at
    a time: C(M, n - 1) complex values, 16 bytes each.
    """
    count = math.comb(u.shape[0], n - 1)
    minors = np.empty(count, dtype=np.complex128)
    for lo in range(0, count, STACK):
        hi = min(lo + STACK, count)
        subsets = _colex_unrank(np.arange(lo, hi), terms[: n - 1])
        minors[lo:hi] = _permanent_batch(np.take(u[1:n], subsets.T, axis=1).transpose(2, 0, 1))
    return minors


class _Minors(NamedTuple):
    """What the Laplace expansion along row 0 reads, for the N-click sweep over one suffix table."""

    row0: np.ndarray  # U[0, l] for every mode l
    table: np.ndarray  # per(U[1:N, T]) for every (N - 1)-subset T, by colex rank (``_row0_minors``)
    lead: np.ndarray  # (N - 1, rows): U[0, s] for the row's click at each position 1 .. N - 1
    rest: np.ndarray  # (rows,): per(U[1:N, S[r]]), the minor that leaves out the first click


def _minor_columns(u, table, suffix) -> _Minors:
    """The ``_Minors`` of ``suffix``, over ``table``, a subset table over every mode, for N = clicks."""
    n = len(suffix.modes) + 1
    minors = _row0_minors(u, n, table.terms)
    rank = reduce(np.add, (table.terms[t][suffix.modes[t]] for t in range(n - 1)))
    return _Minors(u[0], minors, u[0][suffix.modes], minors[rank])


def _laplace_amplitudes(minors, suffix, pieces) -> np.ndarray:
    """per(U[:N, C]) for each pattern C of ``pieces``, in turn, by Laplace expansion along row 0.

    per = sum_p U[0, c_p] per(U[1:N, C minus c_p]). At p = 0 the minor is
    the column ``minors.rest``. Above, C minus c_p holds the first click,
    so its minor is read from ``minors.table`` at the first click plus the
    rank' of the row's other clicks (``_Suffix.ranks``), or at the first
    click alone at N = 2. Added for p = 0, 1, ... in turn, each product
    with the row-0 entry first, this is the kernel's own sum for N = 2, 3
    and 4: its closed forms are this expansion, in this order, with the
    same minors. So each |per|^2 has the bits ``_squared_permanents``
    gives on the same SIMD target. numpy's complex product is not
    commutative to the bit, and it rounds an in-place product of one
    element, or an elided temporary, otherwise than a fresh product: so
    each product is written to a buffer that is neither of its operands.
    """
    n = len(suffix.modes) + 1
    amp = np.empty(sum(hi - lo for _, lo, hi in pieces), dtype=np.complex128)
    term = np.empty_like(amp)
    end = 0
    for first, lo, hi in pieces:
        out, buf = amp[end : end + hi - lo], term[end : end + hi - lo]  # the piece's patterns in the chunk
        end += hi - lo
        np.multiply(minors.row0[first], minors.rest[lo:hi], out=out)
        held = minors.table[first:]  # the (N - 1)-subsets that hold the first click, by rank'
        for p in range(1, n):
            key = tuple(q for q in range(1, n) if q != p)
            minor = held[suffix.ranks[key][lo:hi]] if key else held[0]
            out += np.multiply(minors.lead[p - 1, lo:hi], minor, out=buf)
    return amp


class DistanceParts(NamedTuple):
    v1: float  # probability mass on patterns with a click count other than N
    v2: float  # L1 gap to the ideal device on the N-click patterns
    vb: float  # bunched-output mass of the ideal device


def distance_parts(cfg: DeviceConfig) -> DistanceParts:
    """Exact decomposition of the distance between the device and its ideal twin.

    v1 collects the output mass that lands on patterns with the wrong click
    count, v2 the pointwise L1 gap on patterns with exactly N clicks, and vb
    the bunched-output mass of the ideal device. All three are computed
    exactly, over every N-click pattern. Truncated source mass, if any, is
    unmodelled output and is excluded from v1.

    Every kept-click subset smaller than N is evaluated once per call, in
    a table over every mode; each pattern then costs 2^N - 1 table reads
    and the term of its full click set, which for sources of at most one
    photon is the ideal |per|^2 that v2 and vb read anyway (a slot
    permanent otherwise). For 2 <= N <= 4 that |per|^2 is N products read
    from a second table, built once per call: the C(M, N - 1) permanents
    per(U[1:N, T]), the row-0 Laplace minors (``_row0_minors``,
    ``_laplace_amplitudes``); it has the bits the kernel gives. At N = 1
    and N >= 5 it is one kernel permanent per pattern. The work of the
    whole call is checked against the limits once, before any permanent
    is evaluated.

    The sweep never holds the C(M, N) x N table of patterns. It walks them
    by first click (``fock._first_click_pieces``): the patterns with first
    click c0 are c0 followed by a tail of the suffix table S,
    C(M - 1, N - 1) rows (``fock._suffix_rows``). What it holds is the
    subset table, sum_(k<N) C(M, k) floats; S; and, for N <= 4, S's
    per-row columns (``_suffix_columns``), 8 bytes each: N - 1 modes,
    2^(N - 1) - 1 table values and 2^(N - 1) - 2 ranks, plus for
    2 <= N <= 4 the minors, 16 bytes per (N - 1)-subset, and N complex
    columns, 16 bytes each. So a term that does not hold the first click
    is read once per sweep, not once per pattern. Above N = 4 the columns
    would grow as 2^N per row, so each chunk forms its own over its
    pieces' rows. Besides those, it holds one chunk's arrays. The
    probabilities are summed a chunk of ``permanent.STACK`` (4096)
    patterns at a time, in order, whatever its pieces; that order is part
    of the reproducibility contract: a sweep of at most 4096 patterns
    gives the same bytes as one pass over the whole table.
    """
    u = cfg.matrix
    n = cfg.n_sources
    count = _pattern_count(cfg.modes, n)  # refused over the pattern cap before any work
    # every subset smaller than N lies in some N-subset, so one table over all modes serves every pattern
    table = _subset_table(u, n, cfg.source, cfg.detector, np.arange(cfg.modes), n, count)
    rows = _suffix_rows(cfg.modes, n, STACK)
    held = _suffix_columns(table, rows) if n <= 4 else None
    minors = _minor_columns(u, table, held) if 2 <= n <= 4 else None
    sum_out = 0.0
    sum_gap = 0.0
    sum_ideal = 0.0
    for pieces in _first_click_pieces(cfg.modes, n, STACK):
        suffix = held
        if held is None:  # the chunk's own columns: its pieces' rows in turn, counted from 0
            suffix = _suffix_columns(table, np.concatenate([rows[lo:hi] for _, lo, hi in pieces]))
            ends = accumulate(hi - lo for _, lo, hi in pieces)
            pieces = [(first, end - hi + lo, end) for (first, lo, hi), end in zip(pieces, ends)]
        if minors is None:
            pideal = _squared_permanents(u[:n], _piece_cols(suffix, pieces))
        else:
            pideal = np.abs(_laplace_amplitudes(minors, suffix, pieces)) ** 2
        pout = _pattern_probs(u, n, cfg.source, cfg.detector, table, suffix, pieces, pideal)
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
