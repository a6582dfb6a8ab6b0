"""Occupation-vector combinatorics for M-mode photon states.

Occupation vectors are plain sequences of non-negative integers, one entry
per mode; click patterns are the 0/1 special case. ``enumerate_outputs``
returns every vector of a photon total as one ``(count, modes)`` integer
table, which distribution builders slice instead of converting tuples; it
is built from ``collision_free_patterns``, the N-subsets of the modes.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import limits


def mu(occupations: Sequence[int]) -> int:
    """Product of factorials of the occupation numbers, as an exact integer.

    Kept in arbitrary-precision integers; convert to float only at the
    division site so normalisation ratios do not overflow prematurely.
    """
    out = 1
    for k in occupations:
        k = int(k)
        if k < 0:
            raise ValueError(f"negative occupation {k}")
        out *= math.factorial(k)
    return out


def total_photons(occupations: Sequence[int]) -> int:
    return int(sum(int(k) for k in occupations))


def mode_indices(occupations: Sequence[int]) -> list[int]:
    """Flatten an occupation vector to one mode index per photon.

    Example: (2, 0, 1) -> [0, 0, 2].
    """
    out: list[int] = []
    for mode, k in enumerate(occupations):
        out.extend([mode] * int(k))
    return out


def count_outputs(modes: int, photons: int) -> int:
    """Number of occupation vectors with the given photon total."""
    if modes < 0 or photons < 0:
        raise ValueError("modes and photons must be non-negative")
    return math.comb(modes + photons - 1, photons)


def _pattern_count(modes: int, n_clicks: int) -> int:
    """C(modes, n_clicks), the rows of one N-click sweep, refused over the ``patterns`` limit."""
    if not 0 <= n_clicks <= modes:
        raise ValueError(f"n_clicks must be in [0, modes={modes}], got {n_clicks}")
    count = math.comb(modes, n_clicks)
    limits.check("patterns", count, f"{n_clicks}-click pattern table")
    return count


def _append_mode(table: np.ndarray, last: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``table``, whose last member is ``last``, continued by every mode from last + 1 to ``top``.

    Returns the new table, one row per continuation in increasing order,
    and its new last column.
    """
    counts = top - last
    starts = np.cumsum(counts) - counts
    table = np.repeat(table, counts, axis=0)
    last = np.arange(len(table), dtype=np.intp) + np.repeat(last + 1 - starts, counts)
    return np.column_stack((table, last)), last


def collision_free_patterns(modes: int, n_clicks: int) -> np.ndarray:
    """Index array (count, n_clicks) of every pattern with exactly n_clicks clicks.

    Rows are the n_clicks-subsets of range(modes) in lexicographic order,
    the order of ``itertools.combinations``. The table is grown one column
    at a time: a prefix ending in mode c continues with every mode from
    c + 1 up to the last that still leaves room for the remaining clicks.
    A sweep that reads the rows in turn takes them from ``_pattern_chunks``
    instead, without the whole table.
    """
    _pattern_count(modes, n_clicks)
    table = np.zeros((1, 0), dtype=np.intp)
    last = np.full(1, -1, dtype=np.intp)
    for t in range(n_clicks):
        table, last = _append_mode(table, last, modes - n_clicks + t)
    return table


def _pattern_chunks(modes: int, n_clicks: int, size: int):
    """The rows of ``collision_free_patterns(modes, n_clicks)``, in order, ``size`` rows at a time.

    Refuses over the ``patterns`` limit when called, before any row is
    built. The chunks are cut from the prefix table of the first
    n_clicks - 1 clicks, ``collision_free_patterns(modes - 1, n_clicks - 1)``,
    n_clicks / modes the size of the full table: prefix P is continued
    by every last mode from P[-1] + 1 to modes - 1, and a chunk expands
    only the prefixes whose runs it overlaps, so no more than ``size``
    rows and two partial runs are held at once. Each chunk is a fresh
    C-contiguous (rows, n_clicks) intp array.
    """
    total = _pattern_count(modes, n_clicks)
    if n_clicks == 0:
        return iter([np.zeros((1, 0), dtype=np.intp)])
    prefixes = collision_free_patterns(modes - 1, n_clicks - 1)
    last = prefixes[:, -1] if n_clicks > 1 else np.full(1, -1, dtype=np.intp)
    ends = np.cumsum(modes - 1 - last)  # ends[i]: the full table's rows up to the end of prefix i's run

    def chunks():
        for lo in range(0, total, size):
            hi = min(lo + size, total)
            a, b = np.searchsorted(ends, (lo, hi - 1), side="right")  # the prefixes of rows lo and hi - 1
            first = ends[a] - (modes - 1 - last[a])  # the full table's index of prefix a's first row
            rows, _ = _append_mode(prefixes[a : b + 1], last[a : b + 1], modes - 1)
            yield rows[lo - first : hi - first]

    return chunks()


def _binom(a: np.ndarray, k: int) -> np.ndarray:
    """C(a, k) as ``intp`` for each entry of a non-negative integer array, k >= 1.

    Works in ``intp`` whatever the dtype of ``a``, so that a narrow one
    cannot wrap; an ``intp`` array is returned as is at k = 1.
    """
    out = a = np.asarray(a, dtype=np.intp)
    for j in range(1, k):  # C(a, j + 1) = C(a, j) (a - j) / (j + 1), exact at every step
        out = out * (a - j) // (j + 1)
    return out


def _colex_rank(members) -> np.ndarray:
    """Colex rank of subsets given member by member: ``members[t]`` holds the t-th smallest of each.

    The rank sum_t C(members[t], t + 1) numbers the k-subsets of range(m)
    0 .. C(m, k) - 1 for every m, ordered by their largest member first.
    """
    ranks = np.zeros(np.shape(members)[1:], dtype=np.intp)
    for t, a in enumerate(members):
        ranks += _binom(a, t + 1)
    return ranks


def _colex_unrank(ranks: np.ndarray, m: int, k: int) -> np.ndarray:
    """The (count, k) increasing rows of range(m) whose colex ranks are ``ranks``.

    Every binomial it forms, C(a, t) with a < m and t <= k, is at most
    max_(j<=k) C(m, j), which is C(m, k) when 2k <= m, and ``_binom``'s
    intermediates at most k times that: callers keep it in ``intp`` by
    bounding those binomials with a limit.
    """
    rows = np.empty((len(ranks), k), dtype=np.intp)
    rest = ranks.copy()
    for t in reversed(range(k)):
        # the largest member left is the largest a with C(a, t + 1) <= rest
        column = _binom(np.arange(m), t + 1)
        rows[:, t] = np.searchsorted(column, rest, side="right") - 1
        rest -= column[rows[:, t]]
    return rows


def _pattern_rows(ranks: np.ndarray, modes: int, n_clicks: int) -> np.ndarray:
    """The rows of ``collision_free_patterns(modes, n_clicks)`` at the given ranks, without the table.

    Mirroring the modes, l -> modes - 1 - l, turns lexicographic order
    into reversed colex order, so lex rank r is the mirror of the colex
    rank C(modes, n_clicks) - 1 - r. Taking complements reverses both
    orders, so above modes / 2 clicks the row is the complement of the
    (modes - n_clicks)-subset of colex rank r, mirrored: ``_colex_unrank``
    then forms no binomial above C(modes, n_clicks).
    """
    ranks = np.asarray(ranks, dtype=np.intp)
    if 2 * n_clicks <= modes:
        mirrored = _colex_unrank(math.comb(modes, n_clicks) - 1 - ranks, modes, n_clicks)
        return modes - 1 - mirrored[:, ::-1]
    clicked = np.ones((len(ranks), modes), dtype=bool)
    np.put_along_axis(clicked, modes - 1 - _colex_unrank(ranks, modes, modes - n_clicks), False, axis=1)
    return np.nonzero(clicked)[1].reshape(len(ranks), n_clicks)


def enumerate_outputs(modes: int, photons: int) -> np.ndarray:
    """Every occupation vector with ``photons`` photons, as a ``(count, modes)`` intp table.

    Rows are in descending-lexicographic order on the occupation vector,
    i.e. photons fill the lowest-index modes first. The collision-free
    vectors alone are ``collision_free_patterns``.

    Raises
    ------
    ResourceLimitError
        If the outcome count is over the ``outcomes`` limit (the count is
        named in the message); raised before any row is built.
    """
    n_out = count_outputs(modes, photons)
    limits.check("outcomes", n_out, "output enumeration")
    if n_out == 0:  # photons but no modes
        return np.zeros((0, modes), dtype=np.intp)
    # stars and bars: the occupied modes of an outcome, ascending with repeats, are an
    # N-subset of range(M + N - 1) shifted down by 0, 1, ..., N - 1, in the same lexicographic order
    positions = collision_free_patterns(modes + photons - 1, photons)
    positions -= np.arange(photons)
    positions += modes * np.arange(n_out)[:, None]  # in place: each photon's index in the flat table
    return np.bincount(positions.ravel(), minlength=n_out * modes).reshape(n_out, modes)


class BirthdayBound(NamedTuple):
    exact: float
    bound: float


def birthday_bunching_bound(modes: int, photons: int) -> BirthdayBound:
    """Average chance that some output mode holds more than one photon.

    Returns the exact product expression ``1 - prod_{k<N}(1 - k/M)`` together
    with the closed-form cap ``N(N-1)/(2M)``; the exact value never exceeds
    the cap.
    """
    if photons < 1 or modes < photons:
        raise ValueError(f"need modes >= photons >= 1, got M={modes}, N={photons}")
    prod = 1.0
    for k in range(1, photons):
        prod *= 1.0 - k / modes
    return BirthdayBound(1.0 - prod, photons * (photons - 1) / (2.0 * modes))
