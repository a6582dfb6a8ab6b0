"""Occupation-vector combinatorics for M-mode photon states.

Occupation vectors are plain sequences of non-negative integers, one entry
per mode; click patterns are the 0/1 special case. The lexicographic
N-subsets of the modes have two builders: ``_pattern_rows`` unranks any
rows, so it makes every whole table and every draw, and ``_pattern_chunks``
walks them in order for the sweeps, by first click
(``_first_click_pieces``). ``enumerate_outputs``, every vector of a photon
total as one ``(count, modes)`` integer table, and its chunks
``_output_chunks`` are stars and bars over them (``_stars_and_bars``).
Subsets in colex order, the order of ``noise_model``'s subset tables, are
ranked and unranked through one table of binomial terms, ``_colex_terms``.
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
    """Number of occupation vectors with the given photon total; no modes hold only the vacuum."""
    if modes < 0 or photons < 0:
        raise ValueError("modes and photons must be non-negative")
    return math.comb(modes + photons - 1, photons) if modes else int(photons == 0)


def _pattern_count(modes: int, n_clicks: int) -> int:
    """C(modes, n_clicks), the rows of one N-click sweep, refused over the ``patterns`` limit."""
    if not 0 <= n_clicks <= modes:
        raise ValueError(f"n_clicks must be in [0, modes={modes}], got {n_clicks}")
    count = math.comb(modes, n_clicks)
    limits.check("patterns", count, f"{n_clicks}-click pattern table")
    return count


def collision_free_patterns(modes: int, n_clicks: int) -> np.ndarray:
    """Index array (count, n_clicks) of every pattern with exactly n_clicks clicks.

    Rows are the n_clicks-subsets of range(modes) in lexicographic order,
    the order of ``itertools.combinations``: ``_pattern_rows`` at every
    rank. A sweep that reads the rows in turn takes them from
    ``_pattern_chunks`` instead, without the whole table.
    """
    return _pattern_rows(np.arange(_pattern_count(modes, n_clicks)), modes, n_clicks)


def _pattern_chunks(modes: int, n_clicks: int, size: int):
    """The rows of ``collision_free_patterns(modes, n_clicks)``, in order, ``size`` rows at a time.

    Refuses over the ``patterns`` limit when called, before any row is
    built: the call only counts the rows, and the walk's set-up, the
    suffix table ``_suffix_rows``, is built with the first chunk, after the
    caller's own checks. Each chunk is put together from the pieces of
    ``_first_click_pieces`` (``_piece_rows``), so the walk holds the
    suffix table, (n_clicks - 1) C(modes - 1, n_clicks - 1) intp entries,
    n_clicks / modes the size of the full table, and one chunk. Each
    chunk is the transpose of a fresh C-contiguous (n_clicks, rows) intp
    array: each click's modes are one contiguous row of its ``.T``, as the
    sweeps read them.
    """
    _pattern_count(modes, n_clicks)
    if n_clicks == 0:
        return iter([np.zeros((0, 1), dtype=np.intp).T])

    def chunks():
        suffix = _suffix_rows(modes, n_clicks, size)
        for pieces in _first_click_pieces(modes, n_clicks, size):
            yield _piece_rows(suffix, pieces)

    return chunks()


def _suffix_rows(modes: int, n_clicks: int, size: int) -> np.ndarray:
    """S = ``collision_free_patterns(modes - 1, n_clicks - 1) + 1``: the clicks that may follow a first click.

    A (C(modes - 1, n_clicks - 1), n_clicks - 1) intp array of the
    (n_clicks - 1)-subsets of 1 .. modes - 1 in lexicographic order, so
    the rows whose first member exceeds c0 are one contiguous tail of it,
    the last C(modes - 1 - c0, n_clicks - 1) rows. Like each chunk, it is
    the transpose of a C-contiguous (n_clicks - 1, rows) array, so each
    position's modes are one contiguous row of its ``.T``. It is unranked
    ``size`` rows at a time (``_pattern_rows``), so building it holds S
    and the work arrays of one block. Callers keep n_clicks >= 1 and the
    full table under the ``patterns`` limit, which bounds S.
    """
    rows = np.empty((n_clicks - 1, math.comb(modes - 1, n_clicks - 1)), dtype=np.intp)
    for lo in range(0, rows.shape[1], size):
        hi = min(lo + size, rows.shape[1])
        np.add(_pattern_rows(np.arange(lo, hi), modes - 1, n_clicks - 1).T, 1, out=rows[:, lo:hi])
    return rows.T


def _first_click_pieces(modes: int, n_clicks: int, size: int):
    """The patterns of ``collision_free_patterns(modes, n_clicks)``, in order, as chunks of pieces.

    In lexicographic order the patterns with first click c0 are c0 followed
    by each row of the tail of S = ``_suffix_rows(modes, n_clicks, ...)`` whose
    first member exceeds c0. A piece (c0, lo, hi) stands for the patterns
    (c0, *S[r]) for r = lo .. hi - 1. Yields one list of pieces per chunk
    of ``size`` patterns, the last chunk possibly short, so a piece never
    holds more than ``size`` rows nor crosses a chunk's end. Only counts
    are formed here; callers keep 1 <= n_clicks <= modes.
    """
    rows = math.comb(modes - 1, n_clicks - 1)
    chunk, room = [], size
    for first in range(modes - n_clicks + 1):
        lo = rows - math.comb(modes - 1 - first, n_clicks - 1)
        while lo < rows:
            hi = min(lo + room, rows)
            chunk.append((first, lo, hi))
            room -= hi - lo
            lo = hi
            if not room:
                yield chunk
                chunk, room = [], size
    if chunk:
        yield chunk


def _piece_rows(suffix: np.ndarray, pieces) -> np.ndarray:
    """The patterns of ``pieces``, in turn, over the suffix table ``suffix``.

    Returned as the transpose of a fresh C-contiguous (clicks, rows) intp
    array, the layout of ``_pattern_chunks``.
    """
    out = np.empty((suffix.shape[1] + 1, sum(hi - lo for _, lo, hi in pieces)), dtype=np.intp)
    at = 0
    for first, lo, hi in pieces:
        out[0, at : at + hi - lo] = first
        out[1:, at : at + hi - lo] = suffix[lo:hi].T
        at += hi - lo
    return out.T


def _colex_terms(m: int, k: int) -> np.ndarray:
    """The (k, m) intp table of colex terms: row t holds C(a, t + 1) for every a < m.

    A k-subset of range(m) with members a_0 < ... < a_(k-1) has colex rank
    sum_t C(a_t, t + 1): the ranks number the k-subsets 0 .. C(m, k) - 1
    for every m, ordered by their largest member first. Row 0 is a itself;
    row t + 1 is the running sum of row t, C(a, t + 2) = sum_(b<a) C(b, t + 1),
    so no entry is formed by division and no intermediate exceeds the
    table's largest entry: callers keep that, at most max_(j<=k) C(m - 1, j),
    in ``intp`` by bounding it with a limit.
    """
    terms = np.zeros((k, m), dtype=np.intp)
    terms[:1] = np.arange(m)
    for t in range(1, k):
        np.cumsum(terms[t - 1, :-1], out=terms[t, 1:])
    return terms


def _colex_unrank(ranks: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The (count, k) increasing rows of range(m) whose colex ranks are ``ranks``.

    ``terms`` is the term table ``_colex_terms(m, k)``, or the first k
    rows of a larger one; each member, the largest first, is found by one
    binary search of its row, so no binomial is formed here.
    """
    k = len(terms)
    rows = np.empty((len(ranks), k), dtype=np.intp)
    rest = ranks.copy()
    for t in reversed(range(k)):
        # the largest member left is the largest a with C(a, t + 1) <= rest
        rows[:, t] = np.searchsorted(terms[t], rest, side="right") - 1
        rest -= terms[t][rows[:, t]]
    return rows


def _pattern_rows(ranks: np.ndarray, modes: int, n_clicks: int) -> np.ndarray:
    """The n_clicks-subsets of range(modes) of the given lexicographic ranks, as increasing rows.

    Mirroring the modes, l -> modes - 1 - l, turns lexicographic order
    into reversed colex order, so lex rank r is the mirror of the colex
    rank C(modes, n_clicks) - 1 - r. Taking complements reverses both
    orders, so above modes / 2 clicks the row is the complement of the
    (modes - n_clicks)-subset of colex rank r, mirrored: the term table
    then holds no entry above C(modes, n_clicks), which callers cap.
    """
    ranks = np.asarray(ranks, dtype=np.intp)
    if 2 * n_clicks <= modes:
        mirrored = _colex_unrank(math.comb(modes, n_clicks) - 1 - ranks, _colex_terms(modes, n_clicks))
        return modes - 1 - mirrored[:, ::-1]
    clicked = np.ones((len(ranks), modes), dtype=bool)
    subsets = _colex_unrank(ranks, _colex_terms(modes, modes - n_clicks))
    np.put_along_axis(clicked, modes - 1 - subsets, False, axis=1)
    return _clicked_modes(clicked, n_clicks)


def _clicked_modes(clicked: np.ndarray, n_clicks: int) -> np.ndarray:
    """The clicked modes of each row of a (rows, modes) bool mask of ``n_clicks`` clicks a row, as increasing rows.

    The flat positions of the clicks, ``np.flatnonzero``, taken modulo the
    mode count in place: a C-contiguous (rows, n_clicks) intp array, 8
    bytes a click. ``np.nonzero(clicked)[1]``, the same modes in the same
    order, would first hold a (row, mode) pair per click.
    """
    modes = np.flatnonzero(clicked)
    modes %= clicked.shape[1]  # a mask with no modes has no clicks, so nothing is divided by 0
    return modes.reshape(len(clicked), n_clicks)


def enumerate_outputs(modes: int, photons: int) -> np.ndarray:
    """Every occupation vector with ``photons`` photons, as a ``(count, modes)`` intp table.

    Rows are in descending-lexicographic order on the occupation vector,
    i.e. photons fill the lowest-index modes first: ``_output_rows`` at
    every rank. The collision-free vectors alone are
    ``collision_free_patterns``. A pass that reads the rows in turn takes
    them from ``_output_chunks`` instead, without the whole table.

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
    return _occupations(_output_rows(np.arange(n_out), modes, photons), modes)


def _output_chunks(modes: int, photons: int, size: int):
    """The rows of ``enumerate_outputs(modes, photons)``, in order, ``size`` rows at a time, by their photons.

    A chunk is a fresh (rows, photons) intp array whose row lists the
    mode of each photon, ascending, a mode repeated once per photon it
    holds: ``_stars_and_bars`` over ``_pattern_chunks``, so it is laid out
    as those chunks are, the transpose of a C-contiguous (photons, rows)
    array.
    ``_occupations`` turns it into occupation rows. Refuses over the
    ``outcomes`` limit when called, before any row is built.
    """
    limits.check("outcomes", count_outputs(modes, photons), "output enumeration")
    if not modes and photons:  # photons but no modes: no outcome
        return iter(())
    return _stars_and_bars(modes, photons, lambda space, n: _pattern_chunks(space, n, size))


def _output_rows(ranks: np.ndarray, modes: int, photons: int) -> np.ndarray:
    """The ``_output_chunks(modes, photons, ...)`` rows at ``ranks``; callers keep them under the ``outcomes`` limit."""
    (rows,) = _stars_and_bars(modes, photons, lambda space, n: [_pattern_rows(ranks, space, n)])
    return rows


def _stars_and_bars(modes: int, photons: int, subsets):
    """The N = ``photons`` modes of each photon, ascending, of the outcomes given by N-subset rows of range(M + N - 1).

    Stars and bars: the subset less 0, 1, ..., N - 1 is the outcome's
    modes with repeats, in the same lexicographic order, so outcome r of
    ``enumerate_outputs`` is the subset of rank r. ``subsets(M + N - 1, N)``
    is called at once, so its refusals come first; each fresh intp array
    it gives is shifted in place. No modes hold one outcome, of no photons:
    the empty subset of range(0).
    """
    shift = np.arange(photons)
    return (np.subtract(rows, shift, out=rows) for rows in subsets(max(modes + photons - 1, 0), photons))


def _occupations(photon_modes: np.ndarray, modes: int) -> np.ndarray:
    """The occupation rows, a (rows, modes) intp table, of outcomes given by the mode of each photon.

    ``photon_modes`` is a (rows, photons) intp array, as ``_output_chunks``
    gives; it is used up: each entry becomes that photon's index in the
    flat table.
    """
    rows = len(photon_modes)
    flat = np.add(photon_modes, modes * np.arange(rows)[:, None], out=photon_modes)
    return np.bincount(flat.ravel(), minlength=rows * modes).reshape(rows, modes)


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
