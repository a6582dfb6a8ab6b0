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


def collision_free_patterns(modes: int, n_clicks: int) -> np.ndarray:
    """Index array (count, n_clicks) of every pattern with exactly n_clicks clicks.

    Rows are the n_clicks-subsets of range(modes) in lexicographic order,
    the order of ``itertools.combinations``. The table is grown one column
    at a time: a prefix ending in mode c continues with every mode from
    c + 1 up to the last that still leaves room for the remaining clicks.
    """
    if not 0 <= n_clicks <= modes:
        raise ValueError(f"n_clicks must be in [0, modes={modes}], got {n_clicks}")
    limits.check("patterns", math.comb(modes, n_clicks), f"{n_clicks}-click pattern table")
    table = np.zeros((1, 0), dtype=np.intp)
    last = np.full(1, -1, dtype=np.intp)
    for t in range(n_clicks):
        counts = modes - n_clicks + t - last
        starts = np.cumsum(counts) - counts
        table = np.repeat(table, counts, axis=0)
        last = np.arange(len(table), dtype=np.intp) + np.repeat(last + 1 - starts, counts)
        table = np.column_stack((table, last))
    return table


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
