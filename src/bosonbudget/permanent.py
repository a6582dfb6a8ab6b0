"""Exact matrix permanents of complex matrices.

The permanent is the unsigned sibling of the determinant: a sum over all
permutations of products of matched entries. Multi-photon transition
amplitudes through a linear network are permanents of submatrices built by
repeating rows and columns of the network matrix, so this module also
evaluates those repeated-index permanents directly. Two slow independent
evaluators (brute-force permutation sum, contingency-table sum) are shipped
for cross-validation of the fast inclusion-exclusion walk.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import DimensionError, NumericError, PhotonCountError, ResourceLimitError
from .fock import mode_indices, mu, total_photons
from .random_ensembles import as_matrix

DEFAULT_MAX_N = 30
NAIVE_MAX_N = 9
CONTINGENCY_MAX_PHOTONS = 6

# One chunk of the 2^N subset walk; partial sums are reduced in index order,
# so results are reproducible for a fixed chunk size.
_CHUNK = 1 << 16


def max_permanent_size() -> int:
    """Hard cap for the subset walk; override with env var BOSONBUDGET_MAX_N."""
    raw = os.environ.get("BOSONBUDGET_MAX_N")
    return int(raw) if raw else DEFAULT_MAX_N


def _checked_square(a) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"permanent needs a square matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise NumericError("matrix has non-finite entries")
    return a.astype(np.complex128, copy=False)


def permanent_ryser(a) -> complex:
    """Permanent via the inclusion-exclusion subset walk, O(N^2 2^N).

    Each subset's row sums are rebuilt by a mask matmul (N^2 per subset),
    not updated incrementally from the previous Gray-code subset.

    The empty 0x0 matrix has permanent 1 by convention (this keeps vacuum
    amplitudes normalised).
    """
    a = _checked_square(a)
    n = a.shape[0]
    if n == 0:
        return 1 + 0j
    cap = max_permanent_size()
    if n > cap:
        raise ResourceLimitError(f"matrix size {n} exceeds the permanent cap {cap}")
    cols = np.arange(n, dtype=np.uint64)
    total = 0j
    for start in range(1, 1 << n, _CHUNK):
        stop = min(start + _CHUNK, 1 << n)
        ks = np.arange(start, stop, dtype=np.uint64)
        grays = ks ^ (ks >> np.uint64(1))
        masks = ((grays[:, None] >> cols[None, :]) & np.uint64(1)).astype(np.float64)
        rowsums = masks @ a.T  # (chunk, n): sum of the selected columns, per row
        signs = 1.0 - 2.0 * (np.bitwise_count(grays) & np.uint64(1)).astype(np.float64)
        total += complex((signs * rowsums.prod(axis=1)).sum())
    return (-1.0 if n % 2 else 1.0) * total


@lru_cache(maxsize=None)
def _all_permutations(n: int) -> np.ndarray:
    return np.array(list(permutations(range(n))), dtype=np.intp)


def permanent_naive(a) -> complex:
    """Reference permanent: explicit sum over all N! permutations, N <= 9."""
    a = _checked_square(a)
    n = a.shape[0]
    if n == 0:
        return 1 + 0j
    if n > NAIVE_MAX_N:
        raise ResourceLimitError(f"naive permanent capped at N={NAIVE_MAX_N}, got {n}")
    perms = _all_permutations(n)
    vals = a[np.arange(n)[None, :], perms]
    return complex(vals.prod(axis=1).sum())


def permanent_repeated(u, n, s) -> complex:
    """Permanent of the submatrix taking row k of ``u`` n_k times and column l s_l times.

    Row/column order is immaterial: the permanent is invariant under
    permutations of either.
    """
    m = as_matrix(u)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"network matrix must be square, got {m.shape}")
    if len(n) != m.shape[0] or len(s) != m.shape[0]:
        raise DimensionError("occupation vectors must have one entry per mode")
    if total_photons(n) != total_photons(s):
        raise PhotonCountError(
            f"photon totals differ: |n|={total_photons(n)} vs |s|={total_photons(s)}"
        )
    rows = mode_indices(n)
    cols = mode_indices(s)
    if not rows:
        return 1 + 0j
    return permanent_ryser(m[np.ix_(rows, cols)])


def contingency_tables(row_sums, col_sums):
    """Yield all non-negative integer matrices with the given margins."""
    row_sums = [int(x) for x in row_sums]
    col_sums = [int(x) for x in col_sums]
    if sum(row_sums) != sum(col_sums):
        raise PhotonCountError("margins must have equal totals")

    n_rows = len(row_sums)

    def fill(row: int, remaining_cols: list[int], acc: list[tuple[int, ...]]):
        if row == n_rows:
            if all(c == 0 for c in remaining_cols):
                yield tuple(acc)
            return
        target = row_sums[row]
        for comp in _bounded_compositions(target, remaining_cols):
            acc.append(comp)
            yield from fill(row + 1, [c - e for c, e in zip(remaining_cols, comp)], acc)
            acc.pop()

    yield from fill(0, list(col_sums), [])


def _bounded_compositions(total: int, bounds: list[int]):
    """Compositions of ``total`` into len(bounds) parts with part i <= bounds[i]."""
    k = len(bounds)

    def rec(i: int, left: int, acc: list[int]):
        if i == k - 1:
            if left <= bounds[i]:
                yield tuple(acc + [left])
            return
        for e in range(min(left, bounds[i]) + 1):
            yield from rec(i + 1, left - e, acc + [e])

    if k == 0:
        if total == 0:
            yield ()
        return
    yield from rec(0, total, [])


def permanent_contingency(u, n, s) -> complex:
    """Permanent via the contingency-table expansion (slow oracle, N <= 6).

    Sums mu(s) mu(n) / mu(T) * prod U_kl^T_kl over all tables T whose row
    sums are ``n`` and column sums are ``s``; agrees with
    ``permanent_repeated`` on all inputs within the cap.
    """
    m = as_matrix(u)
    if len(n) != m.shape[0] or len(s) != m.shape[0]:
        raise DimensionError("occupation vectors must have one entry per mode")
    photons = total_photons(n)
    if photons != total_photons(s):
        raise PhotonCountError("photon totals differ")
    if photons > CONTINGENCY_MAX_PHOTONS:
        raise ResourceLimitError(
            f"contingency expansion capped at {CONTINGENCY_MAX_PHOTONS} photons, got {photons}"
        )
    if photons == 0:
        return 1 + 0j

    # Only occupied rows/columns can carry non-zero table entries.
    rows = [k for k, v in enumerate(n) if v > 0]
    cols = [l for l, v in enumerate(s) if v > 0]
    row_sums = [int(n[k]) for k in rows]
    col_sums = [int(s[l]) for l in cols]
    weight = float(mu(n) * mu(s))

    total = 0j
    for table in contingency_tables(row_sums, col_sums):
        mu_t = 1
        prod = 1 + 0j
        for rk, row in zip(rows, table):
            for cl, t in zip(cols, row):
                if t:
                    mu_t *= math.factorial(t)
                    prod *= m[rk, cl] ** t
        total += (weight / mu_t) * prod
    return total


def _permanent_batch(mats: np.ndarray) -> np.ndarray:
    """Permanents of a (batch, n, n) stack, vectorised over the batch.

    Closed forms up to n=3, subset walk above; intended for the small
    repeated-row matrices that appear in detector-weighted sums.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    b, n, n2 = mats.shape
    if n != n2:
        raise DimensionError(f"stack must be square, got {mats.shape}")
    if n == 0:
        return np.ones(b, dtype=np.complex128)
    if n == 1:
        return mats[:, 0, 0].copy()
    if n == 2:
        return mats[:, 0, 0] * mats[:, 1, 1] + mats[:, 0, 1] * mats[:, 1, 0]
    if n == 3:
        m = mats
        return (
            m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] + m[:, 1, 2] * m[:, 2, 1])
            + m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] + m[:, 1, 2] * m[:, 2, 0])
            + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] + m[:, 1, 1] * m[:, 2, 0])
        )
    total = np.zeros(b, dtype=np.complex128)
    for subset in range(1, 1 << n):
        picked = [j for j in range(n) if subset >> j & 1]
        rowsums = mats[:, :, picked].sum(axis=2)
        sign = -1.0 if len(picked) % 2 else 1.0
        total += sign * rowsums.prod(axis=1)
    return (-1.0 if n % 2 else 1.0) * total
