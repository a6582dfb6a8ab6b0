"""Exact matrix permanents of complex matrices.

The permanent is the unsigned sibling of the determinant: a sum over all
permutations of products of matched entries. Multi-photon transition
amplitudes through a linear network are permanents of submatrices built by
repeating rows and columns of the network matrix, so this module also
evaluates those repeated-index permanents directly.

Every fast evaluation runs through one kernel, ``_permanent_batch``: Glynn's
formula (Glynn, Eur. J. Combin. 31 (2010) 1887) walked in Gray-code order
over row sign vectors (Nijenhuis & Wilf, *Combinatorial Algorithms*, 1978),
vectorised over a batch of matrices; each result's bits depend on its
matrix alone. Two slow independent evaluators (brute-force permutation
sum, contingency-table sum) are shipped for cross-validation of the walk.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

import numpy as np

from . import limits
from .errors import DimensionError, PhotonCountError
from .fock import mode_indices, mu, total_photons
from .random_ensembles import as_matrix

# Matrices per kernel stack for every caller that cuts its work into stacks
# (``full_distribution``, the subset table, the distance sweep), and rows per
# walk step: the kernel walks sub-stacks of STACK >> h(n) matrices. It bounds
# memory and fixes the distance sweep's summation order, not any permanent's bits.
STACK = 4096


def permanent_ryser(a) -> complex:
    """Permanent of one square matrix by the batched Gray-code Glynn walk.

    Costs O(N 2^(N-1)): each of the 2^(N-1) sign vectors adds or subtracts
    one row from the running column sums and forms one N-fold product (see
    ``_permanent_batch``). The name is historical; the walk is Glynn's,
    which stays accurate on positive matrices. The empty 0x0 matrix has
    permanent 1 by convention (this keeps vacuum amplitudes normalised).
    The order is capped by the ``permanent_order`` limit.
    """
    return _permanent(as_matrix(a))


def _permanent(a: np.ndarray) -> complex:
    """``permanent_ryser`` of a matrix that ``as_matrix`` has already checked."""
    limits.check("permanent_order", a.shape[0], "permanent")
    return complex(_permanent_batch(a[None])[0])


@lru_cache(maxsize=None)
def _all_permutations(n: int) -> np.ndarray:
    return np.array(list(permutations(range(n))), dtype=np.intp)


def permanent_naive(a) -> complex:
    """Reference permanent: explicit sum over all N! permutations, N <= 9."""
    a = as_matrix(a)
    n = a.shape[0]
    if n == 0:
        return 1 + 0j
    limits.check("naive_order", n, "permutation-sum permanent")
    perms = _all_permutations(n)
    vals = a[np.arange(n)[None, :], perms]
    return complex(vals.prod(axis=1).sum())


def permanent_repeated(u, n, s) -> complex:
    """Permanent of the submatrix taking row k of ``u`` n_k times and column l s_l times.

    Row/column order is immaterial: the permanent is invariant under
    permutations of either.
    """
    return _repeated(as_matrix(u, n, s), n, s)


def _repeated(m: np.ndarray, n, s) -> complex:
    """``permanent_repeated`` on a matrix and vectors that ``as_matrix`` has already checked."""
    if total_photons(n) != total_photons(s):
        raise PhotonCountError(
            f"photon totals differ: |n|={total_photons(n)} vs |s|={total_photons(s)}"
        )
    rows = mode_indices(n)
    cols = mode_indices(s)
    if not rows:
        return 1 + 0j
    return _permanent(m[np.ix_(rows, cols)])


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
    m = as_matrix(u, n, s)
    photons = total_photons(n)
    if photons != total_photons(s):
        raise PhotonCountError("photon totals differ")
    limits.check("contingency_photons", photons, "contingency expansion")
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


def _gray_steps(n: int):
    """All 2^n subsets of range(n) in Gray-code order, as (flip, add) steps.

    The first step is the empty subset, with flip None; each later step
    adds (add True) or removes member ``flip``, so a running sum over the
    subset costs one update per step.
    """
    yield None, True
    prev = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        flip = (gray ^ prev).bit_length() - 1
        yield flip, bool(gray >> flip & 1)
        prev = gray


def _permanent3(m: np.ndarray, rows, cols) -> np.ndarray:
    """Closed-form permanents of the 3 x 3 minors ``m[:, rows][:, :, cols]`` of a stack."""
    (i, j, k), (a, b, c) = rows, cols
    return (
        m[:, i, a] * (m[:, j, b] * m[:, k, c] + m[:, j, c] * m[:, k, b])
        + m[:, i, b] * (m[:, j, a] * m[:, k, c] + m[:, j, c] * m[:, k, a])
        + m[:, i, c] * (m[:, j, a] * m[:, k, b] + m[:, j, b] * m[:, k, a])
    )


def _permanent_batch(mats: np.ndarray) -> np.ndarray:
    """Permanents of a (batch, n, n) stack, vectorised over the batch.

    Closed forms up to n=4 (n=4 by Laplace expansion into four 3 x 3 closed
    forms). Above, Glynn's formula

        per(A) = 2 sum_d (prod_i d_i) prod_j c_j,  c_j = 1/2 sum_i d_i A[i, j],

    over the sign vectors d in {+1, -1}^n with d_0 = +1, is walked over the
    low signs d_1..d_low in Gray-code order, so each step adds or subtracts
    one row of A from the running half sums and forms one n-fold product:
    O(n 2^(n-1)) per matrix. On positive matrices its terms cancel far
    less than those of Ryser's subset sum, so it keeps its accuracy there
    (all-ones, n = 20: 2e-13 relative). The 2^h settings of the h high
    signs, h = min(max(n - 8, 0), 12), are fixed prefixes walked alongside
    as extra rows, in sub-stacks of max(``STACK`` >> h, 1) matrices, and
    each matrix's prefixes are summed in one order: a permanent's bits
    depend on the matrix alone, never on its stack. Matrix rows are held
    as a contiguous (n, n, batch) array, so every step is a handful of
    whole-row numpy operations; a stack whose ``transpose(1, 2, 0)`` is
    contiguous is read without a copy.
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
        return _permanent3(mats, (0, 1, 2), (0, 1, 2))
    if n == 4:
        # Laplace expansion along row 0 into the four 3 x 3 minors
        return (
            mats[:, 0, 0] * _permanent3(mats, (1, 2, 3), (1, 2, 3))
            + mats[:, 0, 1] * _permanent3(mats, (1, 2, 3), (0, 2, 3))
            + mats[:, 0, 2] * _permanent3(mats, (1, 2, 3), (0, 1, 3))
            + mats[:, 0, 3] * _permanent3(mats, (1, 2, 3), (0, 1, 2))
        )
    rows = np.ascontiguousarray(mats.transpose(1, 2, 0))
    h = min(max(n - 8, 0), 12)
    step = max(STACK >> h, 1)
    out = np.empty(b, dtype=np.complex128)
    for lo in range(0, b, step):
        out[lo : lo + step] = _glynn_walk(rows[:, :, lo : lo + step], h)
    return out


def _glynn_walk(rows: np.ndarray, h: int) -> np.ndarray:
    """Glynn's sum for each matrix of an entry-major (n, n, count) stack, its h high signs taken as prefixes."""
    n, _, count = rows.shape
    if count << h == 1:  # numpy rounds an in-place product of length 1 as a reduction, not as one element of many
        return _glynn_walk(rows.repeat(2, axis=2), h)[:1]
    low = n - 1 - h
    # cs[j, P, k]: half sum j of matrix k with the signs of prefix P (bit t
    # of P sets d of row low + 1 + t to -1), built by doubling the prefixes
    cs = 0.5 * rows.sum(axis=0)[:, None, :]
    for t in range(low + 1, n):
        cs = np.concatenate((cs, cs - rows[t][:, None, :]), axis=1)
    flip_rows = rows[1 : low + 1, :, None, :]
    if count < 1 << h:  # prefixes innermost when they outnumber the matrices, so that row updates run long
        cs, flip_rows = np.ascontiguousarray(cs.transpose(0, 2, 1)), flip_rows.transpose(0, 1, 3, 2)
    flat = cs.reshape(n, -1)
    prod = np.empty(flat.shape[1], dtype=np.complex128)
    total = np.zeros_like(prod)
    for k, (flip, add) in enumerate(_gray_steps(low)):
        if flip is not None:
            # adding row flip + 1 to the set of negative signs subtracts it
            if add:
                cs -= flip_rows[flip]
            else:
                cs += flip_rows[flip]
        np.multiply.reduce(flat, axis=0, out=prod)  # ((c_0 c_1) c_2) ..., in one call whatever n
        # the number of negative low signs changes parity at every step
        if k & 1:
            total -= prod
        else:
            total += prod
    signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << h)) & 1)
    # each matrix's signed prefixes as one contiguous row, so that its sum runs alike in every stack
    signed = total.reshape(count, -1) * signs if count < 1 << h else (signs[:, None] * total.reshape(-1, count)).T
    return 2.0 * np.ascontiguousarray(signed).sum(axis=1)
