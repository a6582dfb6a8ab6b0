"""Ideal device: exact output distribution, exact sampling, distance utilities.

For an input occupation vector n and output s, the transition probability is
|per(U[n|s])|^2 / (mu(n) mu(s)), zero when the photon totals differ. At desk
scale the full table is cheap enough to materialise, which gives tests an
unimpeachable sampling oracle. The CLI commands no longer materialise it:
``distribution`` and the device ``sample`` hold only the probabilities
(``_ideal_probs``), and make outcome rows chunk by chunk, or only for the
drawn indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import limits
from .errors import DimensionError, NumericError
from .exact_sum import exact_sum
from .fock import _occupations, _output_chunks, count_outputs, enumerate_outputs, mode_indices, mu, total_photons
from .permanent import STACK, _permanent_batch, _repeated
from .random_ensembles import NetworkUnitary, _unitarity_defect, as_matrix

Outcome = tuple[int, ...]


@dataclass(frozen=True)
class DistributionTable:
    """Explicit finite distribution over occupation vectors or click patterns.

    ``outcomes`` is a read-only ``(count, modes)`` intp table, one outcome
    per row; any sequence of equal-length rows is accepted and converted.
    ``tol`` is how far from 1 the total mass of a complete table may lie:
    1e-8 unless given, and the network's bound (``_mass_tolerance``) in a
    ``full_distribution``.
    """

    outcomes: np.ndarray
    probs: np.ndarray
    tol: float = 1e-8

    def __post_init__(self):
        o = np.asarray(self.outcomes, dtype=np.intp).view()
        p = np.array(self.probs, dtype=np.float64)
        if o.ndim != 2 or p.ndim != 1 or len(p) != len(o):
            raise DimensionError("outcomes must be a (count, modes) table and probs a vector matching it")
        if not np.isfinite(p).all():
            raise NumericError("probabilities must be finite")
        if p.size and p.min() < -1e-12:
            raise ValueError(f"negative probability {p.min()}")
        np.clip(p, 0.0, None, out=p)
        # equal rows are adjacent once the table is sorted; the narrowest dtype sorts fastest
        keys = o.astype(np.result_type(np.min_scalar_type(o.min(initial=0)), np.min_scalar_type(o.max(initial=0))))
        ranked = keys[np.lexsort(keys.T)] if o.shape[1] else keys
        if (ranked[1:] == ranked[:-1]).all(axis=1).any():
            raise ValueError("outcomes must be unique")
        o.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "outcomes", o)
        object.__setattr__(self, "probs", p)

    @property
    def total_mass(self) -> float:
        return exact_sum(self.probs)

    def is_complete(self, tol: float | None = None) -> bool:
        return abs(self.total_mass - 1.0) <= (self.tol if tol is None else tol)

    def as_dict(self) -> dict[Outcome, float]:
        return dict(zip(map(tuple, self.outcomes.tolist()), self.probs.tolist()))


def prob_ideal(u, n: Sequence[int], s: Sequence[int]) -> float:
    """Exact transition probability of the noiseless device.

    Returns 0.0 (without raising) when the photon totals differ, since the
    network conserves photon number.
    """
    m = as_matrix(u, n, s)  # the one check of the network and both vectors, before the photon totals are compared
    if total_photons(n) != total_photons(s):
        return 0.0
    amp = _repeated(m, n, s)
    return float(abs(amp) ** 2 / (mu(n) * mu(s)))


def full_distribution(u, n: Sequence[int]) -> DistributionTable:
    """Exact table over every output with the same photon total as ``n``.

    Outcomes follow the deterministic descending-lexicographic enumeration
    order; the total mass is 1 up to floating-point roundoff and the
    network's unitarity defect, and the table's ``tol`` is the bound the
    defect sets (``_mass_tolerance``), so ``sample_ideal`` draws from it
    whenever the device ``sample`` draws from the same network. The
    probabilities are those of ``_ideal_probs``, which the CLI commands
    read without building this table.
    """
    probs = _ideal_probs(u, n)  # checks the network and n, and refuses over the outcomes cap, first
    return DistributionTable(enumerate_outputs(len(n), total_photons(n)), probs, _mass_tolerance(u, n))


def _ideal_probs(u, n: Sequence[int]) -> np.ndarray:
    """The ideal probability of every output of the photons of ``n``, in ``enumerate_outputs`` order.

    The outputs are made ``STACK`` at a time by ``_output_chunks`` and
    dropped once their permanents are taken, so only the 8 bytes per
    outcome of the result are held. A permanent's bits depend on its
    matrix alone, so they do not depend on the chunking either. Refuses
    over the ``permanent_order`` and ``outcomes`` limits before any
    outcome is made, and raises ``NumericError`` if a probability is not
    finite.
    """
    m = as_matrix(u, n)
    modes = m.shape[0]
    photons = total_photons(n)
    limits.check("permanent_order", photons, "permanent")
    factorials = np.array([math.factorial(k) for k in range(photons + 1)], dtype=np.float64)
    sources = m[mode_indices(n)]
    chunks = _output_chunks(modes, photons, STACK)  # refuses over the outcomes cap
    probs = np.empty(count_outputs(modes, photons))
    lo = 0
    for cols in chunks:  # (chunk, photons): the mode of each photon
        perms = _squared_permanents(sources, cols)
        probs[lo : lo + len(cols)] = perms / (mu(n) * factorials[_occupations(cols, modes)].prod(axis=1))
        lo += len(cols)
    if not np.isfinite(probs).all():
        raise NumericError("probabilities must be finite")
    return probs


def _mass_tolerance(u, n: Sequence[int]) -> float:
    """1e-8 + 2 N d while d <= 1e-8, else 1e-8: how far from 1 the total of ``_ideal_probs(u, n)`` may lie.

    N is the photon count and d the network's ``unitarity_defect``, the
    largest |entry| of U^dag U - I. By Cauchy-Binet the exact total is
    per(I + F[R, R]) over the source modes R, with F = U U^dag - I, so it
    is within sum_(k>=1) N!/(N - k)! f^k <= N f / (1 - N f) of 1 when no
    |F_ij| exceeds f: at most 2 N f while N f <= 1/2. A repeated source
    mode keeps the bound, as each term's count of permutations is then at
    most k! mu(n). F has the spectrum of U^dag U - I, and |total - 1| / (N d)
    is 1 for a scalar U (1 + e) and was at most 0.77 over 40 random complex
    perturbations of a Haar U at M = 6..16, N = 2..7; 1e-8 covers the
    roundoff of the sum. The bound is widened only for a defect that a
    network may carry, at most the 1e-8 that ``--unitary`` accepts (N d
    is then far below 1/2): a matrix visibly off the unitary group keeps
    1e-8, so its table is incomplete rather than drawn from with the
    missing or surplus mass piled on one outcome.
    """
    defect = u.unitarity_defect if isinstance(u, NetworkUnitary) else _unitarity_defect(as_matrix(u))
    return 1e-8 + (2 * total_photons(n) * defect if defect <= 1e-8 else 0.0)


def _device_probs(u: NetworkUnitary, n: Sequence[int]) -> np.ndarray:
    """``_ideal_probs(u, n)`` for a 0/1 input, refused unless their total is within ``_mass_tolerance`` of 1.

    A total outside the bound raises ``NumericError``, naming it and the
    network's unitarity defect.
    """
    probs = _ideal_probs(u, n)
    total = exact_sum(probs)
    if not abs(total - 1.0) <= _mass_tolerance(u, n):
        raise NumericError(f"device distribution has total mass {total}, further from 1 than the network's "
                           f"unitarity defect {u.unitarity_defect:.3e} allows")
    return probs


def _squared_permanents(sources: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """|per(sources[:, cols[b]])|^2 for each row b of the (count, N) column array ``cols``.

    ``sources`` holds the N source rows of the network; for a collision-free
    output given by its N clicked modes this is its ideal probability. The
    rows go to the kernel in one call, as an entry-major (N, N, rows) stack
    that it reads without a copy, so callers keep them to ``STACK``.
    """
    return np.abs(_permanent_batch(np.take(sources, cols.T, axis=1).transpose(2, 0, 1))) ** 2


def sample_ideal(dist: DistributionTable, count: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. draws by inverse CDF over the materialised table, one row of ``dist.outcomes`` each.

    Zero-probability outcomes are never drawn. Requires a complete table
    (total mass 1 within the table's ``tol``).
    """
    if not dist.is_complete():
        raise ValueError(f"distribution is incomplete: total mass {dist.total_mass}, not within {dist.tol:.3e} of 1")
    return dist.outcomes[_draw_indices(dist.probs, count, rng)]


def _draw_indices(probs: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` indices into ``probs`` drawn i.i.d. by inverse CDF: the rows ``sample_ideal`` draws.

    Takes the probabilities alone, so the device ``sample`` holds them and
    their running sum, 16 bytes per outcome, and no outcome table; it
    makes the same RNG calls for the same ``probs``. The callers check
    the total mass first: ``sample_ideal`` and ``_device_probs``.

    The keys are searched ``STACK`` at a time in sorted order, which lets
    each search start from the one before, and the indices are scattered
    back: the same indices as ``np.searchsorted(cum, u, side="right")``
    over all the keys at once, with one block's sort order held.
    """
    cum = np.cumsum(probs)
    u = rng.random(count)
    idx = np.empty(count, dtype=np.intp)
    for lo in range(0, count, STACK):
        keys = u[lo : lo + STACK]
        order = np.argsort(keys)
        idx[lo : lo + STACK][order] = np.searchsorted(cum, keys[order], side="right")
    # u >= cum[-1] can only happen through roundoff; fall back to the last
    # outcome that carries mass.
    if idx.size and idx.max() >= len(cum):
        last = int(np.flatnonzero(probs > 0)[-1])
        idx = np.where(idx >= len(cum), last, idx)
    return idx


def _rows_and_probs(d) -> tuple[np.ndarray, np.ndarray]:
    """A ``DistributionTable``, or a mapping from outcome tuples to probabilities, as (rows, probs)."""
    if isinstance(d, DistributionTable):
        return d.outcomes, d.probs
    d = dict(d)
    rows = np.array(list(d), dtype=np.intp)
    width = rows.shape[1] if rows.ndim == 2 else 0  # an empty mapping holds no outcome of any length
    return rows.reshape(len(d), width), np.array(list(d.values()), dtype=np.float64)


def variational_distance(p, q) -> float:
    """Sum of |p_i - q_i| over the union of supports; ranges over [0, 2].

    This is the convention without the factor 1/2. Outcomes missing from one
    table are treated as probability zero, so tables over different supports
    (e.g. realistic vs ideal devices) compare directly. Either argument may
    be a ``DistributionTable`` or a mapping from outcome tuples to
    probabilities. The two tables are stacked and sorted by one
    ``lexsort``, which puts an outcome held by both in two adjacent rows.
    """
    (p_rows, p_probs), (q_rows, q_probs) = _rows_and_probs(p), _rows_and_probs(q)
    diff = np.concatenate((p_probs, -q_probs))
    if p_rows.shape[1] != q_rows.shape[1]:  # outcomes of different lengths: none is shared
        return exact_sum(np.abs(diff))
    rows = np.concatenate((p_rows, q_rows))
    order = np.lexsort(rows.T) if rows.shape[1] else np.arange(len(rows))
    rows, diff = rows[order], diff[order]
    # each table holds an outcome once, so a shared one is a pair: p_i + (-q_i) on its first row
    shared = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1))
    diff[shared] += diff[shared + 1]
    diff[shared + 1] = 0.0
    return exact_sum(np.abs(diff))
