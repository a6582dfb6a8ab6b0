"""Ideal device: exact output distribution, exact sampling, distance utilities.

For an input occupation vector n and output s, the transition probability is
|per(U[n|s])|^2 / (mu(n) mu(s)), zero when the photon totals differ. At desk
scale the full table is cheap enough to materialise, which gives tests an
unimpeachable sampling oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, NumericError
from .fock import enumerate_outputs, mode_indices, mu, total_photons
from .permanent import STACK, _permanent_batch, _repeated
from .random_ensembles import as_matrix

Outcome = tuple[int, ...]


@dataclass(frozen=True)
class DistributionTable:
    """Explicit finite distribution over occupation vectors or click patterns.

    ``outcomes`` is a read-only ``(count, modes)`` intp table, one outcome
    per row; any sequence of equal-length rows is accepted and converted.
    """

    outcomes: np.ndarray
    probs: np.ndarray

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
        return float(math.fsum(self.probs))

    def is_complete(self, tol: float = 1e-8) -> bool:
        return abs(self.total_mass - 1.0) <= tol

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
    order; the total mass is 1 up to floating-point roundoff. The
    permanents run through the batched kernel, ``STACK`` outcomes per
    call.
    """
    m = as_matrix(u, n)
    modes = m.shape[0]
    photons = total_photons(n)
    outcomes = enumerate_outputs(modes, photons)
    factorials = np.array([math.factorial(k) for k in range(photons + 1)], dtype=np.float64)
    sources = m[mode_indices(n)]
    probs = np.empty(len(outcomes))
    for lo in range(0, len(outcomes), STACK):
        occ = outcomes[lo : lo + STACK]
        # (chunk, photons): one column index per photon, ascending per outcome
        cols = np.repeat(np.tile(np.arange(modes), len(occ)), occ.ravel()).reshape(len(occ), photons)
        probs[lo : lo + len(occ)] = _squared_permanents(sources, cols) / (mu(n) * factorials[occ].prod(axis=1))
    return DistributionTable(outcomes, probs)


def _squared_permanents(sources: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """|per(sources[:, cols[b]])|^2 for each row b of the (count, N) column array ``cols``.

    ``sources`` holds the N source rows of the network; for a collision-free
    output given by its N clicked modes this is its ideal probability. The
    kernel takes ``STACK`` rows per call, each as an entry-major
    (N, N, chunk) stack that it reads without a copy.
    """
    out = np.empty(len(cols))
    for lo in range(0, len(cols), STACK):
        chunk = cols[lo : lo + STACK]
        stack = np.take(sources, chunk.T, axis=1).transpose(2, 0, 1)
        out[lo : lo + len(chunk)] = np.abs(_permanent_batch(stack)) ** 2
    return out


def sample_ideal(dist: DistributionTable, count: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. draws by inverse CDF over the materialised table, one row of ``dist.outcomes`` each.

    Zero-probability outcomes are never drawn. Requires a complete table
    (total mass 1 within 1e-8).
    """
    return dist.outcomes[_draw_indices(dist, count, rng)]


def _draw_indices(dist: DistributionTable, count: int, rng: np.random.Generator) -> np.ndarray:
    """The row indices of ``dist.outcomes`` that ``sample_ideal`` draws, from the same RNG calls."""
    if not dist.is_complete():
        raise ValueError(f"distribution is incomplete: total mass {dist.total_mass}")
    cum = np.cumsum(dist.probs)
    u = rng.random(count)
    idx = np.searchsorted(cum, u, side="right")
    # u >= cum[-1] can only happen through roundoff; fall back to the last
    # outcome that carries mass.
    if idx.size and idx.max() >= len(cum):
        last = int(np.flatnonzero(dist.probs > 0)[-1])
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
        return math.fsum(np.abs(diff))
    rows = np.concatenate((p_rows, q_rows))
    order = np.lexsort(rows.T) if rows.shape[1] else np.arange(len(rows))
    rows, diff = rows[order], diff[order]
    # each table holds an outcome once, so a shared one is a pair: p_i + (-q_i) on its first row
    shared = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1))
    diff[shared] += diff[shared + 1]
    diff[shared + 1] = 0.0
    return math.fsum(np.abs(diff))
