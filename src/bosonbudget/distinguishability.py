"""Partially distinguishable photons: overlaps, probabilities, bounds.

Internal photon states that are not perfectly identical degrade multi-photon
interference. For identical sources the effect enters only through one scalar
per cycle length: the k-fold exchange overlap g_k = Tr(rho_1^k) of the
single-photon internal density matrix, with g_k = 1 for perfectly
indistinguishable photons and g_k -> 0 for fully distinguishable ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import limits
from .errors import DimensionError, PhotonCountError
from .fock import mode_indices, mu, total_photons
from .permanent import _permanent_batch
from .random_ensembles import as_matrix


@dataclass(frozen=True)
class JitterSourceSpec:
    """Gaussian spectral envelope with Gaussian arrival-time jitter.

    ``spectral_width`` is the envelope's angular-frequency standard deviation,
    ``jitter_std`` the standard deviation of the arrival-time fluctuation.
    Only the product of the two enters any overlap.
    """

    spectral_width: float
    jitter_std: float

    def __post_init__(self):
        if not self.spectral_width > 0:
            raise ValueError("spectral_width must be positive")
        if self.jitter_std < 0:
            raise ValueError("jitter_std must be non-negative")


@dataclass(frozen=True)
class Indistinguishability:
    """Exchange overlaps g_k for k = 2..max_order, plus the mean pair fidelity.

    ``orders[k-2]`` holds g_k. Fixed points always contribute a factor of 1
    (g_1 = Tr rho_1 = 1), so only k >= 2 is stored.
    """

    orders: tuple[float, ...]
    avg_fidelity: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(float(g) for g in self.orders))
        for g in self.orders:
            if not 0.0 <= g <= 1.0:
                raise ValueError(f"overlap {g} outside [0, 1]")
        if self.avg_fidelity is not None and not 0.0 <= self.avg_fidelity <= 1.0:
            raise ValueError("avg_fidelity outside [0, 1]")

    @property
    def max_order(self) -> int:
        return len(self.orders) + 1

    def overlap(self, k: int) -> float:
        """g_k; identically 1 for k <= 1."""
        if k <= 1:
            return 1.0
        if k > self.max_order:
            raise ValueError(f"overlap order {k} beyond the stored maximum {self.max_order}")
        return self.orders[k - 2]

    @classmethod
    def perfect(cls, n_photons: int) -> "Indistinguishability":
        return cls((1.0,) * max(n_photons - 1, 0), avg_fidelity=1.0)

    @classmethod
    def constant(cls, g: float, n_photons: int) -> "Indistinguishability":
        return cls((float(g),) * max(n_photons - 1, 0))

    @classmethod
    def from_jitter(cls, spec: JitterSourceSpec, max_order: int) -> "Indistinguishability":
        """Overlaps of identical Gaussian photons whose arrival times jitter.

        The k-fold overlap is a cyclic Gaussian integral over the k arrival
        times; for Gaussian envelope and Gaussian jitter it evaluates in
        closed form to prod_{j=1}^{k-1} (1 + 4 a sin^2(pi j / k))^{-1/2} with
        a = (spectral_width * jitter_std)^2, which is what is returned here
        (the test suite checks it against direct quadrature).
        """
        if max_order < 2:
            raise ValueError("max_order must be at least 2")
        a = (spec.spectral_width * spec.jitter_std) ** 2
        orders = []
        for k in range(2, max_order + 1):
            prod = 1.0
            for j in range(1, k):
                prod *= 1.0 + 4.0 * a * math.sin(math.pi * j / k) ** 2
            orders.append(1.0 / math.sqrt(prod))
        return cls(tuple(orders), avg_fidelity=1.0 / math.sqrt(1.0 + 2.0 * a))


def _partitions(n: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Integer partitions of n, parts non-increasing."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for head in range(min(n, largest), 0, -1):
        for tail in _partitions(n - head, head):
            yield (head,) + tail


def cycle_types(n: int) -> list[tuple[tuple[int, ...], int]]:
    """All cycle-count vectors of S_n with their conjugacy-class sizes.

    Each entry is (c, size) where c[k-1] counts k-cycles, sum k*c_k = n, and
    size = n! / prod(k^c_k c_k!). Class sizes add up to n!.
    """
    if n < 1:
        raise ValueError("n must be positive")
    limits.check("cycle_photons", n, "cycle-type enumeration")
    out = []
    n_fact = math.factorial(n)
    for part in _partitions(n):
        counts = [0] * n
        for k in part:
            counts[k - 1] += 1
        denom = 1
        for k, c in enumerate(counts, start=1):
            denom *= k**c * math.factorial(c)
        out.append((tuple(counts), n_fact // denom))
    return out


def arrangement_count(n: int) -> int:
    """Number of sequences without repetition from n items: sum_k n!/k!.

    Exact integer arithmetic; equals the integral of z^n e^(1-z) over
    [1, inf), which the tests verify numerically.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    limits.check("arrangement_items", n, "arrangement count")
    n_fact = math.factorial(n)
    return sum(n_fact // math.factorial(k) for k in range(n + 1))


def cycle_counts(sigma: Sequence[int]) -> tuple[int, ...]:
    """Cycle-count vector of a permutation in one-line notation (0-based)."""
    n = len(sigma)
    counts = [0] * n
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        counts[length - 1] += 1
    return tuple(counts)


def permutation_overlap(indist: Indistinguishability, sigma: Sequence[int]) -> float:
    """Joint internal-state overlap of a photon permutation.

    For identical single-photon sources this is prod_k g_k^(c_k) over the
    cycle counts of the permutation; real-valued in [0, 1].
    """
    out = 1.0
    for k, c in enumerate(cycle_counts(sigma), start=1):
        if k >= 2 and c:
            out *= indist.overlap(k) ** c
    return out


class SigmaTable(NamedTuple):
    """The relative permutations of N photons that carry weight."""

    overlaps: np.ndarray  # (count,) J(sigma), every entry non-zero
    inverses: np.ndarray  # (count, N) sigma^-1 in one-line notation


def sigma_table(photons: int, indist: Indistinguishability) -> SigmaTable:
    """J(sigma) and sigma^-1 for every sigma in S_N whose overlap is non-zero.

    Depends only on the photon count and the overlaps, so a caller that
    evaluates many outputs builds it once and passes it to ``prob_mismatch``.
    """
    limits.check("mismatch_photons", photons, "mismatch probability")
    overlaps = []
    inverses = []
    for sigma in permutations(range(photons)):
        j = permutation_overlap(indist, sigma)
        if j == 0.0:
            continue
        overlaps.append(j)
        inverses.append(np.argsort(sigma))
    return SigmaTable(np.array(overlaps), np.array(inverses, dtype=np.intp).reshape(-1, photons))


def prob_mismatch(
    u,
    n: Sequence[int],
    s: Sequence[int],
    indist: Indistinguishability,
    *,
    sigmas: SigmaTable | None = None,
) -> float:
    """Output probability with partially distinguishable photons.

    The double sum over permutation pairs is folded into a single sum over
    the relative permutation sigma, whose weight is the overlap J(sigma):

        P = (1 / mu(s) mu(n)) * sum_sigma J(sigma) * per(B(sigma)),
        B(sigma)[i, a] = conj(V[i, a]) * V[i, sigma^-1(a)],

    with V the row/column-repeated submatrix of the network. All B(sigma)
    go through the batched permanent kernel in one call. Reduces to the
    ideal probability when every g_k = 1, and to the permanent of the
    entrywise |V|^2 matrix when every g_k = 0. Pass ``sigmas`` (from
    ``sigma_table`` for the same photon count and ``indist``) when
    evaluating many outputs.
    """
    m = as_matrix(u)
    if total_photons(n) != total_photons(s):
        raise PhotonCountError("photon totals differ")
    photons = total_photons(n)
    if photons == 0:
        return 1.0
    if sigmas is None:
        sigmas = sigma_table(photons, indist)  # enforces the photon cap
    if sigmas.inverses.shape[1] != photons:
        raise DimensionError(
            f"sigma table is for {sigmas.inverses.shape[1]} photons, the output has {photons}"
        )
    v = m[np.ix_(mode_indices(n), mode_indices(s))]
    # c[a, i, k] = B(sigma_k)[i, a]: the rows of B(sigma_k)^T, entry-major,
    # which the kernel reads without a copy (per(B^T) = per(B))
    c = np.empty((photons, photons, len(sigmas.overlaps)), dtype=np.complex128)
    for a in range(photons):
        np.multiply(v[:, sigmas.inverses[:, a]], v[:, a, None].conj(), out=c[a])
    total = math.fsum(sigmas.overlaps * _permanent_batch(c.transpose(2, 0, 1)).real)
    total /= mu(n) * mu(s)
    # The underlying quadratic form is positive; tiny negatives are roundoff.
    return max(total, 0.0)


def mismatch_bound(n_photons: int, indist: Indistinguishability) -> float:
    """Ensemble bound on the mean squared distance caused by mode mismatch.

    The sum over the cycle types c of S_N,

        sum_c chi(c_1) (1 - P(c))^2 / prod_k (k^c_k c_k!),   P(c) = prod_{k>=2} g_k^c_k,

    with chi the arrangement count, evaluated without listing the types. A
    recurrence over the cycle lengths k = 2..N keeps, for every count m of
    photons in cycles of length >= 2, the sums of w P^2, w P (1 - P) and
    w (1 - P)^2 over the cycle counts chosen so far, w = prod 1/(k^c_k c_k!).
    Adding c cycles of length k multiplies w by 1/(k^c c!) and P by
    p = g_k^c, and since 1 - P p = (1 - P) + P q with
    q = (1 - g_k) sum_{i<c} g_k^i, every update is a sum of products of
    non-negative numbers: 1 - P is never formed by subtraction. The bound
    is sum_j chi(j)/j! Z[N - j], Z the w (1 - P)^2 sums.

    Cost: about N ln N updates of (3, N + 1) arrays, under a millisecond at
    N = 29. Accuracy: within 2e-16 relative of a 50-digit evaluation of the
    cycle-type sum for N = 2..30, also when every g_k is 1 - 1e-7. Exactly
    (1 - g_2)^2 / 2 at N = 2, and exactly zero when every g_k = 1.
    """
    n = n_photons
    if n < 1:
        raise ValueError("n must be positive")
    limits.check("cycle_photons", n, "mismatch bound")
    # rows: sum w P^2, sum w P (1 - P), sum w (1 - P)^2; column m photons in cycles of length >= 2
    state = np.zeros((3, n + 1))
    state[0, 0] = 1.0
    for k in range(2, n + 1):
        g = indist.overlap(k)
        before = state.copy()
        w, p, q = 1.0, 1.0, 0.0
        for c in range(1, n // k + 1):
            w /= k * c
            q += (1.0 - g) * p
            p *= g
            step = np.array([[w * p * p, 0.0, 0.0],
                             [w * p * q, w * p, 0.0],
                             [w * q * q, 2.0 * w * q, w]])
            state[:, k * c :] += step @ before[:, : n + 1 - k * c]
    z = state[2]
    return math.fsum(arrangement_count(j) / math.factorial(j) * z[n - j] for j in range(n + 1))


def mismatch_bound_small(n_photons: int, avg_fidelity: float) -> float:
    """Small-mismatch polynomial form of the mean-square distance bound.

    (1 - F)^2 * (N^3/3 - N^2/2 + 7N/6 - 1); vanishes identically at N = 1,
    where a single photon cannot be mismatched against anything.
    """
    if not 0.0 <= avg_fidelity <= 1.0:
        raise ValueError("avg_fidelity outside [0, 1]")
    return (1.0 - avg_fidelity) ** 2 * mismatch_polynomial(n_photons)


def mismatch_polynomial(n: int) -> float:
    """N^3/3 - N^2/2 + 7N/6 - 1, the factor of (1 - F)^2 in :func:`mismatch_bound_small`."""
    return n**3 / 3.0 - n**2 / 2.0 + 7.0 * n / 6.0 - 1.0
