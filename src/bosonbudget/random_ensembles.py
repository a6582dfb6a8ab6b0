"""Random and structured network matrices.

Provides uniformly random unitaries (the "any network" ensemble used by the
scalability bounds), the i.i.d. complex-Gaussian submatrix ensemble that
approximates their small blocks, and the discrete-Fourier network used by the
multi-photon suppression test.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import limits
from .errors import DimensionError, NumericError


def as_matrix(u, *occupations) -> np.ndarray:
    """The complex matrix of a NetworkUnitary or array-like ``u``: the package's one matrix check.

    Raises ``DimensionError`` unless the matrix is square (0 x 0 included)
    and each occupation vector has one entry per mode, ``NumericError``
    if a matrix entry is not finite, and ``ValueError``, naming the entry,
    if an occupation entry is not a non-negative integer (an integral
    float such as 1.0 is one). A NetworkUnitary, checked by its
    constructor, is not scanned again; a complex array is not copied.
    """
    if isinstance(u, NetworkUnitary):
        m = u.matrix
    else:
        m = np.asarray(u, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise NumericError("matrix has non-finite entries")
    if any(len(occ) != len(m) for occ in occupations):
        raise DimensionError("occupation vectors must have one entry per mode")
    for occ in occupations:
        a = np.asarray(occ)
        with np.errstate(invalid="ignore"):  # inf % 1 is NaN, and refused with NaN
            bad = np.flatnonzero(~((a >= 0) & (a % 1 == 0)))
        if bad.size:
            raise ValueError(f"occupation entry {a[bad[0]].item()!r} at mode {bad[0]} is not a non-negative integer")
    return m


def _unitarity_defect(m: np.ndarray) -> float:
    """The max-norm of U^dag U - I for a square matrix U; 0 for the empty one."""
    return float(np.max(np.abs(m.conj().T @ m - np.eye(len(m))), initial=0.0))


@dataclass(frozen=True)
class NetworkUnitary:
    """An M-mode network matrix with its unitarity certificate.

    The matrix is held as a read-only copy that passed ``as_matrix``; an
    empty one is refused. ``unitarity_defect`` is the max-norm of
    U^dag U - I; constructors in this module guarantee it is at machine
    level (<= 1e-10).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(np.array(self.matrix, dtype=np.complex128))
        if not len(m):
            raise DimensionError("network matrix must have at least one mode")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def modes(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def unitarity_defect(self) -> float:
        return _unitarity_defect(self.matrix)

    @classmethod
    def from_matrix(cls, matrix, *, max_defect: float = 1e-10) -> "NetworkUnitary":
        """Wrap a user-supplied matrix, rejecting it if visibly non-unitary."""
        u = cls(matrix)
        if u.unitarity_defect > max_defect:
            raise DimensionError(
                f"matrix is not unitary: defect {u.unitarity_defect:.3e} > {max_defect:.1e}"
            )
        return u


def haar_unitary(modes: int, rng: np.random.Generator) -> NetworkUnitary:
    """Draw an ``modes x modes`` unitary uniformly at random.

    QR of a complex Ginibre matrix with the R-diagonal phase correction, so
    the distribution is exactly uniform rather than merely approximately.
    """
    if modes < 1:
        raise ValueError(f"modes must be positive, got {modes}")
    limits.check("haar_modes", modes, "Haar draw")
    z = (rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return NetworkUnitary(q)


def gaussian_submatrix(n: int, modes: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. complex-Gaussian N x N block with E|entry|^2 = 1/modes.

    Mimics a small block of a random ``modes``-mode unitary; the approximation
    is only faithful for N^2 << modes, so a warning fires when modes < 10 N^2.
    """
    if n < 1 or modes < 1:
        raise ValueError("n and modes must be positive")
    if modes < 10 * n * n:
        warnings.warn(
            f"Gaussian block approximation is poor for modes={modes} < 10*N^2={10 * n * n}",
            stacklevel=2,
        )
    scale = np.sqrt(1.0 / (2.0 * modes))
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def fourier_matrix(modes: int) -> NetworkUnitary:
    """Discrete Fourier network: U_jk = exp(2*pi*i*(j-1)(k-1)/M) / sqrt(M)."""
    if modes < 1:
        raise ValueError("modes must be positive")
    j = np.arange(modes)
    return NetworkUnitary(np.exp(2j * np.pi * np.outer(j, j) / modes) / np.sqrt(modes))


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Independent child generators derived from one seed by stream splitting.

    Children are reproducible functions of (seed, index), so parallel callers
    can each own a stream without coordinating.
    """
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]
