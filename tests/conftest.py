import os

# Pin numpy's BLAS pool to one thread before numpy is first imported, so
# the suite's time does not depend on what else runs on the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from mpmath import fprod, fsum, mpf

from bosonbudget import fourier_matrix, haar_unitary


@pytest.fixture
def beamsplitter():
    """50:50 beamsplitter, the 2-mode Fourier network."""
    return fourier_matrix(2)


def make_haar(modes: int, seed: int):
    return haar_unitary(modes, np.random.default_rng(seed))


def random_complex(rng, n: int, m: int | None = None) -> np.ndarray:
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def glynn_mp(rows):
    """Permanent of a list of rows of mpmath numbers by Glynn's formula in
    Gray-code order, at the working mpmath precision (1 for no rows)."""
    n = len(rows)
    if n == 0:
        return mpf(1)
    twice = [[2 * x for x in row] for row in rows]
    sums = [fsum(col) for col in zip(*rows)]
    total = fprod(sums)
    prev = 0
    for k in range(1, 1 << (n - 1)):
        gray = k ^ (k >> 1)
        bit = (gray ^ prev).bit_length() - 1
        prev = gray
        if gray >> bit & 1:
            sums = [c - r for c, r in zip(sums, twice[bit + 1])]
        else:
            sums = [c + r for c, r in zip(sums, twice[bit + 1])]
        term = fprod(sums)
        total = total - term if k & 1 else total + term
    return total / 2 ** (n - 1)
