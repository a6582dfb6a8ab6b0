import os

# Pin numpy's BLAS pool to one thread before numpy is first imported, so
# the suite's time does not depend on what else runs on the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

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
