import numpy as np
import pytest
from scipy import stats

from bosonbudget import (
    DetectorModel,
    DeviceConfig,
    DimensionError,
    Indistinguishability,
    NetworkUnitary,
    NumericError,
    ResourceLimitError,
    SourceModel,
    fourier_matrix,
    full_distribution,
    gaussian_submatrix,
    haar_unitary,
    input_prob,
    prob_ideal,
    prob_mismatch,
    row_norm_witness,
    spawn_rngs,
)
from bosonbudget.permanent import permanent_contingency, permanent_repeated


def test_single_mode_is_pure_phase():
    rng = np.random.default_rng(0)
    u = haar_unitary(1, rng)
    assert abs(abs(u.matrix[0, 0]) - 1.0) < 1e-12


def test_column_norms_are_one():
    u = haar_unitary(12, np.random.default_rng(1))
    norms = np.linalg.norm(u.matrix, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_unitarity_defect():
    for seed in range(5):
        u = haar_unitary(16, np.random.default_rng(seed))
        assert u.unitarity_defect <= 1e-10


def test_first_moment_of_entry():
    # E|U_11|^2 = 1/M for a uniformly random unitary
    m = 16
    rng = np.random.default_rng(2)
    vals = np.array([abs(haar_unitary(m, rng).matrix[0, 0]) ** 2 for _ in range(10_000)])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 1.0 / m) <= 3.0 * se


def test_entry_distribution_position_invariance():
    # |U_jk|^2 samples from two fixed positions should be indistinguishable
    rng = np.random.default_rng(3)
    a, b = [], []
    for _ in range(3000):
        m = haar_unitary(8, rng).matrix
        a.append(abs(m[0, 0]) ** 2)
        b.append(abs(m[5, 2]) ** 2)
    assert stats.ks_2samp(a, b).pvalue >= 0.01


def test_gaussian_block_moments():
    rng = np.random.default_rng(4)
    m = 1000
    block = np.concatenate([gaussian_submatrix(10, m, rng).ravel() for _ in range(100)])
    # 10^4 entries: second moment 1/m within 3 standard errors
    sq = np.abs(block) ** 2
    se = sq.std(ddof=1) / np.sqrt(sq.size)
    assert abs(sq.mean() - 1.0 / m) <= 3.0 * se
    se_re = block.real.std(ddof=1) / np.sqrt(block.size)
    assert abs(block.real.mean()) <= 3.0 * se_re


def test_gaussian_block_determinism():
    a = gaussian_submatrix(3, 1000, np.random.default_rng(99))
    b = gaussian_submatrix(3, 1000, np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_gaussian_block_warns_when_m_small():
    with pytest.warns(UserWarning):
        gaussian_submatrix(4, 100, np.random.default_rng(0))


def test_fourier_2_is_beamsplitter():
    u = fourier_matrix(2).matrix
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.max(np.abs(u - expected)) < 1e-12


@pytest.mark.parametrize("m", [2, 3, 8, 17, 64])
def test_fourier_unitarity(m):
    assert fourier_matrix(m).unitarity_defect <= 1e-12


def test_fourier_equimodular():
    u = fourier_matrix(4).matrix
    assert np.max(np.abs(np.abs(u) - 0.5)) < 1e-12


def test_mode_cap():
    with pytest.raises(ResourceLimitError):
        haar_unitary(5000, np.random.default_rng(0))


def test_from_matrix_rejects_non_unitary():
    with pytest.raises(DimensionError):
        NetworkUnitary.from_matrix(np.ones((2, 2)))


WIDE = np.ones((2, 3))  # a 2 x 3 "network"
NAN = np.array([[np.nan, 0.0], [0.0, 1.0]])
G = Indistinguishability((0.9,))


U4 = haar_unitary(4, np.random.default_rng(1))
CFG4 = DeviceConfig(U4, 2, SourceModel.single_photon(0.9), DetectorModel.ideal())
NEGATIVE = "occupation entry -1 at mode 0 is not a non-negative integer"


@pytest.mark.parametrize("call, error, match", [
    (lambda: full_distribution(WIDE, (1, 0)), DimensionError, None),
    (lambda: row_norm_witness(WIDE, (1, 0), []), DimensionError, None),
    (lambda: prob_mismatch(WIDE, (1, 1), (1, 1), G), DimensionError, None),
    (lambda: permanent_contingency(WIDE, (1, 0), (0, 1)), DimensionError, None),
    (lambda: prob_ideal(WIDE, (1, 0), (1, 0)), DimensionError, None),
    (lambda: permanent_repeated(WIDE, (1, 0), (1, 0)), DimensionError, None),
    (lambda: DeviceConfig(WIDE, 1, SourceModel.ideal(), DetectorModel.ideal()), DimensionError, None),
    (lambda: NetworkUnitary(NAN), NumericError, None),
    (lambda: NetworkUnitary.from_matrix(NAN), NumericError, None),
    (lambda: prob_mismatch(fourier_matrix(3), (1, 0, 0, 1), (1, 0, 0, 1), G), DimensionError, None),
    (lambda: prob_ideal(U4, (1.5, 0, 0, 0), (1, 0, 0, 0)), ValueError, "occupation entry 1.5 at mode 0"),
    (lambda: prob_ideal(U4, (0.5, 0.5, 0, 0), (1, 0, 0, 0)), ValueError, "occupation entry 0.5 at mode 0"),
    (lambda: full_distribution(U4, (1.5, 0, 0, 0)), ValueError, "occupation entry 1.5 at mode 0"),
    (lambda: input_prob(CFG4, (0.5, 1, 0, 0)), ValueError, "occupation entry 0.5 at mode 0"),
    (lambda: prob_ideal(U4, (-1, 2, 0, 0), (1, 0, 0, 0)), ValueError, NEGATIVE),
    (lambda: permanent_repeated(U4, (-1, 2, 0, 0), (1, 0, 0, 0)), ValueError, NEGATIVE),
    (lambda: full_distribution(U4, (-1, 2, 0, 0)), ValueError, NEGATIVE),
    (lambda: prob_mismatch(U4, (-1, 2, 0, 0), (1, 0, 0, 0), G), ValueError, NEGATIVE),
], ids=["full_distribution", "row_norm_witness", "prob_mismatch", "permanent_contingency", "prob_ideal",
        "permanent_repeated", "DeviceConfig", "NetworkUnitary-nan", "from_matrix-nan", "prob_mismatch-occupation",
        "prob_ideal-fraction", "prob_ideal-halves", "full_distribution-fraction", "input_prob-fraction",
        "prob_ideal-negative", "permanent_repeated-negative", "full_distribution-negative",
        "prob_mismatch-negative"])
def test_every_matrix_argument_is_checked(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_integral_float_occupations_are_integers():
    assert prob_ideal(U4, (1.0, 1.0, 0, 0), (0, 1, 1.0, 0)) == prob_ideal(U4, (1, 1, 0, 0), (0, 1, 1, 0))


def test_matrix_is_frozen():
    u = haar_unitary(3, np.random.default_rng(5))
    with pytest.raises(ValueError):
        u.matrix[0, 0] = 0.0


def test_spawned_streams_are_reproducible_and_distinct():
    a1, b1 = spawn_rngs(7, 2)
    a2, b2 = spawn_rngs(7, 2)
    x1, x2 = a1.random(4), a2.random(4)
    assert np.array_equal(x1, x2)
    assert not np.array_equal(x1, b1.random(4))
    assert np.array_equal(b1.random(4), b2.random(8)[4:])
