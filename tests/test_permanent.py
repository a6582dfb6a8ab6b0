import math

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from bosonbudget import (
    DimensionError,
    NumericError,
    PhotonCountError,
    ResourceLimitError,
    permanent_contingency,
    permanent_naive,
    permanent_repeated,
    permanent_ryser,
)
from bosonbudget.permanent import _permanent_batch, contingency_tables

from conftest import glynn_mp, make_haar, random_complex


def test_identity_2x2():
    assert permanent_ryser(np.eye(2)) == pytest.approx(1.0)


def test_direct_2x2_expansion():
    assert permanent_ryser([[1, 2], [3, 4]]) == pytest.approx(10.0)


def test_hom_cancellation(beamsplitter):
    assert abs(permanent_repeated(beamsplitter, (1, 1), (1, 1))) < 1e-12


def test_empty_matrix_is_one():
    assert permanent_ryser(np.empty((0, 0))) == 1 + 0j
    assert permanent_naive(np.empty((0, 0))) == 1 + 0j


def test_single_entry():
    assert permanent_naive([[3.5 + 1j]]) == pytest.approx(3.5 + 1j)
    assert permanent_ryser([[3.5 + 1j]]) == pytest.approx(3.5 + 1j)


def test_all_ones_is_factorial():
    assert permanent_naive(np.ones((3, 3))) == pytest.approx(6.0)
    assert permanent_ryser(np.ones((4, 4))) == pytest.approx(24.0)


def test_ryser_matches_naive_6x6():
    rng = np.random.default_rng(101)
    a = random_complex(rng, 6)
    fast, slow = permanent_ryser(a), permanent_naive(a)
    assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow))


@pytest.mark.parametrize("n", range(1, 9))
def test_ryser_matches_naive_sizes(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        a = random_complex(rng, n)
        fast, slow = permanent_ryser(a), permanent_naive(a)
        assert abs(fast - slow) <= 1e-9 * max(1.0, abs(slow))


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    a = random_complex(rng, 5)
    base = permanent_ryser(a)
    for _ in range(5):
        p = rng.permutation(5)
        q = rng.permutation(5)
        assert permanent_ryser(a[p][:, q]) == pytest.approx(base, rel=1e-10)


def test_transpose_invariance():
    rng = np.random.default_rng(8)
    a = random_complex(rng, 6)
    assert permanent_ryser(a.T) == pytest.approx(permanent_ryser(a), rel=1e-10)


def test_row_scaling_is_linear():
    rng = np.random.default_rng(9)
    a = random_complex(rng, 4)
    scaled = a.copy()
    scaled[2] *= 3.0 - 2.0j
    assert permanent_ryser(scaled) == pytest.approx((3.0 - 2.0j) * permanent_ryser(a), rel=1e-10)


def test_non_square_rejected():
    with pytest.raises(DimensionError):
        permanent_ryser(np.ones((2, 3)))


def test_non_finite_rejected():
    with pytest.raises(NumericError):
        permanent_ryser([[np.nan, 0], [0, 1]])


def test_size_caps():
    with pytest.raises(ResourceLimitError):
        permanent_ryser(np.eye(31))
    with pytest.raises(ResourceLimitError):
        permanent_naive(np.eye(10))


def test_env_cap_override(monkeypatch):
    from bosonbudget import limits

    monkeypatch.setenv("BOSONBUDGET_MAX_N", "5")
    assert limits.cap("permanent_order") == 5
    with pytest.raises(ResourceLimitError):
        permanent_ryser(np.eye(6))


def test_repeated_no_repetition_is_leading_block():
    u = make_haar(5, 3)
    n = (1, 1, 1, 0, 0)
    assert permanent_repeated(u, n, n) == pytest.approx(
        permanent_ryser(u.matrix[:3, :3]), rel=1e-12
    )


def test_repeated_beamsplitter_bunched(beamsplitter):
    assert permanent_repeated(beamsplitter, (1, 1), (2, 0)) == pytest.approx(1.0, abs=1e-12)


def test_repeated_vacuum():
    u = make_haar(3, 4)
    assert permanent_repeated(u, (0, 0, 0), (0, 0, 0)) == 1 + 0j


def test_repeated_total_mismatch_raises():
    u = make_haar(3, 5)
    with pytest.raises(PhotonCountError):
        permanent_repeated(u, (1, 1, 0), (1, 0, 0))


def test_contingency_tables_margins():
    tables = list(contingency_tables([2, 1], [1, 1, 1]))
    for t in tables:
        assert [sum(r) for r in t] == [2, 1]
        assert [sum(c) for c in zip(*t)] == [1, 1, 1]
    assert len(set(tables)) == len(tables)


def test_contingency_reduces_to_2x2():
    rng = np.random.default_rng(11)
    u = random_complex(rng, 2)
    val = permanent_contingency(u, (1, 1), (1, 1))
    assert val == pytest.approx(u[0, 0] * u[1, 1] + u[0, 1] * u[1, 0], rel=1e-12)


def test_contingency_beamsplitter(beamsplitter):
    assert permanent_contingency(beamsplitter, (1, 1), (2, 0)) == pytest.approx(1.0, abs=1e-12)


def test_contingency_matches_repeated():
    rng = np.random.default_rng(12)
    for trial in range(25):
        m = int(rng.integers(2, 5))
        u = random_complex(rng, m) / m
        total = int(rng.integers(1, 5))
        n = _random_occupation(rng, m, total)
        s = _random_occupation(rng, m, total)
        a = permanent_contingency(u, n, s)
        b = permanent_repeated(u, n, s)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_contingency_cap():
    u = np.eye(4)
    with pytest.raises(ResourceLimitError):
        permanent_contingency(u, (4, 3, 0, 0), (0, 0, 4, 3))


def _random_occupation(rng, modes, total):
    occ = [0] * modes
    for _ in range(total):
        occ[int(rng.integers(0, modes))] += 1
    return tuple(occ)


def test_batch_matches_scalar():
    rng = np.random.default_rng(13)
    for n in range(7):
        mats = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        vals = _permanent_batch(mats)
        for k in range(3):
            assert vals[k] == pytest.approx(permanent_ryser(mats[k]), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("batch", [1, 3, 5000])
@pytest.mark.parametrize("n", range(10))
def test_batch_kernel_matches_naive(n, batch):
    # at n = 5..8 batch 1 walks a padded pair and batch 5000 two sub-stacks
    rng = np.random.default_rng(100 * n + batch)
    mats = rng.standard_normal((batch, n, n)) + 1j * rng.standard_normal((batch, n, n))
    vals = _permanent_batch(mats)
    assert vals.shape == (batch,)
    for k in sorted({0, batch // 2, batch - 1}):
        want = permanent_naive(mats[k])
        assert abs(vals[k] - want) <= 1e-10 * abs(want)


def test_batch_layouts_agree():
    # C-contiguous, entry-major (the kernel's own row layout) and transposed
    # stacks of the same matrices, at sizes with and without prefix rows.
    # The memory layout does not change the arithmetic; the transpose walks
    # columns instead of rows, so it agrees to rounding, taken relative to
    # per(|A|): the size the permanent would have without cancellation.
    rng = np.random.default_rng(14)
    for n in range(4, 9):
        for batch in (1, 7, 5000):
            mats = rng.standard_normal((batch, n, n)) + 1j * rng.standard_normal((batch, n, n))
            want = _permanent_batch(mats)
            entry_major = np.ascontiguousarray(mats.transpose(1, 2, 0)).transpose(2, 0, 1)
            np.testing.assert_array_equal(_permanent_batch(entry_major), want)
            scale = _permanent_batch(np.abs(mats)).real
            assert np.all(np.abs(_permanent_batch(mats.transpose(0, 2, 1)) - want) <= 1e-13 * scale)


def test_closed_form_at_four_matches_naive_and_ignores_the_batch():
    # n = 4 is a closed form (Laplace expansion into 3 x 3 closed forms): each
    # matrix's arithmetic is its own, so a batch gives its single-matrix bits
    rng = np.random.default_rng(15)
    mats = rng.standard_normal((200, 4, 4)) + 1j * rng.standard_normal((200, 4, 4))
    vals = _permanent_batch(mats)
    for k in range(200):
        want = permanent_naive(mats[k])
        assert abs(vals[k] - want) <= 1e-13 * abs(want)
        assert _permanent_batch(mats[k : k + 1])[0] == vals[k]
    assert _permanent_batch(np.ones((3, 4, 4))).tolist() == [24, 24, 24]


@pytest.mark.parametrize("n", range(5, 23))
def test_kernel_bits_do_not_depend_on_the_stack(n):
    # Every stack position gets the matrix's lone bits: the prefix split is
    # set by n, each matrix's prefixes are summed in one order, and a
    # one-matrix walk is padded, since numpy rounds an in-place complex
    # product of length 1 as a reduction. Stacks over 5e8 Glynn terms are
    # left out; they would only repeat sub-stacks of at most 32 matrices
    # (n >= 15), or of one (n >= 20), which the smaller stacks cross already.
    rng = np.random.default_rng(200 + n)
    pool = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    lone = np.array([_permanent_batch(pool[k : k + 1])[0] for k in range(3)])
    for size in (1, 2, 3, 63, 4097):
        if size * n << (n - 1) > 5e8:
            continue
        picks = rng.integers(0, 3, size)
        np.testing.assert_array_equal(_permanent_batch(pool[picks]), lone[picks])


@pytest.mark.parametrize("n, tol", [(16, 1e-13), (20, 1e-12), (24, 1e-11)])
def test_all_ones_relative_error(n, tol):
    exact = math.factorial(n)
    assert abs(permanent_ryser(np.ones((n, n))) - exact) <= tol * exact


def _glynn_mp(a) -> complex:
    """Permanent by Glynn's formula in 40-digit mpmath arithmetic, Gray-code order."""
    num = mpc if np.iscomplexobj(a) else mpf
    with mp.workdps(40):
        return complex(glynn_mp([[num(x.item()) for x in row] for row in a]))


@pytest.mark.parametrize("kind", ["gaussian", "haar_abs2", "ones"])
@pytest.mark.parametrize("n", range(12, 17))
def test_kernel_matches_40_digit_oracle(n, kind):
    if kind == "gaussian":
        a = random_complex(np.random.default_rng(n), n)
    elif kind == "haar_abs2":
        # the distinguishable-photon matrix |V|^2, all entries positive
        a = np.abs(make_haar(4 * n, n).matrix[:n, :n]) ** 2
    else:
        a = np.ones((n, n))
    want = _glynn_mp(a)
    assert abs(permanent_ryser(a) - want) <= 1e-13 * abs(want)
