import math
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from bosonbudget import (
    ResourceLimitError,
    birthday_bunching_bound,
    collision_free_patterns,
    count_outputs,
    enumerate_outputs,
    mode_indices,
    mu,
)
from bosonbudget.fock import _occupations as _photon_occupations
from bosonbudget.fock import _output_chunks, _output_rows, _pattern_chunks, _pattern_rows
from bosonbudget.permanent import STACK


@pytest.mark.parametrize(
    "occ,expected",
    [((1, 1, 1), 1), ((2, 1, 0), 2), ((3, 2), 12), ((), 1), ((0, 0), 1), ((4,), 24)],
)
def test_mu(occ, expected):
    assert mu(occ) == expected


def test_mu_rejects_negative():
    with pytest.raises(ValueError):
        mu((1, -1))


def test_mu_is_exact_for_large_occupations():
    # wide integers: no overflow for occupations whose factorials pass 2^63
    assert mu((25, 25)) == math.factorial(25) ** 2


def test_mode_indices():
    assert mode_indices((2, 0, 1)) == [0, 0, 2]
    assert mode_indices((0, 0)) == []


def _occupations(patterns, modes):
    # click patterns given by their clicked modes, as 0/1 occupation rows
    occ = np.zeros((len(patterns), modes), dtype=np.intp)
    occ[np.arange(len(patterns))[:, None], patterns] = 1
    return occ


def test_enumerate_collision_free_example():
    # the collision-free outcomes are the click patterns, in the order of the full table
    got = _occupations(collision_free_patterns(3, 2), 3).tolist()
    assert got == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    table = enumerate_outputs(3, 2)
    assert table[table.max(axis=1) <= 1].tolist() == got


def test_enumerate_all_example():
    got = enumerate_outputs(2, 2).tolist()
    assert got == [[2, 0], [1, 1], [0, 2]]


def test_enumerate_count_examples():
    assert count_outputs(10, 3) == len(enumerate_outputs(10, 3)) == 220
    assert len(collision_free_patterns(10, 3)) == 120


@pytest.mark.parametrize("modes,photons", [(4, 0), (4, 2), (7, 3), (12, 2), (20, 1)])
def test_counts_match_binomials(modes, photons):
    assert sum(1 for _ in enumerate_outputs(modes, photons)) == math.comb(
        modes + photons - 1, photons
    )
    assert len(collision_free_patterns(modes, photons)) == math.comb(modes, photons)


def _tuple_outputs(modes, photons, collision_free):
    # the tuple-at-a-time generator the table replaced, kept as the order oracle
    chooser = combinations if collision_free else combinations_with_replacement
    for positions in chooser(range(modes), photons):
        occ = [0] * modes
        for p in positions:
            occ[p] += 1
        yield tuple(occ)


@pytest.mark.parametrize("collision_free", [False, True])
def test_enumerate_matches_tuple_generator(collision_free):
    # the collision-free rows are collision_free_patterns', the full table enumerate_outputs'
    for modes in range(1, 8):
        for photons in range(0, min(6, modes + 1) if collision_free else 6):
            want = [list(o) for o in _tuple_outputs(modes, photons, collision_free)]
            if collision_free:
                got = _occupations(collision_free_patterns(modes, photons), modes)
            else:
                got = enumerate_outputs(modes, photons)
            assert got.shape == (len(want), modes)
            assert got.tolist() == want


@pytest.mark.parametrize("modes,photons", [(2, 1024), (3, 300)])
def test_few_modes_many_photons_are_their_closed_form(modes, photons):
    # descending-lexicographic: the first mode's photons fall from N to 0, and within each the second's
    if modes == 2:
        k = np.arange(photons + 1)
        want = np.column_stack((photons - k, k))
    else:
        first = np.repeat(np.arange(photons, -1, -1), np.arange(1, photons + 2))
        second = np.concatenate([np.arange(photons - a, -1, -1) for a in range(photons, -1, -1)])
        want = np.column_stack((first, second, photons - first - second))
    np.testing.assert_array_equal(enumerate_outputs(modes, photons), want)


def test_no_modes_hold_only_the_vacuum():
    assert count_outputs(0, 0) == 1 and count_outputs(0, 3) == 0
    assert enumerate_outputs(0, 0).shape == (1, 0) and enumerate_outputs(0, 3).shape == (0, 0)
    assert [chunk.shape for chunk in _output_chunks(0, 0, STACK)] == [(1, 0)]


def test_enumeration_is_an_array_and_budgeted():
    table = enumerate_outputs(6, 2)
    assert table.dtype == np.intp and table.shape == (21, 6)
    assert table[0].tolist() == [2, 0, 0, 0, 0, 0]
    with pytest.raises(ResourceLimitError) as err:
        enumerate_outputs(500, 5)
    assert str(count_outputs(500, 5)) in str(err.value)


def test_birthday_single_photon():
    exact, bound = birthday_bunching_bound(17, 1)
    assert exact == 0.0
    assert bound == 0.0


def test_birthday_m100_n5():
    exact, bound = birthday_bunching_bound(100, 5)
    # direct product evaluated independently
    expected = 1.0 - 0.99 * 0.98 * 0.97 * 0.96
    assert exact == pytest.approx(expected, rel=1e-14)
    assert bound == pytest.approx(0.1, rel=1e-14)


def test_birthday_exact_below_bound_on_grid():
    for n in range(2, 21):
        m = 20 * n * n
        exact, bound = birthday_bunching_bound(m, n)
        assert 0.0 < exact < bound


def test_birthday_monotonicity():
    prev = -1.0
    for n in range(1, 15):
        exact, _ = birthday_bunching_bound(200, n)
        assert exact > prev or (n == 1 and exact == 0.0)
        prev = exact
    prev = 2.0
    for m in (30, 60, 120, 240):
        exact, _ = birthday_bunching_bound(m, 5)
        assert exact < prev
        prev = exact


def test_birthday_domain_error():
    with pytest.raises(ValueError):
        birthday_bunching_bound(3, 4)


# ------------------------------------------------------------ the chunked N-subset source


def _assert_chunks_cut_the_table(chunks, size, count):
    lengths = [len(chunk) for chunk in chunks]
    assert sum(lengths) == count
    assert all(n == size for n in lengths[:-1]) and 0 < lengths[-1] <= size
    for chunk in chunks:
        # (rows, clicks) to index, each click's modes one contiguous row of chunk.T
        assert chunk.dtype == np.intp and chunk.T.flags.c_contiguous
    # each chunk is fresh: callers shift one in place while holding the next
    assert not any(np.shares_memory(a, b) for i, a in enumerate(chunks) for b in chunks[i + 1 :])


def test_pattern_chunks_are_the_table_cut_in_order():
    # sizes 1 and 7 cut inside the runs of one prefix, as STACK does at larger M
    for modes in range(1, 13):
        for n in range(modes + 1):
            want = collision_free_patterns(modes, n)
            for size in (1, 7, STACK):
                chunks = list(_pattern_chunks(modes, n, size))
                _assert_chunks_cut_the_table(chunks, size, len(want))
                np.testing.assert_array_equal(np.concatenate(chunks), want)


@pytest.mark.parametrize("size", [997, STACK])
def test_pattern_chunks_at_sweep_size(size):
    # M = 180, N = 3: the ensemble sweep's shape; 955,860 rows, and chunks of either size end mid-run
    want = collision_free_patterns(180, 3)
    chunks = list(_pattern_chunks(180, 3, size))
    _assert_chunks_cut_the_table(chunks, size, len(want))
    np.testing.assert_array_equal(np.concatenate(chunks), want)


def test_pattern_chunks_at_the_witness_size():
    # M = 56, N = 5 without its 150 MB table: C(56, 5) rows of increasing modes in [0, 56),
    # each lexicographically after the one before, chunk boundaries included, are the table
    count, previous = 0, None
    for chunk in _pattern_chunks(56, 5, STACK):
        assert chunk.shape[1] == 5 and chunk[:, 0].min() >= 0 and chunk[:, -1].max() < 56
        assert (np.diff(chunk, axis=1) > 0).all()
        rows = chunk if previous is None else np.vstack((previous, chunk))
        # lexicographic successor: the first differing column increases
        diff = np.diff(rows, axis=0)
        first = diff[np.arange(len(diff)), (diff != 0).argmax(axis=1)]
        assert (first > 0).all()
        count += len(chunk)
        previous = chunk[-1:]
    assert count == math.comb(56, 5)


def test_pattern_chunks_refuse_before_any_row():
    with pytest.raises(ResourceLimitError, match=f"3-click pattern table: {math.comb(400, 3)} patterns"):
        _pattern_chunks(400, 3, STACK)  # the call refuses, not the first chunk
    with pytest.raises(ValueError, match="n_clicks"):
        _pattern_chunks(5, 6, STACK)


def _lex_unrank(rank, modes, n):
    # the oracle: walk the modes, skipping the C(modes - x - 1, n - len(row) - 1) subsets that start at x
    row, x = [], 0
    while len(row) < n:
        below = math.comb(modes - x - 1, n - len(row) - 1)
        if rank < below:
            row.append(x)
        else:
            rank -= below
        x += 1
    return row


def test_output_chunks_are_the_outcome_table_cut_in_order():
    # photons above, at and below M / 2, and chunk sizes that end inside and at a prefix's run
    for modes in range(1, 8):
        for photons in range(6):
            want = enumerate_outputs(modes, photons)
            for size in (1, 7, STACK):
                chunks = list(_output_chunks(modes, photons, size))
                _assert_chunks_cut_the_table(chunks, size, len(want))
                for chunk in chunks:  # each row: the photons' modes, ascending with repeats
                    assert chunk.shape[1] == photons and (np.diff(chunk, axis=1) >= 0).all()
                np.testing.assert_array_equal(np.concatenate([_photon_occupations(c, modes) for c in chunks]), want)


@pytest.mark.parametrize("modes", [STACK, STACK + 1])
def test_output_chunks_at_stack_size(modes):
    # one photon: STACK outcomes in one chunk, and STACK + 1 in a full chunk and a one-row chunk
    chunks = list(_output_chunks(modes, 1, STACK))
    _assert_chunks_cut_the_table(chunks, STACK, modes)
    np.testing.assert_array_equal(np.concatenate(chunks), np.arange(modes)[:, None])


def test_output_chunks_refuse_before_any_row():
    with pytest.raises(ResourceLimitError, match=f"output enumeration: {math.comb(51, 12)} outcomes"):
        _output_chunks(40, 12, STACK)  # the call refuses, not the first chunk
    assert list(_output_chunks(0, 3, STACK)) == []  # photons but no modes: no outcome


def test_output_chunks_walk_thousands_of_clicks():
    # 4,096 photons on 2 modes: a walk of 4,096 clicks, one level each, far past Python's recursion
    # limit, gives the rows that _output_rows unranks, chunk by chunk
    photons, size, lo = 4096, 512, 0
    for chunk in _output_chunks(2, photons, size):
        assert chunk.T.flags.c_contiguous and len(chunk) <= size
        np.testing.assert_array_equal(chunk, _output_rows(np.arange(lo, lo + len(chunk)), 2, photons))
        lo += len(chunk)
    assert lo == photons + 1


def test_pattern_rows_are_the_table_rows():
    # the itertools.combinations table at ranks in any order, repeats included, as the samplers draw them
    rng = np.random.default_rng(0)
    for modes in range(13):
        for n in range(modes + 1):
            want = np.array(list(combinations(range(modes), n)), dtype=np.intp).reshape(math.comb(modes, n), n)
            ranks = np.concatenate((rng.permutation(len(want)), rng.integers(0, len(want), 5)))
            got = _pattern_rows(ranks, modes, n)
            assert got.dtype == np.intp
            np.testing.assert_array_equal(got, want[ranks])


@pytest.mark.parametrize("modes, n", [(180, 3), (56, 5), (20, 5), (100, 4), (9, 1), (7, 7), (12, 2), (64, 60),
                                      (30, 25)])
def test_pattern_rows_match_the_unranking_oracle(modes, n):
    # at (64, 60) the mirrored colex route would form C(63, 31) x 32, past int64: the complement route takes it
    count = math.comb(modes, n)
    ranks = np.unique(np.concatenate((np.random.default_rng(modes).integers(0, count, 200), [0, count - 1])))
    got = _pattern_rows(ranks, modes, n)
    assert got.tolist() == [_lex_unrank(int(r), modes, n) for r in ranks]
