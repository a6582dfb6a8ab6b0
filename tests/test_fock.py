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
