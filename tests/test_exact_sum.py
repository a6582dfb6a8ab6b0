import math

import numpy as np
import pytest

from bosonbudget import NumericError, exact_sum as exact_sum_module
from bosonbudget.exact_sum import ExactSum, exact_sum

MAX = np.finfo(np.float64).max
TINY = 5e-324  # the least subnormal


def _signed(rng, values):
    return values * rng.choice([-1.0, 1.0], len(values))


def _cases():
    rng = np.random.default_rng(2024)
    spread = _signed(rng, rng.random(50_000) * 10.0 ** rng.uniform(-300, 300, 50_000))
    cancelling = rng.standard_normal(5_000) * 10.0 ** rng.uniform(-20, 20, 5_000)
    return {
        "cancelling-signs": [1.0, 1e100, 1.0, -1e100, 1e-100, -1.0],
        "cancelling-pairs": np.concatenate((cancelling, [3e-300], -cancelling[::-1])),
        "tenths": [0.1] * 10,
        "subnormals": rng.integers(-(2**52), 2**52, 2_000) * TINY,
        "subnormal-total": [2.2250738585072014e-308, -2.225073858507201e-308, TINY, -TINY, 4 * TINY],
        "normal-and-subnormal": np.concatenate((rng.random(500) * 1e-300, _signed(rng, rng.random(500) * 1e-310))),
        "near-the-float-maximum": [MAX, -MAX / 2, -MAX / 2, MAX / 3, 1e292, -1e292, 2.0**970],
        "the-float-maximum": [MAX, 2.0**969, -1.0, TINY],
        "alternating-near-the-maximum": np.ravel(np.column_stack((rng.uniform(0.5, 1.0, 6) * 2.0**1023,
                                                                  -rng.uniform(0.5, 1.0, 6) * 2.0**1023))),
        "negative-zeros": [-0.0, -0.0],
        "one-value": [-3.5],
        "600-decades": spread,
        "squared-probabilities": (rng.random(15_504) ** 8),
    }


CASES = _cases()


@pytest.mark.parametrize("name", CASES)
def test_exact_sum_matches_fsum_to_the_bit(name):
    values = np.asarray(CASES[name], dtype=np.float64)
    want = math.fsum(values.tolist())
    assert exact_sum(values).hex() == want.hex()
    assert exact_sum(values.tolist()).hex() == want.hex()  # any sequence np.asarray takes


def test_exact_sum_of_empty_chunks_to_the_bit():
    acc = ExactSum()
    assert acc.value().hex() == math.fsum([]).hex()
    values = CASES["cancelling-pairs"]
    acc.add([])
    acc.add(values[:100])
    acc.add(np.empty(0))
    acc.add(np.empty((0, 3)))
    acc.add(values[100:])
    acc.add([])
    assert acc.value().hex() == math.fsum(values.tolist()).hex()


@pytest.mark.parametrize("size", [1, 7, 4096])
def test_exact_sum_does_not_depend_on_the_chunking_to_the_bit(size):
    rng = np.random.default_rng(7)
    values = _signed(rng, rng.random(6_000) * 10.0 ** rng.uniform(-200, 200, 6_000))
    acc = ExactSum()
    for lo in range(0, len(values), size):
        acc.add(values[lo : lo + size])
    assert acc.value().hex() == exact_sum(values).hex() == math.fsum(values.tolist()).hex()


def test_exact_sum_value_mid_stream_to_the_bit():
    # value() flushes the buckets; the stream goes on from the flushed total
    values = CASES["600-decades"][:3_000]
    acc = ExactSum()
    acc.add(values[:1_000])
    assert acc.value().hex() == math.fsum(values[:1_000].tolist()).hex()
    acc.add(values[1_000:])
    assert acc.value().hex() == math.fsum(values.tolist()).hex()


@pytest.mark.parametrize("flush", [1, 5, 64])
def test_exact_sum_bucket_flush_to_the_bit(monkeypatch, flush):
    # a smaller flush size makes add() flush the buckets inside a chunk and across chunks
    flushes = []
    flush_buckets = ExactSum._flush

    def spy(self):
        flushes.append(self._pending)
        flush_buckets(self)

    monkeypatch.setattr(exact_sum_module, "FLUSH", flush)
    monkeypatch.setattr(ExactSum, "_flush", spy)
    values = CASES["cancelling-pairs"][:1_000]
    acc = ExactSum()
    acc.add(values[:301])
    acc.add(values[301:])
    got = acc.value()
    assert got.hex() == math.fsum(values.tolist()).hex()
    assert len(flushes) == len(values) // flush + 1  # one per full set of buckets, and the value's own
    assert max(flushes) == flush


@pytest.mark.parametrize("bad", [[math.nan], [math.inf], [-math.inf], [math.inf, -math.inf]])
def test_exact_sum_refuses_non_finite_values(bad):
    with pytest.raises(NumericError, match="non-finite"):
        exact_sum([1.0, *bad, 2.0])
    acc = ExactSum()
    acc.add(np.ones(5_000))
    with pytest.raises(NumericError, match="non-finite"):  # in the second block of a chunk
        acc.add(np.r_[np.ones(20_000), bad])


@pytest.mark.parametrize("values", [[MAX, MAX], [-MAX, -MAX / 2], [MAX, 2.0**970]])
def test_exact_sum_refuses_an_overflowing_total(values):
    # the exact totals lie beyond the largest float, or round to infinity
    with pytest.raises(NumericError, match="overflows"):
        exact_sum(values)
