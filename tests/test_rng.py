import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vocalscreen.rng import MASK64, SplitMix64, check_seed, fisher_yates, round_half_up


def test_splitmix64_seed_0_gives_the_published_outputs():
    # Vigna's reference splitmix64.c seeded with 0
    stream = SplitMix64(0)
    assert [stream.next_uint64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix64_stays_in_64_bits_from_the_top_seed():
    # the state wraps at 2^64 on the first step, and every output fits in 64 bits
    stream = SplitMix64(MASK64)
    outputs = [stream.next_uint64() for _ in range(1000)]
    assert stream.state == (MASK64 + 1000 * 0x9E3779B97F4A7C15) % 2 ** 64
    assert all(0 <= value <= MASK64 for value in outputs)
    assert max(outputs) > 2 ** 63 and min(outputs) < 2 ** 60
    assert outputs[0] != SplitMix64(0).next_uint64()


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
def test_check_seed_takes_every_64_bit_seed(seed):
    check_seed(seed)
    assert SplitMix64(seed).state == seed


@pytest.mark.parametrize("seed", [-1, 2 ** 64, -(2 ** 64), 2 ** 65])
def test_check_seed_rejects_a_seed_outside_64_bits(seed):
    message = f"seed must lie in [0, 2^64), got {seed}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_seed(seed)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SplitMix64(seed)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, MASK64), bound=st.integers(1, 2 ** 70))
def test_next_below_is_the_modulo_of_the_next_output(seed, bound):
    twin = SplitMix64(seed)
    value = SplitMix64(seed).next_below(bound)
    assert value == twin.next_uint64() % bound and 0 <= value < bound


@pytest.mark.parametrize("bound", [0, -1])
def test_next_below_rejects_a_bound_below_1(bound):
    stream = SplitMix64(5)
    with pytest.raises(ValueError, match="^bound must be positive$"):
        stream.next_below(bound)
    assert stream.state == 5  # nothing drawn


def test_next_below_1_is_always_0():
    stream = SplitMix64(9)
    assert [stream.next_below(1) for _ in range(5)] == [0] * 5
    assert stream.state == (9 + 5 * 0x9E3779B97F4A7C15) & MASK64


@settings(max_examples=200, deadline=None)
@given(items=st.lists(st.integers(), max_size=40), seed=st.integers(0, MASK64))
def test_fisher_yates_consumes_len_minus_1_draws(items, seed):
    stream, twin = SplitMix64(seed), SplitMix64(seed)
    original = list(items)
    shuffled = fisher_yates(items, stream)
    for _ in range(max(len(items) - 1, 0)):
        twin.next_uint64()
    assert stream.state == twin.state
    assert items == original and shuffled is not items  # a new list; the input is kept
    assert sorted(shuffled) == sorted(items)


def former_fisher_yates(items, seed):
    """Descending-index Fisher-Yates written out from the definition, one draw per step."""
    out, stream = list(items), SplitMix64(seed)
    i = len(out) - 1
    while i > 0:
        j = stream.next_uint64() % (i + 1)
        out[i], out[j] = out[j], out[i]
        i -= 1
    return out


@settings(max_examples=200, deadline=None)
@given(size=st.integers(0, 30), seed=st.integers(0, MASK64))
def test_fisher_yates_equals_the_definition(size, seed):
    assert fisher_yates(range(size), SplitMix64(seed)) == former_fisher_yates(range(size), seed)


def test_fisher_yates_pinned_order():
    # seed 0's first three draws pick 0xE220A8397B1DCDAF % 10 = 5, then % 9 = 0, % 8 = 7
    assert fisher_yates(list(range(10)), SplitMix64(0)) == former_fisher_yates(range(10), 0)
    assert fisher_yates(list(range(10)), SplitMix64(0)) == [6, 3, 2, 9, 8, 1, 4, 7, 0, 5]
    assert fisher_yates(["a"], SplitMix64(0)) == ["a"] and fisher_yates([], SplitMix64(0)) == []


@pytest.mark.parametrize("x, want", [
    (0.5, 1), (1.5, 2), (2.5, 3), (-0.5, 0), (-1.5, -1), (-2.5, -2),
    (0.0, 0), (-0.0, 0), (0.49, 0), (0.51, 1), (-0.51, -1), (7.0, 7), (63999.5, 64000),
    (2.0 ** 53, 2 ** 53), (1e300, int(1e300)),
])
def test_round_half_up_sends_ties_up(x, want):
    got = round_half_up(x)
    assert got == want and type(got) is int


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_round_half_up_rejects_a_value_that_is_not_finite(x):
    with pytest.raises(ValueError, match=f"^cannot round {x} to an integer$"):
        round_half_up(x)
