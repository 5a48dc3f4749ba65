"""``masked_draws``' integer hit test at boundary rates.

For ``0 < rate < 1`` the replay counts a raw PCG64 word ``w`` as a hit
when ``w < 2048 * ceil(rate * 2**53)``, in place of numpy's
``random() < rate``, which is ``(w >> 11) * 2**-53 < rate``.  The cases
here put the rate exactly on, one double below and one double above the
values the generator's next words turn into, and at the ends of the
range, then compare the draws *and* the final ``bit_generator.state``
with the scalar loop, with 0 to 3 carried 32-bit draws.
"""

import copy

import numpy as np
import pytest

from repro.optim.base import DrawSizes, masked_draws, scalar_masked_draws

#: The grid's mutation: 52 layers of two 12-level genes.
SIZES = [12, 12] * 52

#: ``rate * 2**53`` is an integer for 0.5 and ``nextafter(1, 0)``
#: (``2**53 - 1``), and not for the others.
FIXED_RATES = [2.0 ** -60, 0.05, 0.1, 1 / 3, 0.5, np.nextafter(1.0, 0.0)]


def _generator(seed, carried):
    rng = np.random.default_rng(seed)
    for _ in range(carried):
        rng.integers(7)
    return rng


def _values(rng, count):
    """What ``random()`` returns for each of ``rng``'s next ``count``
    words, read from a copy."""
    words = copy.deepcopy(rng).bit_generator.random_raw(count)
    return [(word >> 11) * 2.0 ** -53 for word in words.tolist()]


def _boundary_rates(rng, count):
    rates = []
    for value in _values(rng, count):
        rates += [value, np.nextafter(value, 0.0), np.nextafter(value, 1.0)]
    return [rate for rate in rates if 0.0 < rate < 1.0]


@pytest.mark.parametrize("carried", range(4))
@pytest.mark.parametrize("seed", range(3))
def test_boundary_rates_match_the_scalar_loop(seed, carried):
    rates = FIXED_RATES + _boundary_rates(_generator(seed, carried), 6)
    for rate in rates:
        for sizes in (SIZES, DrawSizes(SIZES)):
            reference = _generator(seed, carried)
            replay = _generator(seed, carried)
            assert masked_draws(replay, rate, sizes) \
                == scalar_masked_draws(reference, rate, SIZES)
            assert replay.bit_generator.state \
                == reference.bit_generator.state


def _round_word_seed(carried):
    """The first seed whose next word has its low 11 bits clear, so the
    word equals the threshold ``2048 * ceil(rate * 2**53)`` at its own
    value (about one seed in 2048)."""
    seed = 0
    while _generator(seed, carried).bit_generator.random_raw() & 2047:
        seed += 1
    return seed


@pytest.mark.parametrize("round_word", [False, True])
@pytest.mark.parametrize("carried", range(4))
def test_a_rate_equal_to_the_draw_is_a_miss(carried, round_word):
    """``random() < rate`` is strict: the first index misses at exactly
    its double and hits one double above it."""
    rng = _generator(_round_word_seed(carried) if round_word else 11,
                     carried)
    value = _values(rng, 1)[0]
    assert 0 not in masked_draws(copy.deepcopy(rng), value, SIZES)
    assert 0 in masked_draws(copy.deepcopy(rng), np.nextafter(value, 1.0),
                             SIZES)


@pytest.mark.parametrize("sizes, replayable", [
    ([], False), ([1, 12], False), ([2], True), ([12, 12, 3] * 52, True),
    ([2 ** 32], True), ([12, 2 ** 32 + 1], False)])
def test_draw_sizes_are_checked_once(sizes, replayable):
    checked = DrawSizes(sizes)
    assert checked == tuple(sizes)
    assert checked.replayable is replayable
