"""The genome operators' random-stream contract.

``random_genomes``, ``uniform_crossover``, ``masked_draws`` (behind
``resample_mutation``), ``LocalGA._mutate`` and
``LocalGA._global_crossover`` draw whole genomes per Generator call, yet
must return what the gene-by-gene loops they replaced return *and* leave
the generator in the same state, so every seeded search -- and every
golden pin -- stays bit-identical.  Each test runs an operator and its
scalar reference loop on two generators with one history and compares the
outputs and ``bit_generator.state``.  The GA tournaments' ``integers``
draws are held to the ``choice`` calls they replaced the same way.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.evaluator import raw_assignments, raw_genome
from repro.costmodel import BATCH_STYLES
from repro.env.spaces import ActionSpace
from repro.ga import LocalGA
from repro.optim import base
from repro.optim.base import GenomeOptimizer, masked_draws, \
    scalar_masked_draws

SEEDS = st.integers(0, 2 ** 32 - 1)

#: The searches' mutation rates, the extremes, a half, and any float.
RATES = st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.5, 1.0]),
                  st.floats(0.0, 1.0))

#: Level counts (Table IX's L), dataflow counts and LocalGA move widths.
LEVEL_SIZES = st.sampled_from([2, 3, 9, 10, 12, 14])

#: About half of all Lemire draws from this range are rejected.
REJECTING = 2 ** 31 + 1

#: 32-bit draws before the operator runs; an odd count leaves the high
#: half of a word carried into it.
CARRIED = st.integers(0, 3)


def _twin_generators(seed, carried, bit_generator=np.random.PCG64):
    pair = []
    for _ in range(2):
        rng = np.random.Generator(bit_generator(seed))
        for _ in range(carried):
            rng.integers(7)
        pair.append(rng)
    return pair


def _optimizer(rng, space, layers):
    optimizer = GenomeOptimizer()
    optimizer.rng = rng
    optimizer._evaluator = SimpleNamespace(space=space,
                                           layers=[None] * layers)
    return optimizer


def _state(rng):
    """The bit generator's state, with array fields (MT19937's key,
    Philox's counter) as lists so states compare with ``==``."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, np.ndarray):
            return value.tolist()
        return value
    return plain(rng.bit_generator.state)


# Scalar reference loops: the gene-by-gene operators, one Generator call
# per draw. --------------------------------------------------------------
def reference_random_genome(rng, space, layers):
    genome = []
    for _ in range(layers):
        genome.append(int(rng.integers(space.num_levels)))
        genome.append(int(rng.integers(space.num_levels)))
        if space.is_mix:
            genome.append(int(rng.integers(len(space.dataflows))))
    return genome


def reference_crossover(rng, a, b):
    child = list(a)
    for i in range(len(child)):
        if rng.random() < 0.5:
            child[i] = b[i]
    return child


def reference_resample(rng, space, genome, rate):
    per_step = space.actions_per_step
    mutated = list(genome)
    for i in range(len(mutated)):
        if rng.random() < rate:
            size = (space.num_levels if i % per_step < 2
                    else len(space.dataflows))
            mutated[i] = int(rng.integers(size))
    return mutated


def reference_local_mutate(ga, rng, genome):
    step = ga.mutation_step
    child = [list(gene) for gene in genome]
    for gene in child:
        if rng.random() < ga.mutation_rate:
            delta = int(rng.integers(-step, step + 1))
            gene[0] = int(min(max(gene[0] + delta, 1), ga.max_pes))
        if rng.random() < ga.mutation_rate:
            delta = int(rng.integers(-step, step + 1))
            gene[1] = int(min(max(gene[1] + delta, 1), ga.max_l1_bytes))
    return child


# -----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, layers=st.integers(1, 16),
       levels=st.sampled_from([10, 12, 14]), mix=st.booleans(),
       count=st.integers(1, 40), carried=CARRIED)
@example(seed=1, layers=52, levels=12, mix=False, count=256, carried=1)
@example(seed=2, layers=52, levels=12, mix=True, count=256, carried=0)
def test_random_genomes_match_gene_by_gene_draws(seed, layers, levels, mix,
                                                 count, carried):
    space = ActionSpace.build(num_levels=levels, mix=mix)
    reference, vector = _twin_generators(seed, carried)
    expected = [reference_random_genome(reference, space, layers)
                for _ in range(count)]
    assert _optimizer(vector, space, layers).random_genomes(count) \
        == expected
    assert _state(vector) == _state(reference)


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, mix=st.booleans(), carried=CARRIED)
def test_random_genome_is_one_vector_draw(seed, mix, carried):
    space = ActionSpace.build(mix=mix)
    reference, vector = _twin_generators(seed, carried)
    assert _optimizer(vector, space, 8).random_genome() \
        == reference_random_genome(reference, space, 8)
    assert _state(vector) == _state(reference)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, genes=st.integers(1, 200), carried=CARRIED)
def test_uniform_crossover_matches_gene_by_gene_draws(seed, genes, carried):
    parents = np.random.default_rng([seed, 1]).integers(
        12, size=(2, genes)).tolist()
    reference, vector = _twin_generators(seed, carried)
    child = _optimizer(vector, None, 0).uniform_crossover(*parents)
    assert child == reference_crossover(reference, *parents)
    assert _state(vector) == _state(reference)


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, rate=RATES, sizes=st.lists(LEVEL_SIZES, max_size=160),
       carried=CARRIED)
@example(seed=3, rate=0.05, sizes=[12, 12] * 52, carried=1)
@example(seed=4, rate=1.0, sizes=[9] * 16, carried=1)
def test_masked_draws_match_the_scalar_loop(seed, rate, sizes, carried):
    reference, replay = _twin_generators(seed, carried)
    assert masked_draws(replay, rate, sizes) \
        == scalar_masked_draws(reference, rate, sizes)
    assert _state(replay) == _state(reference)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, rate=st.floats(0.3, 1.0),
       sizes=st.lists(st.one_of(LEVEL_SIZES, st.just(REJECTING)),
                      min_size=1, max_size=40),
       carried=CARRIED)
def test_masked_draws_with_rejecting_sizes(seed, rate, sizes, carried):
    reference, replay = _twin_generators(seed, carried)
    assert masked_draws(replay, rate, sizes) \
        == scalar_masked_draws(reference, rate, sizes)
    assert _state(replay) == _state(reference)


def _count_fallbacks(monkeypatch):
    calls = []

    def spy(rng, rate, sizes):
        calls.append(len(sizes))
        return scalar_masked_draws(rng, rate, sizes)

    monkeypatch.setattr(base, "scalar_masked_draws", spy)
    return calls


def test_level_sizes_take_the_replay(monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    for seed in range(20):
        for rate in (0.05, 0.1, 1.0):
            masked_draws(np.random.default_rng(seed), rate,
                         [12, 12, 3] * 52)
    assert fallbacks == []


def test_a_rejection_falls_back_to_the_scalar_loop(monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    sizes = [REJECTING] * 64
    reference, replay = _twin_generators(0, 1)
    assert base.masked_draws(replay, 1.0, sizes) \
        == scalar_masked_draws(reference, 1.0, sizes)
    assert fallbacks == [64]
    assert _state(replay) == _state(reference)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, rate=RATES, sizes=st.lists(
    st.sampled_from([0, 1, 2, 12, 2 ** 32, 2 ** 32 + 1]), max_size=20))
def test_sizes_outside_the_replay_fall_back(seed, rate, sizes):
    reference, replay = _twin_generators(seed, 1)
    try:
        expected = scalar_masked_draws(reference, rate, sizes)
    except ValueError:  # a hit on integers(0)
        with pytest.raises(ValueError):
            masked_draws(replay, rate, sizes)
        return
    assert masked_draws(replay, rate, sizes) == expected
    assert _state(replay) == _state(reference)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, rate=RATES, carried=CARRIED,
       bit_generator=st.sampled_from([np.random.MT19937, np.random.Philox,
                                      np.random.SFC64,
                                      np.random.PCG64DXSM]))
def test_other_bit_generators_fall_back(seed, rate, carried, bit_generator):
    sizes = [12, 12] * 20
    reference, replay = _twin_generators(seed, carried, bit_generator)
    assert masked_draws(replay, rate, sizes) \
        == scalar_masked_draws(reference, rate, sizes)
    assert _state(replay) == _state(reference)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, layers=st.integers(1, 30),
       levels=st.sampled_from([10, 12, 14]), mix=st.booleans(), rate=RATES,
       carried=CARRIED)
def test_resample_mutation_matches_gene_by_gene_draws(seed, layers, levels,
                                                      mix, rate, carried):
    space = ActionSpace.build(num_levels=levels, mix=mix)
    genome = np.random.default_rng([seed, 2]).integers(
        space.head_sizes, size=(layers, len(space.head_sizes))).ravel()
    genome = genome.tolist()
    reference, replay = _twin_generators(seed, carried)
    mutated = _optimizer(replay, space, layers).resample_mutation(genome,
                                                                  rate)
    assert mutated == reference_resample(reference, space, genome, rate)
    assert _state(replay) == _state(reference)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, layers=st.integers(1, 30), step=st.integers(1, 6),
       rate=RATES, mix=st.booleans(), carried=CARRIED)
@example(seed=5, layers=52, step=4, rate=0.05, mix=False, carried=1)
def test_local_ga_mutation_matches_gene_by_gene_draws(seed, layers, step,
                                                      rate, mix, carried):
    """The array genome's mutation, MIX style column included, against
    the gene-by-gene loop over assignment lists."""
    ga = LocalGA(mutation_rate=rate, mutation_step=step, max_pes=128,
                 max_l1_bytes=200)
    values = np.random.default_rng([seed, 3])
    genome = [[int(values.integers(1, 129)), int(values.integers(1, 201))]
              + ([BATCH_STYLES[int(values.integers(3))]] if mix else [])
              for _ in range(layers)]
    reference, replay = _twin_generators(seed, carried)
    ga.rng = replay
    child = ga._mutate(raw_genome(genome))
    assert child.dtype == np.int64
    assert [list(row) for row in raw_assignments(child)] \
        == reference_local_mutate(ga, reference, genome)
    assert _state(replay) == _state(reference)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, layers=st.integers(1, 30), mix=st.booleans(),
       carried=CARRIED)
def test_global_crossover_matches_row_by_row_draws(seed, layers, mix,
                                                   carried):
    """The ablation's blend draws every row's ``random()`` in one call."""
    values = np.random.default_rng([seed, 4])
    width = 3 if mix else 2
    a, b = values.integers(1, 200, size=(2, layers, width))
    reference, replay = _twin_generators(seed, carried)
    ga = LocalGA(crossover_mode="global")
    ga.rng = replay
    child = ga._global_crossover(a, b)
    assert child.tolist() == reference_crossover(reference, a.tolist(),
                                                 b.tolist())
    assert _state(replay) == _state(reference)


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, population=st.integers(1, 300),
       size=st.sampled_from([2, 3, 4]), carried=CARRIED)
def test_tournament_draws_match_choice_with_replacement(seed, population,
                                                        size, carried):
    """``GeneticAlgorithm._tournament`` and ``ParetoGA._select`` draw
    their contenders with ``integers(0, n, size=k)``: the values and the
    stream of ``choice(n, size=k, replace=True)``, at half the cost."""
    reference, draw = _twin_generators(seed, carried)
    for _ in range(50):
        expected = reference.choice(population, size=size, replace=True)
        contenders = draw.integers(0, population, size=size)
        assert contenders.tolist() == expected.tolist()
        assert contenders.dtype == expected.dtype
    assert _state(draw) == _state(reference)
