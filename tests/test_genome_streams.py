"""The genome operators' random-stream contract.

``GenomeOptimizer.random_genomes`` draws whole genomes per Generator
call, yet must return what the gene-by-gene loop it replaced returns
*and* leave the generator in the same state, so every seeded search --
and every golden pin -- stays bit-identical.  Each test runs the
operator and its scalar reference loop on two generators with one
history and compares the outputs and ``bit_generator.state``.  The GA
tournaments' ``integers`` draws are held to the ``choice`` calls they
replaced the same way.  The GA, the Pareto-GA and the local GA breed a
generation per draw instead, with no per-gene reference
(``tests/test_optim_internals.py`` and ``tests/test_local_ga.py`` check
those operators).
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.env.spaces import ActionSpace
from repro.optim.base import GenomeOptimizer

SEEDS = st.integers(0, 2 ** 32 - 1)

#: 32-bit draws before the operator runs; an odd count leaves the high
#: half of a word carried into it.
CARRIED = st.integers(0, 3)


def _twin_generators(seed, carried):
    pair = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
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
    assert vector.bit_generator.state == reference.bit_generator.state


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, mix=st.booleans(), carried=CARRIED)
def test_random_genome_is_one_vector_draw(seed, mix, carried):
    space = ActionSpace.build(mix=mix)
    reference, vector = _twin_generators(seed, carried)
    assert _optimizer(vector, space, 8).random_genome() \
        == reference_random_genome(reference, space, 8)
    assert vector.bit_generator.state == reference.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, population=st.integers(1, 300),
       size=st.sampled_from([2, 3, 4]), carried=CARRIED)
def test_tournament_draws_match_choice_with_replacement(seed, population,
                                                        size, carried):
    """``GenomeOptimizer.tournament`` draws its contenders with
    ``integers(0, n, size=...)``: the values and the stream of
    ``choice(n, size=..., replace=True)``, at half the cost."""
    reference, draw = _twin_generators(seed, carried)
    for _ in range(50):
        expected = reference.choice(population, size=size, replace=True)
        contenders = draw.integers(0, population, size=size)
        assert contenders.tolist() == expected.tolist()
        assert contenders.dtype == expected.dtype
    assert draw.bit_generator.state == reference.bit_generator.state
