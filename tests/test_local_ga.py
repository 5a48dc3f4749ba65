"""Tests for the stage-2 local fine-tuning GA (Section III-G)."""

import math

import numpy as np
import pytest

from repro.core.constraints import platform_constraint
from repro.core.evaluator import DesignPointEvaluator
from repro.env.spaces import ActionSpace
from repro.ga import LocalGA


@pytest.fixture
def evaluator(cost_model, mobilenet_slice):
    space = ActionSpace.build("dla")
    constraint = platform_constraint(mobilenet_slice, "dla", "area", "iot",
                                     cost_model, space)
    return DesignPointEvaluator(mobilenet_slice, "latency", constraint,
                                cost_model, space, dataflow="dla")


@pytest.fixture
def feasible_seed(evaluator):
    """A modest uniform design point known to fit the IoT budget."""
    outcome = evaluator.evaluate_genome([2, 2] * len(evaluator.layers))
    assert outcome.feasible
    return evaluator.decode_genome([2, 2] * len(evaluator.layers))


class TestConstruction:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LocalGA(population_size=1)
        with pytest.raises(ValueError):
            LocalGA(mutation_step=0)
        with pytest.raises(ValueError):
            LocalGA(mutation_rate=2.0)
        with pytest.raises(ValueError):
            LocalGA(crossover_rate=-1.0)

    @pytest.mark.parametrize("elite", [4, 5])
    def test_refuses_an_elite_that_leaves_no_child(self, elite):
        with pytest.raises(ValueError, match="elite"):
            LocalGA(population_size=4, elite=elite)


def _genome(rows):
    """A stage-2 genome: (pes, l1_bytes) rows as one int64 array."""
    return np.array(rows, dtype=np.int64)


def _stack(rows, count):
    """``count`` copies of one genome as a ``(count, layers, 2|3)``
    stack."""
    return np.repeat(_genome(rows)[None], count, axis=0)


def _crosser(**options):
    """A GA that crosses every child and mutates none."""
    return LocalGA(crossover_rate=1.0, mutation_rate=0.0, seed=0, **options)


class TestOperators:
    def test_mutation_stays_local(self):
        ga = LocalGA(mutation_rate=1.0, mutation_step=4, seed=0)
        genomes = _stack([[64, 100], [32, 50]], 500)
        children = ga._mutate(genomes)
        assert children.shape == genomes.shape
        moves = children - genomes
        assert np.abs(moves).max() <= 4
        # Every move in [-4, 4] occurs, so the range is not narrower.
        assert set(moves.ravel().tolist()) == set(range(-4, 5))

    def test_mutation_respects_bounds(self):
        ga = LocalGA(mutation_rate=1.0, mutation_step=4, max_pes=128,
                     max_l1_bytes=200, seed=0)
        children = ga._mutate(_stack([[1, 1], [128, 200]], 500))
        assert children[..., 0].min() == 1
        assert children[..., 0].max() == 128
        assert children[..., 1].min() == 1
        assert children[..., 1].max() == 200

    def test_mutation_rate_zero_is_identity(self):
        ga = LocalGA(mutation_rate=0.0, seed=0)
        genomes = _stack([[64, 100], [32, 50]], 100)
        assert (ga._mutate(genomes) == genomes).all()

    @pytest.mark.parametrize("rate", [0.05, 0.2, 0.5])
    def test_mutated_share_is_within_a_binomial_bound_of_the_rate(self,
                                                                   rate):
        """A hit gene moves by one of ``2 * step + 1`` equally likely
        steps, zero included, so it changes with ``rate * 2s / (2s +
        1)``."""
        step = 4
        ga = LocalGA(mutation_rate=rate, mutation_step=step, seed=0)
        genomes = _stack([[64, 100]] * 4, 2_500)
        changed = (ga._mutate(genomes) != genomes).mean()
        share = rate * 2 * step / (2 * step + 1)
        assert abs(changed - share) < 4 * math.sqrt(share * (1 - share)
                                                    / genomes.size)

    def test_style_column_is_never_touched(self):
        ga = LocalGA(mutation_rate=1.0, seed=0)
        genomes = _stack([[64, 100, 0], [32, 50, 2]], 200)
        children = ga._mutate(genomes)
        assert (children[..., 2] == genomes[..., 2]).all()
        assert (children[..., :2] != genomes[..., :2]).any()

    def test_local_crossover_swaps_layer_pairs(self):
        genome = _genome([[1, 10], [2, 20], [3, 30], [4, 40]])
        children = _crosser()._breed(genome[None], 600)
        pairs = set()
        for child in children:
            # Exactly two distinct rows moved, and they swapped places.
            moved = np.flatnonzero((child != genome).any(axis=1))
            assert len(moved) == 2
            assert (child[moved] == genome[moved[::-1]]).all()
            pairs.add(tuple(moved.tolist()))
        # Every pair of layers can swap.
        assert len(pairs) == 6

    def test_crossover_on_single_layer_is_noop(self):
        genome = _genome([[1, 10]])
        assert (_crosser()._breed(genome[None], 50) == genome).all()

    def test_children_copy_uniformly_picked_survivors(self):
        ga = LocalGA(crossover_rate=0.0, mutation_rate=0.0, seed=0)
        survivors = np.arange(4)[:, None, None] + _stack([[1, 10]] * 3, 4)
        children = ga._breed(survivors, 4_000)
        picks = children[:, 0, 0] - 1
        assert (children == survivors[picks]).all()
        assert (np.abs(np.bincount(picks, minlength=4) - 1_000)
                < 4 * math.sqrt(4_000 * 0.25 * 0.75)).all()

    def test_mutation_does_not_alias_parent(self):
        ga = LocalGA(mutation_rate=1.0, seed=0)
        genomes = _stack([[64, 100]], 1)
        children = ga._mutate(genomes)
        children[0, 0, 0] = 999
        assert genomes[0, 0, 0] == 64


class _CountingGenerator:
    """A Generator proxy that counts the calls made through it."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


class TestSearch:
    def test_never_worse_than_seed(self, evaluator, feasible_seed):
        seed_cost = evaluator.evaluate_raw(feasible_seed).cost
        ga = LocalGA(population_size=8, seed=0)
        result = ga.search(evaluator, feasible_seed, generations=20)
        assert result.feasible
        assert result.best_cost <= seed_cost

    def test_typically_improves_on_coarse_seed(self, evaluator,
                                               feasible_seed):
        seed_cost = evaluator.evaluate_raw(feasible_seed).cost
        ga = LocalGA(population_size=12, mutation_rate=0.3, seed=1)
        result = ga.search(evaluator, feasible_seed, generations=40)
        assert result.best_cost < seed_cost

    def test_result_remains_feasible(self, evaluator, feasible_seed):
        ga = LocalGA(population_size=8, seed=2)
        result = ga.search(evaluator, feasible_seed, generations=15)
        outcome = evaluator.evaluate_raw(result.best_assignments)
        assert outcome.feasible
        assert outcome.cost == pytest.approx(result.best_cost)

    def test_rejects_zero_generations(self, evaluator, feasible_seed):
        with pytest.raises(ValueError):
            LocalGA(seed=0).search(evaluator, feasible_seed, generations=0)

    def test_history_length_matches_generations(self, evaluator,
                                                feasible_seed):
        result = LocalGA(population_size=6, seed=0).search(
            evaluator, feasible_seed, generations=12)
        assert len(result.history) == 12

    def test_raw_values_leave_the_level_ladder(self, evaluator,
                                               feasible_seed):
        # The whole point of stage 2: fine-grained values between levels.
        ga = LocalGA(population_size=12, mutation_rate=0.5, seed=3)
        result = ga.search(evaluator, feasible_seed, generations=30)
        space = evaluator.space
        pes_values = {a[0] for a in result.best_assignments}
        off_ladder = pes_values - set(space.pe_levels)
        assert off_ladder, "fine-tuning never left the coarse grid"

    @pytest.mark.parametrize("mode", ["local", "global"])
    def test_generator_calls_per_generation_do_not_grow_with_the_population(
            self, evaluator, feasible_seed, mode):
        """A generation is bred with one Generator call per kind of draw,
        so its call count is the same at every population size."""
        def calls(population, generations):
            ga = LocalGA(population_size=population, crossover_mode=mode,
                         seed=0)
            ga.rng = _CountingGenerator(ga.rng)
            ga.search(evaluator, feasible_seed, generations)
            return ga.rng.calls

        per_generation = [calls(population, 3) - calls(population, 1)
                          for population in (8, 80)]
        assert per_generation[0] == per_generation[1] == 2 * 6

    def test_reports_only_its_own_evaluations(self, evaluator,
                                              feasible_seed):
        """A second search on the same evaluator reports what it
        consumed, not the evaluator's lifetime count."""
        first, second = (LocalGA(seed=0).search(evaluator, feasible_seed,
                                                generations=5)
                         for _ in range(2))
        assert first.evaluations == second.evaluations == 20 + 5 * 18
        assert first.cache_hits == second.cache_hits
        assert first.best_cost == second.best_cost
