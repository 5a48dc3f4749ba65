"""Tests for the stage-2 local fine-tuning GA (Section III-G)."""

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


def _genome(rows):
    """A stage-2 genome: (pes, l1_bytes) rows as one int64 array."""
    return np.array(rows, dtype=np.int64)


class TestOperators:
    def test_mutation_stays_local(self):
        ga = LocalGA(mutation_rate=1.0, mutation_step=4, seed=0)
        genome = _genome([[64, 100], [32, 50]])
        for _ in range(50):
            child = ga._mutate(genome)
            assert child.shape == genome.shape
            assert np.abs(child - genome).max() <= 4

    def test_mutation_respects_bounds(self):
        ga = LocalGA(mutation_rate=1.0, mutation_step=4, max_pes=128,
                     max_l1_bytes=200, seed=0)
        genome = _genome([[1, 1], [128, 200]])
        for _ in range(50):
            child = ga._mutate(genome)
            assert ((1 <= child[:, 0]) & (child[:, 0] <= 128)).all()
            assert ((1 <= child[:, 1]) & (child[:, 1] <= 200)).all()

    def test_local_crossover_swaps_layer_pairs(self):
        ga = LocalGA(seed=0)
        genome = _genome([[1, 10], [2, 20], [3, 30]])
        child = ga._local_crossover(genome)
        # Multiset of assignments preserved: only positions change.
        assert sorted(map(tuple, child.tolist())) \
            == sorted(map(tuple, genome.tolist()))
        assert (child != genome).any()
        # Exactly two rows moved, and they swapped places.
        moved = np.flatnonzero((child != genome).any(axis=1))
        assert len(moved) == 2
        assert (child[moved] == genome[moved[::-1]]).all()

    def test_crossover_on_single_layer_is_noop(self):
        ga = LocalGA(seed=0)
        genome = _genome([[1, 10]])
        assert (ga._local_crossover(genome) == genome).all()

    def test_mutation_does_not_alias_parent(self):
        ga = LocalGA(mutation_rate=1.0, seed=0)
        genome = _genome([[64, 100]])
        child = ga._mutate(genome)
        child[0, 0] = 999
        assert genome[0, 0] == 64


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
