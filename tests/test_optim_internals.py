"""White-box tests for baseline-optimizer internals."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.constraints import PlatformConstraint
from repro.core.evaluator import DesignPointEvaluator
from repro.costmodel import CostModel
from repro.env.spaces import ActionSpace
from repro.ga import LocalGA
from repro.optim import (
    BayesianOptimization,
    GeneticAlgorithm,
    GridSearch,
    ParetoGA,
    RandomSearch,
    SimulatedAnnealing,
)
from repro.optim.base import GenomeOptimizer


@pytest.fixture
def evaluator(cost_model, tiny_model, space_dla):
    constraint = PlatformConstraint(kind="area", budget=1e15)
    return DesignPointEvaluator(tiny_model, "latency", constraint,
                                cost_model, space_dla, dataflow="dla")


class TestBase:
    def test_evaluate_past_budget_raises(self, evaluator):
        optimizer = RandomSearch(seed=0)
        optimizer.search(evaluator, 3)
        with pytest.raises(RuntimeError, match="budget"):
            optimizer.evaluate([0, 0] * 4)

    def test_random_genome_respects_mix_layout(self, cost_model,
                                               tiny_model, space_mix):
        constraint = PlatformConstraint(kind="area", budget=1e15)
        mix_eval = DesignPointEvaluator(tiny_model, "latency", constraint,
                                        cost_model, space_mix)
        optimizer = RandomSearch(seed=0)
        optimizer._evaluator = mix_eval
        genome = optimizer.random_genome()
        assert len(genome) == 3 * len(tiny_model)
        for i in range(2, len(genome), 3):
            assert 0 <= genome[i] < 3

    def test_base_run_is_abstract(self):
        with pytest.raises(NotImplementedError):
            GenomeOptimizer()._run()


@pytest.mark.parametrize("method, option, value", [
    (SimulatedAnnealing, "restarts", 0),
    (SimulatedAnnealing, "restarts", -1),
    (SimulatedAnnealing, "temperature", math.nan),
    (GeneticAlgorithm, "tournament_size", 1),
    (GeneticAlgorithm, "elite", -1),
    (ParetoGA, "tournament_size", 1),
    (ParetoGA, "archive_size", 0),
    (LocalGA, "elite", 0),
    (LocalGA, "max_pes", 0),
    (LocalGA, "max_l1_bytes", 0),
    (BayesianOptimization, "length_scale", 0.0),
    (BayesianOptimization, "length_scale", -0.4),
    (BayesianOptimization, "noise", -1e-4),
    (BayesianOptimization, "candidate_pool", 0),
    (BayesianOptimization, "max_fit_points", 1),
])
def test_an_invalid_setting_is_refused_when_built(method, option, value):
    """Each of these was silently clamped, ran with a NaN or failed only
    mid-search; every default is valid."""
    with pytest.raises(ValueError, match=option):
        method(**{option: value})
    method()


class TestGridAdvance:
    def _grid_with(self, evaluator, stride=2):
        grid = GridSearch(stride=stride)
        grid._evaluator = evaluator
        return grid

    def test_counter_increments_least_significant_last_gene(self,
                                                            evaluator):
        grid = self._grid_with(evaluator)
        genome = [0] * evaluator.genome_length
        assert grid._advance(genome)
        expected = [0] * evaluator.genome_length
        expected[-1] = 2
        assert genome == expected

    def test_counter_carries(self, evaluator):
        grid = self._grid_with(evaluator)
        genome = [0] * evaluator.genome_length
        genome[-1] = 10  # next +2 overflows the 12-level digit
        assert grid._advance(genome)
        assert genome[-1] == 0
        assert genome[-2] == 2

    def test_counter_terminates(self, cost_model, conv_layer, space_dla):
        constraint = PlatformConstraint(kind="area", budget=1e15)
        single = DesignPointEvaluator([conv_layer], "latency", constraint,
                                      cost_model, space_dla,
                                      dataflow="dla")
        grid = GridSearch(stride=6)
        grid._evaluator = single
        genome = [0, 0]
        states = 1
        while grid._advance(genome):
            states += 1
        assert states == 4  # 2 strided values per gene, 2 genes


class TestSimulatedAnnealingInternals:
    def test_neighbour_moves_one_gene_by_step(self, evaluator, cost_model,
                                              tiny_model, space_mix):
        """Every gene starts a step away from both ends of its range, so
        each neighbour moves exactly one gene, of the layer returned."""
        constraint = PlatformConstraint(kind="area", budget=1e15)
        mix = DesignPointEvaluator(tiny_model, "latency", constraint,
                                   cost_model, space_mix)
        for task, genome in ((evaluator, [5, 5] * 4), (mix, [1, 1, 1] * 4)):
            sa = SimulatedAnnealing(step=1, seed=0)
            sa._evaluator = task
            per_step = task.space.actions_per_step
            moved_layers = set()
            for _ in range(40):
                neighbour, layer = sa._neighbour(genome)
                moved = [gene for gene, (a, b)
                         in enumerate(zip(genome, neighbour)) if a != b]
                assert len(moved) == 1
                assert abs(neighbour[moved[0]] - genome[moved[0]]) == 1
                assert layer == moved[0] // per_step
                moved_layers.add(layer)
            assert moved_layers == set(range(len(tiny_model)))

    def test_restarts_score_whole_genomes_and_moves_one_layer(
            self, evaluator, monkeypatch):
        """Budget 400 over 5 restarts: each restart's random genome goes
        through ``evaluate_raw`` (and ``CostModel.evaluate_model``), its
        79 moves through ``evaluate_move``, and nothing is gathered (a
        gathered base has no per-layer reports to re-price from)."""
        calls = {"evaluate_raw": 0, "evaluate_move": 0, "evaluate_model": 0,
                 "evaluate_population": 0}
        for owner, name in ((DesignPointEvaluator, "evaluate_raw"),
                            (DesignPointEvaluator, "evaluate_move"),
                            (DesignPointEvaluator, "evaluate_population"),
                            (CostModel, "evaluate_model")):
            def spy(self, *args, _name=name, _method=getattr(owner, name),
                    **kwargs):
                calls[_name] += 1
                return _method(self, *args, **kwargs)
            monkeypatch.setattr(owner, name, spy)
        result = SimulatedAnnealing(restarts=5, seed=0).search(evaluator, 400)
        assert result.evaluations == evaluator.evaluations == 400
        assert calls == {"evaluate_raw": 5, "evaluate_move": 395,
                         "evaluate_model": 5, "evaluate_population": 0}

    def test_accept_always_improving(self):
        sa = SimulatedAnnealing(seed=0)
        assert sa._accept(current=10.0, candidate=5.0, temperature=1e-9)

    def test_accept_never_infeasible_candidate(self):
        sa = SimulatedAnnealing(seed=0)
        assert not sa._accept(10.0, math.inf, temperature=1e9)

    def test_accept_escapes_infeasible_current(self):
        sa = SimulatedAnnealing(seed=0)
        assert sa._accept(math.inf, 10.0, temperature=1e-9)

    def test_worse_accepted_more_at_high_temperature(self):
        sa = SimulatedAnnealing(seed=0)
        hot = sum(sa._accept(1.0, 2.0, temperature=100.0)
                  for _ in range(300))
        sa_cold = SimulatedAnnealing(seed=0)
        cold = sum(sa_cold._accept(1.0, 2.0, temperature=0.01)
                   for _ in range(300))
        assert hot > cold


class TestGeneticInternals:
    """The generation-wide operators on ``(count, genes)`` arrays, and the
    GA that breeds with them."""

    @staticmethod
    def _ga(evaluator, **options):
        ga = GeneticAlgorithm(seed=0, **options)
        ga._evaluator = evaluator
        return ga

    def test_crossover_genes_come_from_parents(self, evaluator):
        ga = self._ga(evaluator)
        parents, mates = np.full((50, 8), 1), np.full((50, 8), 9)
        children = ga.uniform_crossover(parents, mates, 1.0)
        assert np.isin(children, (1, 9)).all()
        assert (ga.uniform_crossover(parents, mates, 0.0) == parents).all()

    def test_mutation_rate_zero_is_identity(self, evaluator):
        ga = self._ga(evaluator, mutation_rate=0.0)
        genomes = np.tile([3, 4], (20, 4))
        assert (ga.resample_mutation(genomes, 0.0) == genomes).all()

    def test_mutation_stays_in_level_range(self, evaluator):
        ga = self._ga(evaluator, mutation_rate=1.0)
        children = ga.resample_mutation(np.tile([0, 11], (20, 4)), 1.0)
        assert ((0 <= children) & (children <= 11)).all()

    @pytest.mark.parametrize("rate", [0.05, 0.1, 0.5])
    def test_mutated_share_is_within_a_binomial_bound_of_the_rate(
            self, evaluator, rate):
        """Genes start at -1, outside every bound, so each resampled gene
        shows, even one that redraws its old level."""
        genomes = np.full((10_000, 8), -1)
        mutated = self._ga(evaluator).resample_mutation(genomes, rate)
        share = (mutated >= 0).mean()
        assert abs(share - rate) < 4 * math.sqrt(rate * (1 - rate)
                                                 / genomes.size)

    def test_resampled_genes_stay_within_their_bounds_under_mix(
            self, cost_model, tiny_model, space_mix):
        constraint = PlatformConstraint(kind="area", budget=1e15)
        ga = self._ga(DesignPointEvaluator(tiny_model, "latency",
                                           constraint, cost_model,
                                           space_mix))
        mutated = ga.resample_mutation(np.full((2_000, 12), -1), 1.0)
        bounds = space_mix.head_sizes * len(tiny_model)
        assert bounds[2] == len(space_mix.dataflows)
        for gene, bound in enumerate(bounds):
            assert set(mutated[:, gene].tolist()) == set(range(bound))

    def test_crossover_takes_each_parent_about_half_the_time(self,
                                                              evaluator):
        ga = self._ga(evaluator)
        parents, mates = np.zeros((10_000, 8)), np.ones((10_000, 8))
        share = ga.uniform_crossover(parents, mates, 1.0).mean()
        assert abs(share - 0.5) < 4 * math.sqrt(0.25 / parents.size)
        # At rate 0.3, a crossed row keeps all 8 parent genes with
        # probability 2**-8.
        crossed = ga.uniform_crossover(parents, mates, 0.3).any(axis=1)
        expected = 0.3 * (1 - 2.0 ** -8)
        assert abs(crossed.mean() - expected) < 4 * math.sqrt(
            expected * (1 - expected) / len(parents))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           keys=st.lists(st.sampled_from([0.0, 1.0, 2.0, math.inf]),
                         min_size=1, max_size=12),
           size=st.sampled_from([2, 3, 4]))
    @example(seed=0, keys=[math.inf] * 5, size=3)
    @example(seed=1, keys=[math.inf, 2.0, math.inf, 2.0], size=4)
    def test_tournament_returns_the_first_minimum_among_its_contenders(
            self, seed, keys, size):
        """The winner is ``min`` over the contenders in draw order: ties,
        ``inf`` ones included, go to the contender drawn first."""
        keys = np.array(keys)
        optimizer = GenomeOptimizer(seed=seed)
        reference = np.random.default_rng(seed)
        winners = optimizer.tournament(keys, 40, size)
        for contenders, winner in zip(
                reference.integers(0, len(keys), size=(40, size)), winners):
            assert winner == min(contenders, key=keys.__getitem__)
        assert optimizer.rng.bit_generator.state \
            == reference.bit_generator.state

    def test_elite_genomes_carry_over_unchanged(self, evaluator):
        ga = self._ga(evaluator, population_size=10, elite=3,
                      mutation_rate=1.0)
        generations = []
        score = ga._score

        def recorded(population):
            costs = score(population)
            generations.append((population.copy(), costs))
            return costs

        ga._score = recorded
        ga.search(evaluator, 60)
        assert len(generations) == 6
        for (population, costs), (following, _) in zip(generations,
                                                       generations[1:]):
            best = population[np.argsort(costs, kind="stable")[:3]]
            assert (following[:3] == best).all()

    @pytest.mark.parametrize("elite", [10, 11])
    def test_refuses_an_elite_that_leaves_no_child(self, elite):
        with pytest.raises(ValueError, match="elite"):
            GeneticAlgorithm(population_size=10, elite=elite)
        assert GeneticAlgorithm(population_size=10, elite=9).elite == 9


class TestBayesianInternals:
    def test_kernel_diagonal_is_one(self, evaluator):
        bo = BayesianOptimization(seed=0)
        bo._evaluator = evaluator
        x = np.random.default_rng(0).random((5, 8))
        gram = bo._kernel(x, x)
        np.testing.assert_allclose(np.diag(gram), np.ones(5), atol=1e-12)

    def test_kernel_decays_with_distance(self, evaluator):
        bo = BayesianOptimization(seed=0)
        bo._evaluator = evaluator
        near = bo._kernel(np.zeros((1, 4)), np.full((1, 4), 0.1))[0, 0]
        far = bo._kernel(np.zeros((1, 4)), np.full((1, 4), 2.0))[0, 0]
        assert near > far

    def test_encode_normalizes_to_unit_cube(self, evaluator):
        bo = BayesianOptimization(seed=0)
        bo._evaluator = evaluator
        encoded = bo._encode([11, 11] * 4)
        np.testing.assert_allclose(encoded, np.ones(8))
        encoded = bo._encode([0, 0] * 4)
        np.testing.assert_allclose(encoded, np.zeros(8))

    def test_expected_improvement_prefers_promising_region(self,
                                                           evaluator):
        bo = BayesianOptimization(seed=0)
        bo._evaluator = evaluator
        # Observed: low objective at 0-corner, high at 1-corner.
        features = np.array([[0.0] * 8, [1.0] * 8])
        targets = np.array([1.0, 10.0])
        candidates = np.array([[0.05] * 8, [0.95] * 8])
        ei = bo._expected_improvement(candidates, features, targets)
        assert ei[0] > ei[1]

    def test_infeasible_points_get_penalized_targets(self, cost_model,
                                                     tiny_model,
                                                     space_dla):
        constraint = PlatformConstraint(kind="area", budget=1.0)  # nothing
        evaluator = DesignPointEvaluator(tiny_model, "latency", constraint,
                                         cost_model, space_dla,
                                         dataflow="dla")
        bo = BayesianOptimization(seed=0, initial_samples=2)
        bo.search(evaluator, 4)
        assert len(bo._targets) == 4
        # All infeasible: targets are stacked penalties, non-decreasing.
        assert all(b >= a for a, b in zip(bo._targets, bo._targets[1:]))
