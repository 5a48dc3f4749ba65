"""Pareto machinery: the non-dominated sort, the archive, pareto-ga, and
the adaptive-dispatch satellite.

The sort is property-tested (duplicates, single points, all-dominated
chains, random clouds); the GA is pinned on registration, front
reproducibility for fixed seeds, mutual non-domination, and JSON
round-tripping through :class:`~repro.search.session.SessionResult`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro
from repro.objectives import (
    ParetoArchive,
    crowding_distance,
    domination_matrix,
    non_dominated_mask,
    non_dominated_sort,
)
from repro.search import SearchSession, SearchSpec, get_method

# ----------------------------------------------------------------------
# Non-dominated sort properties
# ----------------------------------------------------------------------
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   width=32)


@st.composite
def value_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=24))
    k = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(
        st.lists(finite, min_size=k, max_size=k),
        min_size=n, max_size=n))
    return np.array(rows, dtype=np.float64).reshape(n, k)


def _dominates(a, b) -> bool:
    return bool((a <= b).all() and (a < b).any())


@settings(max_examples=120, deadline=None)
@given(values=value_matrices())
def test_front_zero_is_exactly_the_non_dominated_set(values):
    ranks = non_dominated_sort(values)
    mask = non_dominated_mask(values)
    assert len(ranks) == len(mask) == len(values)
    np.testing.assert_array_equal(ranks == 0, mask)


@settings(max_examples=120, deadline=None)
@given(values=value_matrices())
def test_ranks_are_consistent_with_pairwise_domination(values):
    """No point is dominated by a point of the same or a later rank, and
    every point of rank r > 0 is dominated by some rank r-1 point."""
    ranks = non_dominated_sort(values)
    n = len(values)
    for i in range(n):
        for j in range(n):
            if _dominates(values[i], values[j]):
                assert ranks[i] < ranks[j]
    for j in range(n):
        if ranks[j] > 0:
            assert any(_dominates(values[i], values[j])
                       and ranks[i] == ranks[j] - 1
                       for i in range(n))


@settings(max_examples=80, deadline=None)
@given(values=value_matrices(), data=st.data())
def test_duplicates_share_a_rank(values, data):
    """Exact duplicates never dominate each other: duplicating any row
    keeps both copies on one rank."""
    if len(values) == 0:
        return
    row = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    doubled = np.vstack([values, values[row]])
    ranks = non_dominated_sort(doubled)
    assert ranks[row] == ranks[-1]


def test_single_point_and_empty():
    assert non_dominated_sort(np.empty((0, 3))).tolist() == []
    assert non_dominated_mask(np.empty((0, 2))).tolist() == []
    single = np.array([[3.0, 4.0]])
    assert non_dominated_sort(single).tolist() == [0]
    assert non_dominated_mask(single).tolist() == [True]
    assert crowding_distance(single).tolist() == [np.inf]


def test_all_dominated_chain_ranks_sequentially():
    """A strictly worsening chain peels one front per point."""
    chain = np.array([[i, i] for i in range(6)], dtype=np.float64)
    assert non_dominated_sort(chain).tolist() == list(range(6))
    assert non_dominated_mask(chain).tolist() == [True] + [False] * 5


def test_domination_matrix_matches_definition():
    values = np.array([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0]])
    matrix = domination_matrix(values)
    for i in range(len(values)):
        for j in range(len(values)):
            assert matrix[i, j] == _dominates(values[i], values[j])


def test_infeasible_inf_rows_fall_behind_feasible_points():
    values = np.array([[1.0, 2.0], [np.inf, np.inf], [np.inf, np.inf]])
    ranks = non_dominated_sort(values)
    assert ranks[0] == 0
    assert ranks[1] == ranks[2] == 1


def test_crowding_boundary_points_are_infinite():
    values = np.array([[0.0, 3.0], [1.0, 1.0], [2.0, 0.5], [3.0, 0.0]])
    crowding = crowding_distance(values)
    assert crowding[0] == np.inf and crowding[-1] == np.inf
    assert np.all(crowding[1:-1] > 0) and np.all(np.isfinite(crowding[1:-1]))


# ----------------------------------------------------------------------
# The array paths: dense ranks for one component, every front crowded in
# one pass, and ParetoGA's lexsort selection order -- each against the
# loop it replaced.
# ----------------------------------------------------------------------
SPECIAL = [-np.inf, -1.0, -0.0, 0.0, 1.0, 2.0, 1e30, np.inf]


def _reference_peel(values) -> list:
    """Front ranks by peeling the non-dominated rows off
    ``domination_matrix`` one front at a time."""
    dominates = domination_matrix(values)
    ranks = [0] * len(values)
    remaining = set(range(len(values)))
    rank = 0
    while remaining:
        front = [j for j in remaining
                 if not any(dominates[i, j] for i in remaining)]
        for j in front:
            ranks[j] = rank
        remaining -= set(front)
        rank += 1
    return ranks


def _reference_crowding(values) -> np.ndarray:
    """One front's crowding distance by the per-component argsort loop."""
    n, k = values.shape
    distance = np.zeros(n, dtype=np.float64)
    if n <= 2:
        distance[:] = np.inf
        return distance
    for component in range(k):
        order = np.argsort(values[:, component], kind="stable")
        column = values[order, component]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        lo, hi = column[0], column[-1]
        if hi <= lo or not (np.isfinite(lo) and np.isfinite(hi)):
            continue
        distance[order[1:-1]] += (column[2:] - column[:-2]) / (hi - lo)
    return distance


@st.composite
def ranked_matrices(draw):
    """Values with ties, signed zeros and infinities, optionally with
    constrained-encoded infeasible rows, plus an arbitrary rank vector."""
    from repro.objectives import constrained_rows

    n = draw(st.integers(min_value=0, max_value=30))
    k = draw(st.integers(min_value=1, max_value=3))
    cell = st.one_of(st.sampled_from(SPECIAL), st.integers(-3, 3).map(float),
                     finite)
    values = draw(arrays(np.float64, (n, k), elements=cell))
    if draw(st.booleans()):
        feasible = draw(arrays(bool, n))
        violation = draw(arrays(np.float64, n, elements=st.sampled_from(
            [0.0, 0.1, 0.5, 2.0])))
        values = constrained_rows(values, feasible, violation)
    ranks = draw(arrays(np.int64, n, elements=st.integers(0, 4)))
    return values, ranks


@settings(max_examples=300, deadline=None)
@given(column=st.lists(st.sampled_from(SPECIAL + [np.nan]), max_size=30))
def test_one_component_ranks_match_the_peel(column):
    values = np.array(column, dtype=np.float64).reshape(-1, 1)
    ranks = non_dominated_sort(values)
    assert ranks.dtype == np.int64
    assert ranks.tolist() == _reference_peel(values)


@settings(max_examples=80, deadline=None)
@given(case=ranked_matrices())
def test_ranks_match_the_peel(case):
    values, _ = case
    assert non_dominated_sort(values).tolist() == _reference_peel(values)


@settings(max_examples=200, deadline=None)
@given(case=ranked_matrices())
def test_crowding_all_fronts_at_once_matches_each_front_alone(case):
    values, ranks = case
    per_front = np.zeros(len(values), dtype=np.float64)
    reference = np.zeros(len(values), dtype=np.float64)
    for rank in np.unique(ranks):
        members = ranks == rank
        per_front[members] = crowding_distance(values[members])
        reference[members] = _reference_crowding(values[members])
    assert per_front.tobytes() == reference.tobytes()
    assert crowding_distance(values, ranks).tobytes() == reference.tobytes()
    assert crowding_distance(values).tobytes() \
        == _reference_crowding(values).tobytes()


def test_crowding_rejects_a_rank_vector_of_another_length():
    with pytest.raises(ValueError):
        crowding_distance(np.ones((3, 2)), [0, 0])


def _selection_key(ranks, crowding):
    return lambda i: (ranks[i], -crowding[i], i)


@settings(max_examples=100, deadline=None)
@given(case=ranked_matrices())
def test_selection_order_is_the_sorted_rank_crowding_order(case):
    from repro.optim.pareto_ga import ParetoGA

    values, _ = case
    ranks = non_dominated_sort(values)
    crowding = crowding_distance(values, ranks)
    expected = sorted(range(len(values)),
                      key=_selection_key(ranks, crowding))
    assert ParetoGA._selection_order(values).tolist() == expected


class TestParetoArchive:
    def test_keeps_only_non_dominated_and_dedupes(self):
        archive = ParetoArchive()
        assert archive.add([2.0, 2.0], "a")
        assert not archive.add([3.0, 3.0], "worse")
        assert archive.add([1.0, 3.0], "b")
        assert not archive.add([2.0, 2.0], "duplicate")
        assert archive.add([0.0, 0.0], "dominates-all")
        front = archive.front()
        assert [payload for _, payload in front] == ["dominates-all"]

    def test_max_size_prunes_most_crowded(self):
        archive = ParetoArchive(max_size=3)
        points = [[0.0, 4.0], [1.0, 2.9], [2.0, 2.0], [3.0, 1.5],
                  [4.0, 0.0]]
        for index, point in enumerate(points):
            archive.add(point, index)
        assert len(archive) == 3
        payloads = {payload for _, payload in archive.front()}
        # The extremes always survive crowding pruning.
        assert {0, 4} <= payloads


# ----------------------------------------------------------------------
# Constraint-aware dominance (satellite): infeasible points rank by
# violation magnitude instead of collapsing into one all-inf bucket.
# ----------------------------------------------------------------------
class TestConstrainedDominance:
    def test_feasible_rows_are_bit_identical(self):
        from repro.objectives import constrained_rows

        values = np.array([[1.0, 2.0], [3.0, 0.5], [2.0, 2.0]])
        rows = constrained_rows(values, [True] * 3, [0.0] * 3)
        np.testing.assert_array_equal(rows, values)

    def test_input_matrix_is_not_mutated(self):
        from repro.objectives import constrained_rows

        values = np.array([[1.0, 2.0], [3.0, 0.5]])
        kept = values.copy()
        constrained_rows(values, [True, False], [0.0, 1.0])
        np.testing.assert_array_equal(values, kept)

    def test_every_feasible_point_dominates_every_infeasible(self):
        from repro.objectives import INFEASIBLE_BASE, constrained_rows

        values = np.array([[9e5, 9e5], [1.0, 1.0]])
        rows = constrained_rows(values, [True, False], [0.0, 0.0])
        ranks = non_dominated_sort(rows)
        # The feasible point leads despite far worse raw objectives.
        assert ranks[0] == 0 and ranks[1] == 1
        assert (rows[1] >= INFEASIBLE_BASE).all()

    def test_infeasible_points_rank_by_violation(self):
        from repro.objectives import constrained_rows

        values = np.array([[5.0, 5.0], [1.0, 1.0], [2.0, 2.0]])
        rows = constrained_rows(values, [True, False, False],
                                [0.0, 0.5, 0.1])
        ranks = non_dominated_sort(rows)
        assert ranks[0] == 0
        assert ranks[2] < ranks[1]  # smaller violation ranks ahead

    def test_equal_violations_share_a_front(self):
        from repro.objectives import constrained_rows

        values = np.array([[1.0, 4.0], [4.0, 1.0]])
        rows = constrained_rows(values, [False, False], [0.3, 0.3])
        ranks = non_dominated_sort(rows)
        assert ranks[0] == ranks[1]

    def test_negative_violation_clamps_to_zero(self):
        from repro.objectives import constrained_rows

        values = np.array([[1.0, 1.0], [1.0, 1.0]])
        rows = constrained_rows(values, [False, False], [-1.0, 0.0])
        np.testing.assert_array_equal(rows[0], rows[1])

    def test_length_mismatch_raises(self):
        from repro.objectives import constrained_rows

        with pytest.raises(ValueError):
            constrained_rows(np.ones((2, 2)), [True], [0.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(values=value_matrices(), data=st.data())
    def test_front_zero_parity_with_legacy_inf_encoding(self, values,
                                                        data):
        """Feasible-only fronts are unchanged: front 0 under the
        violation encoding equals front 0 under the old all-inf
        encoding whenever any feasible point exists, and feasible rows
        pass through untouched."""
        from repro.objectives import constrained_rows

        n = len(values)
        if n == 0:
            return
        feasible = np.array(data.draw(st.lists(
            st.booleans(), min_size=n, max_size=n)))
        violation = np.where(feasible, 0.0, data.draw(st.lists(
            st.floats(0.0, 50.0, allow_nan=False),
            min_size=n, max_size=n)))
        rows = constrained_rows(values, feasible, violation)
        np.testing.assert_array_equal(rows[feasible], values[feasible])
        if not feasible.any():
            return
        legacy = values.copy()
        legacy[~feasible] = np.inf
        np.testing.assert_array_equal(
            non_dominated_sort(rows) == 0,
            non_dominated_sort(legacy) == 0)


# ----------------------------------------------------------------------
# The registered pareto-ga method
# ----------------------------------------------------------------------
def _pareto_spec(**overrides) -> SearchSpec:
    base = dict(model="mobilenet_v2", method="pareto-ga",
                objective="multi:latency,energy", budget=150, seed=0,
                layer_slice=4)
    base.update(overrides)
    return SearchSpec(**base)


class TestParetoGA:
    def test_registered_and_discoverable(self):
        info = get_method("pareto-ga")
        assert info.kind == "genome"
        assert info.batchable
        assert "pareto-ga" in repro.method_names()

    def test_front_is_reproducible_and_non_dominated(self):
        first = SearchSession(_pareto_spec()).run()
        second = SearchSession(_pareto_spec()).run()
        front = first.pareto_front
        assert front, "expected a non-empty front"
        assert front == second.pareto_front
        assert first.best_cost == second.best_cost
        values = np.array([[p["objectives"]["latency"],
                            p["objectives"]["energy"]] for p in front])
        assert non_dominated_mask(values).all()
        # Swept along the primary axis, deterministically.
        assert values[:, 0].tolist() == sorted(values[:, 0].tolist())

    def test_front_serializes_with_the_session(self, tmp_path):
        outcome = SearchSession(_pareto_spec()).run()
        path = tmp_path / "pareto.json"
        outcome.save(path)
        loaded = repro.SessionResult.load(path)
        assert loaded.pareto_front == outcome.pareto_front
        assert loaded.result.extra["objective_names"] \
            == ["latency", "energy"]

    def test_front_points_reevaluate_to_their_claimed_objectives(self):
        outcome = SearchSession(_pareto_spec()).run()
        task = outcome.spec.task()
        cost_model = repro.CostModel()
        evaluator = task.make_evaluator(cost_model)
        for point in outcome.pareto_front:
            result = evaluator.evaluate_genome(point["genome"])
            assert result.feasible
            assert result.report.latency_cycles \
                == point["objectives"]["latency"]
            assert result.report.energy_nj == point["objectives"]["energy"]

    def test_scalar_objective_degenerates_to_best_point(self):
        outcome = SearchSession(_pareto_spec(objective="latency")).run()
        front = outcome.pareto_front
        assert len(front) == 1
        assert front[0]["objectives"]["latency"] == outcome.best_cost

    def test_three_axis_front(self):
        outcome = SearchSession(_pareto_spec(
            objective="multi:latency,energy,area", budget=120)).run()
        front = outcome.pareto_front
        assert front
        assert set(front[0]["objectives"]) == {"latency", "energy", "area"}

    def test_tiny_budget_still_reports_a_front(self):
        outcome = SearchSession(_pareto_spec(budget=8,
                                             platform="cloud")).run()
        assert outcome.result.evaluations == 8
        assert outcome.pareto_front is not None

    @pytest.mark.parametrize("budget", [37, 120])
    def test_truncated_final_generation_still_enters_the_front(self,
                                                               budget):
        """Every charged evaluation counts: even when the budget cuts a
        generation short, the front must cover those outcomes -- in
        particular it can never be dominated by ``best_cost`` (the best
        feasible primary component ever evaluated)."""
        outcome = SearchSession(_pareto_spec(budget=budget,
                                             platform="cloud")).run()
        front = outcome.pareto_front
        assert front
        assert min(point["objectives"]["latency"] for point in front) \
            == outcome.best_cost

    def test_observers_and_early_stop_work(self):
        from repro.search import EarlyStopping

        stopper = EarlyStopping(patience=20)
        outcome = SearchSession(_pareto_spec(budget=400)).run(
            callbacks=[stopper])
        assert outcome.stopped_early
        assert outcome.result.evaluations < 400


# ----------------------------------------------------------------------
# Platform calibration through the batched kernel
# ----------------------------------------------------------------------
class TestPlatformCalibration:
    def test_calibration_sweep_matches_scalar_loop(self, cost_model,
                                                   tiny_model):
        """platform_constraint now calibrates through the batched kernel;
        the budget must be bit-identical to the scalar per-layer loop."""
        from repro.core.constraints import measure_max_consumption
        from repro.env.spaces import ActionSpace

        space = ActionSpace.build("dla")
        decoded = space.decode(space.max_action())
        pes, l1_bytes = decoded[0], decoded[1]
        for kind in ("area", "power"):
            want = 0.0
            for layer in tiny_model:
                report = cost_model.evaluate_layer(layer, "dla", pes,
                                                   l1_bytes)
                want += report.constraint(kind)
            got = measure_max_consumption(tiny_model, "dla", kind,
                                          cost_model, space)
            assert got == want
