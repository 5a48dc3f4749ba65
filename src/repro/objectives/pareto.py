"""Vectorized non-dominated sorting and Pareto-front maintenance.

All functions operate on a ``(n, k)`` float array of objective values,
minimized componentwise.  Domination is the standard weak form: ``a``
dominates ``b`` iff ``a <= b`` in every component and ``a < b`` in at
least one -- so exact duplicates never dominate each other and share a
front.  Infinities are legal.

Infeasible points are handled by *encoding*, not by a second dominance
rule: :func:`constrained_rows` rewrites every infeasible row to a huge
finite base scaled by its normalized constraint violation (Deb's
constrained-domination order expressed as plain values).  Any feasible
point then dominates any infeasible one, a smaller violation dominates a
larger one, and equal violations co-front -- all through the same
vectorized machinery below, with feasible-only fronts provably
unchanged.

The sorts are deterministic functions of the input order: peeling
preserves index order within each front, which is what makes Pareto
fronts reproducible for fixed seeds.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "INFEASIBLE_BASE",
    "constrained_rows",
    "domination_matrix",
    "non_dominated_mask",
    "non_dominated_sort",
    "crowding_distance",
    "ParetoArchive",
]

#: Every infeasible row's components start here -- far above any real
#: objective value, far below ``inf`` so violation ordering survives
#: arithmetic.
INFEASIBLE_BASE = 1e30


def _as_values(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    if values.ndim != 2:
        raise ValueError(
            f"objective values must be a (n, k) array, got shape "
            f"{values.shape}")
    return values


def constrained_rows(values, feasible, violation) -> np.ndarray:
    """Encode constraint violations into the objective matrix.

    Returns a copy of the ``(n, k)`` matrix where every infeasible row
    (``feasible[i]`` false) is replaced, in all ``k`` components, by
    ``INFEASIBLE_BASE * (1 + violation[i])`` with the violation clipped
    at zero.  Under the weak dominance above this reproduces Deb's
    constrained-domination principle:

    * every feasible point dominates every infeasible point (its finite
      objective values sit far below the base);
    * between infeasible points, strictly smaller violation dominates;
    * equal violations are exact duplicates and co-front.

    Feasible rows are returned bit-for-bit untouched, so feasible-only
    inputs (and the feasible prefix of any front ranking) are identical
    to the unconstrained sort.

    Args:
        values: ``(n, k)`` objective matrix (minimized).
        feasible: ``(n,)`` boolean mask.
        violation: ``(n,)`` nonnegative violation magnitudes, already
            normalized (e.g. ``max(0, used - budget) / budget``);
            anything negative is treated as 0.
    """
    values = np.array(_as_values(values), copy=True)
    feasible = np.asarray(feasible, dtype=bool).reshape(-1)
    violation = np.asarray(violation, dtype=np.float64).reshape(-1)
    if not (len(values) == len(feasible) == len(violation)):
        raise ValueError(
            f"values ({len(values)}), feasible ({len(feasible)}) and "
            f"violation ({len(violation)}) lengths differ")
    infeasible = ~feasible
    if infeasible.any():
        scale = 1.0 + np.maximum(violation[infeasible], 0.0)
        values[infeasible] = (INFEASIBLE_BASE * scale)[:, None]
    return values


def domination_matrix(values) -> np.ndarray:
    """Boolean ``(n, n)`` matrix: ``D[i, j]`` iff point i dominates j.

    One broadcasted comparison pair -- O(n^2 k) memory, no Python loop --
    which is fast for the population sizes the GA breeds (hundreds).
    """
    values = _as_values(values)
    a = values[:, None, :]
    b = values[None, :, :]
    return (a <= b).all(axis=2) & (a < b).any(axis=2)


def non_dominated_mask(values) -> np.ndarray:
    """Boolean ``(n,)`` mask of the points no other point dominates."""
    values = _as_values(values)
    if len(values) == 0:
        return np.zeros(0, dtype=bool)
    return ~domination_matrix(values).any(axis=0)


def non_dominated_sort(values) -> np.ndarray:
    """NSGA-II fast non-dominated sort: the front rank of every point.

    Rank 0 is the Pareto front; rank ``r`` points are non-dominated once
    every rank ``< r`` point is removed.  Implemented by peeling fronts
    off a precomputed domination-count vector, all array arithmetic.

    With one component a point dominates exactly the strictly larger
    values, and equal values (``-0.0`` and ``0.0``, or two infinities of
    one sign) share a front, so the peel's ranks are the dense rank of
    the values, which one ``np.unique`` returns.  A NaN neither dominates
    nor is dominated, but ``np.unique`` merges NaNs into one last value,
    so a column holding any NaN still peels.
    """
    values = _as_values(values)
    n, k = values.shape
    if k == 1 and not np.isnan(values).any():
        _, dense = np.unique(values[:, 0], return_inverse=True)
        return dense.astype(np.int64, copy=False)
    ranks = np.zeros(n, dtype=np.int64)
    if n == 0:
        return ranks
    dominates = domination_matrix(values)
    # dominated_by[j] = number of points currently dominating j.
    dominated_by = dominates.sum(axis=0)
    remaining = np.ones(n, dtype=bool)
    rank = 0
    while remaining.any():
        front = remaining & (dominated_by == 0)
        if not front.any():  # pragma: no cover - domination is acyclic
            raise RuntimeError("non-dominated sort failed to progress")
        ranks[front] = rank
        remaining &= ~front
        # Removing the front releases its domination counts.
        dominated_by -= dominates[front].sum(axis=0)
        rank += 1
    return ranks


def crowding_distance(values, ranks=None) -> np.ndarray:
    """NSGA-II crowding distance of each point within its front.

    Points sharing a value of ``ranks`` form one front; with ``ranks``
    omitted every point is in one front.  Boundary points (componentwise
    extremes) get ``inf`` so selection keeps the front's spread, and every
    point of a one- or two-point front is one; interior points get the
    normalized perimeter of their neighbor cuboid.  Callers sort
    descending.

    Every front is crowded in the same pass.  Per component, one stable
    ``np.lexsort`` on (rank, value) orders each front by value, ties in
    index order, exactly as a stable ``argsort`` of that front alone
    would; the components' gaps are added in component order.  So the
    result is bit-for-bit the one per-front calls would give.
    """
    values = _as_values(values)
    n, k = values.shape
    ranks = np.zeros(n, dtype=np.int64) if ranks is None \
        else np.asarray(ranks)
    distance = np.zeros(n, dtype=np.float64)
    if n == 0:
        return distance
    for component in range(k):
        column = values[:, component]
        order = np.lexsort((column, ranks))
        sorted_values = column[order]
        sorted_ranks = ranks[order]
        first = np.ones(n, dtype=bool)
        first[1:] = sorted_ranks[1:] != sorted_ranks[:-1]
        last = np.ones(n, dtype=bool)
        last[:-1] = first[1:]
        distance[order[first | last]] = np.inf
        # Each position's front extremes.
        front = np.cumsum(first) - 1
        lo = sorted_values[first][front]
        hi = sorted_values[last][front]
        # Degenerate spans (all equal, or an infinite or NaN end)
        # contribute no crowding on this axis; masking before
        # subtracting avoids an inf - inf NaN warning.
        interior = np.flatnonzero(~(first | last) & (hi > lo)
                                  & np.isfinite(lo) & np.isfinite(hi))
        gaps = ((sorted_values[interior + 1] - sorted_values[interior - 1])
                / (hi[interior] - lo[interior]))
        distance[order[interior]] += gaps
    return distance


class ParetoArchive:
    """An incrementally maintained non-dominated set with payloads.

    The GA streams every feasible evaluation through the archive; at any
    point :meth:`front` returns the current Pareto set (values and the
    caller's payloads) in first-seen order, deduplicated on exact value
    ties so repeated genomes do not balloon the front.

    Args:
        max_size: Optional cap; when exceeded the most crowded points
            are dropped (crowding-distance pruning), keeping the spread.
    """

    def __init__(self, max_size: Optional[int] = None) -> None:
        if max_size is not None and max_size < 1:
            raise ValueError("max_size must be >= 1 (or None)")
        self.max_size = max_size
        self._values: List[np.ndarray] = []
        self._payloads: List[object] = []

    def __len__(self) -> int:
        return len(self._values)

    def add(self, values, payload=None) -> bool:
        """Offer one point; returns True if it joined the archive."""
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        for kept in self._values:
            if ((kept <= values).all() and (kept < values).any()) \
                    or (kept == values).all():
                return False
        keep = [i for i, kept in enumerate(self._values)
                if not ((values <= kept).all() and (values < kept).any())]
        if len(keep) != len(self._values):
            self._values = [self._values[i] for i in keep]
            self._payloads = [self._payloads[i] for i in keep]
        self._values.append(values)
        self._payloads.append(payload)
        if self.max_size is not None and len(self._values) > self.max_size:
            self._prune()
        return True

    def _prune(self) -> None:
        stacked = np.stack(self._values)
        crowding = crowding_distance(stacked)
        # Drop the single most crowded (smallest distance) point; ties
        # resolve to the earliest index for determinism.
        drop = int(np.argmin(crowding))
        del self._values[drop]
        del self._payloads[drop]

    def front(self) -> List[Tuple[np.ndarray, object]]:
        """The archived (values, payload) pairs in first-seen order."""
        return list(zip(self._values, self._payloads))
