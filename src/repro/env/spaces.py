"""The coarse-grained action space of Table I.

The agent navigates the huge design space with ``L`` discrete levels per
action.  PE levels follow the paper's marginal-return spacing (dense at the
low end); buffer levels are the dataflow's design-time ladder (for the
NVDLA style with a 3x3 kernel this is exactly 19, 29, ..., 129 bytes).
Table IX sweeps ``L`` in {10, 12, 14}, so levels are generated for any L.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.dataflow import DATAFLOW_ORDER, get_dataflow

#: Table I's PE ladder for the default L = 12.
_CANONICAL_PE_LEVELS = (1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128)


def canonical_pe_levels(num_levels: int = 12,
                        max_pes: int = 128) -> List[int]:
    """PE level values for an ``num_levels``-step ladder up to ``max_pes``.

    L = 12 with the default ceiling reproduces Table I exactly; other
    configurations use a geometric ladder (capturing the same
    marginal-return intuition: doubling helps early, barely at the top).
    """
    if num_levels < 2:
        raise ValueError("need at least 2 levels")
    if max_pes < num_levels:
        raise ValueError("max_pes must be >= num_levels")
    if num_levels == 12 and max_pes == 128:
        return list(_CANONICAL_PE_LEVELS)
    ladder = np.geomspace(1, max_pes, num_levels)
    levels = sorted(set(int(round(v)) for v in ladder))
    # Rounding can merge small levels; refill from the smallest gaps.
    candidate = 1
    while len(levels) < num_levels:
        if candidate not in levels:
            levels.append(candidate)
            levels.sort()
        candidate += 1
    return levels[:num_levels]


@dataclass(frozen=True)
class ActionSpace:
    """The per-time-step action menu.

    Attributes:
        pe_levels: PE counts selectable per layer.
        buf_levels: L1 byte sizes selectable per layer (dataflow ladder).
        dataflows: When set, the agent also picks a style per layer (MIX);
            ``None`` means the style is fixed externally.
    """

    pe_levels: Tuple[int, ...]
    buf_levels: Tuple[int, ...]
    dataflows: Optional[Tuple[str, ...]] = None

    @classmethod
    def build(cls, dataflow: str = "dla", num_levels: int = 12,
              max_pes: int = 128, mix: bool = False) -> "ActionSpace":
        """Construct the Table-I space for a dataflow (or the MIX space).

        For MIX the buffer ladder must serve all styles, so the union of
        the three ladders is quantized back down to ``num_levels`` entries.
        """
        pe_levels = tuple(canonical_pe_levels(num_levels, max_pes))
        if mix:
            merged = sorted(
                set(
                    level
                    for style in DATAFLOW_ORDER
                    for level in get_dataflow(style).buffer_levels(num_levels)
                )
            )
            indices = np.linspace(0, len(merged) - 1, num_levels)
            buf_levels = tuple(merged[int(round(i))] for i in indices)
            return cls(pe_levels, buf_levels, tuple(DATAFLOW_ORDER))
        buf_levels = tuple(get_dataflow(dataflow).buffer_levels(num_levels))
        return cls(pe_levels, buf_levels, None)

    def __post_init__(self) -> None:
        if len(self.pe_levels) != len(self.buf_levels):
            raise ValueError("PE and buffer ladders must have equal length")
        if list(self.pe_levels) != sorted(set(self.pe_levels)):
            raise ValueError("pe_levels must be strictly increasing")
        if list(self.buf_levels) != sorted(set(self.buf_levels)):
            raise ValueError("buf_levels must be strictly increasing")

    @property
    def num_levels(self) -> int:
        return len(self.pe_levels)

    @property
    def is_mix(self) -> bool:
        return self.dataflows is not None

    @property
    def actions_per_step(self) -> int:
        """2 for (PE, Buf); 3 when the dataflow is also an action."""
        return 3 if self.is_mix else 2

    @property
    def head_sizes(self) -> Tuple[int, ...]:
        """Output sizes of the policy network's action heads."""
        sizes = [self.num_levels, self.num_levels]
        if self.is_mix:
            sizes.append(len(self.dataflows))
        return tuple(sizes)

    def decode(self, action: Sequence[int]):
        """Level indices -> concrete (pes, l1_bytes[, style]) values."""
        if len(action) != self.actions_per_step:
            raise ValueError(
                f"expected {self.actions_per_step} sub-actions, got "
                f"{len(action)}"
            )
        return self.decode_genes(action)[0]

    def decode_genes(self, genes: Sequence[int]) -> List[Tuple]:
        """A flat list of integer level indices, one action after another
        (a genome) -> one (pes, l1_bytes[, style]) tuple per action.

        Raises:
            ValueError: if the genes do not make whole actions, or a gene
                is outside its range (negative indices included).
        """
        per_step = self.actions_per_step
        if len(genes) % per_step:
            raise ValueError(
                f"expected a multiple of {per_step} genes, got {len(genes)}")
        levels = self.num_levels
        pairs = self._level_pairs
        dataflows = self.dataflows
        decoded = []
        for start in range(0, len(genes), per_step):
            pe_idx, buf_idx = genes[start], genes[start + 1]
            if not 0 <= pe_idx < levels:
                raise ValueError(f"PE level index {pe_idx} out of range")
            if not 0 <= buf_idx < levels:
                raise ValueError(
                    f"buffer level index {buf_idx} out of range")
            if dataflows is None:
                decoded.append(pairs[pe_idx][buf_idx])
                continue
            df_idx = genes[start + 2]
            if not 0 <= df_idx < len(dataflows):
                raise ValueError(f"dataflow index {df_idx} out of range")
            decoded.append(pairs[pe_idx][buf_idx] + (dataflows[df_idx],))
        return decoded

    @cached_property
    def _level_pairs(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """``(pe_levels[i], buf_levels[j])`` at ``[i][j]``, built once per
        space, so decoding takes each pair whole."""
        return tuple(tuple((pes, l1_bytes) for l1_bytes in self.buf_levels)
                     for pes in self.pe_levels)

    def max_action(self) -> Tuple[int, ...]:
        """The uniform maximum action pair used to measure C_max (Table II)."""
        top = self.num_levels - 1
        if self.is_mix:
            return (top, top, 0)
        return (top, top)

    def design_space_size(self, num_layers: int) -> float:
        """|space| = (L^2 [* styles])^N -- the O(10^112) of Section IV-C4."""
        per_step = float(self.num_levels) ** 2
        if self.is_mix:
            per_step *= len(self.dataflows)
        return per_step ** num_layers
