"""The 10-dimensional observation of equation (1), normalized to [-1, 1].

    O_t = (K, C, Y, X, R, S, T, A_pe, A_buf, t)

The first seven dimensions describe the current layer's shape and type, the
next two echo the previous time step's actions (so even an MLP policy sees
its own budget-relevant history), and the last is the time-step index.
Normalization scales are derived from the target model so every dimension
lands in [-1, 1], which the paper notes stabilizes training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.env.spaces import ActionSpace
from repro.models.layers import Layer, LayerType

#: Dimensionality of the observation vector (equation 1).
OBSERVATION_DIM = 10


@dataclass(frozen=True)
class ObservationEncoder:
    """Encodes (layer, previous action, time step) into the agent's input.

    Eight of the ten dimensions -- the seven shape dims and the time index
    -- are static per (layer, step), so they are precomputed into template
    vectors at construction; :meth:`encode` copies the template and fills
    only the two action-dependent slots each RL step.
    """

    scales: np.ndarray          # per-dimension maxima for the shape dims
    num_steps: int              # episode length (layers in the model)
    space: ActionSpace
    #: (layer, step) -> ready-made observation with action slots at -1.
    _templates: Dict[Tuple[Layer, int], np.ndarray] = field(
        default_factory=dict, repr=False, compare=False)

    @classmethod
    def for_model(cls, layers: Sequence[Layer],
                  space: ActionSpace) -> "ObservationEncoder":
        if not layers:
            raise ValueError("model has no layers")
        scales = np.array(
            [
                max(layer.K for layer in layers),
                max(layer.C for layer in layers),
                max(layer.Y for layer in layers),
                max(layer.X for layer in layers),
                max(layer.R for layer in layers),
                max(layer.S for layer in layers),
                max(len(LayerType) - 1, 1),
            ],
            dtype=np.float64,
        )
        encoder = cls(scales=scales, num_steps=len(layers), space=space)
        for step, layer in enumerate(layers):
            encoder._template(layer, step)
        return encoder

    def _template(self, layer: Layer, step: int) -> np.ndarray:
        """The static part of O_t for one (layer, step): shape dims and
        time index filled in, action slots at the t=0 sentinel (-1)."""
        key = (layer, step)
        template = self._templates.get(key)
        if template is None:
            shape = np.array(
                [layer.K, layer.C, layer.Y, layer.X, layer.R, layer.S,
                 float(layer.layer_type)],
                dtype=np.float64,
            )
            shape = 2.0 * shape / self.scales - 1.0
            t_norm = 2.0 * step / max(self.num_steps - 1, 1) - 1.0
            template = np.clip(
                np.concatenate([shape, [-1.0, -1.0], [t_norm]]), -1.0, 1.0)
            self._templates[key] = template
        return template

    def encode(self, layer: Layer, step: int,
               prev_action: Optional[Sequence[int]]) -> np.ndarray:
        """Build O_t.  ``prev_action`` is the previous step's level indices
        (None at t=0, encoded as -1 on both action dimensions)."""
        observation = self._template(layer, step).copy()
        if prev_action is not None:
            top = max(self.space.num_levels - 1, 1)
            # encode_batch's array expression, one float at a time: the
            # same IEEE operations, clipped to [-1, 1].
            for slot, level in zip((7, 8), prev_action):
                observation[slot] = min(max(2.0 * level / top - 1.0, -1.0),
                                        1.0)
        return observation

    def encode_batch(self, layer: Layer, step: int,
                     prev_actions: Optional[np.ndarray] = None,
                     count: Optional[int] = None) -> np.ndarray:
        """O_t for many lockstep episodes at one ``(layer, step)``.

        The per-(layer, step) template is tiled into an ``(E, 10)``
        matrix and only the two action slots are filled per row, so a
        whole wave of observations is one array fill instead of E
        :meth:`encode` calls.  Row ``e`` is bit-identical to
        ``encode(layer, step, prev_actions[e])``.

        Args:
            layer: The (shared) current layer of the wave.
            step: The (shared) time-step index of the wave.
            prev_actions: ``(E, >=2)`` previous level indices, or ``None``
                for the t=0 sentinel (both action slots at -1).
            count: Number of rows when ``prev_actions`` is ``None``.
        """
        if prev_actions is None:
            if count is None:
                raise ValueError(
                    "encode_batch needs prev_actions or an explicit count")
            return np.tile(self._template(layer, step), (count, 1))
        prev_actions = np.asarray(prev_actions)
        observations = np.tile(self._template(layer, step),
                               (len(prev_actions), 1))
        top = max(self.space.num_levels - 1, 1)
        acted = 2.0 * prev_actions[:, :2].astype(np.float64) / top - 1.0
        observations[:, 7:9] = np.clip(acted, -1.0, 1.0)
        return observations
