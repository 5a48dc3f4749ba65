"""Tests for the Table-I action space and observation encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env.observation import OBSERVATION_DIM, ObservationEncoder
from repro.env.spaces import ActionSpace, canonical_pe_levels
from repro.models import get_model


class TestPELevels:
    def test_l12_matches_table1(self):
        assert canonical_pe_levels(12) == [
            1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128]

    @pytest.mark.parametrize("levels", [10, 12, 14])
    def test_strictly_increasing_and_sized(self, levels):
        ladder = canonical_pe_levels(levels)
        assert len(ladder) == levels
        assert all(b > a for a, b in zip(ladder, ladder[1:]))
        assert ladder[0] == 1
        assert ladder[-1] == 128

    def test_custom_ceiling(self):
        ladder = canonical_pe_levels(8, max_pes=256)
        assert ladder[-1] == 256

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            canonical_pe_levels(1)
        with pytest.raises(ValueError):
            canonical_pe_levels(12, max_pes=4)


class TestActionSpace:
    def test_build_dla_table1(self, space_dla):
        assert space_dla.pe_levels == (1, 2, 4, 8, 12, 16, 24, 32, 48, 64,
                                       96, 128)
        assert space_dla.buf_levels == (19, 29, 39, 49, 59, 69, 79, 89, 99,
                                        109, 119, 129)
        assert not space_dla.is_mix
        assert space_dla.actions_per_step == 2
        assert space_dla.head_sizes == (12, 12)

    def test_mix_space(self, space_mix):
        assert space_mix.is_mix
        assert space_mix.actions_per_step == 3
        assert space_mix.head_sizes == (12, 12, 3)
        assert len(space_mix.buf_levels) == 12

    def test_decode(self, space_dla):
        assert space_dla.decode((0, 0)) == (1, 19)
        assert space_dla.decode((11, 11)) == (128, 129)
        assert space_dla.decode((4, 2)) == (12, 39)

    def test_decode_mix_includes_style(self, space_mix):
        decoded = space_mix.decode((0, 0, 1))
        assert len(decoded) == 3
        assert decoded[2] in ("dla", "shi", "eye")

    def test_decode_validates(self, space_dla):
        with pytest.raises(ValueError):
            space_dla.decode((0,))
        with pytest.raises(ValueError):
            space_dla.decode((12, 0))
        with pytest.raises(ValueError):
            space_dla.decode((0, -1))

    @pytest.mark.parametrize("mix", [False, True])
    def test_decode_genes_indexes_the_ladders(self, space_dla, space_mix,
                                              mix):
        space = space_mix if mix else space_dla
        per_step = space.actions_per_step
        actions = np.random.default_rng(0).integers(
            space.head_sizes, size=(6, per_step)).tolist()
        expected = [(space.pe_levels[action[0]], space.buf_levels[action[1]])
                    + ((space.dataflows[action[2]],) if mix else ())
                    for action in actions]
        genes = [gene for action in actions for gene in action]
        assert space.decode_genes(genes) == expected
        assert [space.decode(action) for action in actions] == expected
        assert space.decode_genes(np.asarray(genes)) == expected
        assert space.decode_genes([]) == []
        with pytest.raises(ValueError, match="multiple of"):
            space.decode_genes(genes[:-1])

    @pytest.mark.parametrize("mix", [False, True])
    def test_decode_genes_rejects_out_of_range_and_negative_genes(
            self, space_dla, space_mix, mix):
        space = space_mix if mix else space_dla
        names = ("PE level", "buffer level", "dataflow")
        for head, size in enumerate(space.head_sizes):
            for bad in (size, -1, -size):
                genes = [0] * (3 * space.actions_per_step)
                genes[space.actions_per_step + head] = bad
                message = f"{names[head]} index {bad} out of range"
                with pytest.raises(ValueError, match=message):
                    space.decode_genes(genes)
                with pytest.raises(ValueError, match=message):
                    space.decode(genes[space.actions_per_step:
                                       2 * space.actions_per_step])

    @settings(max_examples=200, deadline=None)
    @given(levels=st.sampled_from([10, 12, 14]),
           style=st.sampled_from(["dla", "eye", "shi", "mix"]),
           data=st.data())
    def test_decode_genes_matches_a_gene_by_gene_decode(self, levels, style,
                                                        data):
        """The pair table against indexing each ladder gene by gene: equal
        decodes, and the first bad gene's message (in gene order) when
        any gene is out of range."""
        space = ActionSpace.build(dataflow=style if style != "mix" else "dla",
                                  num_levels=levels, mix=style == "mix")
        ladders = (space.pe_levels, space.buf_levels, space.dataflows)
        names = ("PE level", "buffer level", "dataflow")
        steps = data.draw(st.integers(0, 6))
        genes = [data.draw(st.one_of(st.integers(0, size - 1),
                                     st.integers(-size - 1, size + 1)))
                 for _ in range(steps) for size in space.head_sizes]

        def decode_gene_by_gene():
            decoded = []
            for start in range(0, len(genes), space.actions_per_step):
                action = []
                for head, size in enumerate(space.head_sizes):
                    index = genes[start + head]
                    if not 0 <= index < size:
                        raise ValueError(
                            f"{names[head]} index {index} out of range")
                    action.append(ladders[head][index])
                decoded.append(tuple(action))
            return decoded

        try:
            expected = decode_gene_by_gene()
        except ValueError as error:
            for form in (genes, np.asarray(genes, dtype=np.int64)):
                with pytest.raises(ValueError) as raised:
                    space.decode_genes(form)
                assert str(raised.value) == str(error)
            return
        assert space.decode_genes(genes) == expected
        decoded = space.decode_genes(np.asarray(genes, dtype=np.int64))
        assert decoded == expected
        assert all(type(value) is int for action in decoded
                   for value in action[:2])

    def test_max_action(self, space_dla, space_mix):
        assert space_dla.max_action() == (11, 11)
        assert space_mix.max_action() == (11, 11, 0)

    def test_design_space_size_magnitude(self, space_dla):
        # Section I: O(10^72) for 128 PEs/bufs over 52 layers; the paper's
        # Section IV-C4 quotes 12^104 = O(10^112) for the level space.
        size = space_dla.design_space_size(num_layers=52)
        assert size == pytest.approx(144.0 ** 52)
        assert 1e111 < size < 1e113

    def test_validation_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ActionSpace(pe_levels=(4, 2), buf_levels=(19, 29))
        with pytest.raises(ValueError):
            ActionSpace(pe_levels=(2, 4), buf_levels=(29, 19))
        with pytest.raises(ValueError):
            ActionSpace(pe_levels=(2, 4, 8), buf_levels=(19, 29))

    @pytest.mark.parametrize("levels", [10, 14])
    def test_table9_level_sweeps(self, levels):
        space = ActionSpace.build("dla", num_levels=levels)
        assert space.num_levels == levels
        assert space.head_sizes == (levels, levels)


class TestObservationEncoder:
    def test_dimension_is_10(self, mobilenet_slice, space_dla):
        encoder = ObservationEncoder.for_model(mobilenet_slice, space_dla)
        obs = encoder.encode(mobilenet_slice[0], 0, None)
        assert obs.shape == (OBSERVATION_DIM,)

    def test_values_in_unit_range(self, mobilenet_slice, space_dla):
        encoder = ObservationEncoder.for_model(mobilenet_slice, space_dla)
        for step, layer in enumerate(mobilenet_slice):
            for prev in (None, (0, 0), (11, 11)):
                obs = encoder.encode(layer, step, prev)
                assert np.all(obs >= -1.0) and np.all(obs <= 1.0)

    def test_previous_action_encoded(self, mobilenet_slice, space_dla):
        encoder = ObservationEncoder.for_model(mobilenet_slice, space_dla)
        low = encoder.encode(mobilenet_slice[0], 0, (0, 0))
        high = encoder.encode(mobilenet_slice[0], 0, (11, 11))
        assert low[7] == -1.0 and low[8] == -1.0
        assert high[7] == 1.0 and high[8] == 1.0

    def test_time_dimension_progresses(self, mobilenet_slice, space_dla):
        encoder = ObservationEncoder.for_model(mobilenet_slice, space_dla)
        first = encoder.encode(mobilenet_slice[0], 0, None)[9]
        last = encoder.encode(mobilenet_slice[-1],
                              len(mobilenet_slice) - 1, None)[9]
        assert first == -1.0 and last == 1.0

    def test_rejects_empty_model(self, space_dla):
        with pytest.raises(ValueError):
            ObservationEncoder.for_model([], space_dla)

    def test_distinguishes_layer_types(self, space_dla):
        layers = get_model("mobilenet_v2")[:5]
        encoder = ObservationEncoder.for_model(layers, space_dla)
        conv_obs = encoder.encode(layers[0], 0, None)
        dw_obs = encoder.encode(layers[1], 1, None)
        assert conv_obs[6] != dw_obs[6]
