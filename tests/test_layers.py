"""Unit tests for the Layer record and its derived quantities."""

import pytest

from repro.models.layers import (
    Layer,
    LayerType,
    ModelSummary,
    gemm_layer,
    summarize,
)


class TestLayerValidation:
    def test_valid_conv(self):
        layer = Layer("l", LayerType.CONV, K=8, C=4, Y=16, X=16, R=3, S=3)
        assert layer.K == 8

    @pytest.mark.parametrize("dim", ["K", "C", "Y", "X", "R", "S", "stride"])
    def test_rejects_nonpositive_dims(self, dim):
        kwargs = dict(K=8, C=4, Y=16, X=16, R=3, S=3, stride=1)
        kwargs[dim] = 0
        with pytest.raises(ValueError, match="positive integer"):
            Layer("l", LayerType.CONV, **kwargs)

    @pytest.mark.parametrize("dim", ["K", "C"])
    def test_rejects_non_integer_dims(self, dim):
        kwargs = dict(K=8, C=4, Y=16, X=16, R=3, S=3)
        kwargs[dim] = 2.5
        with pytest.raises(ValueError):
            Layer("l", LayerType.CONV, **kwargs)

    def test_rejects_kernel_larger_than_input(self):
        with pytest.raises(ValueError, match="kernel"):
            Layer("l", LayerType.CONV, K=8, C=4, Y=2, X=16, R=3, S=3)

    def test_dwconv_requires_equal_channels(self):
        with pytest.raises(ValueError, match="K == C"):
            Layer("l", LayerType.DWCONV, K=8, C=4, Y=16, X=16, R=3, S=3)

    def test_pwconv_requires_1x1(self):
        with pytest.raises(ValueError, match="1x1"):
            Layer("l", LayerType.PWCONV, K=8, C=4, Y=16, X=16, R=3, S=3)

    def test_frozen(self):
        layer = Layer("l", LayerType.CONV, K=8, C=4, Y=16, X=16, R=3, S=3)
        with pytest.raises(AttributeError):
            layer.K = 16


class TestDerivedQuantities:
    def test_output_dims_valid_padding(self):
        layer = Layer("l", LayerType.CONV, K=8, C=4, Y=16, X=10, R=3, S=3)
        assert layer.out_y == 14
        assert layer.out_x == 8

    def test_output_dims_with_stride(self):
        layer = Layer("l", LayerType.CONV, K=8, C=4, Y=17, X=17, R=3, S=3,
                      stride=2)
        assert layer.out_y == 8
        assert layer.out_x == 8

    def test_conv_macs(self):
        layer = Layer("l", LayerType.CONV, K=8, C=4, Y=6, X=6, R=3, S=3)
        assert layer.macs == 8 * 4 * 4 * 4 * 9

    def test_dwconv_macs_no_channel_reduction(self):
        layer = Layer("l", LayerType.DWCONV, K=4, C=4, Y=6, X=6, R=3, S=3)
        assert layer.macs == 4 * 4 * 4 * 9

    def test_pwconv_macs(self):
        layer = Layer("l", LayerType.PWCONV, K=8, C=4, Y=6, X=6)
        assert layer.macs == 8 * 4 * 36

    def test_weight_elements_conv(self):
        layer = Layer("l", LayerType.CONV, K=8, C=4, Y=6, X=6, R=3, S=3)
        assert layer.weight_elements == 8 * 4 * 9

    def test_weight_elements_dwconv(self):
        layer = Layer("l", LayerType.DWCONV, K=4, C=4, Y=6, X=6, R=3, S=3)
        assert layer.weight_elements == 4 * 9

    def test_input_output_elements(self):
        layer = Layer("l", LayerType.CONV, K=8, C=4, Y=6, X=6, R=3, S=3)
        assert layer.input_elements == 4 * 36
        assert layer.output_elements == 8 * 16


class TestGemmLayer:
    def test_mapping_follows_footnote3(self):
        layer = gemm_layer("g", m=64, n=32, k=128)
        assert layer.layer_type is LayerType.GEMM
        assert (layer.K, layer.C, layer.Y) == (64, 128, 32)
        assert (layer.X, layer.R, layer.S) == (1, 1, 1)

    def test_gemm_macs(self):
        layer = gemm_layer("g", m=64, n=32, k=128)
        assert layer.macs == 64 * 32 * 128

    def test_gemm_weight_elements(self):
        layer = gemm_layer("g", m=64, n=32, k=128)
        assert layer.weight_elements == 64 * 128


class TestLayerType:
    def test_integer_values_are_stable(self):
        # These feed the observation encoding; changing them is breaking.
        assert list(LayerType) == [LayerType.CONV, LayerType.DWCONV,
                                   LayerType.PWCONV, LayerType.GEMM]
        assert [t.value for t in LayerType] == [0, 1, 2, 3]


class TestSummarize:
    def test_summary_counts(self, tiny_model):
        summary = summarize("tiny", tiny_model)
        assert isinstance(summary, ModelSummary)
        assert summary.num_layers == 4
        assert summary.total_macs == sum(l.macs for l in tiny_model)
        assert summary.layer_type_counts == {
            "CONV": 1, "DWCONV": 1, "PWCONV": 1, "GEMM": 1}

    def test_summary_weights(self, tiny_model):
        summary = summarize("tiny", tiny_model)
        assert summary.total_weights == sum(
            l.weight_elements for l in tiny_model)
