"""The Table III model zoo: architecture and footprint pins."""

import pytest

from repro.errors import ConfigurationError
from repro.nn.models import (
    MODEL_REGISTRY,
    VGG116_STAGES,
    VGG416_STAGES,
    densenet264,
    resnet200,
    vgg,
)
from repro.units import GB


class TestRegistry:
    def test_six_table3_rows(self):
        assert len(MODEL_REGISTRY) == 6
        assert {spec.size_class for spec in MODEL_REGISTRY.values()} == {
            "large",
            "small",
        }

    def test_batch_sizes_match_paper(self):
        batches = {key: spec.batch for key, spec in MODEL_REGISTRY.items()}
        assert batches == {
            "densenet264-large": 1536,
            "resnet200-large": 2048,
            "vgg416-large": 256,
            "densenet264-small": 504,
            "resnet200-small": 640,
            "vgg116-small": 320,
        }


class TestArchitectures:
    def test_vgg_stage_counts_sum_to_name(self):
        assert sum(VGG416_STAGES) == 416
        assert sum(VGG116_STAGES) == 116

    def test_vgg_conv_count(self):
        g = vgg((1, 1, 1, 1, 1), batch=1)
        convs = [n for n in g.nodes if n.op == "convbnrelu"]
        assert len(convs) == 5

    def test_vgg_rejects_bad_stages(self):
        with pytest.raises(ConfigurationError):
            vgg((1, 1, 1, 1), 1)  # type: ignore[arg-type]
        with pytest.raises(ConfigurationError):
            vgg((0, 1, 1, 1, 1), 1)

    def test_resnet200_conv_count(self):
        g = resnet200(batch=1)
        convs = [n for n in g.nodes if n.op == "convbnrelu"]
        # [3,24,36,3] bottlenecks x 3 convs + 4 downsample convs + stem
        assert len(convs) == 66 * 3 + 4 + 1

    def test_resnet_has_residual_adds(self):
        g = resnet200(batch=1)
        assert sum(1 for n in g.nodes if n.op == "add") == 66

    def test_densenet_layer_count(self):
        g = densenet264(batch=1)
        # Each dense layer: 1x1 + 3x3 conv -> 130 layers x 2 + stem + 3 transitions
        convs = [n for n in g.nodes if n.op == "convbnrelu"]
        assert len(convs) == 130 * 2 + 1 + 3

    def test_densenet_concat_growth(self):
        g = densenet264(batch=1, growth=32)
        concats = [n for n in g.nodes if n.op == "concat"]
        # block concats: (layers-1) per block inputs + 1 final per block
        assert len(concats) == (5 + 11 + 63 + 47) + 4

    def test_densenet_compression_validated(self):
        with pytest.raises(ConfigurationError):
            densenet264(1, compression=0.0)


class TestFootprints:
    """Table III pins: measured peak-live vs paper-reported footprints."""

    @pytest.mark.parametrize(
        "key", ["densenet264-large", "resnet200-large", "vgg416-large"]
    )
    def test_large_footprints_match_paper(self, key):
        spec = MODEL_REGISTRY[key]
        measured = spec.builder().training_trace().peak_live_bytes()
        assert spec.paper_footprint is not None
        error = abs(measured - spec.paper_footprint) / spec.paper_footprint
        # Exact materialisation choices of the Julia impl are unknowable;
        # DESIGN.md documents the +-17% band these land in.
        assert error < 0.18, f"{key}: {measured / GB:.0f} GB vs paper"

    @pytest.mark.parametrize(
        "key", ["densenet264-small", "resnet200-small", "vgg116-small"]
    )
    def test_small_footprints_fit_paper_window(self, key):
        """Small-network batches were chosen to need roughly 170-180 GB."""
        measured = MODEL_REGISTRY[key].builder().training_trace().peak_live_bytes()
        assert 120 * GB < measured < 190 * GB

    def test_footprint_scales_linearly_with_batch(self):
        small = resnet200(batch=64).training_trace().peak_live_bytes()
        large = resnet200(batch=128).training_trace().peak_live_bytes()
        assert large / small == pytest.approx(2.0, rel=0.02)


class TestCalibration:
    def test_vgg_is_read_sensitive(self):
        g = vgg(VGG116_STAGES, batch=1)
        assert g.read_sensitivity == 1.0
        assert g.conv_read_factor > 1.0

    def test_resnet_densenet_read_insensitive(self):
        assert resnet200(batch=1).read_sensitivity < 0.5
        assert densenet264(batch=1).read_sensitivity < 0.5
