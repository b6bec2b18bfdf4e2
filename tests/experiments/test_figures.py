"""Figure/table harness modules: structure and rendering (fast configs)."""

import pytest

from repro.experiments import (
    fig2_runtime,
    fig3_heap,
    fig4_cachestats,
    fig5_traffic,
    fig6_utilization,
    fig7_sensitivity,
    table3_models,
)
from repro.experiments.common import ExperimentConfig

FAST = ExperimentConfig(scale=256, iterations=1, sample_timeline=False)
FAST_TL = ExperimentConfig(scale=256, iterations=1, sample_timeline=True)
ONE_MODEL = ("resnet200-large",)
LARGE_MODELS = ("densenet264-large", "resnet200-large", "vgg416-large")
SMALL_MODELS = ("densenet264-small", "resnet200-small", "vgg116-small")
TWO_MODES = ("2LM:0", "CA:LM")


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2_runtime.run(FAST, models=LARGE_MODELS, modes=TWO_MODES)

    def test_structure(self, result):
        assert set(result) == set(LARGE_MODELS)
        assert set(result["resnet200-large"]) == set(TWO_MODES)

    def test_seconds_rescaled(self, result):
        raw = result["resnet200-large"]["CA:LM"].iteration.seconds
        assert fig2_runtime.seconds(result, "resnet200-large", "CA:LM") == raw * 256

    def test_speedup(self, result):
        # CA:LM over 2LM:0 on every large net (paper: 1.4x-2.03x).
        for model in LARGE_MODELS:
            assert fig2_runtime.speedup(result, model) > 1.1, model

    def test_render_mentions_modes(self, result):
        text = fig2_runtime.render(result)
        assert "Figure 2" in text
        assert "CA: LM" in text and "2LM: ∅" in text
        assert "speedup" in text


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3_heap.run(FAST_TL)

    def test_requires_timeline(self):
        with pytest.raises(ValueError):
            fig3_heap.run(FAST)

    def test_gc_run_has_higher_peak(self, result):
        unoptimized, optimized = result["resnet200-large"].values()
        assert fig3_heap.peak_gb(unoptimized) > fig3_heap.peak_gb(optimized)
        # Figure 3's shape: the GC-managed heap overshoots the footprint.
        footprint_gb = unoptimized.footprint_bytes * 256 / 1e9
        assert fig3_heap.peak_gb(unoptimized) > footprint_gb * 1.1

    def test_optimized_peak_is_footprint(self, result):
        optimized = result["resnet200-large"]["2LM:M"]
        footprint_gb = optimized.footprint_bytes * 256 / 1e9
        assert fig3_heap.peak_gb(optimized) == pytest.approx(footprint_gb, rel=0.05)

    def test_render(self, result):
        text = fig3_heap.render(result)
        assert "Figure 3" in text and "2LM:M" in text


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4_cachestats.run(FAST)

    def test_directions(self, result):
        assert fig4_cachestats.hit_rate_uplift(result) > 0
        assert fig4_cachestats.dirty_miss_drop(result) > 0

    def test_render(self, result):
        text = fig4_cachestats.render(result)
        assert "hit" in text and "dirty" in text and "%" in text


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5_traffic.run(
            FAST, models=LARGE_MODELS, modes=("CA:L", "CA:LM", "CA:LMP")
        )

    def test_reduction_factors(self, result):
        for model in LARGE_MODELS:
            assert fig5_traffic.nvram_write_drop_with_memopt(result, model) > 1.0
            assert fig5_traffic.nvram_read_drop_with_prefetch(result, model) > 1.0

    def test_render(self, result):
        text = fig5_traffic.render(result)
        assert "NVRAM read" in text and "GB" in text


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6_utilization.run(
            FAST, models=("resnet200-large", "vgg416-large"), modes=("2LM:0", "CA:0")
        )

    def test_utilizations_in_unit_range(self, result):
        for model, by_mode in result.items():
            for mode in by_mode:
                assert 0.0 < fig6_utilization.utilization(result, model, mode) < 1.0

    def test_ca0_beats_2lm0_for_resnet_and_loses_for_vgg(self, result):
        resnet, vgg = "resnet200-large", "vgg416-large"
        util = fig6_utilization.utilization
        assert util(result, resnet, "CA:0") > util(result, resnet, "2LM:0")
        assert util(result, vgg, "CA:0") < util(result, vgg, "2LM:0")

    def test_render(self, result):
        assert "utilisation" in fig6_utilization.render(result)


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7_sensitivity.run(
            FAST, models=SMALL_MODELS, budgets_gb=(180, 45, 20, 0)
        )

    def test_monotone_slowdown(self, result):
        # Less DRAM is never faster.
        for model in SMALL_MODELS:
            t180, t45, t20, t0 = (result.seconds(model, gb) for gb in (180, 45, 20, 0))
            assert t180 < t45 < t20 < t0, model

    def test_penalty(self, result):
        assert result.nvram_only_penalty("densenet264-small") > 2.0
        for model in SMALL_MODELS:
            assert result.nvram_only_penalty(model) > 1.5, model

    def test_async_at_most_wall(self, result):
        for budget in (180, 45, 0):
            assert result.async_seconds("densenet264-small", budget) <= (
                result.seconds("densenet264-small", budget) + 1e-9
            )

    def test_render(self, result):
        text = fig7_sensitivity.render(result)
        assert "DRAM budget" in text and "NVRAM-only penalty" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3_models.run()

    def test_six_rows(self, result):
        assert len(result.rows) == 6

    def test_errors_within_band(self, result):
        for row in result.rows:
            if row.relative_error is not None:
                assert abs(row.relative_error) < 0.18

    def test_render(self, result):
        text = table3_models.render(result)
        assert "Table III" in text
        assert "ResNet 200" in text and "VGG 416" in text
