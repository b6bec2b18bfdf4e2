"""Graph builder: shapes, flops, and trace lowering with exact lifetimes."""

import pytest

from repro.errors import ConfigurationError
from repro.nn.graph import GraphBuilder
from repro.workloads.trace import Alloc, Free, Kernel


def tiny_net(batch=2):
    g = GraphBuilder(batch, input_hw=(8, 8), in_channels=3, name="tiny")
    x = g.conv(g.input, 4, kernel=3)
    x = g.pool(x, 2)
    x = g.global_pool(x)
    g.classifier(x, classes=10)
    return g


class TestShapes:
    def test_conv_shape(self):
        g = GraphBuilder(2, input_hw=(8, 8))
        out = g.conv(g.input, 16, kernel=3, stride=2)
        assert out.shape == (2, 16, 4, 4)

    def test_conv_custom_padding(self):
        g = GraphBuilder(1, input_hw=(8, 8))
        out = g.conv(g.input, 4, kernel=7, stride=2, padding=3)
        assert out.shape == (1, 4, 4, 4)

    def test_conv_invalid_geometry(self):
        g = GraphBuilder(1, input_hw=(2, 2))
        with pytest.raises(ConfigurationError):
            g.conv(g.input, 4, kernel=5, stride=1, padding=0)

    def test_pool_shape(self):
        g = GraphBuilder(2, input_hw=(8, 8))
        out = g.pool(g.conv(g.input, 4), 2)
        assert out.shape == (2, 4, 4, 4)

    def test_add_requires_matching_shapes(self):
        g = GraphBuilder(1, input_hw=(8, 8))
        a = g.conv(g.input, 4)
        b = g.conv(g.input, 8)
        with pytest.raises(ConfigurationError):
            g.add(a, b)

    def test_concat_sums_channels(self):
        g = GraphBuilder(1, input_hw=(8, 8))
        a = g.conv(g.input, 4)
        b = g.conv(g.input, 6)
        assert g.concat([a, b]).shape == (1, 10, 8, 8)

    def test_concat_requires_two(self):
        g = GraphBuilder(1)
        with pytest.raises(ConfigurationError):
            g.concat([g.input])

    def test_linear_flattens(self):
        g = GraphBuilder(2, input_hw=(4, 4))
        out = g.linear(g.conv(g.input, 4), 10)
        assert out.shape == (2, 10)


class TestFlops:
    def test_conv_flops_formula(self):
        g = GraphBuilder(2, input_hw=(8, 8), in_channels=3)
        g.conv(g.input, 16, kernel=3)
        node = g.nodes[-1]
        assert node.flops == 2.0 * 2 * 16 * 3 * 9 * 8 * 8


class TestTraceLowering:
    def test_requires_classifier(self):
        g = GraphBuilder(1)
        g.conv(g.input, 4)
        with pytest.raises(ConfigurationError):
            g.training_trace()

    def test_trace_validates(self):
        tiny_net().training_trace().validate()

    def test_backward_kernel_per_forward_kernel(self):
        trace = tiny_net().training_trace()
        fwd = sum(1 for k in trace.kernels() if k.phase == "forward")
        bwd = sum(1 for k in trace.kernels() if k.phase == "backward")
        assert fwd == bwd

    def test_backward_flops_double_forward(self):
        trace = tiny_net().training_trace()
        fwd = sum(k.flops for k in trace.kernels() if k.phase == "forward")
        bwd = sum(k.flops for k in trace.kernels() if k.phase == "backward")
        assert bwd == pytest.approx(2 * fwd)

    def test_one_update_kernel_per_parameter(self):
        g = tiny_net()
        trace = g.training_trace()
        updates = sum(1 for k in trace.kernels() if k.phase == "update")
        params = sum(len(n.params) for n in g.nodes)
        assert updates == params

    def test_weights_and_grads_persistent(self):
        trace = tiny_net().training_trace()
        for name, spec in trace.tensors.items():
            if name.startswith(("w_", "b_")) or name.startswith("grad(w_"):
                assert spec.persistent, name

    def test_filo_activation_lifetimes(self):
        """Forward outputs free in exact reverse order of allocation."""
        g = GraphBuilder(1, input_hw=(16, 16), name="chain")
        x = g.input
        for _ in range(4):
            x = g.conv(x, 4)
        g.classifier(g.global_pool(x), classes=4)
        trace = g.training_trace()
        conv_outs = [n.output.name for n in g.nodes if n.op == "convbnrelu"]
        free_order = [
            e.tensor for e in trace.events
            if isinstance(e, Free) and e.tensor in conv_outs
        ]
        assert free_order == list(reversed(conv_outs))

    def test_activation_freed_after_own_backward(self):
        trace = tiny_net().training_trace()
        events = trace.events
        for index, event in enumerate(events):
            if isinstance(event, Free):
                # The freed tensor must not be used by any later event.
                for later in events[index:]:
                    if isinstance(later, Kernel):
                        assert event.tensor not in later.reads
                        assert event.tensor not in later.writes

    def test_residual_graph_lowering(self):
        g = GraphBuilder(1, input_hw=(8, 8), name="res")
        a = g.conv(g.input, 4)
        b = g.conv(a, 4)
        c = g.add(a, b)  # `a` consumed twice
        g.classifier(g.global_pool(c), classes=2)
        trace = g.training_trace()
        trace.validate()

    def test_grad_accumulation_for_multi_consumer(self):
        g = GraphBuilder(1, input_hw=(8, 8), name="res")
        a = g.conv(g.input, 4)
        b = g.conv(a, 4)
        c = g.add(a, b)
        g.classifier(g.global_pool(c), classes=2)
        trace = g.training_trace()
        grad_a = f"grad({a.name})"
        writers = [
            k.name for k in trace.kernels() if grad_a in k.writes
        ]
        assert len(writers) == 2  # add-backward and conv(b)-backward

    def test_read_sensitivity_propagates(self):
        g = GraphBuilder(1, input_hw=(8, 8), read_sensitivity=0.7)
        g.classifier(g.global_pool(g.conv(g.input, 4)), classes=2)
        trace = g.training_trace()
        conv_kernels = [k for k in trace.kernels() if "convbnrelu" in k.name]
        assert all(k.read_sensitivity == 0.7 for k in conv_kernels)

    def test_peak_live_close_to_activation_sum(self):
        g = tiny_net(batch=4)
        trace = g.training_trace()
        assert trace.peak_live_bytes() >= g.activation_bytes()
