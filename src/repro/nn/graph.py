"""Layer DAGs lowered to kernel traces with exact lifetimes.

:class:`GraphBuilder` provides an imperative model-building API (conv /
norm-act / pool / linear / add / concat). Each operation appends a
:class:`Node` and returns a :class:`TensorHandle`. ``training_trace()``
lowers the DAG to one training iteration:

* **forward** — per node: allocate the output, run the kernel;
* **backward** — reverse topological order; each node's backward kernel
  reads the output gradient, the node's saved inputs, and its parameters,
  and writes input gradients (accumulating across consumers) and parameter
  gradients. The output activation and output gradient die immediately
  after — producing exactly the first-in-last-out activation lifetime the
  paper exploits (Section III-E);
* **update** — one SGD kernel per parameter; weights and their gradients
  persist across iterations (the paper leaves "only the model weights and
  computed gradients" after the end-of-iteration GC).

FLOP counts are the standard analytic ones (2·N·K·C·R·S·H'·W' per conv);
backward kernels cost twice the forward. ``read_factor`` models cache-
blocking re-reads of large operands inside oneDNN kernels and is the
per-model calibration knob discussed in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, TraceError
from repro.workloads.trace import (
    Alloc,
    Free,
    IterEnd,
    Kernel,
    KernelTrace,
    TensorSpec,
)

__all__ = ["TensorHandle", "Node", "GraphBuilder"]

DTYPE_BYTES = 4  # fp32 everywhere, like the paper's oneDNN training


@dataclass(frozen=True)
class TensorHandle:
    """A tensor in the model graph (activations, parameters, gradients)."""

    name: str
    shape: tuple[int, ...]
    kind: str = "activation"
    persistent: bool = False

    @property
    def elements(self) -> int:
        return int(math.prod(self.shape))

    @property
    def nbytes(self) -> int:
        return self.elements * DTYPE_BYTES


@dataclass
class Node:
    """One layer-level operation in the DAG."""

    name: str
    op: str
    inputs: list[TensorHandle]
    params: list[TensorHandle]
    output: TensorHandle
    flops: float
    read_factor: float = 1.0
    needs_grad: bool = True  # whether input gradients are produced


class GraphBuilder:
    """Imperative CNN builder producing per-iteration kernel traces."""

    def __init__(
        self,
        batch: int,
        input_hw: tuple[int, int] = (224, 224),
        in_channels: int = 3,
        *,
        name: str = "model",
        conv_read_factor: float = 1.0,
        read_sensitivity: float = 0.2,
        input_shape: tuple[int, ...] | None = None,
    ) -> None:
        if batch < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {batch}")
        self.batch = batch
        self.name = name
        self.conv_read_factor = conv_read_factor
        self.read_sensitivity = read_sensitivity
        self.nodes: list[Node] = []
        self._names: set[str] = set()
        self._counter = 0
        if input_shape is not None:
            if input_shape[0] != batch:
                raise ConfigurationError(
                    f"input_shape {input_shape} must lead with batch {batch}"
                )
            shape = input_shape
        else:
            shape = (batch, in_channels, *input_hw)
        self.input = self._tensor("input", shape, kind="input")
        self.output: TensorHandle | None = None
        # Persistent tensors that must be resident even if no kernel of this
        # iteration touches them (e.g. cold mixture-of-experts weights).
        self.resident: list[TensorHandle] = []

    # -- tensor bookkeeping ------------------------------------------------

    def _tensor(
        self,
        label: str,
        shape: tuple[int, ...],
        kind: str = "activation",
        persistent: bool = False,
    ) -> TensorHandle:
        self._counter += 1
        name = f"{label}.{self._counter}"
        if name in self._names:  # pragma: no cover - counter guarantees unique
            raise TraceError(f"duplicate tensor {name!r}")
        self._names.add(name)
        return TensorHandle(name, shape, kind, persistent)

    def _node(
        self,
        op: str,
        inputs: list[TensorHandle],
        params: list[TensorHandle],
        out_shape: tuple[int, ...],
        flops: float,
        *,
        read_factor: float = 1.0,
        label: str | None = None,
    ) -> TensorHandle:
        output = self._tensor(label or op, out_shape)
        self.nodes.append(
            Node(
                name=f"{op}{len(self.nodes)}",
                op=op,
                inputs=list(inputs),
                params=list(params),
                output=output,
                flops=flops,
                read_factor=read_factor,
            )
        )
        return output

    # -- layers ------------------------------------------------------------------

    def conv(
        self,
        x: TensorHandle,
        out_channels: int,
        kernel: int = 3,
        stride: int = 1,
        padding: int | None = None,
    ) -> TensorHandle:
        """Convolution fused with batch-norm + activation (the oneDNN
        post-op fusion the paper's kernels use)."""
        n, c, h, w = x.shape
        if padding is None:
            padding = kernel // 2
        oh = (h + 2 * padding - kernel) // stride + 1
        ow = (w + 2 * padding - kernel) // stride + 1
        if oh <= 0 or ow <= 0:
            raise ConfigurationError(
                f"conv reduces {x.shape} to non-positive spatial dims"
            )
        weight = self._tensor(
            "w_conv", (out_channels, c, kernel, kernel), kind="weight", persistent=True
        )
        bias = self._tensor("b_conv", (out_channels,), kind="weight", persistent=True)
        flops = 2.0 * n * out_channels * c * kernel * kernel * oh * ow
        return self._node(
            "convbnrelu",
            [x],
            [weight, bias],
            (n, out_channels, oh, ow),
            flops,
            read_factor=self.conv_read_factor,
        )

    def norm_act(self, x: TensorHandle) -> TensorHandle:
        """Stand-alone batch-norm + activation (materialises its output)."""
        scale = self._tensor("w_bn", (x.shape[1], 2), kind="weight", persistent=True)
        flops = 8.0 * x.elements
        return self._node("bnrelu", [x], [scale], x.shape, flops)

    def pool(self, x: TensorHandle, kernel: int = 2, stride: int | None = None) -> TensorHandle:
        n, c, h, w = x.shape
        stride = stride or kernel
        oh, ow = (h - kernel) // stride + 1, (w - kernel) // stride + 1
        flops = 1.0 * n * c * oh * ow * kernel * kernel
        return self._node("pool", [x], [], (n, c, oh, ow), flops)

    def global_pool(self, x: TensorHandle) -> TensorHandle:
        n, c, h, w = x.shape
        return self._node("gpool", [x], [], (n, c), 1.0 * x.elements)

    def linear(self, x: TensorHandle, out_features: int) -> TensorHandle:
        n = x.shape[0]
        in_features = x.elements // n
        weight = self._tensor(
            "w_fc", (out_features, in_features), kind="weight", persistent=True
        )
        bias = self._tensor("b_fc", (out_features,), kind="weight", persistent=True)
        flops = 2.0 * n * in_features * out_features
        flat = (n, in_features)
        if x.shape != flat:
            x = self._node("reshape", [x], [], flat, 0.0)
        return self._node("fc", [x], [weight, bias], (n, out_features), flops)

    def add(self, x: TensorHandle, y: TensorHandle) -> TensorHandle:
        if x.shape != y.shape:
            raise ConfigurationError(f"add shape mismatch: {x.shape} vs {y.shape}")
        return self._node("add", [x, y], [], x.shape, 1.0 * x.elements)

    def concat(self, xs: list[TensorHandle]) -> TensorHandle:
        if len(xs) < 2:
            raise ConfigurationError("concat needs at least two inputs")
        n, _, h, w = xs[0].shape
        for x in xs[1:]:
            if (x.shape[0], x.shape[2], x.shape[3]) != (n, h, w):
                raise ConfigurationError(f"concat mismatch: {x.shape}")
        channels = sum(x.shape[1] for x in xs)
        out_shape = (n, channels, h, w)
        elements = n * channels * h * w
        return self._node("concat", xs, [], out_shape, 1.0 * elements)

    def parameter(
        self, label: str, shape: tuple[int, ...], *, always_resident: bool = False
    ) -> TensorHandle:
        """Declare a persistent parameter tensor for use with custom ops.

        Sharing the returned handle across several ops models weight tying
        (e.g. mixture-of-experts layers reused by every block); the lowering
        allocates it once and emits a single SGD update for it.
        ``always_resident`` forces allocation even when no kernel of the
        traced iteration touches the tensor — the capacity burden of cold
        experts.
        """
        handle = self._tensor(label, shape, kind="weight", persistent=True)
        if always_resident:
            self.resident.append(handle)
        return handle

    def custom_op(
        self,
        op: str,
        inputs: list[TensorHandle],
        out_shape: tuple[int, ...],
        flops: float,
        *,
        params: list[tuple[str, tuple[int, ...]] | TensorHandle] | None = None,
        read_factor: float = 1.0,
    ) -> TensorHandle:
        """Public extension point: add an op the built-ins do not cover.

        ``params`` declares the op's persistent parameters, either as
        (label, shape) pairs (created fresh) or as pre-declared
        :meth:`parameter` handles (shared across ops). Parameters receive
        gradient tensors and SGD updates like any built-in layer's. Used by
        the transformer/MoE builders (:mod:`repro.nn.transformer`).
        """
        param_handles = [
            p
            if isinstance(p, TensorHandle)
            else self._tensor(p[0], p[1], kind="weight", persistent=True)
            for p in (params or [])
        ]
        return self._node(
            op, inputs, param_handles, out_shape, flops, read_factor=read_factor
        )

    def classifier(self, x: TensorHandle, classes: int = 1000) -> TensorHandle:
        """Final linear + softmax cross-entropy head; marks the graph output."""
        logits = self.linear(x, classes)
        loss = self._node("softmax_xent", [logits], [], (x.shape[0],), 5.0 * logits.elements)
        self.output = loss
        return loss

    # -- statistics -----------------------------------------------------------------

    def parameter_bytes(self) -> int:
        return sum(p.nbytes for node in self.nodes for p in node.params)

    def activation_bytes(self) -> int:
        return sum(node.output.nbytes for node in self.nodes)

    # -- lowering -------------------------------------------------------------------

    def training_trace(self) -> KernelTrace:
        """Lower the DAG to one training iteration with exact lifetimes."""
        if self.output is None:
            raise ConfigurationError("call classifier() before training_trace()")
        trace = KernelTrace(name=f"{self.name}-b{self.batch}")
        producer: dict[str, Node] = {}
        consumers: dict[str, list[Node]] = {}
        for node in self.nodes:
            producer[node.output.name] = node
            for x in node.inputs:
                consumers.setdefault(x.name, []).append(node)

        def spec(handle: TensorHandle, kind: str | None = None) -> TensorSpec:
            return TensorSpec(
                handle.name,
                handle.nbytes,
                kind=kind or handle.kind,
                persistent=handle.persistent,
            )

        def grad_name(handle: TensorHandle) -> str:
            return f"grad({handle.name})"

        # Tensor table: input, activations, params, and their gradients.
        trace.add_tensor(spec(self.input))
        registered_params: set[str] = set()
        registered_grads: set[str] = set()
        for handle in self.resident:
            registered_params.add(handle.name)
            trace.add_tensor(spec(handle))
        for node in self.nodes:
            trace.add_tensor(spec(node.output))
            for p in node.params:
                if p.name not in registered_params:
                    registered_params.add(p.name)
                    trace.add_tensor(spec(p))
                if grad_name(p) not in registered_grads:
                    registered_grads.add(grad_name(p))
                    trace.add_tensor(
                        TensorSpec(
                            grad_name(p), p.nbytes, kind="gradient", persistent=True
                        )
                    )
        for node in self.nodes:
            out = node.output
            if out is not self.output:
                trace.add_tensor(
                    TensorSpec(grad_name(out), out.nbytes, kind="gradient")
                )
        # --- allocation of persistent state up front ---
        trace.append(Alloc(self.input.name))
        seen_params: set[str] = set()
        seen_grads: set[str] = set()
        for handle in self.resident:
            seen_params.add(handle.name)
            trace.append(Alloc(handle.name))
        for node in self.nodes:
            for p in node.params:
                if p.name not in seen_params:
                    seen_params.add(p.name)
                    trace.append(Alloc(p.name))
                if grad_name(p) not in seen_grads:
                    seen_grads.add(grad_name(p))
                    trace.append(Alloc(grad_name(p)))

        # --- forward pass ---
        for node in self.nodes:
            trace.append(Alloc(node.output.name))
            trace.append(
                Kernel(
                    name=f"fwd:{node.name}",
                    reads=tuple(x.name for x in node.inputs)
                    + tuple(p.name for p in node.params),
                    writes=(node.output.name,),
                    flops=node.flops,
                    phase="forward",
                    read_factor=node.read_factor,
                    read_sensitivity=self.read_sensitivity,
                )
            )

        # --- backward pass (reverse topological order) ---
        grad_allocated: set[str] = set()
        for node in reversed(self.nodes):
            out = node.output
            gout = grad_name(out)
            if out is self.output:
                # The loss node's backward seeds its own gradient chain; no
                # incoming gradient tensor exists.
                grad_reads: tuple[str, ...] = ()
            else:
                grad_reads = (gout,)
            grad_writes: list[str] = []
            for x in node.inputs:
                if x is self.input:
                    continue
                gx = grad_name(x)
                if gx not in grad_allocated:
                    grad_allocated.add(gx)
                    trace.append(Alloc(gx))
                grad_writes.append(gx)
            for p in node.params:
                grad_writes.append(grad_name(p))
            trace.append(
                Kernel(
                    name=f"bwd:{node.name}",
                    reads=grad_reads
                    + tuple(x.name for x in node.inputs)
                    + tuple(p.name for p in node.params),
                    writes=tuple(grad_writes),
                    flops=2.0 * node.flops,
                    phase="backward",
                    read_factor=node.read_factor,
                    read_sensitivity=self.read_sensitivity,
                )
            )
            # The output activation and its gradient die here: every consumer
            # of `out` sits later in topological order, so its backward kernel
            # has already run. First-in-last-out, as in Section III-E.
            if out is not self.output:
                trace.append(Free(gout))
            trace.append(Free(out.name))

        # --- parameter update (shared parameters update exactly once) ---
        updated: set[str] = set()
        for node in self.nodes:
            for p in node.params:
                if p.name in updated:
                    continue
                updated.add(p.name)
                trace.append(
                    Kernel(
                        name=f"sgd:{p.name}",
                        reads=(grad_name(p),),
                        writes=(p.name,),
                        flops=2.0 * p.elements,
                        phase="update",
                    )
                )
        trace.append(Free(self.input.name))
        trace.append(IterEnd())
        trace.validate()
        return trace
