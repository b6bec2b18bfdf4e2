"""Tape autograd over CachedArray-backed tensors.

This is the real-compute proof of the framework: every tensor of a training
run — parameters, activations, gradients — lives in policy-managed regions
of (real-backed) devices, every kernel runs inside a ``session.kernel``
scope (hints -> residency -> pin -> compute -> dirty), and each activation
and its gradient are *retired* as soon as the backward step that needed them
completes — the **M** optimisation of Section IV applied layer by layer
(Section III-E). Training converges exactly like plain numpy while the
policy shuffles data between (real-backed) DRAM and NVRAM underneath.

Deliberately small: enough ops for MLPs and small CNNs (conv / linear /
relu / maxpool / softmax-xent), not a framework.

Lifetime rule: an op's *output* activation and output gradient die right
after the op's own backward step runs — by then every consumer's backward
(which reads the activation) and this op's backward (which reads the
gradient) have completed, because backward replays the tape newest-first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.cachedarray import CachedArray
from repro.core.session import Session
from repro.errors import KernelError
from repro.nn import ops

__all__ = ["Var", "Tape"]


@dataclass
class Var:
    """A differentiable CachedArray."""

    array: CachedArray
    requires_grad: bool = False
    grad: CachedArray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def session(self) -> Session:
        return self.array.session

    def ensure_grad(self) -> CachedArray:
        if self.grad is None:
            self.grad = self.session.zeros(
                self.shape, self.array.dtype, name=f"grad({self.array.obj.name})"
            )
        return self.grad

    def retire(self) -> None:
        """Declare the value (and any gradient) dead."""
        if not self.array.retired:
            self.array.retire()
        if self.grad is not None and not self.grad.retired:
            self.grad.retire()


@dataclass
class _TapeEntry:
    backward: Callable[[], None]
    output: Var  # dies (with its gradient) right after `backward` runs


class Tape:
    """Records forward ops; ``backward()`` replays adjoints in reverse."""

    def __init__(self, session: Session) -> None:
        self.session = session
        self._entries: list[_TapeEntry] = []
        self._activations: set[int] = set()  # obj ids of op outputs
        self._loss: float | None = None

    # -- tensor creation -----------------------------------------------------

    def parameter(self, data: np.ndarray, name: str = "") -> Var:
        return Var(
            self.session.from_numpy(data.astype(np.float32), name=name),
            requires_grad=True,
        )

    def input(self, data: np.ndarray, name: str = "input") -> Var:
        return Var(
            self.session.from_numpy(data.astype(np.float32), name=name),
            requires_grad=False,
        )

    def _output(self, values: np.ndarray, name: str) -> Var:
        var = Var(self.session.empty(values.shape, np.float32, name=name))
        var.array.write(values)
        self._activations.add(var.array.obj.id)
        return var

    # -- gradient plumbing ------------------------------------------------------

    def _needs_grad(self, var: Var) -> bool:
        """Parameters and intermediate activations carry gradients; leaf
        inputs without requires_grad (the data batch) do not."""
        return var.requires_grad or var.array.obj.id in self._activations

    def _accumulate(self, var: Var, delta: np.ndarray) -> None:
        grad = var.ensure_grad()
        with self.session.kernel(reads=[grad], writes=[grad], hints=False) as (
            (current,),
            (out,),
        ):
            out[...] = current + delta

    # -- ops -----------------------------------------------------------------------

    def conv2d(
        self, x: Var, weight: Var, bias: Var, stride: int = 1, padding: int = 1
    ) -> Var:
        session = self.session
        with session.kernel(reads=[x.array, weight.array, bias.array]) as (
            (xv, wv, bv),
            _,
        ):
            out_np, cols = ops.conv2d_forward(xv, wv, bv, stride, padding)
        out = self._output(out_np, "conv.out")
        x_shape = x.shape

        def backward() -> None:
            grad_out = out.ensure_grad().read()
            with session.kernel(reads=[weight.array]) as ((wv,), _):
                grad_x, grad_w, grad_b = ops.conv2d_backward(
                    grad_out, x_shape, cols, wv, stride, padding
                )
            if weight.requires_grad:
                self._accumulate(weight, grad_w)
            if bias.requires_grad:
                self._accumulate(bias, grad_b)
            if self._needs_grad(x):
                self._accumulate(x, grad_x)

        self._entries.append(_TapeEntry(backward, out))
        return out

    def linear(self, x: Var, weight: Var, bias: Var) -> Var:
        session = self.session
        with session.kernel(reads=[x.array, weight.array, bias.array]) as (
            (xv, wv, bv),
            _,
        ):
            out_np = ops.linear_forward(xv, wv, bv)
        out = self._output(out_np, "fc.out")

        def backward() -> None:
            grad_out = out.ensure_grad().read()
            with session.kernel(reads=[x.array, weight.array]) as ((xv, wv), _):
                grad_x, grad_w, grad_b = ops.linear_backward(grad_out, xv, wv)
            if weight.requires_grad:
                self._accumulate(weight, grad_w)
            if bias.requires_grad:
                self._accumulate(bias, grad_b)
            if self._needs_grad(x):
                self._accumulate(x, grad_x)

        self._entries.append(_TapeEntry(backward, out))
        return out

    def relu(self, x: Var) -> Var:
        session = self.session
        with session.kernel(reads=[x.array]) as ((xv,), _):
            out_np = ops.relu_forward(xv)
        out = self._output(out_np, "relu.out")

        def backward() -> None:
            grad_out = out.ensure_grad().read()
            with session.kernel(reads=[out.array]) as ((ov,), _):
                grad_x = ops.relu_backward(grad_out, ov)
            if self._needs_grad(x):
                self._accumulate(x, grad_x)

        self._entries.append(_TapeEntry(backward, out))
        return out

    def batchnorm(self, x: Var, gamma: Var, beta: Var) -> Var:
        session = self.session
        with session.kernel(reads=[x.array, gamma.array, beta.array]) as (
            (xv, gv, bv),
            _,
        ):
            out_np, cache = ops.batchnorm_forward(xv, gv, bv)
        out = self._output(out_np.astype(xv.dtype), "bn.out")

        def backward() -> None:
            grad_out = out.ensure_grad().read()
            with session.kernel(reads=[gamma.array]) as ((gv,), _):
                grad_x, grad_g, grad_b = ops.batchnorm_backward(
                    grad_out, cache, gv
                )
            if gamma.requires_grad:
                self._accumulate(gamma, grad_g)
            if beta.requires_grad:
                self._accumulate(beta, grad_b)
            if self._needs_grad(x):
                self._accumulate(x, grad_x)

        self._entries.append(_TapeEntry(backward, out))
        return out

    def maxpool2d(self, x: Var, kernel: int = 2) -> Var:
        session = self.session
        with session.kernel(reads=[x.array]) as ((xv,), _):
            out_np, mask = ops.maxpool2d_forward(xv, kernel)
        out = self._output(out_np, "pool.out")
        x_shape = x.shape

        def backward() -> None:
            grad_out = out.ensure_grad().read()
            grad_x = ops.maxpool2d_backward(grad_out, mask, x_shape, kernel)
            if self._needs_grad(x):
                self._accumulate(x, grad_x)

        self._entries.append(_TapeEntry(backward, out))
        return out

    def flatten(self, x: Var) -> Var:
        n = x.shape[0]
        out = self._output(
            x.array.read().reshape(n, x.array.size // n), "flatten.out"
        )

        def backward() -> None:
            grad_out = out.ensure_grad().read()
            if self._needs_grad(x):
                self._accumulate(x, grad_out.reshape(x.shape))

        self._entries.append(_TapeEntry(backward, out))
        return out

    def softmax_cross_entropy(self, logits: Var, labels: np.ndarray) -> float:
        with self.session.kernel(reads=[logits.array]) as ((lv,), _):
            loss, grad_np = ops.softmax_cross_entropy(lv, labels)
        self._loss = loss
        # The loss is a scalar held host-side; its "backward" seeds the
        # logits gradient. Model it as an entry whose output is the logits
        # themselves being consumed — but logits die at their own producer
        # entry, so this entry retires nothing (a 1-element placeholder).
        placeholder = self._output(np.zeros(1, dtype=np.float32), "loss")

        def backward() -> None:
            self._accumulate(logits, grad_np)

        self._entries.append(_TapeEntry(backward, placeholder))
        return loss

    # -- control ---------------------------------------------------------------------

    def backward(self) -> None:
        """Run adjoints newest-first, retiring dead activations eagerly."""
        if self._loss is None:
            raise KernelError("call softmax_cross_entropy before backward()")
        for entry in reversed(self._entries):
            entry.backward()
            entry.output.retire()
            self._activations.discard(entry.output.array.obj.id)
        self._entries.clear()
        self._loss = None

    def discard(self) -> None:
        """Drop the tape without running backward (retire all activations)."""
        for entry in self._entries:
            entry.output.retire()
            self._activations.discard(entry.output.array.obj.id)
        self._entries.clear()
        self._loss = None

    def sgd_step(self, parameters: list[Var], lr: float) -> None:
        """In-place SGD update; gradients are zeroed (kept allocated)."""
        for param in parameters:
            if param.grad is None:
                continue
            with self.session.kernel(
                reads=[param.grad], writes=[param.array, param.grad], hints=True
            ) as ((gv,), (pv, gz)):
                pv[...] -= lr * gv
                gz[...] = 0.0
