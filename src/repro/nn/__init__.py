"""Neural-network substrate: model graphs, traces, and real compute.

Two halves:

* **Trace generation** (:mod:`repro.nn.graph`, :mod:`repro.nn.models`) —
  builds the paper's benchmark networks (VGG 116/416, ResNet 200,
  DenseNet 264, Table III) as layer DAGs and lowers one training iteration
  to a :class:`~repro.workloads.trace.KernelTrace` with exact tensor shapes,
  FLOP counts, and first-in-last-out activation lifetimes (Section III-E).
* **Real compute** (:mod:`repro.nn.ops`, :mod:`repro.nn.autograd`,
  :mod:`repro.nn.training`) — numpy forward/backward kernels and a tape
  autograd over CachedArray-backed tensors, proving the framework end to
  end: training actually converges while the policy migrates data between
  (real-backed) devices.
"""

from repro.nn.graph import GraphBuilder, Node, TensorHandle
from repro.nn.rnn import lstm
from repro.nn.transformer import moe_transformer, transformer
from repro.nn.models import (
    MODEL_REGISTRY,
    ModelSpec,
    densenet264,
    resnet200,
    vgg,
)

__all__ = [
    "GraphBuilder",
    "Node",
    "TensorHandle",
    "MODEL_REGISTRY",
    "ModelSpec",
    "densenet264",
    "resnet200",
    "vgg",
    "lstm",
    "moe_transformer",
    "transformer",
]
