"""Reverse-mode automatic differentiation over a static operator graph.

A Graph is built once per model (define-by-run, frozen topology): nodes
are appended in creation order, which is also a topological order, so a
forward pass evaluates nodes in creation order and a backward pass walks
them in reverse. Operator kinds live in a registry; `nnops` registers the
full neural operator set on import.

Forward runs at float32 by default. `precision="double"` evaluates the
same graph in float64, the shadow path used by gradient checks, where
32-bit rounding would drown the finite-difference signal.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GraphError, ShapeMismatchError
from .tensor import Tensor

TRAIN = "train"
EVAL = "eval"


@dataclass(frozen=True)
class OpDef:
    """Forward kernel and backward rule for one operator kind.

    forward(args, attrs, ctx) -> (output array, saved context)
    backward(grad, args, out, saved, attrs) -> per-input gradient arrays
    (None for inputs the op never differentiates through).
    """

    forward: Callable
    backward: Callable


_REGISTRY: dict[str, OpDef] = {}


def register_op(kind: str, forward: Callable, backward: Callable) -> None:
    if kind in _REGISTRY:
        raise ValueError(f"operator kind {kind!r} already registered")
    _REGISTRY[kind] = OpDef(forward, backward)


def op_kinds() -> list[str]:
    return sorted(_REGISTRY)


@dataclass
class RunCtx:
    """Per-forward-pass evaluation context handed to operator kernels."""

    mode: str
    dropout_seed: int
    node_id: int = 0


@dataclass
class Node:
    id: int
    op: str
    inputs: tuple[int, ...]
    attrs: dict
    name: str
    is_parameter: bool = False
    train_mode_sensitive: bool = False
    value: Tensor | None = None  # parameters only; runtime values live on the Graph


@dataclass
class Graph:
    """Append-only operator graph; creation order is the evaluation order."""

    nodes: list[Node] = field(default_factory=list)

    def __post_init__(self):
        self._values: dict[int, np.ndarray] = {}
        self._saved: dict[int, object] = {}
        self._adjoints: dict[int, np.ndarray] = {}
        self._ran_forward = False

    def _add(self, op, inputs, attrs, name, is_parameter=False, value=None) -> int:
        for i in inputs:
            if not 0 <= i < len(self.nodes):
                raise GraphError(f"node input {i} does not exist yet")
        node = Node(
            id=len(self.nodes),
            op=op,
            inputs=tuple(inputs),
            attrs=dict(attrs),
            name=name or f"{op}_{len(self.nodes)}",
            is_parameter=is_parameter,
            train_mode_sensitive=(op == "dropout"),
            value=value,
        )
        self.nodes.append(node)
        return node.id

    def placeholder(self, name: str) -> int:
        """Input node; its value must be fed to every forward pass."""
        return self._add("input", (), {}, name)

    def parameter(self, name: str, value: Tensor) -> int:
        """Trainable leaf holding a float32 tensor."""
        return self._add("param", (), {}, name, is_parameter=True, value=value)

    def apply(self, kind: str, inputs: list[int], name: str = "", **attrs) -> int:
        if kind not in _REGISTRY:
            raise GraphError(f"unknown operator kind {kind!r}")
        return self._add(kind, inputs, attrs, name)

    def set_parameter(self, node_id: int, value: Tensor) -> None:
        node = self.nodes[node_id]
        if not node.is_parameter:
            raise GraphError(f"node {node.name} is not a parameter")
        if node.value is not None and node.value.shape != value.shape:
            raise ShapeMismatchError(
                f"parameter {node.name}: cannot assign shape {value.shape} over {node.value.shape}"
            )
        node.value = value

    def parameters(self) -> dict[str, int]:
        return {n.name: n.id for n in self.nodes if n.is_parameter}

    def placeholders(self) -> dict[str, int]:
        return {n.name: n.id for n in self.nodes if n.op == "input"}

    def _ancestors(self, roots) -> set[int]:
        seen = set()
        stack = list(roots)
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            stack.extend(self.nodes[i].inputs)
        return seen

    def forward(
        self,
        feeds: dict[int, Tensor],
        mode: str = EVAL,
        dropout_seed: int = 0,
        outputs: list[int] | None = None,
        precision: str = "single",
    ) -> dict[int, Tensor]:
        """Evaluate the graph and return the values of `outputs`.

        feeds maps placeholder ids to tensors. Only ancestors of `outputs`
        are computed, and only the requested nodes are returned (every node
        when outputs is None). The returned tensors are read-only and share
        storage with the graph's saved values; a later pass builds new
        arrays, so they never change. Eval mode makes dropout the identity;
        in train mode masks are fully determined by dropout_seed, so
        identical calls are bitwise identical.
        """
        if mode not in (TRAIN, EVAL):
            raise GraphError(f"mode must be {TRAIN!r} or {EVAL!r}, got {mode!r}")
        dtype = np.float64 if precision == "double" else np.float32
        needed = self._ancestors(outputs) if outputs is not None else set(range(len(self.nodes)))
        ctx = RunCtx(mode=mode, dropout_seed=dropout_seed)
        values: dict[int, np.ndarray] = {}
        saved: dict[int, object] = {}
        for node in self.nodes:
            if node.id not in needed:
                continue
            if node.op == "input":
                if node.id not in feeds:
                    raise GraphError(f"missing feed for input node {node.name!r}")
                values[node.id] = np.asarray(feeds[node.id].data, dtype=dtype)
            elif node.op == "param":
                if node.value is None:
                    raise GraphError(f"parameter {node.name!r} has no value")
                values[node.id] = np.asarray(node.value.data, dtype=dtype)
            else:
                ctx.node_id = node.id
                args = [values[i] for i in node.inputs]
                out, sv = _REGISTRY[node.op].forward(args, node.attrs, ctx)
                values[node.id] = out
                saved[node.id] = sv
        self._values = values
        self._saved = saved
        self._adjoints = {}
        self._ran_forward = True
        return {i: Tensor._wrap(values[i]) for i in (values if outputs is None else outputs)}

    def backward(self, loss_id: int) -> dict[int, Tensor]:
        """Accumulate d(loss)/d(node) for ancestors of the loss node.

        Returns the gradient tensor for every parameter node (zeros for
        parameters the loss does not depend on), read-only and sharing
        storage with the saved adjoints. Requires a prior forward pass that
        computed the loss node.
        """
        if not self._ran_forward or loss_id not in self._values:
            raise GraphError("backward requires a forward pass that computed the loss node")
        loss = self._values[loss_id]
        if loss.size != 1:
            raise GraphError(f"loss node must be scalar, got shape {loss.shape}")
        adjoints: dict[int, np.ndarray] = {loss_id: np.ones_like(loss)}
        needed = self._ancestors([loss_id])
        for node in reversed(self.nodes):
            if node.id not in needed or node.id not in adjoints:
                continue
            if not node.inputs:
                continue
            grad = adjoints[node.id]
            args = [self._values[i] for i in node.inputs]
            in_grads = _REGISTRY[node.op].backward(
                grad, args, self._values[node.id], self._saved.get(node.id), node.attrs
            )
            for inp, g in zip(node.inputs, in_grads):
                if g is None:
                    continue
                if inp in adjoints:
                    adjoints[inp] = adjoints[inp] + g
                else:
                    adjoints[inp] = g
        self._adjoints = adjoints
        out = {}
        for node in self.nodes:
            if node.is_parameter:
                g = adjoints.get(node.id)
                if g is None:
                    g = np.zeros(node.value.shape, dtype=loss.dtype)
                out[node.id] = Tensor._wrap(g)
        return out

    def value(self, node_id: int) -> Tensor:
        if node_id not in self._values:
            raise GraphError(f"node {node_id} has no value; run forward first")
        return Tensor._wrap(self._values[node_id])

    def adjoint(self, node_id: int) -> Tensor:
        """Adjoint of any node from the last backward pass (testing hook)."""
        if node_id not in self._adjoints:
            raise GraphError(f"node {node_id} has no adjoint; run backward first")
        return Tensor._wrap(self._adjoints[node_id])

