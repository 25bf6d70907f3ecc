"""Reverse-mode automatic differentiation over a static operator graph.

A Graph is built once per model (define-by-run, frozen topology): nodes
are appended in creation order, which is also a topological order, so a
forward pass evaluates nodes in creation order and a backward pass walks
them in reverse. Operator kinds live in a registry; `nnops` registers the
full neural operator set on import.

Forward runs at the dtype of the tensors it holds and is fed: float32 on
every model path, float64 in the gradient checks, which build float64
parameters and feeds because 32-bit rounding would drown the
finite-difference signal.
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
    backward(grad, args, out, saved, attrs, bufs=None) -> per-input gradient
    arrays (None for inputs the op never differentiates through).

    Each gradient a backward rule returns is either `grad` or a view of it,
    or an array the rule allocated itself; never an argument, the output or
    saved context.

    Every rule must accept `bufs`, and may ignore it. It has one entry per
    input: the gradient buffer of a parameter input whose first term this is
    (and which appears once among the inputs), else None. A buffer is
    C-contiguous, writeable and of the input's shape and dtype. The rule may
    write that input's gradient into it and return the buffer itself; a
    fresh array it returns instead is copied into the buffer by the graph.
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


@dataclass
class Node:
    id: int
    op: str
    inputs: tuple[int, ...]
    attrs: dict
    name: str
    is_parameter: bool = False
    value: Tensor | None = None  # parameters only; runtime values live on the Graph


@dataclass
class Graph:
    """Append-only operator graph; creation order is the evaluation order.

    The graph holds at most one forward pass: its values and saved contexts,
    which `backward` and `value` read. A new pass drops the previous one
    before it runs, and a pass that raises leaves none.

    The graph owns one gradient buffer per parameter node, made by the first
    backward pass that reaches it and overwritten by every later one.
    """

    nodes: list[Node] = field(default_factory=list)

    def __post_init__(self):
        self._values: dict[int, np.ndarray] = {}
        self._saved: dict[int, object] = {}
        self._grad_bufs: dict[int, np.ndarray] = {}

    def _grad_buffer(self, node_id: int, shape, dtype) -> np.ndarray:
        """Parameter `node_id`'s gradient buffer, writeable, of `shape` and `dtype`.

        A buffer of another shape or dtype (as after a float64 parameter
        replaces a float32 one) is replaced, not reused.
        """
        buf = self._grad_bufs.get(node_id)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._grad_bufs[node_id] = np.empty(shape, dtype)
        buf.flags.writeable = True
        return buf

    def release_grad_buffers(self) -> None:
        """Drop every gradient buffer; the next backward pass makes new ones."""
        self._grad_bufs = {}

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
            value=value,
        )
        self.nodes.append(node)
        return node.id

    def placeholder(self, name: str) -> int:
        """Input node; its value must be fed to every forward pass."""
        return self._add("input", (), {}, name)

    def parameter(self, name: str, value: Tensor | None) -> int:
        """Trainable leaf holding a tensor; None leaves it for set_parameter."""
        return self._add("param", (), {}, name, is_parameter=True, value=value)

    def apply(self, kind: str, inputs: list[int], name: str = "", **attrs) -> int:
        if kind not in _REGISTRY:
            raise GraphError(f"unknown operator kind {kind!r}")
        return self._add(kind, inputs, attrs, name)

    def set_parameter(self, node_id: int, value: Tensor) -> None:
        if not (isinstance(node_id, (int, np.integer)) and 0 <= node_id < len(self.nodes)
                and self.nodes[node_id].is_parameter):
            raise GraphError(f"node {node_id!r} is not a parameter of this graph")
        node = self.nodes[node_id]
        if node.value is not None and node.value.shape != value.shape:
            raise ShapeMismatchError(
                f"parameter {node.name}: cannot assign shape {value.shape} over {node.value.shape}"
            )
        node.value = value

    def parameters(self) -> dict[str, int]:
        return {n.name: n.id for n in self.nodes if n.is_parameter}

    def forward(
        self,
        feeds: dict[int, Tensor],
        mode: str = EVAL,
        dropout_seed: int = 0,
        outputs: list[int] | None = None,
    ) -> dict[int, Tensor]:
        """Evaluate the graph and return the values of `outputs`.

        feeds maps placeholder ids to tensors. Only ancestors of `outputs`
        are computed, and only the requested nodes are returned (every node
        when outputs is None). The returned tensors are read-only and share
        storage with the graph's saved values (an input's or parameter's
        value is the fed or held tensor's own array); a later pass builds
        new arrays, so they never change, with one exception: a parameter's
        array, which `optim.adam_step` overwrites. Eval mode makes dropout
        the identity; in train mode masks are fully determined by
        dropout_seed, so identical calls are bitwise identical.

        The graph's previous pass is dropped first, so only this pass's
        values and saved contexts are held while it runs; if it raises, the
        graph holds no pass at all.
        """
        self._values, self._saved = {}, {}  # drop the previous pass first
        if mode not in (TRAIN, EVAL):
            raise GraphError(f"mode must be {TRAIN!r} or {EVAL!r}, got {mode!r}")
        if outputs is not None:
            for i in outputs:
                if not (isinstance(i, (int, np.integer)) and 0 <= i < len(self.nodes)):
                    raise GraphError(f"output {i!r} is not a node of this graph")
        needed = set(range(len(self.nodes)) if outputs is None else outputs)
        for node in reversed(self.nodes):  # inputs precede their consumers
            if node.id in needed:
                needed.update(node.inputs)
        ctx = RunCtx(mode=mode, dropout_seed=dropout_seed)
        values: dict[int, np.ndarray] = {}
        saved: dict[int, object] = {}
        for node in self.nodes:
            if node.id not in needed:
                continue
            if node.op == "input":
                if node.id not in feeds:
                    raise GraphError(f"missing feed for input node {node.name!r}")
                values[node.id] = feeds[node.id].data
            elif node.op == "param":
                if node.value is None:
                    raise GraphError(f"parameter {node.name!r} has no value")
                values[node.id] = node.value.data
            else:
                args = [values[i] for i in node.inputs]
                out, sv = _REGISTRY[node.op].forward(args, node.attrs, ctx)
                values[node.id] = out
                saved[node.id] = sv
        self._values = values
        self._saved = saved
        return {i: Tensor._wrap(values[i]) for i in (values if outputs is None else outputs)}

    def backward(self, loss_id: int) -> dict[int, Tensor]:
        """Accumulate d(loss)/d(node) for ancestors of the loss node.

        Returns the gradient tensor for every parameter node (zeros for
        parameters the loss does not depend on), read-only and uncopied.
        Requires that the graph's pass, the last forward, computed the loss
        node (after a forward that raised there is none); the walk visits
        only nodes holding an adjoint, which are ancestors of the loss, and
        lets go of each node's adjoint once its rule has used it.

        Each parameter's gradient is its graph-owned buffer, so the returned
        tensors share storage with the buffers and the next backward pass
        overwrites them: copy one to keep it. Every backward rule is handed
        the buffers of its parameter inputs as `bufs=`, and may write its
        term there (conv2d and matmul write the weight gradients, conv2d and
        bias_add the bias gradients); any other first term of a parameter is
        copied into its buffer.

        A parameter with several consumers sums their terms into its buffer
        in place, with `np.add(buf, g, out=buf)` (the same bits as `buf + g`).
        Every other fan-in sum allocates, and no forward value is ever written.
        """
        if loss_id not in self._values:
            raise GraphError("backward requires a forward pass that computed the loss node")
        loss = self._values[loss_id]
        if loss.size != 1:
            raise GraphError(f"loss node must be scalar, got shape {loss.shape}")
        adjoints: dict[int, np.ndarray] = {loss_id: np.ones_like(loss)}
        for node in reversed(self.nodes):
            if node.id not in adjoints or not node.inputs:
                continue
            grad, args = adjoints.pop(node.id), [self._values[i] for i in node.inputs]
            bufs = tuple(
                self._grad_buffer(i, x.shape, x.dtype)
                if self.nodes[i].is_parameter and i not in adjoints and node.inputs.count(i) == 1
                else None
                for i, x in zip(node.inputs, args)
            )
            in_grads = _REGISTRY[node.op].backward(
                grad, args, self._values[node.id], self._saved.get(node.id), node.attrs, bufs=bufs
            )
            for inp, g, buf in zip(node.inputs, in_grads, bufs):
                if g is None:
                    continue
                a = adjoints.get(inp)
                if not self.nodes[inp].is_parameter:
                    adjoints[inp] = g if a is None else a + g
                elif a is not None:
                    np.add(a, g, out=a)
                elif g is buf:  # the rule wrote into the buffer
                    adjoints[inp] = buf
                else:
                    adjoints[inp] = self._grad_buffer(inp, g.shape, g.dtype)
                    np.copyto(adjoints[inp], g)
        out = {}
        for node in self.nodes:
            if node.is_parameter:
                g = adjoints.get(node.id)
                if g is None:
                    if node.value is None:
                        raise GraphError(f"parameter {node.name!r} has no value")
                    g = self._grad_buffer(node.id, node.value.shape, loss.dtype)
                    g.fill(0)
                out[node.id] = Tensor._wrap(g)
        return out

    def value(self, node_id: int) -> Tensor:
        if node_id not in self._values:
            raise GraphError(f"node {node_id} has no value; run forward first")
        return Tensor._wrap(self._values[node_id])
