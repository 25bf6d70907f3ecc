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

    Each gradient a backward rule returns is either `grad` or a view of it,
    or an array the rule allocated itself; it never returns one fresh array
    (or overlapping views of one) for two inputs, nor an argument, the
    output or saved context. `Graph.backward` relies on this when it sums
    fan-in in place.

    A one-input kind registered with `adds_into=True` also accepts
    backward(..., into=adjoint): `into` is the input's adjoint so far, a
    C-contiguous array of the input's shape and dtype that the pass owns.
    The rule adds its gradient into it, in place, and returns `(into,)`. It
    is passed only when such an adjoint exists, so the rule still allocates
    when it is the input's first consumer in the reverse walk.

    A kind registered with `writes_bufs=True` also accepts
    backward(..., bufs=buffers): one entry per input, the gradient buffer of
    a parameter input whose first term this is (and which appears once among
    the inputs), else None. A buffer is C-contiguous, writeable and has the
    input's shape and dtype. The rule may write that input's gradient into
    it and return the buffer itself; a term it returns in a fresh array
    instead is copied into the buffer by the graph.
    """

    forward: Callable
    backward: Callable


_REGISTRY: dict[str, OpDef] = {}
# Kinds whose backward rule accepts `into=`. Kept by kind, apart from the
# OpDef, so a registry entry rebuilt around wrapped kernels keeps it.
_ADDS_INTO: set[str] = set()
# Kinds whose backward rule accepts `bufs=`, kept the same way.
_WRITES_BUFS: set[str] = set()


def register_op(kind: str, forward: Callable, backward: Callable, adds_into: bool = False,
                writes_bufs: bool = False) -> None:
    if kind in _REGISTRY:
        raise ValueError(f"operator kind {kind!r} already registered")
    _REGISTRY[kind] = OpDef(forward, backward)
    if adds_into:
        _ADDS_INTO.add(kind)
    if writes_bufs:
        _WRITES_BUFS.add(kind)


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
    value: Tensor | None = None  # parameters only; runtime values live on the Graph


@dataclass
class Graph:
    """Append-only operator graph; creation order is the evaluation order.

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

        A buffer of another shape or dtype (as on the float64 shadow pass) is
        replaced, not reused.
        """
        buf = self._grad_bufs.get(node_id)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._grad_bufs[node_id] = np.empty(shape, dtype)
        buf.flags.writeable = True
        return buf

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
        """Trainable leaf holding a float32 tensor; None leaves it for set_parameter."""
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
        arrays, so they never change, with one exception: a parameter
        node's float32 value is the parameter's own array, which
        `optim.adam_step` overwrites. Eval mode makes dropout the identity;
        in train mode masks are fully determined by dropout_seed, so
        identical calls are bitwise identical.
        """
        if mode not in (TRAIN, EVAL):
            raise GraphError(f"mode must be {TRAIN!r} or {EVAL!r}, got {mode!r}")
        if outputs is not None:
            for i in outputs:
                if not (isinstance(i, (int, np.integer)) and 0 <= i < len(self.nodes)):
                    raise GraphError(f"output {i!r} is not a node of this graph")
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
        return {i: Tensor._wrap(values[i]) for i in (values if outputs is None else outputs)}

    def backward(self, loss_id: int) -> dict[int, Tensor]:
        """Accumulate d(loss)/d(node) for ancestors of the loss node.

        Returns the gradient tensor for every parameter node (zeros for
        parameters the loss does not depend on), read-only and uncopied.
        Requires a prior forward pass that computed the loss node.

        Each parameter's gradient is its graph-owned buffer, so the returned
        tensors share storage with the buffers and the next backward pass
        overwrites them: copy one to keep it. A kind registered with
        `writes_bufs` is handed the buffers of its parameter inputs as
        `bufs=` and writes its term there (the conv2d and matmul weight
        gradients, the conv2d and bias_add bias gradients); any other first
        term of a parameter is copied into its buffer.

        A node with several consumers sums their gradients in place, with
        `np.add(a, g, out=a)` (the same bits as `a + g`), but only into an
        adjoint this pass owns: one a backward rule returned that shares no
        memory with that rule's upstream `grad`, and that has the dtype and
        shape of the contribution added to it, or one this pass built itself,
        a parameter's buffer included. When the consumer is a kind
        registered with `adds_into` and its input's owned adjoint is
        C-contiguous with the input's dtype and shape, that adjoint is handed
        to the rule as `into=`, and the rule adds its term there without a
        gradient-sized temporary (so an l2 penalty created before the matmul
        or conv reading its weight adds into that weight's buffer). Any
        other sum allocates. No forward value is ever written.
        """
        if loss_id not in self._values:
            raise GraphError("backward requires a forward pass that computed the loss node")
        loss = self._values[loss_id]
        if loss.size != 1:
            raise GraphError(f"loss node must be scalar, got shape {loss.shape}")
        adjoints: dict[int, np.ndarray] = {loss_id: np.ones_like(loss)}
        # per adjoint, the upstream grad of the rule that returned its first
        # term, or None once it is an array this pass built itself
        source: dict[int, np.ndarray | None] = {}
        needed = self._ancestors([loss_id])

        def owned(inp):
            a, up = adjoints[inp], source[inp]
            return up is None or (a.flags.writeable and not np.may_share_memory(a, up))

        for node in reversed(self.nodes):
            if node.id not in needed or node.id not in adjoints:
                continue
            if not node.inputs:
                continue
            grad = adjoints[node.id]
            args = [self._values[i] for i in node.inputs]
            extra = {}
            bufs = (None,) * len(node.inputs)
            if node.op in _ADDS_INTO:
                a, x = adjoints.get(node.inputs[0]), args[0]
                if (a is not None and owned(node.inputs[0]) and a.flags.c_contiguous
                        and a.dtype == x.dtype and a.shape == x.shape):
                    extra["into"] = a
            elif node.op in _WRITES_BUFS:
                bufs = extra["bufs"] = tuple(
                    self._grad_buffer(i, x.shape, x.dtype)
                    if self.nodes[i].is_parameter and i not in adjoints and node.inputs.count(i) == 1
                    else None
                    for i, x in zip(node.inputs, args)
                )
            in_grads = _REGISTRY[node.op].backward(
                grad, args, self._values[node.id], self._saved.get(node.id), node.attrs, **extra
            )
            for inp, g, buf in zip(node.inputs, in_grads, bufs):
                if g is None:
                    continue
                a = adjoints.get(inp)
                if a is None:
                    if not self.nodes[inp].is_parameter:
                        adjoints[inp], source[inp] = g, grad
                        continue
                    if g is not buf:  # the rule did not write into the buffer
                        buf = self._grad_buffer(inp, g.shape, g.dtype)
                        np.copyto(buf, g)
                    adjoints[inp], source[inp] = buf, None
                    continue
                if g is extra.get("into"):
                    pass  # the rule added its term into a
                elif owned(inp) and g.dtype == a.dtype and g.shape == a.shape:
                    np.add(a, g, out=a)
                else:
                    adjoints[inp] = a + g
                source[inp] = None
        out = {}
        for node in self.nodes:
            if node.is_parameter:
                g = adjoints.get(node.id)
                if g is None:
                    g = self._grad_buffer(node.id, node.value.shape, loss.dtype)
                    g.fill(0)
                out[node.id] = Tensor._wrap(g)
        return out

    def value(self, node_id: int) -> Tensor:
        if node_id not in self._values:
            raise GraphError(f"node {node_id} has no value; run forward first")
        return Tensor._wrap(self._values[node_id])
