"""Declarative network specs and the two model builders.

A NetworkSpec is an ordered list of layers with every hyperparameter
resolved; layers name their inputs, so parallel branches and merges are
plain list entries. The lowering walks the list once: it checks each layer,
computes its per-example output shape (batch axis omitted) and appends its
graph nodes. `infer_shapes` is that walk on an empty graph, which the
builders use to validate the architecture end to end.

`build_frnet1` is the feature-distilling autoencoder: a strided 1x1
convolution and max-pool front end, one inception block, then dense layers
whose first (default 4096-wide) activation is exported as the learned
representation. `build_frnet2` is the interaction classifier: the same
front end, two inception blocks run in parallel at strides 1 and 2 (the
stride-1 branch max-pooled down before the channel merge), a final
inception block, and a dense head ending in a single sigmoid unit.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import EVAL, TRAIN, Graph
from .errors import ShapeMismatchError
from .nnops import same_pad
from .rng import INIT
from .tensor import Tensor

DEEP_FEATURES = "deep-features"


@dataclass(frozen=True)
class InceptionSpec:
    """Parallel 1x1-bottlenecked convolutions plus a pooling passthrough.

    Each conv branch is a 1x1 convolution to `bottleneck_channels` followed
    by an (fh, fw) convolution to the branch's output channels; the pool
    branch is a max-pool that preserves channels. The module stride is
    carried by each branch's second stage (spatial conv or pool), so all
    branches agree on spatial extents and concatenate on the channel axis.
    """

    bottleneck_channels: int = 16
    branches: tuple[tuple[int, int, int], ...] = ((3, 3, 64), (2, 2, 64), (5, 5, 32))
    pool_kernel: int = 1
    stride: int = 1

    def out_channels(self, in_channels: int) -> int:
        return sum(oc for _, _, oc in self.branches) + in_channels


@dataclass(frozen=True)
class Layer:
    name: str
    inputs: tuple[str, ...]


@dataclass(frozen=True)
class Input(Layer):
    item_shape: tuple[int, ...]


@dataclass(frozen=True)
class Conv(Layer):
    filter_height: int
    filter_width: int
    out_channels: int
    stride: int
    activation: str = "relu"
    l2_scale: float = 0.0


@dataclass(frozen=True)
class Pool(Layer):
    kernel: int
    stride: int


@dataclass(frozen=True)
class Inception(Layer):
    spec: InceptionSpec
    l2_scale: float = 0.0


@dataclass(frozen=True)
class Flatten(Layer):
    pass


@dataclass(frozen=True)
class Dense(Layer):
    width: int
    activation: str = "relu"
    l2_scale: float = 0.0


@dataclass(frozen=True)
class Dropout(Layer):
    keep_prob: float


@dataclass(frozen=True)
class Concat(Layer):
    pass


@dataclass(frozen=True)
class NetworkSpec:
    model_kind: str
    layers: tuple[Layer, ...]
    taps: dict[str, str] = field(default_factory=dict)

    @property
    def input_layer(self) -> Input:
        return self.layers[0]

    @property
    def output_layer(self) -> Layer:
        return self.layers[-1]


def _conv_out(hw: tuple[int, int], fh: int, fw: int, stride: int) -> tuple[int, int]:
    return same_pad(hw[0], fh, stride)[2], same_pad(hw[1], fw, stride)[2]


def _check_layer(layer: Layer, n_inputs: int) -> None:
    """Reject a layer whose sizes, rates, activation or input count are invalid.

    Sizes are extents, strides, channel counts and widths: integers >= 1.
    """
    if isinstance(layer, Input):
        sizes = tuple(layer.item_shape)
    elif isinstance(layer, Conv):
        sizes = (layer.filter_height, layer.filter_width, layer.out_channels, layer.stride)
    elif isinstance(layer, Pool):
        sizes = (layer.kernel, layer.stride)
    elif isinstance(layer, Inception):
        sp = layer.spec
        sizes = (sp.bottleneck_channels, sp.pool_kernel, sp.stride) + sum(map(tuple, sp.branches), ())
    else:
        sizes = (layer.width,) if isinstance(layer, Dense) else ()
    if not all(isinstance(d, (int, np.integer)) and d >= 1 for d in sizes):
        raise ShapeMismatchError(f"layer {layer.name}: sizes must be integers >= 1, got {sizes}")
    if isinstance(layer, Dropout) and not 0 < layer.keep_prob <= 1:
        raise ShapeMismatchError(f"layer {layer.name}: keep_prob must be in (0, 1]")
    if isinstance(layer, (Conv, Dense, Inception)) and not layer.l2_scale >= 0:
        raise ShapeMismatchError(f"layer {layer.name}: l2_scale must be >= 0")
    acts = {Conv: ("relu", "none"), Dense: ("relu", "sigmoid", "none")}.get(type(layer))
    if acts is not None and layer.activation not in acts:
        raise ShapeMismatchError(f"layer {layer.name}: unsupported activation {layer.activation!r}")
    if isinstance(layer, Concat):
        arity_ok = n_inputs >= 1
    else:
        arity_ok = n_inputs == (0 if isinstance(layer, Input) else 1)
    if not arity_ok:
        raise ShapeMismatchError(f"layer {layer.name}: wrong number of inputs ({n_inputs})")


def infer_shapes(spec: NetworkSpec) -> dict[str, tuple[int, ...]]:
    """Per-example output shape of every layer, batch axis omitted.

    Read off the lowering on an empty graph, which validates every layer's
    sizes and wiring; both builders and every checkpoint load run it.
    """
    return _lower(spec, Graph())[0]


def build_frnet1(
    feature_count: int = 1476,
    orientation: tuple[int, int] = (211, 7),
    hidden: tuple[int, int] = (4096, 2048),
    bottleneck_channels: int = 16,
    keep_prob: float = 0.5,
    l2_scale: float = 0.001,
) -> NetworkSpec:
    """Autoencoder spec: padded [h, w, 1] image in, original features out.

    The input carries feature_count + 1 values (one zero appended), shaped
    per `orientation`; the output reconstructs the unpadded vector. The
    activations of the first dense layer are tapped as the representation
    handed to the classifier.
    """
    h, w = orientation
    if h * w != feature_count + 1:
        raise ShapeMismatchError(
            f"orientation {orientation} cannot hold {feature_count} features plus one pad"
        )
    incep = InceptionSpec(bottleneck_channels=bottleneck_channels, stride=1)
    layers = (
        Input("in", (), (h, w, 1)),
        Conv("conv1", ("in",), 1, 1, 32, 2, "relu", l2_scale),
        Pool("pool1", ("conv1",), 2, 2),
        Inception("incep1", ("pool1",), incep, l2_scale),
        Flatten("flat", ("incep1",)),
        Dense("fc1", ("flat",), hidden[0], "relu", l2_scale),
        Dense("fc2", ("fc1",), hidden[1], "relu", l2_scale),
        Dropout("drop", ("fc2",), keep_prob),
        Dense("out", ("drop",), feature_count, "sigmoid", l2_scale),
    )
    spec = NetworkSpec("frnet1", layers, taps={DEEP_FEATURES: "fc1"})
    infer_shapes(spec)
    return spec


def build_frnet2(
    feature_count: int = 4096,
    hidden: tuple[int, int] = (2048, 512),
    bottleneck_channels: int = 16,
    keep_prob: float = 0.5,
    l2_scale: float = 0.001,
) -> NetworkSpec:
    """Classifier spec: square feature image in, interaction probability out.

    The extracted features are viewed as a [side, side, 1] image (side^2 =
    feature_count). After the shared conv/pool front end, two inception
    blocks run in parallel at strides 1 and 2; the stride-1 branch is
    max-pooled to the stride-2 geometry and the two are merged on channels,
    keeping both receptive-field scales.
    """
    side = math.isqrt(feature_count)
    if side * side != feature_count:
        raise ShapeMismatchError(f"feature count {feature_count} is not a perfect square")

    def incep(stride: int) -> InceptionSpec:
        return InceptionSpec(bottleneck_channels=bottleneck_channels, stride=stride)

    layers = (
        Input("in", (), (side, side, 1)),
        Conv("conv1", ("in",), 1, 1, 32, 2, "relu", l2_scale),
        Pool("pool1", ("conv1",), 2, 2),
        Inception("incep_s1", ("pool1",), incep(1), l2_scale),
        Pool("pool_s1", ("incep_s1",), 2, 2),
        Inception("incep_s2", ("pool1",), incep(2), l2_scale),
        Concat("merge", ("pool_s1", "incep_s2")),
        Inception("incep_top", ("merge",), incep(1), l2_scale),
        Flatten("flat", ("incep_top",)),
        Dense("fc1", ("flat",), hidden[0], "relu", l2_scale),
        Dense("fc2", ("fc1",), hidden[1], "relu", l2_scale),
        Dropout("drop", ("fc2",), keep_prob),
        Dense("out", ("drop",), 1, "sigmoid", l2_scale),
    )
    spec = NetworkSpec("frnet2", layers, taps={})
    infer_shapes(spec)
    return spec


# ---------------------------------------------------------------------------
# spec <-> plain-dict serialization (checkpoint payload), field by field:
# tuples become lists, and an Inception layer's InceptionSpec fields sit flat
# in the layer's own dict.

_LAYER_KINDS = {
    c.__name__.lower(): c for c in (Input, Conv, Pool, Inception, Flatten, Dense, Dropout, Concat)
}
_KIND_NAMES = {v: k for k, v in _LAYER_KINDS.items()}
# dict keys that differ from their field names
_KEYS = {"filter_height": "fh", "filter_width": "fw", "bottleneck_channels": "bottleneck"}


def _to_json(v):
    return [_to_json(x) for x in v] if isinstance(v, (tuple, list)) else v


def _from_json(v):
    return tuple(_from_json(x) for x in v) if isinstance(v, list) else v


def _write(obj) -> dict:
    out = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        out.update(_write(v) if f.name == "spec" else {_KEYS.get(f.name, f.name): _to_json(v)})
    return out


def _read(cls, ld: dict):
    return cls(**{
        f.name: _read(InceptionSpec, ld) if f.name == "spec"
        else _from_json(ld[_KEYS.get(f.name, f.name)])
        for f in fields(cls)
    })


def spec_to_dict(spec: NetworkSpec) -> dict:
    layers = [{"kind": _KIND_NAMES[type(layer)], **_write(layer)} for layer in spec.layers]
    return {"model_kind": spec.model_kind, "layers": layers, "taps": dict(spec.taps)}


def spec_from_dict(d: dict) -> NetworkSpec:
    """Inverse of spec_to_dict; a missing key raises KeyError."""
    layers = []
    for ld in d["layers"]:
        if ld["kind"] not in _LAYER_KINDS:
            raise ShapeMismatchError(f"unknown layer kind {ld['kind']!r}")
        layers.append(_read(_LAYER_KINDS[ld["kind"]], ld))
    return NetworkSpec(d["model_kind"], tuple(layers), taps=dict(d["taps"]))


# ---------------------------------------------------------------------------
# graph compilation


def _lower(spec: NetworkSpec, g: Graph):
    """Check each layer, compute its shape and append its nodes to `g`, in one pass.

    The one walk over a spec and the one place parameters are named. The
    first layer, and only it, is the input, and no two layers share a name.
    Parameters are declared by name and shape with no value, so lowering
    allocates nothing sized by the spec. Returns each layer's per-example
    output shape (batch axis omitted), each layer's output node, the l2
    penalty nodes and each parameter node's shape by id, in order.
    """
    shapes, outputs, l2_terms, declared = {}, {}, [], {}

    def param(name, shape):
        node = g.parameter(name, None)
        declared[node] = shape
        return node

    def affine(name, src, w_shape, activation, l2, stride=1):
        """Conv (4-d weight) or dense (2-d weight) plus bias, activation and l2 term.

        The l2 node comes before the op that reads w, so the reverse walk
        reaches that op first and the penalty adds into its fresh gradient
        of w. The block's node count does not depend on the order, so the
        ids outside it (which seed the dropout masks) stay put.
        """
        w = param(f"{name}/w", w_shape)
        b = param(f"{name}/b", w_shape[-1:])
        if l2 > 0:
            l2_terms.append(g.apply("l2_penalty", [w], name=f"{name}/l2", scale=l2))
        if len(w_shape) == 4:
            node = g.apply("conv2d", [src, w, b], name=name, stride=stride)
        else:
            node = g.apply("matmul", [src, w], name=f"{name}/mm")
            node = g.apply("bias_add", [node, b], name=f"{name}/badd")
        if activation != "none":
            node = g.apply(activation, [node], name=f"{name}/{activation}")
        return node

    for k, layer in enumerate(spec.layers):
        if isinstance(layer, Input) != (k == 0):
            raise ShapeMismatchError(f"layer {layer.name}: the input must be the first layer, and only it")
        if layer.name in shapes:
            raise ShapeMismatchError(f"layer name {layer.name!r} is used twice")
        ins = [shapes[n] for n in layer.inputs]
        _check_layer(layer, len(ins))
        src = [outputs[n] for n in layer.inputs]
        if isinstance(layer, (Conv, Pool, Inception)) and len(ins[0]) != 3:
            raise ShapeMismatchError(
                f"{type(layer).__name__.lower()} {layer.name} needs an (h, w, c) input, got {ins[0]}"
            )
        if isinstance(layer, Input):
            if len(layer.item_shape) != 3:
                raise ShapeMismatchError(f"input shape must be (h, w, c), got {layer.item_shape}")
            out = tuple(layer.item_shape)
            node = g.placeholder("x")
        elif isinstance(layer, Conv):
            h, w, cin = ins[0]
            out = _conv_out((h, w), layer.filter_height, layer.filter_width, layer.stride)
            out += (layer.out_channels,)
            node = affine(layer.name, src[0],
                          (layer.filter_height, layer.filter_width, cin, layer.out_channels),
                          layer.activation, layer.l2_scale, layer.stride)
        elif isinstance(layer, Pool):
            h, w, c = ins[0]
            out = _conv_out((h, w), layer.kernel, layer.kernel, layer.stride) + (c,)
            node = g.apply("maxpool2d", src, name=layer.name, kernel=layer.kernel, stride=layer.stride)
        elif isinstance(layer, Inception):
            h, w, cin = ins[0]
            sp, bc = layer.spec, layer.spec.bottleneck_channels
            spatial = {_conv_out((h, w), fh, fw, sp.stride) for fh, fw, _ in sp.branches}
            spatial.add(_conv_out((h, w), sp.pool_kernel, sp.pool_kernel, sp.stride))
            if len(spatial) != 1:
                raise ShapeMismatchError(f"inception {layer.name}: branch extents diverge {spatial}")
            out = spatial.pop() + (sp.out_channels(cin),)
            parts = []
            for b, (fh, fw, oc) in enumerate(sp.branches):
                red = affine(f"{layer.name}/b{b}/reduce", src[0], (1, 1, cin, bc), "relu", layer.l2_scale)
                parts.append(affine(f"{layer.name}/b{b}/conv", red, (fh, fw, bc, oc), "relu",
                                    layer.l2_scale, sp.stride))
            parts.append(g.apply("maxpool2d", src, name=f"{layer.name}/pool",
                                 kernel=sp.pool_kernel, stride=sp.stride))
            node = g.apply("concat", parts, name=layer.name)
        elif isinstance(layer, Flatten):
            out = (math.prod(ins[0]),)
            node = g.apply("flatten", src, name=layer.name)
        elif isinstance(layer, Dense):
            if len(ins[0]) != 1:
                raise ShapeMismatchError(f"dense {layer.name} needs a flat input, got {ins[0]}")
            out = (layer.width,)
            node = affine(layer.name, src[0], (ins[0][0], layer.width), layer.activation, layer.l2_scale)
        elif isinstance(layer, Dropout):
            out = ins[0]
            node = g.apply("dropout", src, name=layer.name, keep_prob=layer.keep_prob)
        elif isinstance(layer, Concat):
            if any(len(s) != 3 for s in ins):
                raise ShapeMismatchError(f"concat {layer.name} needs rank-3 item inputs")
            if len({s[:2] for s in ins}) != 1:
                raise ShapeMismatchError(f"concat {layer.name}: spatial extents differ: {ins}")
            out = ins[0][:2] + (sum(s[2] for s in ins),)
            node = g.apply("concat", src, name=layer.name)
        else:
            raise ShapeMismatchError(f"unknown layer kind {type(layer).__name__}")
        shapes[layer.name] = out
        outputs[layer.name] = node
    if not spec.layers or not set(spec.taps.values()) <= set(shapes):
        raise ShapeMismatchError("a spec needs an input layer, and every tap must name a layer")
    return shapes, outputs, l2_terms, declared


def _glorot(rng, shape) -> Tensor:
    """Glorot-uniform weight; fans count the kernel extents on both sides."""
    fan_in, fan_out = math.prod(shape[:-1]), math.prod(shape[:-2]) * shape[-1]
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(np.float32))


class CompiledModel:
    """A NetworkSpec instantiated as a computation graph with parameters.

    Holds the placeholder/output/loss node ids and the tap map. The loss is
    mean binary cross-entropy on the output plus each layer's l2_scale *
    sum(w^2) penalty (weights only, never biases).
    """

    def __init__(self, spec: NetworkSpec, init_seed: int, random_init: bool = True):
        self.spec = spec
        g = self.graph = Graph()
        self.shapes, outputs, l2_terms, declared = _lower(spec, g)
        # In creation order, weights (rank >= 2) draw from one stream; biases,
        # and every parameter without random_init, start at zero.
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([init_seed, INIT])))
        for node, shape in declared.items():
            glorot = random_init and len(shape) > 1
            g.set_parameter(node, _glorot(rng, shape) if glorot else Tensor.zeros(shape))
        self.input_id = outputs[spec.input_layer.name]
        self.output_id = outputs[spec.output_layer.name]
        self.tap_ids = {tap: outputs[lname] for tap, lname in spec.taps.items()}
        self.target_id = g.placeholder("y")
        self.data_loss_id = g.apply("bce", [self.output_id, self.target_id], name="data_loss", eps=1e-7)
        loss = self.data_loss_id
        for term in l2_terms:
            loss = g.apply("add", [loss, term], name=f"loss_acc_{term}")
        self.loss_id = loss
        self.param_ids = g.parameters()

    def params(self) -> dict[str, Tensor]:
        return {name: self.graph.nodes[i].value for name, i in self.param_ids.items()}

    def set_params(self, params: dict[str, Tensor]) -> None:
        for name, value in params.items():
            self.graph.set_parameter(self.param_ids[name], value)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode forward; returns the output activations as float32."""
        vals = self.graph.forward({self.input_id: Tensor(x)}, mode=EVAL, outputs=[self.output_id])
        return vals[self.output_id].data

    def tap(self, x: np.ndarray, tap_name: str = DEEP_FEATURES) -> np.ndarray:
        node = self.tap_ids[tap_name]
        vals = self.graph.forward({self.input_id: Tensor(x)}, mode=EVAL, outputs=[node])
        return vals[node].data

    def train_step_grads(self, x: np.ndarray, y: np.ndarray, dropout_seed: int):
        """Forward+backward in train mode; returns (total loss, data loss, grads by name).

        The gradients are the graph's buffers, which the next call overwrites.
        """
        feeds = {self.input_id: Tensor(x), self.target_id: Tensor(y)}
        vals = self.graph.forward(feeds, mode=TRAIN, dropout_seed=dropout_seed, outputs=[self.loss_id])
        grads_by_id = self.graph.backward(self.loss_id)
        grads = {name: grads_by_id[i] for name, i in self.param_ids.items()}
        total = float(vals[self.loss_id].data[0])
        data = float(self.graph.value(self.data_loss_id).data[0])
        return total, data, grads


def compile_model(spec: NetworkSpec, init_seed: int, random_init: bool = True) -> CompiledModel:
    return CompiledModel(spec, init_seed, random_init=random_init)


# Every eval pass runs the graph on blocks of exactly this many rows,
# zero-padding the tail. BLAS kernels pick different accumulation paths for
# different matrix shapes, so only a fixed block shape makes each row's
# output independent of how callers partition their inputs.
_EVAL_BLOCK = 32


def eval_in_blocks(forward, x: np.ndarray) -> np.ndarray:
    """`forward` over every row of x in fixed-size blocks, concatenated in row order.

    Bitwise invariant to input partitioning: running rows one at a time
    yields the same matrix as running them all at once. An empty x still
    runs one all-padding block, so the result keeps its trailing shape.
    """
    rows = []
    for start in range(0, max(len(x), 1), _EVAL_BLOCK):
        chunk = np.asarray(x[start : start + _EVAL_BLOCK], dtype=np.float32)
        real = len(chunk)
        if real < _EVAL_BLOCK:
            pad = np.zeros((_EVAL_BLOCK - real,) + chunk.shape[1:], dtype=np.float32)
            chunk = np.concatenate([chunk, pad], axis=0)
        rows.append(forward(chunk)[:real])
    return np.concatenate(rows, axis=0)


def extract_features(model: CompiledModel, x: np.ndarray, tap: str = DEEP_FEATURES) -> np.ndarray:
    """Eval-mode tap activations for every row of x, in row order."""
    return eval_in_blocks(lambda block: model.tap(block, tap), x)


def parameter_manifest(spec: NetworkSpec) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every trainable tensor, in graph creation order.

    Read off the lowering CompiledModel runs, which builds no array, so a
    checkpoint's untrusted spec is checked without allocating by its sizes.
    """
    g = Graph()
    declared = _lower(spec, g)[3]
    return {g.nodes[node].name: shape for node, shape in declared.items()}


def parameter_count(spec: NetworkSpec) -> int:
    """Total trainable scalars across all layers."""
    return sum(math.prod(shape) for shape in parameter_manifest(spec).values())
