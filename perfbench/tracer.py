"""Span tracing of the tfcns layers from outside the package.

Nothing under ``src/`` knows about this module. ``Tracer.install`` patches,
at run time and only in the benchmark process that asks for it:

* every public op function on ``tfcns.autodiff``. ``nn``, ``layers``,
  ``metrics`` and ``model`` call ops as ``ad.<op>`` and the ``Tensor``
  operators look the op up as a module global, so both routes are seen. Only
  the outermost op is counted, so ``global_avg_pool`` -> ``reduce_mean`` is
  one op;
* the backward closure of every tape node an op appends, so backward time is
  attributed per op and per module path;
* ``__call__`` of every module class, at class level. The classes alias
  ``__call__ = forward`` and Python looks ``__call__`` up on the type, so
  patching an instance's ``forward`` would not intercept ``block(x)``.
  Instances are keyed by their registry path (``enc_blocks.2``);
* ``TFCNsModel.forward``, ``autodiff.backward`` and the training, loss and
  evaluation entry points that ``tfcns.training`` calls by module-global name.

Spans are kept in memory as ``[name, start, end, parent, unit, extra]`` and
written out by the caller when the process ends.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# Ops reported under their own name; every other op is reported as "other".
NAMED_OPS = ("conv2d", "conv_transpose2d", "concat", "gelu", "matmul")

# Module groups of TFCNsModel (registry path prefixes) with one layer per index.
_INDEXED = {"enc_blocks", "trans_down", "trans_up", "skip_gates", "dec_blocks"}

# Entry points patched on tfcns.training, with the span name they record.
TRAINING_CALLS = {
    "_prepare_batch": "training.batch",
    "sgd_step": "training.sgd",
    "combined_loss_parts": "metrics.loss",
    "evaluate_case": "metrics.eval_case",
}

NAME, START, END, PARENT, UNIT, EXTRA = range(6)


def layer_path(path: str):
    """The per-index layer a registry path belongs to (``enc_blocks.0.convs.1``
    -> ``enc_blocks.0``), or None for model glue outside the listed groups."""
    parts = path.split(".")
    if parts[0] == "encoder":
        if len(parts) >= 3 and parts[1] in ("attn_blocks", "mlp_blocks"):
            return ".".join(parts[:3])
        return None
    if parts[0] in _INDEXED and len(parts) >= 2:
        return ".".join(parts[:2])
    if parts[0] in ("stem", "patch_embed", "head"):
        return parts[0]
    return None


def group_of(layer: str) -> str:
    """``enc_blocks.0`` -> ``enc_blocks``; ``encoder.attn_blocks.1`` -> ``encoder.attn_blocks``."""
    parts = layer.split(".")
    return ".".join(parts[:2]) if parts[0] == "encoder" else parts[0]


def named_modules(module, prefix: str = ""):
    """(path, module) for every submodule, in the registry's path scheme."""
    from tfcns.nn import Module

    for name, value in vars(module).items():
        path = f"{prefix}.{name}" if prefix else name
        if isinstance(value, Module):
            yield path, value
            yield from named_modules(value, path)
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if isinstance(item, Module):
                    yield f"{path}.{i}", item
                    yield from named_modules(item, f"{path}.{i}")


def _held_buffers(obj, seen: dict) -> None:
    """Add every numpy buffer reachable from a closure cell value to ``seen``
    (keyed by the owning base array, so views are counted once)."""
    import numpy as np

    from tfcns.autodiff import Tensor

    if isinstance(obj, Tensor):
        obj = obj.data
    if isinstance(obj, np.ndarray):
        base = obj
        while isinstance(base.base, np.ndarray):
            base = base.base
        seen[id(base)] = base.nbytes
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _held_buffers(item, seen)


def tape_bytes(nodes) -> int:
    """Bytes of the arrays that the nodes' backward closures capture."""
    seen: dict = {}
    for node in nodes:
        fn = getattr(node.backward, "__wrapped__", node.backward)
        for cell in fn.__closure__ or ():
            try:
                _held_buffers(cell.cell_contents, seen)
            except ValueError:  # empty cell
                pass
    return sum(seen.values())


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self._paths: dict = {}
        self._path_stack: list = []
        self._op_depth = 0
        self.unit = -1
        self.tape_stats: dict = {}

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, extra=None) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.unit, extra])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._open.pop()

    def start_unit(self, unit: int) -> int:
        self.unit = unit
        return self.begin("unit")

    # -- installation ----------------------------------------------------------

    def attach_model(self, model) -> None:
        """Key the model's submodules by registry path."""
        self._paths = {id(m): path for path, m in named_modules(model)}

    def install(self) -> None:
        from tfcns import autodiff as ad
        from tfcns import layers, model, nn, training

        for name in ("add", "sub", "neg", "mul", "div", "exp", "log", "sqrt", "sigmoid", "gelu",
                     "softmax", "log_softmax", "reshape", "transpose", "narrow", "concat",
                     "reduce_sum", "reduce_mean", "matmul", "conv2d", "conv_transpose2d",
                     "avg_pool", "max_pool", "global_avg_pool", "layer_norm", "dropout"):
            if hasattr(ad, name):  # ops unused by the model may be deleted from tfcns
                setattr(ad, name, self._wrap_op(ad, name, getattr(ad, name)))
        ad.backward = self._wrap_backward(ad.backward)
        classes = {cls for mod in (nn, layers, model) for cls in vars(mod).values()
                   if isinstance(cls, type) and issubclass(cls, nn.Module)}
        for cls in classes:
            if "__call__" in vars(cls):
                cls.__call__ = self._wrap_module_call(cls.__call__)
        forward = self._wrap_call("model.forward", model.TFCNsModel.forward)
        model.TFCNsModel.forward = forward
        model.TFCNsModel.__call__ = forward
        for attr, span in TRAINING_CALLS.items():
            setattr(training, attr, self._wrap_call(span, getattr(training, attr)))

    def _wrap_call(self, span: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        traced.__wrapped__ = fn
        return traced

    def _wrap_module_call(self, fn):
        tracer = self

        def traced(module, *args, **kwargs):
            path = tracer._paths.get(id(module))
            if path is None:
                return fn(module, *args, **kwargs)
            idx = tracer.begin("model." + path)
            tracer._path_stack.append(path)
            try:
                return fn(module, *args, **kwargs)
            finally:
                tracer._path_stack.pop()
                tracer.end(idx)

        traced.__wrapped__ = fn
        return traced

    def _wrap_op(self, ad, name: str, fn):
        tracer = self
        group = name if name in NAMED_OPS else "other"
        span = "autodiff." + name

        def traced(*args, **kwargs):
            if tracer._op_depth:
                return fn(*args, **kwargs)
            tape = ad._active()
            n0 = len(tape.nodes) if tape is not None else 0
            extra = _conv_extra(args, kwargs) if name == "conv2d" else None
            idx = tracer.begin(span, extra)
            tracer._op_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._op_depth -= 1
                tracer.end(idx)
                if tape is not None and len(tape.nodes) > n0:
                    tracer._wrap_nodes(tape.nodes, n0, group)

        traced.__wrapped__ = fn
        return traced

    def _wrap_nodes(self, nodes, start: int, group: str) -> None:
        layer = None
        for path in self._path_stack:
            layer = layer_path(path)
            if layer is not None:
                break
        extra = (group, layer)
        for node in nodes[start:]:
            node.backward = self._timed_backward(node.backward, extra)

    def _timed_backward(self, fn, extra):
        tracer = self

        def traced(g):
            idx = tracer.begin("autodiff.backward_node", extra)
            try:
                return fn(g)
            finally:
                tracer.end(idx)

        traced.__wrapped__ = fn
        return traced

    def _wrap_backward(self, fn):
        tracer = self

        def traced(loss):
            tape = loss._tape
            if tape is not None:
                tracer.tape_stats[tracer.unit] = (len(tape.nodes), tape_bytes(tape.nodes))
            idx = tracer.begin("autodiff.backward")
            try:
                return fn(loss)
            finally:
                tracer.end(idx)

        traced.__wrapped__ = fn
        return traced

    # -- per-unit layer metrics ----------------------------------------------

    def unit_metrics(self) -> dict:
        """Per-layer metrics of every finished unit: {unit: {metric: value}}.
        A metric whose layer never ran in the unit is left out."""
        units: dict = {}
        for span in self.spans:
            u = span[UNIT]
            if u < 0:
                continue
            m = units.setdefault(u, defaultdict(float))
            name, dur = span[NAME], (span[END] - span[START]) * 1e3
            parent = self.spans[span[PARENT]] if span[PARENT] >= 0 else None
            if parent is not None and parent[NAME] == "unit":
                m["_covered_ms"] += dur
            if name == "unit":
                m["_unit_ms"] = dur
            elif name == "autodiff.backward_node":
                group, layer = span[EXTRA]
                m[f"autodiff.{group}.bwd_ms"] += dur
                if layer:
                    m[f"model.{group_of(layer)}.bwd_ms"] += dur
            elif name.startswith("autodiff."):
                op = name[len("autodiff."):]
                if op == "backward":
                    m["autodiff.backward_ms"] += dur
                    continue
                group = op if op in NAMED_OPS else "other"
                m[f"autodiff.{group}.fwd_ms"] += dur
                if op == "conv2d":
                    gflop, cols_mb = span[EXTRA]
                    m["autodiff.conv2d.calls"] += 1
                    m["autodiff.conv2d.gflop"] += gflop
                    m["autodiff.conv2d.cols_mb"] += cols_mb
            elif name == "model.forward":
                m["model.forward_ms"] += dur
            elif name.startswith("model."):
                path = name[len("model."):]
                if layer_path(path) == path:
                    m[f"model.{group_of(path)}.fwd_ms"] += dur
            else:
                key = {"training.batch": "training.batch_ms", "training.sgd": "training.sgd_ms",
                       "metrics.loss": "metrics.loss_ms",
                       "metrics.eval_case": "metrics.eval_case_ms"}.get(name)
                if key:
                    m[key] += dur
        out = {}
        for u, m in units.items():
            if "_unit_ms" not in m:
                continue
            nodes, nbytes = self.tape_stats.get(u, (0, 0))
            m["autodiff.tape_nodes"] = nodes
            m["autodiff.tape_mb"] = nbytes / 2**20
            unit_ms = m.pop("_unit_ms")
            m["trace.coverage"] = m.pop("_covered_ms", 0.0) / unit_ms if unit_ms else 0.0
            m["unit_ms"] = unit_ms
            out[u] = dict(m)
        return out


def _conv_extra(args, kwargs) -> tuple:
    """(forward GFLOP, im2col MB) of one conv2d call, from its shapes."""
    x, w = args[0], args[1]
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    padding = kwargs.get("padding", args[4] if len(args) > 4 else 0)
    b, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    gflop = 2.0 * b * o * c * kh * kw * ho * wo / 1e9
    direct = kh == 1 and kw == 1 and stride == 1 and padding == 0
    cols_mb = 0.0 if direct else b * c * kh * kw * ho * wo * x.data.itemsize / 2**20
    return gflop, cols_mb
