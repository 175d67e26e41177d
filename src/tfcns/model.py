"""Full network assembly: dense-block encoder with transition-downs, the
token-sequence transformer at the bottleneck, a mirrored decoder with gated
skip connections, a 1x1 segmentation head, class-activation maps, and a
binary checkpoint format.

The transformer's effective "patch size" P is realized by CNN downsampling:
log2(P) transition-downs shrink the input to an (H/P) x (W/P) bottleneck and
each bottleneck position becomes one token, so P in {8, 16, 32} is a depth
toggle rather than a re-tiling.

Checkpoint container layout (little-endian):

    magic   4 bytes  b"TFCN"
    version u32      currently 1
    payload:
        u32 + UTF-8 flat "key = value" config text (model config, iteration)
        u32 record count
        records: u16 + name UTF-8, then an array record (see ``data``)
    crc     u32      CRC32 of the payload bytes
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import processes
from .autodiff import Tensor
from .data import (SEED_HELP, config_field, config_kinds, format_config_text, pack_array, parse_config_value,
                   read_config_lines, unpack_array)
from .errors import ClassOutOfRange, ConfigInvalid, FormatError, ShapeMismatch, VersionError
from .layers import (
    CLAB,
    CUABLike,
    DenseBlock,
    MLP_BLOCKS,
    PatchEmbedding,
    RLTransformerEncoder,
    TransitionDown,
    TransitionUp,
    tokens_to_map,
)
from .nn import Conv2d, Module

CHECKPOINT_MAGIC = b"TFCN"
CHECKPOINT_VERSION = 1
_BLAS_LOCK = threading.Lock()
_BLAS_OPEN = []  # one entry per open _one_blas_thread block: the count before the first

SKIP_GATES = {"none": None, "clab": CLAB, "cuab_like": CUABLike}
SKIP_ATTENTION_CHOICES = tuple(SKIP_GATES)
MLP_VARIANT_CHOICES = tuple(MLP_BLOCKS)

_DEPTH_DEFAULTS = (4, 4, 6, 8, 10)


@dataclass(frozen=True)
class ModelConfig:
    """Architectural hyperparameters. ``layers_per_block``, ``resmlp_hidden``
    and ``clab_kernels`` accept None for depth-/width-derived defaults."""

    in_channels: int = config_field(1, "image channels")
    num_classes: int = config_field(4, "segmentation classes including background")
    input_size: int = config_field(224, "square input side; must be divisible by patch_size")
    first_conv_channels: int = config_field(24, "stem conv output channels")
    growth_rate: int = config_field(12, "channels added per dense-block layer")
    layers_per_block: Optional[tuple] = config_field(None, "per-stage dense layer counts, or 'auto'")
    patch_size: int = config_field(16, "transformer patch size (8/16/32); sets encoder depth")
    embed_dim: int = config_field(64, "token embedding width")
    transformer_layers: int = config_field(4, "attention/feed-forward layer pairs")
    n_heads: int = config_field(4, "attention heads")
    resmlp_hidden: Optional[int] = config_field(None, "feed-forward hidden width, or 'auto'")
    dropout_p: float = config_field(0.1, "dropout probability in blocks")
    skip_attention: str = config_field("clab", "skip gate: " + " | ".join(SKIP_ATTENTION_CHOICES))
    mlp_variant: str = config_field("resmlp", "feed-forward variant: " + " | ".join(MLP_VARIANT_CHOICES))
    clab_branches: int = config_field(4, "gate branch count")
    clab_kernels: Optional[int] = config_field(None, "kernels per gate branch, or 'auto'")
    seed: int = config_field(0, SEED_HELP)

    @property
    def n_stages(self) -> int:
        return int(round(math.log2(self.patch_size)))  # np.log2 raises TypeError from 2**64 up

    def stage_layers(self) -> tuple:
        if self.layers_per_block is not None:
            return tuple(self.layers_per_block)
        base = list(_DEPTH_DEFAULTS)
        while len(base) < self.n_stages:
            base.append(base[-1] + 2)
        return tuple(base[: self.n_stages])

    def hidden_dim(self) -> int:
        return self.resmlp_hidden if self.resmlp_hidden is not None else 4 * self.embed_dim

    def validate(self) -> None:
        for name in ("in_channels", "num_classes", "first_conv_channels", "growth_rate",
                     "embed_dim", "n_heads", "resmlp_hidden", "clab_branches", "clab_kernels"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigInvalid(f"{name} must be positive")
        p = self.patch_size
        if p < 4 or (p & (p - 1)) != 0:
            raise ConfigInvalid(f"patch_size {p} must be a power of two >= 4")
        if self.input_size < p or self.input_size % p:
            raise ConfigInvalid(f"input_size {self.input_size} not a positive multiple of patch_size {p}")
        for name in ("transformer_layers", "seed"):
            if getattr(self, name) < 0:
                raise ConfigInvalid(f"{name} {getattr(self, name)} must be non-negative")
        if self.embed_dim % self.n_heads:
            raise ConfigInvalid(f"embed_dim {self.embed_dim} not divisible by n_heads {self.n_heads}")
        if len(self.stage_layers()) != self.n_stages:
            raise ConfigInvalid(
                f"layers_per_block has {len(self.stage_layers())} entries, "
                f"patch_size {p} needs {self.n_stages}"
            )
        if min(self.stage_layers()) < 0:
            raise ConfigInvalid(f"layers_per_block {self.stage_layers()} has a negative entry")
        if self.skip_attention not in SKIP_ATTENTION_CHOICES:
            raise ConfigInvalid(f"skip_attention {self.skip_attention!r} not in {SKIP_ATTENTION_CHOICES}")
        if self.mlp_variant not in MLP_VARIANT_CHOICES:
            raise ConfigInvalid(f"mlp_variant {self.mlp_variant!r} not in {MLP_VARIANT_CHOICES}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigInvalid(f"dropout_p {self.dropout_p} outside [0, 1)")

    __post_init__ = validate  # a config is checked when built


_MODEL_KINDS = config_kinds(ModelConfig)


def model_config_to_text(cfg: ModelConfig, extra: Optional[dict] = None) -> str:
    items = [(name, getattr(cfg, name)) for name in _MODEL_KINDS]
    return format_config_text(items + list((extra or {}).items()))


def model_config_from_text(text: str) -> tuple[ModelConfig, dict]:
    """The model config in config text, plus its other keys unparsed."""
    values, extra = {}, {}
    for key, val in read_config_lines(text, "config text"):
        if key in _MODEL_KINDS:
            values[key] = parse_config_value(key, _MODEL_KINDS[key], val)
        else:
            extra[key] = val
    return ModelConfig(**values), extra


class TFCNsModel(Module):
    """Encoder (stem + dense blocks + transition-downs), token transformer at
    the bottleneck, decoder (transition-ups + skip gates + dense blocks that
    take the upsampled map and the gated skip as two inputs), and a 1x1 conv
    head producing B x num_classes x H x W logits."""

    def __init__(self, cfg: ModelConfig, rng: Optional[np.random.Generator] = None, dtype=np.float32):
        if rng is None:
            rng = np.random.default_rng(cfg.seed)
        # each submodule is cast as it is built, so at most one submodule's
        # float64 init draws are alive at a time
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        stages = cfg.n_stages
        layers = cfg.stage_layers()

        self.stem = Conv2d(cfg.in_channels, cfg.first_conv_channels, 3, rng).astype(dtype)
        self.enc_blocks = []
        self.trans_down = []
        self.skip_channels = []
        channels = cfg.first_conv_channels
        for s in range(stages):
            block = DenseBlock(channels, cfg.growth_rate, layers[s], rng, cfg.dropout_p).astype(dtype)
            channels = block.out_channels
            self.enc_blocks.append(block)
            self.skip_channels.append(channels)
            self.trans_down.append(TransitionDown(channels, channels, rng).astype(dtype))

        self.bottleneck_size = cfg.input_size // cfg.patch_size
        n_tokens = self.bottleneck_size ** 2
        self.patch_embed = PatchEmbedding(channels, cfg.embed_dim, n_tokens, rng).astype(dtype)
        self.encoder = RLTransformerEncoder(
            cfg.embed_dim, cfg.transformer_layers, cfg.n_heads, cfg.hidden_dim(),
            rng, cfg.dropout_p, cfg.mlp_variant,
        ).astype(dtype)

        self.trans_up = []
        self.skip_gates = []
        self.dec_blocks = []
        channels = cfg.embed_dim
        gate = SKIP_GATES[cfg.skip_attention]
        for s in reversed(range(stages)):
            skip_ch = self.skip_channels[s]
            self.trans_up.append(TransitionUp(channels, skip_ch, rng).astype(dtype))
            kernels = cfg.clab_kernels if cfg.clab_kernels is not None else max(1, skip_ch // 2)
            self.skip_gates.append(None if gate is None else
                                   gate(skip_ch, cfg.clab_branches, kernels, rng).astype(dtype))
            block = DenseBlock(2 * skip_ch, cfg.growth_rate, layers[s], rng, cfg.dropout_p).astype(dtype)
            channels = block.out_channels
            self.dec_blocks.append(block)

        self.head = Conv2d(channels, cfg.num_classes, 1, rng).astype(dtype)

        for name, p in self.named_parameters():
            p.name = name

    @property
    def token_count(self) -> int:
        return self.patch_embed.n_tokens + 1

    def _to_tensor(self, x) -> Tensor:
        if isinstance(x, Tensor):
            return x
        return Tensor(np.asarray(x), dtype=self.dtype)

    def forward(self, x, rng: Optional[np.random.Generator] = None) -> Tensor:
        """B x num_classes x H x W logits; dropout runs when given a generator."""
        return ad.split_rows(self.head, self.features(x, rng))

    def features(self, x, rng: Optional[np.random.Generator] = None) -> Tensor:
        """The last decoder block's output, the feature maps the head reads."""
        x = self._to_tensor(x)
        sample = (self.cfg.in_channels, self.cfg.input_size, self.cfg.input_size)
        if x.shape[1:] != sample:
            raise ShapeMismatch(f"input sample shape {x.shape[1:]} differs from the configured "
                                f"(in_channels, input_size, input_size) {sample}")

        # A dense block empties its input list once copied, so no name here
        # keeps a block's inputs alive during its call.
        # The stem, the transitions, the dense blocks, the skip gates' tails
        # and the head are row-local: in a forward split by rows (see
        # _tape_free) each process computes half of their rows. The patch
        # embedding reads the whole map.
        y = ad.split_rows(self.stem, x, halo=1)
        skips = []
        for block, down in zip(self.enc_blocks, self.trans_down):
            y = [y]
            y = block(y, rng)
            skips.append(y)
            y = ad.split_rows(down, y, pool=2)

        hf = self.bottleneck_size
        tokens = self.patch_embed(ad.whole_rows(y))
        tokens = self.encoder(tokens, rng)
        y = tokens_to_map(tokens, hf, hf)

        for up, gate, block in zip(self.trans_up, self.skip_gates, self.dec_blocks):
            skip = skips.pop()  # without a tape, the raw skip is freed once gated
            y = ad.split_rows(up, y, up=2)
            if gate is not None:
                skip = gate(skip)
            y = [y, skip]
            del skip
            y = block(y, rng)
        return y


def build(cfg: ModelConfig, rng: Optional[np.random.Generator] = None, dtype=np.float32) -> TFCNsModel:
    """Deterministically initialized model; given the same seed (or generator
    state) the parameter bytes are identical."""
    return TFCNsModel(cfg, rng, dtype=dtype)


@functools.lru_cache(maxsize=None)
def _openblas_threads() -> Optional[tuple]:
    """(get, set) of the thread count of the OpenBLAS that numpy calls, or
    None where numpy uses another BLAS."""
    core = getattr(np, "_core", None) or np.core  # np.core before numpy 2
    lib = ctypes.CDLL(core._multiarray_umath.__file__)  # its symbol lookup reaches the BLAS it links
    for name in ("scipy_openblas{}64_", "openblas{}64_", "openblas{}"):
        get = getattr(lib, name.format("_get_num_threads"), None)
        put = getattr(lib, name.format("_set_num_threads"), None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS at one thread, whatever the CPU count (the
    float32 GEMMs give other bits at other counts); no change where numpy uses
    another BLAS. The count belongs to the process: blocks open in several
    threads share it, and the count before the first returns after the last."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    with _BLAS_LOCK:
        _BLAS_OPEN.append(_BLAS_OPEN[0] if _BLAS_OPEN else get())
        put(1)
    try:
        yield
    finally:
        with _BLAS_LOCK:
            before = _BLAS_OPEN.pop()
            if not _BLAS_OPEN:
                put(before)


# Fewest pixels (samples x H x W) of an input whose tape-free forward runs
# split by rows. Over two processes a split forward pays for a fork, a join
# and a pipe token per band it swaps. Median predict of the paper model
# (float32, P=16, B=1, 2 CPUs), whole against split: 83 against 83 ms at
# 64^2, 176-186 against 155-158 ms at 96^2, 311 against 238 ms at 128^2, 927
# against 627-670 ms at 224^2. The rule reads only the shape, so the bits do
# not depend on the machine.
_MIN_SPLIT_PIXELS = 96 * 96


def _partner_main(conn, shared, fn, x: Tensor, slot: int) -> None:
    with ad._split_by_rows(processes.RowPartner(1, conn, shared, slot)):
        ad.whole_rows(fn(x), (0,))


def _tape_free(model: TFCNsModel, fn, x) -> Tensor:
    """``fn(x)`` (the model's forward or features) at one OpenBLAS thread.
    An input of at least _MIN_SPLIT_PIXELS pixels runs split by rows: each
    row-local op computes its output by halves of the rows (see
    ``autodiff.split_rows``). Where ``processes.may_fork_partner()``, a
    partner process forked for the call runs the same forward, computes the
    second halves and sends its rows of the result at the end; each process
    holds only the rows it computes of each map, and fetches the rows an op
    reads that it does not hold. Else this process computes both halves in
    turn, with the same bits."""
    x = model._to_tensor(x)
    pixels = x.shape[0] * x.shape[2] * x.shape[3] if x.ndim == 4 else 0  # fn raises ShapeMismatch for other ranks
    with _one_blas_thread():  # entered first, so that the partner inherits the count
        if pixels < _MIN_SPLIT_PIXELS:
            return fn(x)
        if not processes.may_fork_partner():
            with ad._split_by_rows(ad.RowSplit()):
                return ad.whole_rows(fn(x), (0,))
        slot = max(ad._BAND_ELEMS, x.shape[3])  # a band holds at least one row
        with processes.forked(_partner_main, (fn, x, slot), "prediction partner",
                              2 * slot * processes.SLOT_ITEMSIZE, 0.0) as (conn, shared):
            with ad._split_by_rows(processes.RowPartner(0, conn, shared, slot)):
                return ad.whole_rows(fn(x), (0,))


def predict(model: TFCNsModel, x) -> np.ndarray:
    """Per-pixel argmax over the class logits -> B x H x W class indices (the
    softmax is monotone, so this is the most probable class). Ties resolve to
    the lowest class index. A large input's forward is split over two
    processes (see _tape_free)."""
    logits = _tape_free(model, model.forward, x)
    return np.argmax(logits.data, axis=1).astype(np.int32)


def class_activation_map(model: TFCNsModel, x, target_class: int) -> np.ndarray:
    """Head-weighted sum of the pre-head feature maps for one class, ReLU'd
    and min-max normalized per sample into [0,1]. A constant (typically
    all-zero) map normalizes to zeros."""
    if not 0 <= target_class < model.cfg.num_classes:
        raise ClassOutOfRange(f"class {target_class} outside [0, {model.cfg.num_classes})")
    features = _tape_free(model, model.features, x)
    weights = model.head.weight.data[target_class, :, 0, 0]
    with _one_blas_thread():
        cam = np.tensordot(features.data, weights, axes=([1], [0]))
    cam = np.maximum(cam, 0.0)
    lo = cam.min(axis=(1, 2), keepdims=True)
    hi = cam.max(axis=(1, 2), keepdims=True)
    span = hi - lo
    with np.errstate(invalid="ignore", divide="ignore"):
        normed = np.where(span > 0, (cam - lo) / np.where(span > 0, span, 1.0), 0.0)
    return normed.astype(np.float64)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict
    momentum: dict = field(default_factory=dict)
    iteration: int = 0


_MOMENTUM_PREFIX = "optimizer.momentum/"


def save_checkpoint(model: TFCNsModel, optimizer_state, path) -> None:
    """Write model parameters (and, when given, optimizer momentum buffers and
    the iteration counter) to the TFCN container. Byte-identical for identical
    state. The file is written to ``<path>.tmp``, synced and renamed over
    ``path``, so a crash mid-write leaves the previous checkpoint intact."""
    iteration = 0 if optimizer_state is None else optimizer_state.iteration
    text = model_config_to_text(model.cfg, extra={"iteration": iteration}).encode("utf-8")
    chunks = [struct.pack("<I", len(text)), text]
    records = [(name, p.data) for name, p in model.named_parameters()]
    if optimizer_state is not None:
        records += [
            (_MOMENTUM_PREFIX + name, buf) for name, buf in optimizer_state.momentum.items()
        ]
    chunks.append(struct.pack("<I", len(records)))
    for name, arr in records:
        name_b = name.encode("utf-8")
        chunks += [struct.pack("<H", len(name_b)), name_b, *pack_array(arr)]
    payload = b"".join(chunks)
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION))
            f.write(payload)
            f.write(struct.pack("<I", zlib.crc32(payload)))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> Checkpoint:
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise VersionError(version, CHECKPOINT_VERSION)
    payload = blob[8:-4]
    (crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if crc != zlib.crc32(payload):
        raise FormatError(f"{path}: CRC mismatch")
    params, momentum = {}, {}
    try:
        (text_len,) = struct.unpack_from("<I", payload, 0)
        offset = 4 + text_len
        cfg, extra = model_config_from_text(payload[4:offset].decode("utf-8"))
        iteration = parse_config_value("iteration", "int", extra.get("iteration", "0"))
        (n_records,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        for _ in range(n_records):
            (name_len,) = struct.unpack_from("<H", payload, offset)
            offset += 2 + name_len
            name = payload[offset - name_len:offset].decode("utf-8")
            arr, offset = unpack_array(payload, offset, path)
            if name.startswith(_MOMENTUM_PREFIX):
                momentum[name[len(_MOMENTUM_PREFIX):]] = arr
            else:
                params[name] = arr
    except (struct.error, UnicodeDecodeError, ConfigInvalid) as exc:
        raise FormatError(f"{path}: malformed payload: {exc}") from exc
    if offset != len(payload):
        raise FormatError(f"{path}: trailing bytes in payload")
    return Checkpoint(config=cfg, params=params, momentum=momentum, iteration=iteration)


def restore_parameters(model: TFCNsModel, params: dict) -> None:
    """Copy checkpointed arrays into the model's registry; names must match
    exactly in both directions."""
    names = {name for name, _ in model.named_parameters()}
    missing = names - params.keys()
    extra = params.keys() - names
    if missing or extra:
        raise FormatError(
            f"parameter registry mismatch (missing: {sorted(missing)[:3]}, "
            f"unexpected: {sorted(extra)[:3]})"
        )
    for name, p in model.named_parameters():
        arr = params[name]
        if tuple(arr.shape) != p.shape:
            raise FormatError(f"{name}: checkpoint shape {arr.shape} != model {p.shape}")
        p.data = np.array(arr, dtype=p.dtype, order="C")


class _NoDraw:
    """Generator stand-in for a model whose parameters are about to be
    overwritten: every init draw is zeros, so no random numbers are drawn.
    The draws total at most ``budget`` elements, the checkpoint's parameter
    count, so a config claiming a larger model fails before allocating it."""

    def __init__(self, budget: int, source):
        self.budget = budget
        self.source = source

    def standard_normal(self, shape) -> np.ndarray:
        self.budget -= math.prod(shape)
        if self.budget < 0:
            raise FormatError(f"{self.source}: config describes more parameters than the file holds")
        return np.zeros(shape)


def model_from_checkpoint(path) -> tuple[TFCNsModel, Checkpoint]:
    """Rebuild a model from a checkpoint file; the restored model's forward
    pass is bit-identical to the saved one's. Every parameter record must be
    float32, or every one float64."""
    ckpt = load_checkpoint(path)
    dtypes = {arr.dtype.name for arr in ckpt.params.values()}
    if dtypes not in ({"float32"}, {"float64"}):
        raise FormatError(f"{path}: parameter records must be all float32 or all float64, got {sorted(dtypes)}")
    budget = sum(arr.size for arr in ckpt.params.values())
    model = build(ckpt.config, rng=_NoDraw(budget, path), dtype=dtypes.pop())
    restore_parameters(model, ckpt.params)
    return model, ckpt

