"""Property tests for config text, dataset directories and the command line:
whatever a config file, a dataset directory, an image or a checkpoint holds,
only ConfigInvalid, FormatError, VersionError or DatasetError escapes a
reader, and ``tfcns`` returns 0, 1 or 2 without raising.

Config text is drawn line by line from real keys, unknown keys, extreme
values, comments and junk. Each TNSR file or checkpoint gets at most one of
the binary reader properties' mutations (a header field set to an extreme
value, a truncation, byte flips); a checkpoint may instead get one config
value replaced, with its CRC recomputed. A dataset directory gets at most
one of: a mutated file, a missing file, a mask that does not align with its
image, a case of another size, an array of another dtype or rank.

``train`` and ``ablate`` read fuzzed config text with no dataset directory,
so they exit at dataset loading before a model is built: a valid config
whose model does not fit in memory is not a malformed input.
"""

import contextlib
import dataclasses
import struct
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_model_config
from test_reader_properties import ALLOC_FACTOR, ALLOC_SLACK, FUZZ, mutated, pack, record_fields
from tfcns.cli import SCHEMA, RunConfig, main
from tfcns.data import SegmentationPair, load_dataset, pack_array, read_config_lines, write_tensor
from tfcns.errors import ConfigInvalid, DatasetError, FormatError, ShapeMismatch, VersionError
from tfcns.model import (ModelConfig, build, model_config_from_text, model_config_to_text, model_from_checkpoint,
                         save_checkpoint)
from tfcns.training import TrainConfig, train

DOCUMENTED = (ConfigInvalid, FormatError, VersionError, DatasetError)

KEYS = [key for key, _, _ in SCHEMA] + ["iteration", "bogus", ""]
VALUES = st.one_of(
    st.sampled_from(["0", "-1", "1", "2", "3", "8", "16", "32", "1536", "auto", "nan", "inf", "1e400",
                     "true", "no", "clab", "none", "plain_mlp", "1,1,1", "2,-1,1", "", "0x10",
                     str(2 ** 64), "9" * 5000]),
    st.text(max_size=6),
)
CONFIG_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(KEYS), VALUES),
    st.text(max_size=8).map("# {}".format),
    st.text(max_size=8),
)
CONFIG_TEXTS = st.lists(CONFIG_LINES, max_size=6).map("\n".join)
# config files: text, text followed by raw bytes (maybe not UTF-8), or raw bytes
CONFIG_FILES = st.one_of(CONFIG_TEXTS.map(str.encode),
                         st.builds(lambda text, tail: text.encode() + tail, CONFIG_TEXTS, st.binary(max_size=4)),
                         st.binary(max_size=40))

# flags that make the command line build the tiny_model_config() network and train it for one step
TINY_FLAGS = [arg for key, value in [
    ("input_size", 16), ("num_classes", 2), ("patch_size", 8), ("first_conv_channels", 3), ("growth_rate", 2),
    ("layers_per_block", "1,1,1"), ("embed_dim", 6), ("transformer_layers", 1), ("n_heads", 2),
    ("resmlp_hidden", 6), ("clab_branches", 2), ("clab_kernels", 2), ("dropout_p", 0.0), ("batch_size", 2),
    ("max_iterations", 1), ("eval_every", 0),
] for arg in ("--set", f"{key}={value}")]


def fresh_dir(root) -> Path:
    """An empty directory under ``root``; a test's tmp_path is shared by all its examples."""
    return Path(tempfile.mkdtemp(dir=root))


def tnsr(arr: np.ndarray) -> bytes:
    return b"TNSR" + pack([("version", "<H", 1)] + record_fields("record", arr)) + \
        struct.pack("<I", zlib.crc32(arr.tobytes()))


@st.composite
def mutated_tnsr(draw, arr: np.ndarray) -> bytes:
    body, _ = draw(mutated([("version", "<H", 1)] + record_fields("record", arr)))
    return b"TNSR" + body + struct.pack("<I", zlib.crc32(arr.tobytes()))


def case_arrays(side: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A 1 x side x side image in [0,1] and its two-class mask."""
    image = np.random.default_rng(seed).random((1, side, side)).astype(np.float32)
    return image, (image[0] > 0.5).astype(np.int32)


@st.composite
def dataset_dirs(draw, side: int):
    """(file name -> bytes, mutation kind) of a dataset directory of 1-3 cases."""
    cases = {f"c{i}": case_arrays(side, i) for i in range(draw(st.integers(1, 3)))}
    kind = draw(st.sampled_from(["none", "bytes", "missing", "misalign", "resize", "dtype", "rank"]))
    victim = draw(st.sampled_from(sorted(cases)))
    image, mask = cases[victim]
    if kind == "misalign":
        mask = mask[:, :-2]
    if kind == "resize":
        image, mask = case_arrays(side // 2, 9)
    if kind == "dtype":
        dtype = draw(st.sampled_from(["<f8", "u1", "<i4", "<f4"]))
        image, mask = draw(st.sampled_from([(image.astype(dtype), mask), (image, mask.astype(dtype))]))
    if kind == "rank":
        image, mask = draw(st.sampled_from([(image[0], mask), (image[None], mask), (image, mask[None])]))
    cases[victim] = image, mask
    files = {}
    for stem, (image, mask) in cases.items():
        files[f"{stem}.img.tnsr"], files[f"{stem}.msk.tnsr"] = tnsr(image), tnsr(mask)
    name = draw(st.sampled_from(sorted(files)))
    if kind == "bytes":
        arr = cases[name.split(".")[0]][name.endswith(".msk.tnsr")]
        files[name] = draw(mutated_tnsr(arr))
    if kind == "missing":
        del files[name]
    return files, kind


def write_dir(root, files: dict) -> Path:
    directory = fresh_dir(root)
    for name, blob in files.items():
        (directory / name).write_bytes(blob)
    return directory


@st.composite
def checkpoint_files(draw):
    """The bytes of a checkpoint of the tiny_model_config() network after one
    drawn mutation: a binary one, or one config value replaced."""
    model = build(tiny_model_config())
    text = model_config_to_text(model.cfg, extra={"iteration": 0})
    if draw(st.booleans()):
        key = draw(st.sampled_from([f.name for f in dataclasses.fields(ModelConfig)]))
        lines = [f"{key} = {draw(VALUES)}" if line.startswith(f"{key} =") else line for line in text.splitlines()]
        text = "\n".join(lines) + "\n"
    text = text.encode("utf-8")
    params = list(model.named_parameters())
    fields = [("version", "<I", 1), ("text length", "<I", len(text)), ("config text", None, text),
              ("record count", "<I", len(params))]
    for name, p in params:
        fields += [("name length", "<H", len(name)), ("name", None, name.encode("utf-8"))]
        fields += record_fields(f"record {name}", p.data)
    body, _ = draw(mutated(fields))
    return b"TFCN" + body + struct.pack("<I", zlib.crc32(body[4:]))


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A valid checkpoint, image and dataset directory for the tiny network."""
    root = tmp_path_factory.mktemp("cli-inputs")
    ckpt = root / "m.ckpt"
    save_checkpoint(build(tiny_model_config()), None, ckpt)
    image, mask = case_arrays(16, 0)
    write_tensor(root / "image.tnsr", image)
    data = root / "data"
    data.mkdir()
    write_tensor(data / "c0.img.tnsr", image)
    write_tensor(data / "c0.msk.tnsr", mask)
    return {"checkpoint": ckpt, "image": root / "image.tnsr", "dataset": data}


# -- readers ------------------------------------------------------------------

@settings(FUZZ, max_examples=100)
@given(text=CONFIG_TEXTS)
def test_config_text_raises_only_config_invalid(text):
    with contextlib.suppress(ConfigInvalid):
        read_config_lines(text, "fuzz")
    with contextlib.suppress(ConfigInvalid):
        model_config_from_text(text)


@settings(FUZZ, max_examples=60)
@given(blob=CONFIG_FILES)
def test_config_file_raises_only_config_invalid(blob, tmp_path):
    path = fresh_dir(tmp_path) / "c.txt"
    path.write_bytes(blob)
    rc = RunConfig()
    with contextlib.suppress(ConfigInvalid):
        rc.load_file(path)
        rc.model_config()
        rc.train_config()


@settings(FUZZ, max_examples=60)
@given(case=dataset_dirs(8))
def test_load_dataset_raises_only_documented_errors(case, tmp_path):
    files, kind = case
    pairs = None
    with contextlib.suppress(*DOCUMENTED):
        pairs = load_dataset(write_dir(tmp_path, files))
    if kind == "none":
        assert pairs is not None
        for pair in pairs:
            image, mask = case_arrays(8, int(pair.case_id[1:]))
            assert np.array_equal(pair.image, image) and np.array_equal(pair.mask, mask)


def test_config_text_with_a_patch_size_beyond_int64_is_checked():
    """n_stages once took np.log2 of patch_size, a TypeError from 2**64 up."""
    cfg, _ = model_config_from_text(f"patch_size = {2 ** 64}\ninput_size = {2 ** 64}\n")
    assert cfg.n_stages == 64


def test_training_images_of_different_shapes_are_a_shape_mismatch():
    """A batch stacks its images, so a mixed-size training set once raised ValueError."""
    pairs = [SegmentationPair(*case_arrays(side, 0), case_id=f"c{side}") for side in (16, 8)]
    with pytest.raises(ShapeMismatch, match="differ in shape"):
        train(build(tiny_model_config()), pairs, TrainConfig(batch_size=2, max_iterations=1))


def test_checkpoint_claiming_a_larger_model_fails_before_allocating_it(tmp_path):
    """A CRC-valid checkpoint whose config is the paper default at embed_dim
    1536, holding one stem weight, is refused before the model is built."""
    text = model_config_to_text(ModelConfig(embed_dim=1536), extra={"iteration": 0}).encode("utf-8")
    name = b"stem.weight"
    head, data = pack_array(np.zeros((24, 1, 3, 3), np.float32))
    payload = struct.pack("<I", len(text)) + text + struct.pack("<IH", 1, len(name)) + name + head + data
    blob = b"TFCN" + struct.pack("<I", 1) + payload + struct.pack("<I", zlib.crc32(payload))
    path = tmp_path / "big.ckpt"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="more parameters than the file holds"):
            model_from_checkpoint(path)
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak <= ALLOC_FACTOR * len(blob) + ALLOC_SLACK, f"peaked at {peak} bytes"


# -- the command line ---------------------------------------------------------

def run_cli(args) -> None:
    rc = main([str(a) for a in args])
    assert rc in (0, 1, 2), f"tfcns {' '.join(map(str, args))} returned {rc}"


@settings(FUZZ, max_examples=30)
@given(blob=CONFIG_FILES, command=st.sampled_from([
    ["train"], ["eval"], ["predict", "--image", "missing"],
    ["cam", "--image", "missing", "--target-class", "1"], ["ablate", "--axis", "mlp"],
]))
def test_cli_on_fuzzed_config_text(blob, command, tmp_path):
    root = fresh_dir(tmp_path)
    (root / "c.txt").write_bytes(blob)
    missing = root / "missing"
    run_cli([*command, "--config", root / "c.txt", "--set", f"dataset_dir={missing}",
             "--set", f"checkpoint={missing}", "--out", root / "out"])


@settings(FUZZ, max_examples=20)
@given(image=st.sampled_from([(1, 16, 16), (16, 16), (1, 8, 8), (2, 16, 16)]).flatmap(
    lambda shape: mutated_tnsr(np.full(shape, 0.5, np.float32))),
    command=st.sampled_from([["predict"], ["cam", "--target-class", "1"]]))
def test_cli_on_fuzzed_image(image, command, cli_inputs, tmp_path):
    root = fresh_dir(tmp_path)
    (root / "image.tnsr").write_bytes(image)
    run_cli([*command, "--set", f"checkpoint={cli_inputs['checkpoint']}", "--image", root / "image.tnsr",
             "--out", root / "out"])


@settings(FUZZ, max_examples=25)
@given(ckpt=checkpoint_files(), command=st.sampled_from(["eval", "predict", "cam"]))
def test_cli_on_fuzzed_checkpoint(ckpt, command, cli_inputs, tmp_path):
    root = fresh_dir(tmp_path)
    (root / "m.ckpt").write_bytes(ckpt)
    extra = {"eval": ["--set", f"dataset_dir={cli_inputs['dataset']}"],
             "predict": ["--image", cli_inputs["image"]],
             "cam": ["--image", cli_inputs["image"], "--target-class", "1"]}[command]
    run_cli([command, *extra, "--set", f"checkpoint={root / 'm.ckpt'}", "--out", root / "out"])


@settings(FUZZ, max_examples=25)
@given(case=dataset_dirs(16), command=st.sampled_from([["train"], ["eval"], ["ablate", "--axis", "mlp"]]))
def test_cli_on_fuzzed_dataset(case, command, cli_inputs, tmp_path):
    files, _ = case
    root = fresh_dir(tmp_path)
    data = write_dir(root, files)
    flags = ["--set", f"checkpoint={cli_inputs['checkpoint']}"] if command[0] == "eval" else TINY_FLAGS
    run_cli([*command, *flags, "--set", f"dataset_dir={data}", "--out", root / "out"])
