"""Property tests for the two binary readers, ``read_tensor`` and
``load_checkpoint``: whatever bytes a file holds, only FormatError or
VersionError escapes, and no allocation is larger than the file implies.

Files are built from typed header fields, and each gets at most one
mutation: one field (dtype tag, rank, the dims, version, text length, record
count, name length) set to an extreme value, a truncation, or byte flips. A
checkpoint's CRC is recomputed after mutating, because it is checked before
the parser runs; a TNSR file's CRC covers only its payload and is checked
last, so a mutated header reaches the parser either way.
"""

import struct
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from conftest import tiny_model_config
from tfcns.data import DTYPE_TAGS, read_tensor
from tfcns.errors import FormatError, VersionError
from tfcns.model import load_checkpoint, model_config_to_text

# Hypothesis caches the constants it reads from local source files in its home
# directory, ./.hypothesis by default, while pytest collects; keep it out of the tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "tfcns-hypothesis")
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# struct format -> extreme values for a field of that width
EXTREMES = {
    "<B": st.sampled_from([0, 1, 3, 4, 64, 65, 0xFF]),
    "<H": st.sampled_from([0, 1, 2, 0x7FFF, 0xFFFF]),
    "<I": st.sampled_from([0, 1, 2, 1 << 16, 1 << 21, 1 << 31, 0xFFFFFFFF]),
}

# Reading a file holds the file, a copy of its payload and the arrays parsed
# from it; the slack covers interpreter bookkeeping and exception text.
ALLOC_FACTOR, ALLOC_SLACK = 3, 64 * 1024


@st.composite
def arrays(draw):
    dtype = draw(st.sampled_from(list(DTYPE_TAGS.values())))
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=4)))
    return np.arange(int(np.prod(shape)), dtype=dtype).reshape(shape)


def record_fields(name: str, arr: np.ndarray) -> list:
    """An array record as (field name, struct format, value) fields; a raw
    byte run has format None."""
    tag = next(t for t, d in DTYPE_TAGS.items() if d == arr.dtype)
    return ([(f"{name} dtype tag", "<B", tag), (f"{name} rank", "<B", arr.ndim)]
            + [(f"{name} dim", "<I", d) for d in arr.shape]
            + [(f"{name} payload", None, arr.tobytes())])


def pack(fields) -> bytes:
    return b"".join(value if fmt is None else struct.pack(fmt, value) for _, fmt, value in fields)


@st.composite
def mutated(draw, fields):
    """The bytes of ``fields`` after one drawn mutation, plus whether there
    was one: every field of one name (so all dims of a record at once) set to
    an extreme value, a truncation, or one to three byte flips."""
    kind = draw(st.sampled_from(["none", "field", "truncate", "flip"]))
    if kind == "field":
        formats = {name: fmt for name, fmt, _ in fields if fmt is not None}
        target = draw(st.sampled_from(sorted(formats)))
        value = draw(EXTREMES[formats[target]])
        fields = [(name, fmt, value if name == target else v) for name, fmt, v in fields]
    blob = bytearray(pack(fields))
    if kind == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)):]
    if kind == "flip":
        for i in draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=3)):
            blob[i] ^= draw(st.integers(1, 0xFF))
    return bytes(blob), kind != "none"


@st.composite
def tensor_files(draw):
    arr = draw(arrays())
    fields = [("version", "<H", 1)] + record_fields("record", arr)
    body, changed = draw(mutated(fields))
    crc = struct.pack("<I", zlib.crc32(arr.tobytes()))
    return b"TNSR" + body + crc, arr, changed


@st.composite
def checkpoint_files(draw):
    text = model_config_to_text(tiny_model_config(), extra={"iteration": draw(st.integers(0, 9))})
    text = text.encode("utf-8")
    records = draw(st.lists(arrays(), max_size=3))
    fields = [("version", "<I", 1), ("text length", "<I", len(text)), ("config text", None, text),
              ("record count", "<I", len(records))]
    for i, arr in enumerate(records):
        name = f"p{i}".encode("utf-8")
        fields += [("name length", "<H", len(name)), ("name", None, name)]
        fields += record_fields(f"record {i}", arr)
    body, changed = draw(mutated(fields))
    crc = struct.pack("<I", zlib.crc32(body[4:]))  # the payload follows the version
    return b"TFCN" + body + crc, records, changed


def read_bounded(reader, path, size: int):
    """``reader(path)``'s result, or None when it raised a documented error;
    fails if reading allocated more than the file implies at its peak."""
    tracemalloc.start()
    try:
        return reader(path)
    except (FormatError, VersionError):
        return None
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= ALLOC_FACTOR * size + ALLOC_SLACK, f"read of a {size}-byte file peaked at {peak} bytes"


@FUZZ
@given(case=tensor_files())
def test_read_tensor_raises_only_format_or_version_errors(case, tmp_path):
    blob, arr, changed = case
    path = tmp_path / "f.tnsr"
    path.write_bytes(blob)
    back = read_bounded(read_tensor, path, len(blob))
    if not changed:
        assert back is not None and back.dtype == arr.dtype and np.array_equal(back, arr)


@FUZZ
@given(case=checkpoint_files())
def test_load_checkpoint_raises_only_format_or_version_errors(case, tmp_path):
    blob, records, changed = case
    path = tmp_path / "f.ckpt"
    path.write_bytes(blob)
    ckpt = read_bounded(load_checkpoint, path, len(blob))
    if not changed:
        assert ckpt is not None and ckpt.config == tiny_model_config()
        assert [ckpt.params[f"p{i}"].tobytes() for i in range(len(records))] == [a.tobytes() for a in records]


def test_allocation_bound_sees_an_oversized_allocation(tmp_path):
    """The tracemalloc bound the properties rely on notices numpy buffers."""
    path = tmp_path / "f.tnsr"
    path.write_bytes(b"")

    def allocating_reader(p):
        np.ones(1 << 20, dtype=np.uint8)
        return read_tensor(p)

    with pytest.raises(AssertionError, match="peaked"):
        read_bounded(allocating_reader, path, 0)
