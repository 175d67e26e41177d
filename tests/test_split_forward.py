"""A tape-free forward split by rows (model._tape_free): the same bits over
two processes as in one, and no partner process outlives a call."""

import dataclasses
import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import child_pids

from tfcns import autodiff as ad
from tfcns import model as model_mod
from tfcns import processes
from tfcns.errors import NonFiniteValue, WorkerFailed
from tfcns.model import ModelConfig, build, class_activation_map, predict

ROOT = Path(__file__).resolve().parent.parent
CAN_SPLIT = "fork" in multiprocessing.get_all_start_methods() and processes.usable_cpus() >= 2
needs_two_processes = pytest.mark.skipif(not CAN_SPLIT, reason="needs fork and two usable CPUs")


def split_config(size: int, patch: int) -> ModelConfig:
    """A narrow model of the paper's shape: its small float32 GEMMs take
    other BLAS code paths when their row count halves."""
    layers = {8: (2, 1, 2), 16: (2, 1, 2, 1)}[patch]
    return ModelConfig(num_classes=3, input_size=size, first_conv_channels=6, growth_rate=4,
                       layers_per_block=layers, patch_size=patch, embed_dim=8, transformer_layers=1,
                       n_heads=2, seed=5)


@pytest.fixture
def split_every_input(monkeypatch):
    monkeypatch.setattr(model_mod, "_MIN_SPLIT_PIXELS", 1)


@pytest.fixture
def forks(monkeypatch) -> list:
    """The pids that os.fork returned in this process during the test."""
    seen = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            seen.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return seen


def logits(model, x, fork_allowed: bool, monkeypatch) -> np.ndarray:
    with monkeypatch.context() as m:
        if not fork_allowed:
            m.setattr(processes, "may_fork_partner", lambda: False)
        out = model_mod._tape_free(model, model.forward, x).data
    assert child_pids() == []
    return out


def sample(batch: int, size: int, dtype, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((batch, 1, size, size)).astype(dtype)


@needs_two_processes
@pytest.mark.usefixtures("split_every_input")
class TestSameBits:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("size, patch", [(32, 8), (32, 16), (64, 8), (64, 16)])
    def test_logits_over_two_processes_equal_one_process(self, size, patch, batch, dtype, forks, monkeypatch):
        model = build(split_config(size, patch), dtype=dtype)
        x = sample(batch, size, dtype)
        alone = logits(model, x, False, monkeypatch)
        assert forks == []
        split = logits(model, x, True, monkeypatch)
        assert len(forks) == 1
        assert split.dtype == dtype and split.tobytes() == alone.tobytes()

    def test_class_activation_maps_are_equal(self, forks, monkeypatch):
        model = build(split_config(64, 16))
        x = sample(2, 64, np.float32)
        with monkeypatch.context() as m:
            m.setattr(processes, "may_fork_partner", lambda: False)
            alone = class_activation_map(model, x, 2)
        assert forks == []
        assert np.array_equal(class_activation_map(model, x, 2), alone)
        assert len(forks) == 1

    def test_a_paper_size_input_keeps_the_whole_forwards_bits(self, forks, monkeypatch):
        """At 224^2 the halves' GEMMs take the whole map's BLAS code paths."""
        model = build(ModelConfig(num_classes=9, seed=1))
        x = sample(1, 224, np.float32)
        with monkeypatch.context() as m:
            m.setattr(model_mod, "_MIN_SPLIT_PIXELS", 1 << 60)
            whole = model_mod._tape_free(model, model.forward, x).data
        split = logits(model, x, True, monkeypatch)
        assert len(forks) == 1
        assert hashlib.sha256(split).hexdigest() == hashlib.sha256(whole).hexdigest()


def test_the_size_rule_reads_the_shape_alone(forks):
    """A 64^2 prediction runs whole, as before; a taped forward never splits."""
    model = build(split_config(64, 16))
    assert predict(model, sample(2, 64, np.float32)).shape == (2, 64, 64)  # 8192 pixels < 96^2
    assert forks == []


@needs_two_processes
@pytest.mark.usefixtures("split_every_input")
class TestRunsInProcess:
    def test_without_fork(self, forks, monkeypatch):
        model = build(split_config(32, 8))
        x = sample(1, 32, np.float32)
        split = logits(model, x, True, monkeypatch)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert logits(model, x, True, monkeypatch).tobytes() == split.tobytes()
        assert len(forks) == 1

    def test_with_a_second_thread_alive(self, forks, monkeypatch):
        model = build(split_config(32, 8))
        x = sample(1, 32, np.float32)
        split = logits(model, x, True, monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait, daemon=True)
        other.start()
        try:
            alone = logits(model, x, True, monkeypatch)
        finally:
            release.set()
            other.join()
        assert alone.tobytes() == split.tobytes()
        assert len(forks) == 1

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_pinned_to_one_cpu(self, monkeypatch):
        """The pinned process sets its affinity before it imports tfcns."""
        script = (
            "import os, hashlib\n"
            f"os.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}})\n"
            "forks = []\n"
            "fork = os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "from test_split_forward import split_config, sample\n"
            "from tfcns import model as model_mod\n"
            "model_mod._MIN_SPLIT_PIXELS = 1\n"
            "model = model_mod.build(split_config(32, 8))\n"
            "out = model_mod._tape_free(model, model.forward, sample(1, 32, 'float32')).data\n"
            "print(len(forks), hashlib.sha256(out).hexdigest())\n"
        )
        run = run_script(script)
        model = build(split_config(32, 8))
        split = logits(model, sample(1, 32, np.float32), True, monkeypatch)
        assert run.stdout.split() == ["0", hashlib.sha256(split).hexdigest()]


def run_script(script: str) -> subprocess.CompletedProcess:
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"),
                                               os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120)
    assert run.returncode == 0, run.stderr
    return run


# Each process's window of a map of h rows cut into halves: the rows its arr holds.
WINDOWS = {
    "whole": lambda h, halves: [(0, h)] * 2,
    # a dense block: each process's half and one row beyond it each side
    "halo": lambda h, halves: [(max(0, lo - 1), min(h, hi + 1)) for lo, hi in halves],
    # whole_rows(x, (0,)): process 0 gathers the map, process 1 keeps its half
    "gather": lambda h, halves: [(0, h), halves[1]],
    # a transition-down (pool 2) after a dense block: at 14 rows (P=32) it
    # cuts at row 6, the block at row 7, so process 1 reads from row 6 on
    "past_a_cut": lambda h, halves: [(min(lo, a), max(hi, b))
                                     for (lo, hi), (a, b) in zip(halves, ad._halves(h, 2))],
}


def exchange_rounds(conn, shared, slot: int, rank: int, rounds: list, windows: str) -> int:
    """Swap each round's map with the other process, each holding the rows
    of its window; the rounds whose rows came out wrong."""
    partner = processes.RowPartner(rank, conn, shared, slot)
    wrong = 0
    for seed, shape, dtype in rounds:
        full = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
        halves = ad._halves(shape[2])
        held = WINDOWS[windows](shape[2], halves)
        start, end = held[rank]
        arr = np.full_like(full[:, :, start:end], np.nan)
        lo, hi = halves[rank]
        arr[:, :, lo - start:hi - start] = full[:, :, lo:hi]
        partner.exchange(arr, halves, held)
        wrong += not np.array_equal(arr, full[:, :, start:end])
    return wrong


def partner_rounds(conn, shared, slot: int, rounds: list, windows: str) -> None:
    processes.swap(conn, exchange_rounds(conn, shared, slot, 1, rounds, windows))


@needs_two_processes
@pytest.mark.parametrize("windows", list(WINDOWS))
@pytest.mark.parametrize("slot", [8, 40, 1 << 10])
def test_maps_far_larger_than_a_slot_swap_whole(slot, windows):
    """Many bands a map, in float32 and float64, with halves of unequal
    height, and with slots that hold a row (at most 7 elements) but not
    always a channel's half (8), or several channels (40): the slots are
    reused band after band, so a slot written while the other process
    reads it would show. Each process's arr holds the rows of its window:
    the whole map, or windows that differ between the two processes."""
    rng = np.random.default_rng(0)
    rounds = [(seed, (int(rng.integers(1, 3)), int(rng.integers(1, 6)), int(rng.integers(1, 12)),
                      int(rng.integers(1, 8))), (np.float32, np.float64)[seed % 2]) for seed in range(120)]
    with processes.forked(partner_rounds, (slot, rounds, windows), "test partner",
                          2 * slot * processes.SLOT_ITEMSIZE, 10.0) as (conn, shared):
        mine = exchange_rounds(conn, shared, slot, 0, rounds, windows)
        theirs = processes.swap(conn, None)
    assert (mine, theirs) == (0, 0)


@needs_two_processes
@pytest.mark.usefixtures("split_every_input")
class TestPartnerFailures:
    def test_a_partner_killed_mid_forward_is_a_clean_error(self, monkeypatch):
        caller = os.getpid()
        exchange = processes.RowPartner.exchange
        calls = []

        def dying(self, arr, halves, windows):
            calls.append(1)
            if os.getpid() != caller and len(calls) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return exchange(self, arr, halves, windows)

        monkeypatch.setattr(processes.RowPartner, "exchange", dying)
        model = build(split_config(32, 8))
        with pytest.raises(WorkerFailed, match="prediction partner exited unexpectedly"):
            predict(model, sample(1, 32, np.float32))
        assert child_pids() == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("row", [0, -1], ids=["callers_half", "partners_half"])
    def test_a_nan_input_is_a_non_finite_value(self, row):
        model = build(split_config(32, 8))
        x = sample(1, 32, np.float32)
        x[0, 0, row] = np.nan
        with pytest.raises(NonFiniteValue):
            predict(model, x)
        assert child_pids() == []

    def test_the_partner_runs_at_one_blas_thread_and_writes_nothing_to_stdout(self, tmp_path):
        """Each forward op of either process appends its pid and OpenBLAS
        thread count to a file, and prints its role; the caller starts at
        two threads."""
        script = (
            "import os\n"
            "from test_split_forward import split_config, sample\n"
            "from tfcns import autodiff as ad, model as model_mod\n"
            "blas = model_mod._openblas_threads()\n"
            "get = blas[0] if blas else (lambda: 1)\n"
            "if blas:\n"
            "    blas[1](2)\n"
            "caller = os.getpid()\n"
            "gelu = ad._gelu_forward\n"
            "def seen(z):\n"
            f"    with open({str(tmp_path / 'seen')!r}, 'a') as f:\n"
            "        f.write(f'{os.getpid()} {get()}\\n')\n"
            "    print('caller' if os.getpid() == caller else 'partner', flush=True)\n"
            "    return gelu(z)\n"
            "ad._gelu_forward = seen\n"
            "model_mod._MIN_SPLIT_PIXELS = 1\n"
            "model = model_mod.build(split_config(32, 8))\n"
            "model_mod.predict(model, sample(1, 32, 'float32'))\n"
            "print('threads after', get())\n"
        )
        run = run_script(script)
        lines = run.stdout.splitlines()
        assert set(lines[:-1]) == {"caller"}
        seen = [line.split() for line in (tmp_path / "seen").read_text().splitlines()]
        assert len({pid for pid, _ in seen}) == 2
        assert {count for _, count in seen} == {"1"}
        if model_mod._openblas_threads() is not None:
            assert lines[-1] == "threads after 2"


def test_no_split_under_a_tape():
    """split_rows and dense_block run whole while a tape is active (halves
    of this float32 model would give other bits)."""
    model = build(split_config(32, 8))
    with ad.Tape():
        with ad._split_by_rows(ad.RowSplit()):
            taped = model.forward(sample(1, 32, np.float32)).data
    assert np.array_equal(taped, model.forward(sample(1, 32, np.float32)).data)


@needs_two_processes
@pytest.mark.usefixtures("split_every_input")
class TestOwnRowsOnly:
    """With a partner, each process holds only its own rows of each map and
    fetches the rows an op reads that it does not hold: the bits stay those
    of one process computing both halves."""

    @pytest.mark.parametrize("batch", [1, 2])
    def test_a_transition_that_gives_one_half_no_rows(self, batch, forks, monkeypatch):
        """At P=32 on 32^2 the deepest transition-down cuts its 2 input rows
        at row 0 (a multiple of its pooling), where the dense block before it
        cut them at row 1: the caller computes none of the 1x1 bottleneck,
        and the first decoder block fetches both rows of its upsampled map."""
        cfg = dataclasses.replace(split_config(32, 16), patch_size=32, layers_per_block=(2, 1, 2, 1, 1))
        model = build(cfg)
        x = sample(batch, 32, np.float32)
        alone = logits(model, x, False, monkeypatch)
        split = logits(model, x, True, monkeypatch)
        assert len(forks) == 1 and split.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("gate", ["cuab_like", "none"])
    def test_other_skip_gates(self, gate, forks, monkeypatch):
        """CUABLike recomputes its branch maps from rows it has already gated."""
        model = build(dataclasses.replace(split_config(64, 16), skip_attention=gate))
        x = sample(2, 64, np.float32)
        alone = logits(model, x, False, monkeypatch)
        split = logits(model, x, True, monkeypatch)
        assert len(forks) == 1 and split.tobytes() == alone.tobytes()

    def test_a_paper_size_class_activation_map_gathers_the_whole_features(self, forks, monkeypatch):
        model = build(ModelConfig(num_classes=9, seed=1))
        x = sample(1, 224, np.float32)
        with monkeypatch.context() as m:
            m.setattr(processes, "may_fork_partner", lambda: False)
            alone = class_activation_map(model, x, 4)
        assert forks == []
        assert np.array_equal(class_activation_map(model, x, 4), alone)
        assert len(forks) == 1


class CountingPartner(processes.RowPartner):
    """Records the size of every slot view: each band writes its outgoing
    rows into one slot, then reads the incoming rows from the other."""

    sizes: list = []

    def _slot_view(self, k: int, dtype, size: int) -> np.ndarray:
        self.sizes.append(size)
        return super()._slot_view(k, dtype, size)


@needs_two_processes
class TestPartneredPaperForward:
    """A paper-default 224^2 float32 forward (P=16, 9 classes) with a partner."""

    def test_the_callers_peak_is_about_half_the_whole_forwards(self, forks):
        """The whole forward's peak is pinned under 72e6 (TestDenseBlockMemory);
        split, the caller measured 37.7e6: the last decoder block's copy of
        its two inputs, each half the size, into a buffer of half the rows
        plus one row each side."""
        model = build(ModelConfig(num_classes=9))
        x = np.random.default_rng(1234).standard_normal((1, 1, 224, 224)).astype(np.float32)
        tracemalloc.start()
        try:
            model_mod._tape_free(model, model.forward, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(forks) == 1
        assert peak < 42e6

    def test_only_halo_rows_and_gathers_move(self, monkeypatch):
        """Measured 1.68 MiB out and 2.54 MiB in (the partner also sends its
        half of the logits), against 29.1 MiB each way when each process
        swapped in the other's half of every map."""
        monkeypatch.setattr(processes, "RowPartner", CountingPartner)
        monkeypatch.setattr(CountingPartner, "sizes", [])
        model = build(ModelConfig(num_classes=9))
        predict(model, sample(1, 224, np.float32))
        sent, received = sum(CountingPartner.sizes[0::2]), sum(CountingPartner.sizes[1::2])
        assert 0 < sent < 2**19 and 0 < received < 3 * 2**18  # float32 elements: 2 and 3 MiB

    def test_one_pipe_token_per_band(self, monkeypatch):
        """The caller's only pipe calls in a forward are the bands it moves,
        each of which views a slot twice: 62, where asking the partner how
        many rows each exchange's array holds made 124."""
        monkeypatch.setattr(processes, "RowPartner", CountingPartner)
        monkeypatch.setattr(CountingPartner, "sizes", [])
        swap, swaps = processes.swap, []
        monkeypatch.setattr(processes, "swap", lambda conn, obj: swaps.append(1) or swap(conn, obj))
        predict(build(ModelConfig(num_classes=9)), sample(1, 224, np.float32))
        assert len(swaps) == len(CountingPartner.sizes) // 2 == 62
