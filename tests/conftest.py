"""Shared test fixtures: tiny model configs and small synthetic datasets,
and a check that no test leaves a child process running."""

import contextlib
import multiprocessing
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from tfcns.data import SyntheticSpec, generate_synthetic
from tfcns.model import ModelConfig


def tiny_model_config(**overrides) -> ModelConfig:
    """16x16 toy network, small enough for exhaustive finite differences."""
    base = dict(
        in_channels=1, num_classes=2, input_size=16, first_conv_channels=3,
        growth_rate=2, layers_per_block=(1, 1, 1), patch_size=8, embed_dim=6,
        transformer_layers=1, n_heads=2, resmlp_hidden=6, dropout_p=0.0,
        clab_branches=2, clab_kernels=2, seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def small_model_config(**overrides) -> ModelConfig:
    """16x16 config that actually trains well in a couple hundred steps."""
    base = dict(
        in_channels=1, num_classes=3, input_size=16, first_conv_channels=8,
        growth_rate=6, layers_per_block=(2, 2, 2), patch_size=8, embed_dim=16,
        transformer_layers=1, n_heads=2, dropout_p=0.0, seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="session")
def small_dataset():
    return generate_synthetic(SyntheticSpec(
        n_cases=6, height=16, width=16, num_classes=3,
        noise_sigma=0.01, seed=2, radius_min=2, radius_max=3,
    ))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def child_pids() -> list:
    """Pids of this process's children, however they were started (read from
    /proc), or [] where /proc cannot tell."""
    return [int(pid) for path in Path("/proc/self/task").glob("*/children") for pid in path.read_text().split()]


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running (a training worker or
    a prediction partner), whether multiprocessing or os.fork started it.
    multiprocessing's children are killed and joined first, so that it
    reaps its own; any other child is killed and reaped here."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    others = child_pids()
    for pid in others:
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    assert not left and not others, f"the test left child processes running: {left or others}"
