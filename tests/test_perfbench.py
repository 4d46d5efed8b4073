"""What the benchmark in perfbench/ relies on, checked without running it.

The benchmark fails a run whose sweep CSVs differ from the digests in
perfbench/golden.json, and its traced run wraps projeval's functions by
name. These tests load perfbench's own modules, so a changed byte or a
removed name fails here before it fails the benchmark.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)
# leave perfbench/ as checked in, without __pycache__
dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True

import layers  # noqa: E402
import sweeps  # noqa: E402
from run import load_projeval  # noqa: E402

sys.dont_write_bytecode = dont_write_bytecode

# names the traced run wraps that no longer exist (ROADMAP item 6)
STALE_TRACE_NAMES = {"projeval.kernels.trial_stats", "projeval.solvers.condition_estimate",
                     "projeval.analysis.condition_estimate"}


@pytest.fixture(scope="module")
def pe():
    return load_projeval()


def test_sweep_small_golden_digests(pe, tmp_path):
    # sweep-large is left out: its trials.csv matches only with BLAS pinned to one thread
    cfg = sweeps.config(pe, "sweep-small", sweeps.GOLDEN_SEED)
    sweeps.pipeline(pe, cfg, str(tmp_path))
    assert sweeps.digests(str(tmp_path)) == sweeps.golden("sweep-small")


def test_traced_run_finds_its_names(pe, tmp_path, capsys):
    traced = layers.Layers(pe)
    traced.install()
    try:
        cfg = pe.harness.SweepConfig(gammas=(0.9,), n_min=2, n_max=3,
                                     feature_trials=1, mdp_trials=2)
        records = sweeps.pipeline(pe, cfg, str(tmp_path))
        metrics = traced.metrics(1, {})
    finally:
        traced.restore()
    missing = {line.split()[1] for line in capsys.readouterr().err.splitlines()
               if line.startswith("trace: ") and line.endswith(" not found, not traced")}
    assert missing <= STALE_TRACE_NAMES
    assert metrics["harness.records"] == len(records) == 10
    assert metrics["matio.bytes_written"] > 0 and metrics["heatmap.svg_bytes"] > 0
    assert pe.harness.sweep.__name__ == "sweep" and pe.cli.make_mdp.__name__ == "make_mdp"
