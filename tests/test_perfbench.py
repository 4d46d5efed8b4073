"""What the benchmark in perfbench/ relies on, checked without running it.

The benchmark fails a run whose sweep CSVs differ from the digests in
perfbench/golden.json, or a solve request with a wrong exit code or
weights off their projected equation, and its traced run wraps projeval's
functions by name. These tests load perfbench's own modules, so a changed
byte, a wrong answer or a removed name fails here before it fails the
benchmark.
"""

import json
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)
# leave perfbench/ as checked in, without __pycache__
dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True

import layers  # noqa: E402
import solve  # noqa: E402
import sweeps  # noqa: E402
from run import BLAS_THREAD_VARS, load_projeval  # noqa: E402

sys.dont_write_bytecode = dont_write_bytecode

# names the traced run wraps that no longer exist (ROADMAP item 6); the error report
# forms no L, so `analysis` imports no `l_matrix`
STALE_TRACE_NAMES = {"projeval.kernels.trial_stats", "projeval.solvers.condition_estimate",
                     "projeval.analysis.condition_estimate", "projeval.analysis.l_matrix",
                     "projeval.projections.condition_estimate"}


@pytest.fixture(scope="module")
def pe():
    return load_projeval()


GOLDEN_RUN = """
import json, sys
sys.path.insert(0, {perfbench!r})
import sweeps
from run import load_projeval
pe = load_projeval()
sweeps.pipeline(pe, sweeps.config(pe, {workload!r}, sweeps.GOLDEN_SEED), {out!r})
print(json.dumps(sweeps.digests({out!r})))
"""


@pytest.mark.parametrize("workload", ["sweep-small", "sweep-large"])
def test_golden_digests(workload, tmp_path):
    # in a fresh process with BLAS pinned to one thread before numpy loads, as the
    # benchmark runs it: sweep-large's trials.csv matches only so
    code = GOLDEN_RUN.format(perfbench=PERFBENCH, workload=workload, out=str(tmp_path))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == sweeps.golden(workload)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_solve_requests_pass_their_checks(pe, tmp_path, seed):
    cycle, probes = solve.make_requests(seed, str(tmp_path))
    for request in cycle:
        code, stdout, _ = solve.call(pe.cli, request.argv)
        assert solve.problem(request, code, stdout) is None
    # NaN in P and a short weights file: once tracebacks, now exit 1
    assert {request.label for request in probes} == {"nan-in-P", "short-weights"}
    for request in probes:
        code, stdout, _ = solve.call(pe.cli, request.argv)
        assert code == 1 and solve.problem(request, code, stdout) is None


def test_traced_run_finds_its_names(pe, tmp_path, capsys):
    traced = layers.Layers(pe)
    traced.install()
    try:
        cfg = pe.harness.SweepConfig(gammas=(0.9,), n_min=2, n_max=3,
                                     feature_trials=1, mdp_trials=2)
        records = sweeps.pipeline(pe, cfg, str(tmp_path))
        # one cycle of the solve workload, whose hooks read each solve's status
        cycle, _ = solve.make_requests(1, str(tmp_path))
        for request in cycle:
            solve.call(pe.cli, request.argv)
        metrics = traced.metrics(1, {})
    finally:
        traced.restore()
    missing = {line.split()[1] for line in capsys.readouterr().err.splitlines()
               if line.startswith("trace: ") and line.endswith(" not found, not traced")}
    assert missing <= STALE_TRACE_NAMES
    assert metrics["harness.records"] == len(records) == 10
    assert metrics["matio.bytes_written"] > 0 and metrics["heatmap.svg_bytes"] > 0
    # the cycle's 30 requests: 28 solved, the singular example solved and flagged,
    # the non-stochastic P rejected before any solve
    assert len(cycle) == 30
    assert metrics["solvers.calls"] == 29 and metrics["solvers.singular"] == 1
    assert pe.harness.sweep.__name__ == "sweep" and pe.cli.make_mdp.__name__ == "make_mdp"
