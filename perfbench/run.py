"""Benchmark of projeval: three workloads, end to end or per layer.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; projeval is imported from `src/`.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
from a traced run, which also writes its spans to
`.perfbench_out/spans-<workload>.csv`. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only when every output check passed.

BLAS is pinned to one thread per process (OPENBLAS_NUM_THREADS and the
like are set to 1 before numpy loads), so a run uses at most nproc threads
and its figures do not swing with OpenBLAS's own threading. The traced
`sweep-large` run also measures the fan-out with BLAS left at its default.
See README.md for why each workload exists.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("sweep-small", "sweep-large", "solve")
END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB")]
SETUP_PROBES = 6
FANOUT_TIMEOUT_S = 90

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh process that only sets up, or only measures fan-out
    parser.add_argument("--probe", choices=("setup", "fanout"), help=argparse.SUPPRESS)
    parser.add_argument("--blas", choices=("pinned", "default"), default="pinned",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def load_projeval():
    """projeval's modules from the checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "projeval", "__init__.py")):
        sys.exit(f"error: no projeval sources under {SRC}")
    sys.path.insert(0, SRC)
    from types import SimpleNamespace

    from projeval import (analysis, cli, harness, heatmap, instances, kernels, matio,
                          mdp, projections, solvers)
    return SimpleNamespace(analysis=analysis, cli=cli, harness=harness, heatmap=heatmap,
                           instances=instances, kernels=kernels, matio=matio, mdp=mdp,
                           projections=projections, solvers=solvers)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(pe, nproc: int, blas: str) -> dict:
    import platform

    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        blas_lib = "unknown"
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_lib, "blas_threads": threads, "blas_setting": blas,
            "kernels_backend": pe.kernels.BACKEND}


def make_workload(pe, name: str, seed: int, work_dir: str):
    # the workload modules import numpy, so they load only after main() has
    # set the BLAS thread variables
    if name == "solve":
        from solve import SolveWorkload
        return SolveWorkload(pe, name, seed, work_dir)
    from sweeps import SweepWorkload
    return SweepWorkload(pe, name, seed, work_dir)


def child(args, probe: str, blas: str, timeout: float) -> dict | None:
    """Run this script as a fresh process; the JSON of its last line.

    The child gets its own process group, so on timeout the group (with any
    pool workers) is killed and waited for, and None is returned.
    """
    env = dict(os.environ)
    if blas == "default":
        for var in BLAS_THREAD_VARS:
            env.pop(var, None)
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--probe", probe, "--blas", blas]
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, text=True, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    finally:
        # pool workers left behind by a failed child share its group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"{probe} probe failed: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args, pe, work_dir: str) -> int:
    nproc = len(os.sched_getaffinity(0))
    workload = make_workload(pe, args.workload, args.seed, work_dir)
    workload.warm_up()
    setup_s = time.perf_counter() - T0

    if args.probe == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.probe == "fanout":
        from sweeps import fanout
        print(json.dumps(fanout(pe, args.workload, args.seed, nproc)))
        return 0

    # a traced run splits its time between an untraced and a traced window
    window = args.seconds / 2 if args.trace else args.seconds
    result = workload.measure(window)
    printed = dict(result["printed"])
    if args.trace:
        from layers import Layers
        layers = Layers(pe)
        layers.install()
        try:
            traced = workload.measure(window, layers)
        finally:
            layers.restore()
    workload.final_checks(nproc)

    env = environment(pe, nproc, args.blas)
    if args.trace:
        extra = {"trace_overhead": result["ops_per_s"] / traced["ops_per_s"],
                 "cli.known_defect_failures": len(workload.known_defects)}
        if args.workload == "sweep-large":
            for blas, key in (("pinned", "harness.fanout_efficiency"),
                              ("default", "harness.fanout_efficiency_blas_default")):
                probe = child(args, "fanout", blas, FANOUT_TIMEOUT_S)
                if probe is None:
                    printed[f"fanout_{blas}_blas"] = (
                        f"not done within {FANOUT_TIMEOUT_S} s, reported as 0", "")
                    continue
                extra[key] = probe["efficiency"]
                printed[f"fanout_{blas}_blas"] = (
                    f"serial {probe['serial_s']:.3f} s, {probe['workers']} workers "
                    f"{probe['parallel_s']:.3f} s", "")
        from layers import PER_LAYER
        values = layers.metrics(traced["ops"], extra)
        units = dict(PER_LAYER)
        os.makedirs(OUT, exist_ok=True)
        layers.tracer.write_csv(os.path.join(OUT, f"spans-{args.workload}.csv"))
        printed["spans"] = (len(layers.tracer.spans), "count")
    else:
        setups = [setup_s]
        for _ in range(SETUP_PROBES):
            probe = child(args, "setup", args.blas, 120)
            if probe is None:
                raise RuntimeError("setup probe did not finish within 120 s")
            setups.append(probe["setup_s"])
        values = {"setup_s": statistics.median(setups),
                  "ops_per_s": result["ops_per_s"],
                  "peak_rss_mb": peak_rss_mb()}
        units = dict(END_TO_END)
        printed["setup_samples_s"] = (" ".join(f"{s:.4f}" for s in setups), "s")

    attempted, failed = workload.attempted, workload.failed
    printed["failed_share"] = (failed / attempted, "ratio")
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print("env: " + json.dumps(env))
    for name, (value, unit) in printed.items():
        print(f"  {name}: {value} {unit}".rstrip())
    for name, value in values.items():
        print(f"  {name}: {value:.6g} {units[name]}")
    for why in workload.failures[:20]:
        print(f"FAILED: {why}")
    for why in workload.known_defects:
        print(f"known defect: {why}")

    correct = failed == 0
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(line, env=env, printed=printed, seed=args.seed,
                       op_seconds=result["samples"]), fh)
    print(json.dumps(line))
    return 0 if correct else 1


def main() -> int:
    args = parse_args()
    if args.blas == "pinned":
        for var in BLAS_THREAD_VARS:
            os.environ[var] = "1"
    sys.dont_write_bytecode = True
    pe = load_projeval()
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return run(args, pe, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
