"""The `solve` workload: a closed loop of `projeval solve` requests.

One client sends the next request when the previous one has returned. Each
request is `cli.main(argv)` in this process with stdout and stderr
captured, on matrix files written at set-up from the seed:

  * dense random chains with n = 40 (1 instance) and n = 100 (6
    instances), k = n/5, each solved with td, br, best and oblique;
  * one singular request per cycle: the analytic example at gamma = 5/6
    with method td, expected exit 2;
  * one malformed request per cycle: a row of P scaled by 1.1, expected
    exit 1.

Each exit code is checked against the expected one, and each returned w
against the residual of its projected equation (X' L Phi) w = X' r, with
X = Xi Phi (td), Xi L Phi (br) or the direction file (oblique), and
(Phi' Xi Phi) w = Phi' Xi v for best.

Two more malformed requests, a NaN in P and a weights file one entry
short, are known to escape `cli.main` with an exception instead of exit 1.
They run once per run as defect probes, outside the timed loop, and are
reported as `cli.known_defect_failures`; the timed loop holds only requests
the program handles, so that its failure count stays at zero.
"""

from __future__ import annotations

import io
import os
import statistics
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter
from typing import NamedTuple

import numpy as np

# (n, instances): with one n = 40 instance and six n = 100 ones, the fast
# requests (n = 40, singular, malformed) are 20% of a cycle and n = 100
# oblique ones (an extra file to parse) the slowest 20%, so the median
# falls mid-way through the n = 100 td/br/best requests, not in a gap
SIZES = ((40, 1), (100, 6))
METHODS = ("td", "br", "best", "oblique")
RESIDUAL_RTOL = 1e-9


class Request(NamedTuple):
    label: str
    argv: list[str]
    expected: int                   # exit code
    system: tuple | None = None     # (M, b) of the projected equation, for exit 0


def _save(path: str, array) -> str:
    np.savetxt(path, np.atleast_1d(array), fmt="%.17g")
    return path


def _argv(files: dict, gamma: float, method: str) -> list[str]:
    argv = ["solve", "--transitions", files["P"], "--rewards", files["r"],
            "--gamma", repr(gamma), "--features", files["phi"],
            "--weights", files["xi"], "--method", method]
    if method == "oblique":
        argv += ["--direction", files["X"]]
    return argv


def _system(P, r, gamma, phi, xi, X, method):
    """The m x m projected equation the returned w must satisfy."""
    L = np.eye(len(r)) - gamma * P
    lphi = L @ phi
    if method == "td":
        left, right, rhs = xi[:, None] * phi, lphi, r
    elif method == "br":
        left, right, rhs = xi[:, None] * lphi, lphi, r
    elif method == "best":
        left, right, rhs = xi[:, None] * phi, phi, np.linalg.solve(L, r)
    else:
        left, right, rhs = X, lphi, r
    return left.T @ right, left.T @ rhs


def make_requests(seed: int, work_dir: str):
    """Write the inputs; return the timed cycle and the defect probes."""
    rng = np.random.default_rng(seed)
    cycle, probes = [], []
    for n, count in SIZES:
        k = n // 5
        for i in range(count):
            P = rng.uniform(size=(n, n))
            P /= P.sum(axis=1, keepdims=True)
            r = rng.uniform(-1.0, 1.0, size=n)
            phi = rng.uniform(-1.0, 1.0, size=(n, k))
            xi = rng.uniform(1e-3, 1.0, size=n)
            X = rng.uniform(-1.0, 1.0, size=(n, k))
            gamma = float(rng.choice([0.9, 0.95, 0.99]))
            stem = os.path.join(work_dir, f"n{n}-{i}")
            files = {name: _save(f"{stem}-{name}.txt", a)
                     for name, a in (("P", P), ("r", r), ("phi", phi), ("xi", xi), ("X", X))}
            xi_n = xi / xi.sum()
            for method in METHODS:
                cycle.append(Request(f"n{n}-{i}-{method}", _argv(files, gamma, method), 0,
                                     _system(P, r, gamma, phi, xi_n, X, method)))
            if n == SIZES[0][0] and i == 0:
                bad = P.copy()
                bad[0] *= 1.1
                cycle.append(Request("non-stochastic", _argv(
                    dict(files, P=_save(f"{stem}-P-rowsum.txt", bad)), gamma, "td"), 1))
                bad = P.copy()
                bad[1, 2] = np.nan
                probes.append(Request("nan-in-P", _argv(
                    dict(files, P=_save(f"{stem}-P-nan.txt", bad)), gamma, "td"), 1))
                probes.append(Request("short-weights", _argv(
                    dict(files, xi=_save(f"{stem}-xi-short.txt", xi[:-1])), gamma, "td"), 1))

    theta = float(rng.uniform(0.2, 1.2))
    stem = os.path.join(work_dir, "example1")
    files = {"P": _save(f"{stem}-P.txt", [[0.0, 1.0], [0.0, 1.0]]),
             "r": _save(f"{stem}-r.txt", [np.cos(theta), np.sin(theta)]),
             "phi": _save(f"{stem}-phi.txt", [1.0, 2.0]),
             "xi": _save(f"{stem}-xi.txt", [0.5, 0.5])}
    cycle.append(Request("example1-singular", _argv(files, 5.0 / 6.0, "td"), 2))
    order = rng.permutation(len(cycle))
    return [cycle[i] for i in order], probes


def call(cli, argv: list[str]):
    """(exit code or the exception raised, stdout, seconds) of one request."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = exc
        elapsed = perf_counter() - t0
    return code, out.getvalue(), elapsed


def problem(request: Request, code, stdout: str) -> str | None:
    """Why a request's outcome is wrong, or None when it is right."""
    if isinstance(code, BaseException):
        return f"{request.label}: raised {type(code).__name__}: {code}"
    if code != request.expected:
        return f"{request.label}: exit {code}, expected {request.expected}"
    if request.system is None:
        return None
    lines = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    try:
        w = np.array([float(tok) for tok in lines["w"].split()])
    except (KeyError, ValueError):
        return f"{request.label}: no weights in output"
    M, b = request.system
    if w.shape != b.shape:
        return f"{request.label}: w has {w.size} entries, expected {b.size}"
    resid = np.linalg.norm(M @ w - b) / (np.linalg.norm(M) * np.linalg.norm(w)
                                          + np.linalg.norm(b))
    if not resid <= RESIDUAL_RTOL:
        return f"{request.label}: projected-equation residual {resid:.3e}"
    return None


class SolveWorkload:
    def __init__(self, pe, name: str, seed: int, work_dir: str):
        self.pe = pe
        self.cycle, self.probes = make_requests(seed, work_dir)
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.known_defects: list[str] = []

    def warm_up(self) -> None:
        """Every method and both error paths once, on the smallest instance;
        all of the cycle would make set-up time mostly request time."""
        small = f"n{SIZES[0][0]}-"
        for request in self.cycle:
            if request.system is None or request.label.startswith(small):
                call(self.pe.cli, request.argv)

    def measure(self, seconds: float, layers=None) -> dict:
        """Requests in rotation until `seconds` have gone, at least 200.

        `ops_per_s` is the cycle's length over the sum of the fastest
        latency of each of its requests: slowdowns from other tenants of a
        shared host only ever add time, and over ten runs these minima
        spread a quarter as much as the median latency. The median and p99
        latency and the plain completion rate are printed beside it.
        """
        cli, cycle = self.pe.cli, self.cycle
        latencies = []
        fastest = [float("inf")] * len(cycle)
        start = perf_counter()
        i = 0
        while perf_counter() - start < seconds or len(latencies) < 200:
            slot = i % len(cycle)
            i += 1
            request = cycle[slot]
            code, stdout, elapsed = call(cli, request.argv)
            latencies.append(elapsed)
            fastest[slot] = min(fastest[slot], elapsed)
            self.attempted += 1
            why = problem(request, code, stdout)
            if why is not None:
                self.failed += 1
                self.failures.append(why)
        p50 = statistics.median(latencies)
        p99 = statistics.quantiles(latencies, n=100)[98]
        return {"ops": len(latencies), "samples": latencies,
                "ops_per_s": len(cycle) / sum(fastest),
                "printed": {"requests": (len(latencies), "count"),
                            "solves_per_s_completed": (len(latencies) / sum(latencies), "1/s"),
                            "solve_p50_ms": (1e3 * p50, "ms"),
                            "solve_p99_ms": (1e3 * p99, "ms")}}

    def final_checks(self, workers: int) -> None:
        for request in self.probes:
            code, stdout, _ = call(self.pe.cli, request.argv)
            why = problem(request, code, stdout)
            if why is not None:
                self.known_defects.append(why)
