"""The two sweep workloads: the whole sweep pipeline on a fixed grid.

One operation is what `projeval sweep` followed by `projeval heatmap` for
every statistic does: `harness.sweep` (serial) -> `harness.aggregate` ->
`matio.write_trial_csv` / `write_cell_csv` -> `heatmap.render_heatmap`,
each SVG written to disk. The grid's master seed is the benchmark seed.

Output checks, each counted in `failed`:
  * every pass of a run writes the same trials.csv / cells.csv bytes;
  * a seeded sample of trials is recomputed with plain numpy (instance
    draws, v = solve(L, r), the xi-projection and the TD and BR projected
    systems) and compared on e, e_td and e_br;
  * the pipeline at workers = nproc writes the same bytes as the serial
    passes;
  * the pipeline at the default master seed and workers = 1 writes the
    golden bytes recorded from the seed commit (golden.json).
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from contextlib import nullcontext
from time import perf_counter

import numpy as np

GOLDEN_SEED = 20100627
SAMPLE_TRIALS = 24
SAMPLE_RTOL = 1e-7

GRIDS = {
    # small n: per-trial Python overhead and instance generation dominate;
    # a pass of about a second lets a run hold many passes
    "sweep-small": dict(gammas=(0.99,), n_min=2, n_max=8,
                        feature_trials=10, mdp_trials=10),
    # large n: dense LAPACK work in the kernel dominates
    "sweep-large": dict(gammas=(0.99,), n_min=80, n_max=82,
                        feature_trials=2, mdp_trials=2),
}


def config(pe, workload: str, master_seed: int):
    return pe.harness.SweepConfig(master_seed=master_seed, **GRIDS[workload])


def post_process(pe, cfg, records: list, out_dir: str) -> None:
    """Aggregate, write both CSVs and every heatmap of a sweep's records."""
    harness, matio, heatmap = pe.harness, pe.matio, pe.heatmap
    cells = harness.aggregate(records, singular_policy=cfg.singular_policy,
                              expected_cell_size=cfg.feature_trials * cfg.mdp_trials)
    matio.write_trial_csv(os.path.join(out_dir, "trials.csv"), records)
    matio.write_cell_csv(os.path.join(out_dir, "cells.csv"), cells)
    for gamma in cfg.gammas:
        for stat in heatmap.STAT_FIELDS:
            svg = heatmap.render_heatmap(cells, stat, gamma)
            with open(os.path.join(out_dir, f"{stat}-{gamma:g}.svg"), "w") as fh:
                fh.write(svg)


def pipeline(pe, cfg, out_dir: str, workers: int = 1) -> list:
    """One pass of the sweep pipeline; returns the trial records."""
    records = pe.harness.sweep(cfg, workers=workers)
    post_process(pe, cfg, records, out_dir)
    return records


def digests(out_dir: str) -> dict[str, str]:
    out = {}
    for name in ("trials.csv", "cells.csv"):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def golden(workload: str) -> dict[str, str]:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
    with open(path) as fh:
        return json.load(fh)[workload]


def _rng(master_seed: int, *labels: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=labels))


def reference_errors(master_seed: int, gamma_index: int, gamma: float, n: int, k: int,
                     phi_trial: int, mdp_trial: int):
    """(e, e_td, e_br) of one sweep trial, from plain numpy.

    Draws follow the documented seed scheme: role 0 (chain) is labelled
    (gamma_index, n, mdp_trial), roles 1 and 2 (features, weights) are
    labelled (gamma_index, n, k, phi_trial). e_td is None when the TD
    system's cancellation-aware condition estimate exceeds 1e12.
    """
    rng = _rng(master_seed, 0, gamma_index, n, mdp_trial)
    p = rng.uniform(size=n - 1)
    P = np.zeros((n, n))
    P[np.arange(n - 1), np.arange(1, n)] = p
    P[np.arange(n - 1), np.arange(n - 1)] = 1.0 - p
    P[n - 1, n - 1] = 1.0
    r = rng.uniform(-1.0, 1.0, size=n)
    P = P / P.sum(axis=1, keepdims=True)

    rng = _rng(master_seed, 1, gamma_index, n, k, phi_trial)
    while True:
        phi = rng.uniform(-1.0, 1.0, size=(n, k))
        s = np.linalg.svd(phi, compute_uv=False)
        if s[-1] > 1e-10 * s[0]:
            break
    xi = _rng(master_seed, 2, gamma_index, n, k, phi_trial).uniform(1e-3, 1.0, size=n)
    xi = xi / xi.sum()

    L = np.eye(n) - gamma * P
    v = np.linalg.solve(L, r)
    Xi = np.diag(xi)

    def err(w):
        d = v - phi @ w
        return float(np.sqrt(d @ Xi @ d))

    e = err(np.linalg.solve(phi.T @ Xi @ phi, phi.T @ Xi @ v))
    psi = L @ phi
    e_br = err(np.linalg.solve(psi.T @ Xi @ psi, psi.T @ Xi @ r))
    m_td = phi.T @ Xi @ psi
    cond = (np.linalg.norm(Xi @ phi) * np.linalg.norm(psi)
            / np.linalg.svd(m_td, compute_uv=False)[-1])
    e_td = err(np.linalg.solve(m_td, phi.T @ Xi @ r)) if cond <= 1e12 else None
    return e, e_td, e_br


def sample_mismatches(cfg, records: list, seed: int) -> list[str]:
    """Recompute a seeded sample of non-degenerate trials; list the mismatches."""
    candidates = [i for i, rec in enumerate(records) if rec.k < rec.n]
    picks = np.random.default_rng(seed).choice(
        len(candidates), size=min(SAMPLE_TRIALS, len(candidates)), replace=False)
    bad = []
    for pick in sorted(picks):
        rec = records[candidates[pick]]
        e, e_td, e_br = reference_errors(
            cfg.master_seed, cfg.gammas.index(rec.gamma), rec.gamma, rec.n, rec.k,
            rec.phi_trial, rec.mdp_trial)
        ok = (np.isclose(rec.e, e, rtol=SAMPLE_RTOL, atol=0.0)
              and np.isclose(rec.e_br, e_br, rtol=SAMPLE_RTOL, atol=0.0)
              and (rec.td_singular if e_td is None else
                   np.isclose(rec.e_td, e_td, rtol=SAMPLE_RTOL, atol=0.0)))
        if not ok:
            bad.append(f"trial {rec.gamma:g}/{rec.n}/{rec.k}/{rec.phi_trial}/"
                       f"{rec.mdp_trial}: got ({rec.e}, {rec.e_td}, {rec.e_br}), "
                       f"numpy ({e}, {e_td}, {e_br})")
    return bad


class SweepWorkload:
    def __init__(self, pe, name: str, seed: int, work_dir: str):
        self.pe = pe
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.cfg = config(pe, name, seed)
        self.reference = None   # digests of the first pass
        self.failures: list[str] = []
        self.known_defects: list[str] = []
        self.attempted = 0
        self.failed = 0

    def warm_up(self) -> None:
        """Imports, code paths and file creation, on a grid of a few trials."""
        tiny = self.pe.harness.SweepConfig(gammas=(0.9,), n_min=2, n_max=4,
                                           feature_trials=2, mdp_trials=2,
                                           master_seed=self.seed)
        pipeline(self.pe, tiny, self.work_dir)

    def measure(self, seconds: float, layers=None) -> dict:
        """Passes of the pipeline until `seconds` have gone, at least three.

        `ops_per_s` is trials over the median pass; over sets of ten runs
        it spread less than trials over the fastest pass, which is printed
        beside it.
        """
        times, trials = [], 0
        start = perf_counter()
        while len(times) < 3 or perf_counter() - start < seconds:
            with layers.tracer.span("perfbench.pipeline") if layers else nullcontext():
                t0 = perf_counter()
                records = pipeline(self.pe, self.cfg, self.work_dir)
                times.append(perf_counter() - t0)
            trials = len(records)
            self._check_pass(records)
        p50 = statistics.median(times)
        return {"ops": len(times), "samples": times, "ops_per_s": trials / p50,
                "printed": {"passes": (len(times), "count"),
                            "pipeline_p50_ms": (1e3 * p50, "ms"),
                            "trials_per_s_fastest": (trials / min(times), "1/s")}}

    def _fail(self, trials: int, message: str) -> None:
        self.failed += trials
        self.failures.append(message)

    def _check_pass(self, records: list) -> None:
        self.attempted += len(records)
        got = digests(self.work_dir)
        if self.reference is None:
            self.reference = got
            for message in sample_mismatches(self.cfg, records, self.seed):
                self._fail(1, message)
        elif got != self.reference:
            self._fail(len(records), f"pass wrote other bytes than the first: {got}")

    def final_checks(self, workers: int) -> None:
        """At workers = nproc the pipeline must write the bytes of the serial
        passes, and at the default seed and workers = 1 the golden bytes."""
        self._check_grid(self.cfg, workers, self.reference, f"workers={workers}")
        self._check_grid(config(self.pe, self.name, GOLDEN_SEED), 1, golden(self.name),
                         f"seed {GOLDEN_SEED} against golden.json")

    def _check_grid(self, cfg, workers: int, expected: dict, what: str) -> None:
        records = pipeline(self.pe, cfg, self.work_dir, workers=workers)
        self.attempted += len(records)
        got = digests(self.work_dir)
        if got != expected:
            self._fail(len(records), f"{what}: digests {got}, expected {expected}")


def fanout(pe, workload: str, seed: int, workers: int) -> dict[str, float]:
    """Serial and parallel wall time of `harness.sweep` on a workload's grid."""
    cfg = config(pe, workload, seed)
    t0 = perf_counter()
    pe.harness.sweep(cfg, workers=1)
    t1 = perf_counter()
    pe.harness.sweep(cfg, workers=workers)
    t2 = perf_counter()
    return {"serial_s": t1 - t0, "parallel_s": t2 - t1, "workers": workers,
            "efficiency": (t1 - t0) / (workers * (t2 - t1))}
