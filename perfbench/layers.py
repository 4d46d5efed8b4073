"""Which calls the traced run times, and the per-layer metrics made from them.

Every wrapped name is looked up the way its caller looks it up, so a span
`instances.random_chain` is a call the harness made into the instances
layer, and `mdp.l_matrix` counts every L formed by solvers, analysis and
`mdp.exact_value` itself. Metrics are per operation: one pass of the sweep
pipeline, or one solve request.
"""

from __future__ import annotations

import os
import statistics
from collections import Counter, defaultdict

from tracer import SpanStats, Tracer

# (name, unit) in the order printed; BENCHMARK.json lists the same names
PER_LAYER = [
    ("instances.calls", "count/op"),
    ("instances.busy_s", "s/op"),
    ("instances.distinct_draw_ratio", "ratio"),
    ("instances.basis_checks", "count/op"),
    ("kernels.calls", "count/op"),
    ("kernels.busy_s", "s/op"),
    ("kernels.us_per_trial", "us"),
    ("kernels.flop_computed", "flop/op"),
    ("kernels.td_singular", "count/op"),
    ("harness.self_s", "s/op"),
    ("harness.aggregate_s", "s/op"),
    ("harness.records", "count/op"),
    ("harness.fanout_efficiency", "ratio"),
    ("harness.fanout_efficiency_blas_default", "ratio"),
    ("matio.write_s", "s/op"),
    ("matio.bytes_written", "B/op"),
    ("matio.parse_s", "s/op"),
    ("matio.bytes_parsed", "B/op"),
    ("heatmap.render_s", "s/op"),
    ("heatmap.svg_bytes", "B/op"),
    ("mdp.make_mdp_s", "s/op"),
    ("mdp.l_matrix_calls", "count/op"),
    ("mdp.exact_value_calls", "count/op"),
    ("projections.condition_estimate_calls", "count/op"),
    ("projections.make_feature_basis_s", "s/op"),
    ("solvers.calls", "count/op"),
    ("solvers.busy_s", "s/op"),
    ("solvers.singular", "count/op"),
    ("analysis.error_report_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("cli.known_defect_failures", "count"),
    ("trace_overhead", "ratio"),
]

DRAWS = ("instances.random_chain", "instances.random_features", "instances.random_weights")
SOLVES = ("solvers.solve_best", "solvers.solve_td", "solvers.solve_br", "solvers.solve_oblique")
PARSES = ("matio.parse_matrix", "matio.parse_vector")
WRITES = ("matio.write_trial_csv", "matio.write_cell_csv")


def kernel_flops(n: int, k: int, td_regular: bool) -> float:
    """Nominal flop count of one kernel call, computed from its shapes.

    Dense products count 2mnp, LU solves 2/3 n^3 plus 2n^2 per right-hand
    side, inverses 2k^3, eigh with vectors 9k^3, eigvalsh 4/3 k^3 and a full
    SVD 21k^3 (Golub and Van Loan). Cache effects are not counted.
    """
    def lu(m):
        return 2.0 * m ** 3 / 3.0 + 2.0 * m * m

    shared = (n * n + lu(n)                  # L, v
              + 2.0 * n * n * k + 2.0 * n * k * k + 2.0 * n * k   # L Phi, A, Xi Phi
              + lu(k) + 6.0 * n * k          # w_best, e_best
              + 9.0 * k ** 3 + 2.0 * k ** 3  # eigh(A), A^(1/2)
              + 2.0 * n * k * k + 21.0 * k ** 3 + 4.0 * n * k)    # TD system, svd
    # one direction's error and bound: rhs, solve, error, L'X, C, inv, products
    direction = (lu(k) + 4.0 * n * k + 2.0 * n * n * k + 3.0 * n * k * k
                 + 2.0 * k ** 3 + 8.0 * k ** 3 + 4.0 * k ** 3 / 3.0)
    br = 2.0 * n * k * k + direction
    return shared + br + (direction if td_regular else 0.0)


class Layers:
    """Installs the spans and counts on projeval's modules and reads them back."""

    def __init__(self, pe):
        self.pe = pe
        self.tracer = Tracer()
        self.counts = Counter()
        self.draws = defaultdict(set)
        self.draw_calls = Counter()

    def install(self) -> None:
        pe, wrap = self.pe, self.tracer.wrap
        td_flag = pe.kernels.TD_SINGULAR

        def draw(name):
            def hook(root, args, result):
                seed = args[-1]
                self.draws[root].add((name, seed.master_seed, seed.labels))
                self.draw_calls[root] += 1
            return hook

        def kernel(root, args, result):
            P, phi = args[0], args[3]
            singular = bool(result[td_flag])
            self.counts["kernels.td_singular"] += singular
            self.counts["kernels.flop_computed"] += kernel_flops(
                P.shape[0], phi.shape[1], not singular)

        def file_bytes(key):
            def hook(root, args, result):
                self.counts[key] += os.path.getsize(args[0])
            return hook

        def basis(root, args, result):
            self.counts["instances.basis_checks"] += 1

        def svg(root, args, result):
            self.counts["heatmap.svg_bytes"] += len(result.encode())

        def solved(root, args, result):
            self.counts["solvers.singular"] += result.status == "singular"

        def records(root, args, result):
            self.counts["harness.records"] += len(result)

        wrap(pe.harness, "sweep", "harness.sweep", records)
        wrap(pe.harness, "aggregate", "harness.aggregate")
        for name in DRAWS:
            attr = name.split(".")[1]
            wrap(pe.harness, attr, name, draw(attr))
        wrap(pe.kernels, "trial_stats", "kernels.trial_stats", kernel)
        wrap(pe.instances, "make_mdp", "mdp.make_mdp")
        wrap(pe.instances, "make_feature_basis", "projections.make_feature_basis", basis)
        wrap(pe.instances, "make_state_weights", "projections.make_state_weights")

        wrap(pe.matio, "write_trial_csv", "matio.write_trial_csv", file_bytes("matio.bytes_written"))
        wrap(pe.matio, "write_cell_csv", "matio.write_cell_csv", file_bytes("matio.bytes_written"))
        wrap(pe.matio, "parse_matrix", "matio.parse_matrix", file_bytes("matio.bytes_parsed"))
        wrap(pe.matio, "parse_vector", "matio.parse_vector")
        wrap(pe.heatmap, "render_heatmap", "heatmap.render_heatmap", svg)

        wrap(pe.cli, "main", "cli.main")
        wrap(pe.cli, "make_mdp", "mdp.make_mdp")
        wrap(pe.cli, "make_feature_basis", "projections.make_feature_basis")
        wrap(pe.cli, "make_state_weights", "projections.make_state_weights")
        for name in SOLVES:
            wrap(pe.solvers, name.split(".")[1], name, solved)
        wrap(pe.analysis, "error_report", "analysis.error_report")
        for owner in (pe.solvers, pe.analysis, pe.mdp):
            wrap(owner, "l_matrix", "mdp.l_matrix")
        for owner in (pe.solvers, pe.analysis):
            wrap(owner, "exact_value", "mdp.exact_value")
        for owner in (pe.solvers, pe.analysis, pe.projections):
            wrap(owner, "condition_estimate", "projections.condition_estimate")

    def restore(self) -> None:
        self.tracer.restore()

    def metrics(self, ops: int, extra: dict) -> dict[str, float]:
        """Per-layer values per operation; `extra` supplies measured-elsewhere ones."""
        s = SpanStats(self.tracer.spans)
        c = self.counts
        kernel_calls = s.count("kernels.trial_stats")
        kernel_busy = s.total("kernels.trial_stats")
        ratios = [len(self.draws[root]) / calls for root, calls in self.draw_calls.items()]
        values = {
            "instances.calls": s.count(*DRAWS),
            "instances.busy_s": s.busy(*DRAWS),
            "instances.basis_checks": c["instances.basis_checks"],
            "kernels.calls": kernel_calls,
            "kernels.busy_s": kernel_busy,
            "kernels.flop_computed": c["kernels.flop_computed"],
            "kernels.td_singular": c["kernels.td_singular"],
            "harness.self_s": s.self_time("harness.sweep"),
            "harness.aggregate_s": s.total("harness.aggregate"),
            "harness.records": c["harness.records"],
            "matio.write_s": s.busy(*WRITES),
            "matio.bytes_written": c["matio.bytes_written"],
            "matio.parse_s": s.busy(*PARSES),
            "matio.bytes_parsed": c["matio.bytes_parsed"],
            "heatmap.render_s": s.total("heatmap.render_heatmap"),
            "heatmap.svg_bytes": c["heatmap.svg_bytes"],
            "mdp.make_mdp_s": s.busy("mdp.make_mdp"),
            "mdp.l_matrix_calls": s.count("mdp.l_matrix"),
            "mdp.exact_value_calls": s.count("mdp.exact_value"),
            "projections.condition_estimate_calls": s.count("projections.condition_estimate"),
            "projections.make_feature_basis_s": s.busy("projections.make_feature_basis"),
            "solvers.calls": s.count(*SOLVES),
            "solvers.busy_s": s.busy(*SOLVES),
            "solvers.singular": c["solvers.singular"],
            "analysis.error_report_s": s.total("analysis.error_report"),
            "cli.self_s": s.self_time("cli.main"),
        }
        out = {name: value / ops for name, value in values.items()}
        out["instances.distinct_draw_ratio"] = statistics.median(ratios) if ratios else 0.0
        out["kernels.us_per_trial"] = 1e6 * kernel_busy / kernel_calls if kernel_calls else 0.0
        for name in ("harness.fanout_efficiency", "harness.fanout_efficiency_blas_default",
                     "cli.known_defect_failures", "trace_overhead"):
            out[name] = extra.get(name, 0.0)
        return {name: out[name] for name, _ in PER_LAYER}
