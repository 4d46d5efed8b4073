"""Text I/O: matrix files and the two sweep CSV schemas.

Matrix format: one row per line, entries separated by commas and/or
whitespace; blank lines and lines starting with '#' are skipped. Export uses
17 significant digits so a write/read round trip is bit-identical; CSVs use
12 significant digits.
"""

from __future__ import annotations

import csv

import numpy as np

from .harness import CellStats

TRIAL_HEADER = ["gamma", "n", "k", "phi_trial", "mdp_trial",
                "e", "e_td", "e_br", "b_td", "b_br", "td_singular"]
CELL_HEADER = ["gamma", "n", "k", "td_win_ratio", "bound_prediction_ratio",
               "mean_td_over_br", "mean_rel_td", "mean_rel_br",
               "singular_count", "excluded_count"]
_CSV_CHUNK_ROWS = 4096


class MatrixParseError(ValueError):
    """A matrix file line failed to parse; carries the 1-based line number."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def parse_matrix(path: str) -> np.ndarray:
    """Read a 2-D matrix; a file of single numbers yields a column vector."""
    rows = []
    width = None
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.replace(",", " ").split()
            try:
                row = [float(tok) for tok in fields]
            except ValueError as exc:
                raise MatrixParseError(path, line_no, f"bad number: {exc}") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise MatrixParseError(
                    path, line_no, f"row has {len(row)} entries, expected {width}")
            rows.append(row)
    if not rows:
        raise MatrixParseError(path, 0, "file contains no matrix rows")
    return np.array(rows, dtype=float)


def parse_vector(path: str) -> np.ndarray:
    mat = parse_matrix(path)
    if 1 not in mat.shape and mat.ndim == 2:
        raise MatrixParseError(path, 0, f"expected a vector, got shape {mat.shape}")
    return mat.ravel()


def write_matrix(path: str, matrix: np.ndarray) -> None:
    """Export a matrix at full (round-trippable) precision."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w") as fh:
        for row in matrix:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def _num(x: float) -> str:
    return f"{x:.12g}"


def write_trial_csv(path: str, records: np.ndarray) -> None:
    """Write a sweep's record array, converting _CSV_CHUNK_ROWS rows at a time to Python values."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_HEADER)
        for start in range(0, len(records), _CSV_CHUNK_ROWS):
            rows = records[start:start + _CSV_CHUNK_ROWS]
            writer.writerows(
                [_num(gamma), n, k, pt, mt, _num(e), _num(e_td), _num(e_br),
                 _num(b_td), _num(b_br), int(singular)]
                for gamma, n, k, pt, mt, e, e_td, e_br, b_td, b_br, singular
                in zip(*(rows[field].tolist() for field in TRIAL_HEADER)))


def write_cell_csv(path: str, cells: list[CellStats]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CELL_HEADER)
        for c in cells:
            writer.writerow([
                _num(c.gamma), c.n, c.k,
                _num(c.td_win_ratio), _num(c.bound_prediction_ratio),
                _num(c.mean_td_over_br), _num(c.mean_rel_td), _num(c.mean_rel_br),
                c.singular_count, c.excluded_count,
            ])


def read_cell_csv(path: str) -> list[CellStats]:
    cells = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CELL_HEADER:
            raise ValueError(f"{path}: unexpected header {reader.fieldnames}")
        for row in reader:
            cells.append(CellStats(
                gamma=float(row["gamma"]), n=int(row["n"]), k=int(row["k"]),
                td_win_ratio=float(row["td_win_ratio"]),
                bound_prediction_ratio=float(row["bound_prediction_ratio"]),
                mean_td_over_br=float(row["mean_td_over_br"]),
                mean_rel_td=float(row["mean_rel_td"]),
                mean_rel_br=float(row["mean_rel_br"]),
                singular_count=int(row["singular_count"]),
                excluded_count=int(row["excluded_count"]),
            ))
    return cells
