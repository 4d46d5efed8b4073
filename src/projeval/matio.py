"""Text I/O: matrix files and the two sweep CSVs.

Matrix format: one row per line, entries separated by commas and/or
whitespace; blank lines and lines starting with '#' are skipped. Export uses
17 significant digits so a write/read round trip is bit-identical. The CSVs
hold the fields of the record arrays `harness.TRIAL_DTYPE` (but v_norm) and
`harness.CELL_DTYPE`, floats at 12 significant digits.
"""

from __future__ import annotations

import csv

import numpy as np

from .harness import CELL_DTYPE, TRIAL_DTYPE

# v_norm only scales the degeneracy cutoff and is not written
TRIAL_HEADER = [f for f in TRIAL_DTYPE.names if f != "v_norm"]
CELL_HEADER = list(CELL_DTYPE.names)
_CSV_CHUNK_ROWS = 4096


class MatrixParseError(ValueError):
    """A line of a matrix file or cells.csv failed to parse; carries the 1-based line number."""

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


def _write_csv(path: str, rows: np.ndarray, fields: list[str]) -> None:
    """Write the named fields of a record array, _CSV_CHUNK_ROWS rows at a time
    through one format line; lines end in the csv module's \\r\\n."""
    line = ",".join("{:.12g}" if rows.dtype[f].kind == "f" else "{:d}" for f in fields) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(fields) + "\r\n")
        for start in range(0, len(rows), _CSV_CHUNK_ROWS):
            chunk = rows[start:start + _CSV_CHUNK_ROWS]
            fh.writelines(line.format(*row) for row in zip(*(chunk[f].tolist() for f in fields)))


def write_trial_csv(path: str, records: np.ndarray) -> None:
    _write_csv(path, records, TRIAL_HEADER)


def write_cell_csv(path: str, cells: np.ndarray) -> None:
    _write_csv(path, cells, CELL_HEADER)


def read_cell_csv(path: str) -> np.recarray:
    """Read a cells.csv back into a `CELL_DTYPE` record array, checking its
    header and the width and values of every row."""
    types = [CELL_DTYPE[f].type for f in CELL_HEADER]
    cells = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CELL_HEADER:
            raise MatrixParseError(path, reader.line_num, f"unexpected header {header}")
        for row in reader:
            if len(row) != len(types):
                raise MatrixParseError(path, reader.line_num,
                                       f"row has {len(row)} fields, expected {len(types)}")
            try:
                cells.append(tuple(t(x) for t, x in zip(types, row)))
            except (ValueError, OverflowError) as exc:
                raise MatrixParseError(path, reader.line_num, f"bad value: {exc}") from None
    return np.array(cells, dtype=CELL_DTYPE).view(np.recarray)
