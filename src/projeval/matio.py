"""Text I/O: matrix files and the two sweep CSVs.

Matrix format: one row per line, every row of the same width. Entries are
separated by commas and/or whitespace. An entry is an ASCII decimal number
as Python's `float()` reads it (`-1.5`, `2e-3`, `1e400` is inf) or `nan`,
`inf`, `infinity` in any case and with an optional sign; digit-group
underscores (`1_0`) and non-ASCII digits are rejected. Blank lines are
skipped, and so is a line whose first non-blank character is '#'; a '#'
later in a line is an error. The CSVs hold the fields of the record arrays
`harness.TRIAL_DTYPE` (but v_norm) and `harness.CELL_DTYPE`, floats at 12
significant digits.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable
from typing import TextIO

import numpy as np

from .harness import CELL_DTYPE, TRIAL_DTYPE

# v_norm only scales the degeneracy cutoff and is not written
TRIAL_HEADER = [f for f in TRIAL_DTYPE.names if f != "v_norm"]
CELL_HEADER = list(CELL_DTYPE.names)
_CSV_CHUNK_ROWS = 4096


class MatrixParseError(ValueError):
    """A line of a matrix file or cells.csv failed to parse; carries the 1-based line number,
    or 0 for an error of the whole file, whose message then names no line."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}" if line_no else f"{path}: {message}")
        self.path = path
        self.line_no = line_no


def parse_matrix(path: str) -> np.ndarray:
    """Read a 2-D matrix; a file of single numbers yields a column vector.

    Python keeps the data lines and their numbers, and one `np.loadtxt` call
    converts every row in C with the correctly rounded conversion `float()`
    uses. Only when that call fails are the lines read one by one, to name
    the first bad one.
    """
    line_nos, lines = [], []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and line[0] != "#":
                line_nos.append(line_no)
                lines.append(line.replace(",", " "))
    if not lines:
        raise MatrixParseError(path, 0, "file contains no matrix rows")
    # np.loadtxt would skip a row of separators only
    if not any(map(str.isspace, lines)):
        try:
            return np.loadtxt(lines, ndmin=2, comments=None)
        except ValueError:
            pass
    raise _first_bad_line(path, line_nos, lines)


def _first_bad_line(path: str, line_nos: list[int], lines: list[str]) -> MatrixParseError:
    """The error of the first line that is not a matrix row: its numbers are
    checked first, then that it has any, then its width against the first row's."""
    width = None
    for line_no, line in zip(line_nos, lines):
        fields = line.split()
        try:
            for tok in fields:
                float(tok)
                if not tok.isascii() or "_" in tok:
                    raise ValueError(f"only ASCII digits without underscores are read: {tok!r}")
        except ValueError as exc:
            return MatrixParseError(path, line_no, f"bad number: {exc}")
        if not fields:
            return MatrixParseError(path, line_no, "row has no entries")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            return MatrixParseError(
                path, line_no, f"row has {len(fields)} entries, expected {width}")
    return MatrixParseError(path, 0, "rows do not form a matrix")


def parse_vector(path: str) -> np.ndarray:
    mat = parse_matrix(path)
    if 1 not in mat.shape:
        raise MatrixParseError(path, 0, f"expected a vector, got shape {mat.shape}")
    return mat.ravel()


def write_csv(fh: TextIO, blocks: Iterable[np.ndarray], fields: list[str]) -> None:
    """Write a header, then the named fields of each record array of `blocks`, to `fh` opened
    with newline="" (lines end in \\r\\n), _CSV_CHUNK_ROWS rows at a time, one %-format line."""
    fh.write(",".join(fields) + "\r\n")
    for rows in blocks:
        line = ",".join("%.12g" if rows.dtype[f].kind == "f" else "%d" for f in fields) + "\r\n"
        for start in range(0, len(rows), _CSV_CHUNK_ROWS):
            chunk = rows[start:start + _CSV_CHUNK_ROWS]
            fh.writelines(line % row for row in zip(*(chunk[f].tolist() for f in fields)))


def write_trial_csv(path: str, records: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        write_csv(fh, [records], TRIAL_HEADER)


def write_cell_csv(path: str, cells: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        write_csv(fh, [cells], CELL_HEADER)


def read_cell_csv(path: str) -> np.recarray:
    """Read a cells.csv back into a `CELL_DTYPE` record array, checking its
    header, each row's width and values, and that the rows form a grid: each
    `(gamma, n, k)` once, `0 < gamma < 1`, `n >= 2`, `1 <= k <= n`, counts >= 0."""
    types = [CELL_DTYPE[f].type for f in CELL_HEADER]
    cells = []
    first_line = {}
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
                cell = tuple(t(x) for t, x in zip(types, row))
            except (ValueError, OverflowError) as exc:
                raise MatrixParseError(path, reader.line_num, f"bad value: {exc}") from None
            problem = _grid_problem(dict(zip(CELL_HEADER, cell)), first_line, reader.line_num)
            if problem:
                raise MatrixParseError(path, reader.line_num, problem)
            cells.append(cell)
    return np.array(cells, dtype=CELL_DTYPE).view(np.recarray)


def _grid_problem(cell: dict, first_line: dict, line_no: int) -> str | None:
    """Why a cells.csv row does not fit the grid, or None; `first_line` maps
    each `(gamma, n, k)` seen so far to its line."""
    gamma, n, k = cell["gamma"], cell["n"], cell["k"]
    if not 0.0 < gamma < 1.0:
        return f"gamma is {gamma}, expected in (0, 1)"
    if (gamma, n, k) in first_line:
        return (f"duplicate cell gamma={gamma} n={n} k={k}, "
                f"first on line {first_line[gamma, n, k]}")
    first_line[gamma, n, k] = line_no
    if n < 2:
        return f"n is {n}, expected at least 2"
    if not 1 <= k <= n:
        return f"k is {k}, expected 1..{n}"
    for field in ("singular_count", "excluded_count"):
        if cell[field] < 0:
            return f"{field} is {cell[field]}, expected at least 0"
    return None
