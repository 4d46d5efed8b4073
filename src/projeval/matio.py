"""Text I/O: matrix files and the two sweep CSVs.

Matrix format: one row per line, every row of the same width. Entries are
separated by commas and/or whitespace. An entry is an ASCII decimal number
as Python's `float()` reads it (`-1.5`, `2e-3`, `1e400` is inf) or `nan`,
`inf`, `infinity` in any case and with an optional sign; digit-group
underscores (`1_0`) and non-ASCII digits are rejected. Blank lines are
skipped, and so is a line whose first non-blank character is '#'; a '#'
later in a line is an error. Matrix files and both CSVs are read as UTF-8,
and a line holding bytes that are not UTF-8 is a bad line. The CSVs hold
the fields of the record arrays `harness.TRIAL_DTYPE` (but v_norm) and
`harness.CELL_DTYPE`: gamma, the only float key, as its shortest exact text (`%r`),
so every gamma reads back as itself, and every other float at 12 significant digits.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Iterator
from typing import TextIO

import numpy as np

from .harness import CELL_DTYPE, TRIAL_DTYPE

# v_norm only scales the degeneracy cutoff and is not written
TRIAL_HEADER = [f for f in TRIAL_DTYPE.names if f != "v_norm"]
CELL_HEADER = list(CELL_DTYPE.names)
_CSV_CHUNK_ROWS = 4096


class MatrixParseError(ValueError):
    """A line of a matrix file or a sweep CSV failed to parse; carries the 1-based line number,
    or 0 for an error of the whole file, whose message then names no line."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}" if line_no else f"{path}: {message}")
        self.path = path
        self.line_no = line_no


def _utf8_lines(path: str, newline: str | None = None) -> Iterator[str]:
    """The lines of the text file `path`, opened with `newline`; the first line holding
    bytes that are not UTF-8 raises its MatrixParseError."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():  # each undecodable byte was escaped to a lone surrogate
                try:
                    line.encode(errors="surrogateescape").decode()
                except UnicodeDecodeError as exc:
                    raise MatrixParseError(path, line_no, f"not UTF-8: {exc}") from None
            yield line


def parse_matrix(path: str) -> np.ndarray:
    """Read a 2-D matrix; a file of single numbers yields a column vector.

    Python keeps the data lines and their numbers, and one `np.loadtxt` call
    converts every row in C with the correctly rounded conversion `float()`
    uses. Only when that call fails are the lines read one by one, to name
    the first bad one.
    """
    line_nos, lines = [], []
    for line_no, raw in enumerate(_utf8_lines(path), start=1):
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
    with newline="" (lines end in \\r\\n), _CSV_CHUNK_ROWS rows at a time, one %-format line:
    gamma at %r, every other float at %.12g, every int or bool at %d."""
    fh.write(",".join(fields) + "\r\n")
    for rows in blocks:
        line = ",".join("%r" if f == "gamma" else "%.12g" if rows.dtype[f].kind == "f" else "%d"
                        for f in fields) + "\r\n"
        for start in range(0, len(rows), _CSV_CHUNK_ROWS):
            chunk = rows[start:start + _CSV_CHUNK_ROWS]
            fh.writelines(line % row for row in zip(*(chunk[f].tolist() for f in fields)))


def write_trial_csv(path: str, records: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        write_csv(fh, [records], TRIAL_HEADER)


def write_cell_csv(path: str, cells: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        write_csv(fh, [cells], CELL_HEADER)


def read_csv(path: str) -> np.recarray:
    """Read a trials.csv or a cells.csv, as its header says, into a record array of exactly
    the header's fields (`TRIAL_DTYPE` but v_norm, or `CELL_DTYPE`), checking each row's
    width and values, and that the rows form a grid (`_grid_problem`)."""
    reader = csv.reader(_utf8_lines(path, newline=""))
    header = next(reader, None)
    if header not in (TRIAL_HEADER, CELL_HEADER):
        raise MatrixParseError(path, reader.line_num, f"unexpected header {header}")
    dtype = (CELL_DTYPE if header == CELL_HEADER else TRIAL_DTYPE)[header]  # v_norm left out
    types = [int if dtype[f].kind == "b" else dtype[f].type for f in header]  # bool("0") is True
    first_line = {}

    def rows():  # checked one by one into the array, so no row is held as Python objects
        for row in reader:
            if len(row) != len(types):
                raise MatrixParseError(path, reader.line_num,
                                       f"row has {len(row)} fields, expected {len(types)}")
            try:
                values = tuple(t(x) for t, x in zip(types, row))
            except (ValueError, OverflowError) as exc:
                raise MatrixParseError(path, reader.line_num, f"bad value: {exc}") from None
            problem = _grid_problem(dict(zip(header, values)), first_line, reader.line_num)
            if problem:
                raise MatrixParseError(path, reader.line_num, problem)
            yield values
    return np.fromiter(rows(), dtype).view(np.recarray)


def _grid_problem(row: dict, first_line: dict, line_no: int) -> str | None:
    """Why a row does not fit the grid, or None; `first_line` maps each key seen so far to its
    line: (gamma, n, k) and a trial's (phi_trial, mdp_trial), as Python scalars: ints shared."""
    fields = [f for f in ("gamma", "n", "k", "phi_trial", "mdp_trial") if f in row]
    key = tuple(row[f].item() for f in fields)
    gamma, n, k = key[:3]
    first = first_line.setdefault(key, line_no)
    if not 0.0 < gamma < 1.0:
        return f"gamma is {gamma}, expected in (0, 1)"
    if first != line_no:
        return (f"duplicate {'trial' if len(key) > 3 else 'cell'} "
                + " ".join(map("{}={}".format, fields, key)) + f", first on line {first}")
    for field, least in {"n": 2, "phi_trial": 0, "mdp_trial": 0, "singular_count": 0,
                         "excluded_count": 0}.items():
        if row.get(field, least) < least:
            return f"{field} is {row[field]}, expected at least {least}"
    if not 1 <= k <= n:
        return f"k is {k}, expected 1..{n}"
    if row.get("td_singular", 0) not in (0, 1):
        return f"td_singular is {row['td_singular']}, expected 0 or 1"
    return None
