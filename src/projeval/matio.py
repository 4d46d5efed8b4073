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
Each kind of file is read by one `np.loadtxt` call, and line by line only to
name the first bad line, so a CSV field follows the matrix entries' number rules.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Iterator
from contextlib import closing
from itertools import islice
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


def _utf8_lines(path: str) -> Iterator[str]:
    """The lines of the text file `path`, each ending in "\\n" but maybe the last; the first
    line holding bytes that are not UTF-8 raises its MatrixParseError."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
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
    the header's fields (`TRIAL_DTYPE` but v_norm, or `CELL_DTYPE`), the way `parse_matrix`
    reads; then numpy masks check the grid (`_check_grid`)."""
    dtype = _csv_dtype(path)
    read = np.dtype([(f, "i8" if dtype[f].kind == "b" else dtype[f]) for f in dtype.names])
    with closing(_utf8_lines(path)) as lines, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a header alone is an empty table
        warnings.simplefilter("error", DeprecationWarning)  # numpy 1.x reads 2.5 as an int 2
        try:  # np.loadtxt would skip a blank line, so it gets a row of two empty fields
            table = np.loadtxt((line.rstrip("\n") or "," for line in islice(lines, 1, None)),
                               read, delimiter=",", ndmin=1, comments=None)
        except ValueError:  # a bad value, a row of another width, or a line that is not UTF-8
            raise _first_bad_row(path, read) from None
    _check_grid(path, table)
    records = np.zeros(len(table), dtype).view(np.recarray)  # v_norm's unused bytes are 0
    records[...] = table  # by position: td_singular, now 0 or 1, to bool
    return records


def _csv_dtype(path: str) -> np.dtype:
    """The record dtype that the header, the first line of the CSV `path`, names."""
    with closing(_utf8_lines(path)) as lines:
        line = next(lines, None)
    header = [] if line == "\n" else line and line.rstrip("\n").split(",")
    if header not in (TRIAL_HEADER, CELL_HEADER):
        raise MatrixParseError(path, int(line is not None), f"unexpected header {header}")
    return (CELL_DTYPE if header == CELL_HEADER else TRIAL_DTYPE)[header]  # v_norm left out


def _first_bad_row(path: str, read: np.dtype) -> MatrixParseError:
    """The error of the first line after the header that is not a row of `read`'s fields:
    its width is checked first, then `np.loadtxt` reads the line alone."""
    with closing(_utf8_lines(path)) as lines:
        for line_no, line in enumerate(islice(lines, 1, None), start=2):
            width = line.count(",") + 1 if line != "\n" else 0
            if width != len(read):
                return MatrixParseError(path, line_no,
                                        f"row has {width} fields, expected {len(read)}")
            try:
                np.loadtxt([line], read, delimiter=",", comments=None)
            except ValueError as exc:  # its text ends "at row 0, column c."
                return MatrixParseError(path, line_no, f"bad value: {exc}".replace(" row 0,", ""))
    return MatrixParseError(path, 0, "rows do not form a table")


def _check_grid(path: str, t: np.ndarray) -> None:
    """Raise the error of the first row off the grid, naming its first failed check. No key,
    (gamma, n, k) and a trial's (phi_trial, mdp_trial), may repeat."""
    key = [f for f in ("gamma", "n", "k", "phi_trial", "mdp_trial") if f in t.dtype.names]
    order = np.lexsort([t[f] for f in reversed(key)])
    repeat = np.zeros(len(t), bool)  # a stable sort keeps each key's first row first
    repeat[order[1:]] = t[key][order[1:]] == t[key][order[:-1]]
    # each bounded field's least value, its greatest, and the text that states them
    bounds = {"n": (2, np.inf, "at least 2"), **dict.fromkeys(
        ("phi_trial", "mdp_trial", "singular_count", "excluded_count"), (0, np.inf, "at least 0")),
        "k": (1, t["n"], "1..{n}"), "td_singular": (0, 1, "0 or 1")}
    checks = [(~((0 < t["gamma"]) & (t["gamma"] < 1)), "gamma is {gamma}, expected in (0, 1)"),
              (repeat, f"duplicate {'trial' if len(key) > 3 else 'cell'} "
               + " ".join(f"{f}={{{f}}}" for f in key) + ", first on line {first}"),
              *(((t[f] < lo) | (t[f] > hi), f"{f} is {{{f}}}, expected {text}")
                for f, (lo, hi, text) in bounds.items() if f in t.dtype.names)]
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        text = next(text for mask, text in checks if mask[i])
        raise MatrixParseError(path, i + 2, text.format(
            first=np.argmax(t[key] == t[key][i]) + 2, **dict(zip(t.dtype.names, t[i].item()))))
