"""Text I/O: matrix files and the two sweep CSVs.

Matrix format: one row per line, every row of the same width. Entries are
separated by commas and/or whitespace. An entry is an ASCII decimal number
(`-1.5`, `2e-3`, `1e400` is inf) or `nan`, `inf`, `infinity` in any case and
with an optional sign; digit-group underscores (`1_0`) and non-ASCII digits
are errors. Blank lines are skipped, and so is a line whose first non-blank
character is '#'; a '#' later in a line is an error. Matrix files and both
CSVs are read as UTF-8, and a line holding bytes that are not UTF-8 is a bad
line. The CSVs hold the fields of the record arrays `harness.TRIAL_DTYPE`
(but v_norm) and `harness.CELL_DTYPE`: gamma, the only float key, as its
shortest exact text (`%r`), so every gamma reads back as itself, and every
other float at 12 significant digits. Both kinds of file are read by `_load`,
so one converter, `np.loadtxt`'s, correctly rounded as `float()` is, judges
every number read from a file.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterable, Iterator
from contextlib import AbstractContextManager, closing, nullcontext
from itertools import count, islice
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
    """Read a 2-D matrix through `_load`; a file of single numbers yields a column vector."""
    line_nos, rows = [], []
    for line_no, raw in enumerate(_utf8_lines(path), start=1):
        line = raw.strip()
        if line and line[0] != "#":
            line_nos.append(line_no)
            rows.append(line.replace(",", " ").strip())  # a row of separators only is ""
    if not rows:
        raise MatrixParseError(path, 0, "file contains no matrix rows")
    return _load(path, line_nos, lambda: nullcontext(rows), float, None, 2)


def _load(path: str, line_nos: Iterable[int],
          rows: Callable[[], AbstractContextManager[Iterable[str]]], dtype: np.dtype | type,
          delimiter: str | None, ndmin: int, width: int | None = None) -> np.ndarray:
    """Read the rows `rows()` gives, lines `line_nos` of `path`, by one `np.loadtxt` call. Only
    if it fails are they read one by one, to raise the first bad row's error: its width, against
    `width` or else the first row's, is checked before `np.loadtxt` reads the row alone."""
    with rows() as lines:
        try:  # np.loadtxt would skip an empty row, so it gets "," and fails
            return np.loadtxt((line or "," for line in lines), dtype, delimiter=delimiter,
                              ndmin=ndmin, comments=None)
        except ValueError:  # a bad value, a row of another width, or a line that is not UTF-8
            pass
    with rows() as lines:
        for line_no, line in zip(line_nos, lines):
            fields = len(line.split(delimiter)) if line else 0
            if not (width or fields):
                raise MatrixParseError(path, line_no, "row has no fields")
            width = width or fields
            if fields != width:
                raise MatrixParseError(path, line_no, f"row has {fields} fields, expected {width}")
            try:
                np.loadtxt([line], dtype, delimiter=delimiter, comments=None)
            except ValueError as exc:  # its text ends "at row 0, column c."
                raise MatrixParseError(path, line_no,
                                       f"bad value: {exc}".replace(" row 0,", "")) from None
    raise MatrixParseError(path, 0, "rows do not form a table")


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
    the header's fields (`TRIAL_DTYPE` but v_norm, or `CELL_DTYPE`) through `_load`, as
    `parse_matrix` reads; then numpy masks check the grid (`_check_grid`)."""
    dtype = _csv_dtype(path)
    read = np.dtype([(f, "i8" if dtype[f].kind == "b" else dtype[f]) for f in dtype.names])

    def rows():  # the lines after the header, without their "\n"
        return closing(line.rstrip("\n") for line in islice(_utf8_lines(path), 1, None))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a header alone is an empty table
        warnings.simplefilter("error", DeprecationWarning)  # numpy 1.x reads 2.5 as an int 2
        table = _load(path, count(2), rows, read, ",", 1, len(read))
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
