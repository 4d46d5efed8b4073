"""The matrix-file reader against the token-by-token loop it replaced.

`matio.parse_matrix` hands whole rows to `np.loadtxt`, which converts each
token in C with the correctly rounded conversion `float()` uses, and only
reads line by line to name the first bad line. Every generated file must
give a bit-equal array, or the same message at the same line, as
`oracles.parse_matrix_loop`. Two declared differences: tokens that
`float()` reads but the C reader does not (digit-group underscores and
non-ASCII digits) are errors at their line, and a row with no entries (a
line of commas only) is an error at its own line, where the loop compared
its width with the first row's or, with every row empty, returned an
N x 0 array.
"""

import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from projeval import harness
from projeval.matio import (CELL_HEADER, TRIAL_HEADER, MatrixParseError, parse_matrix, read_csv,
                            write_csv, write_trial_csv)

from oracles import parse_matrix_loop, write_csv_format

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.17g}"),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["nan", "-nan", "+NaN", "inf", "-inf", "-infinity", "Infinity",
                     "1e400", "-1e400", "5e-324", "1e-400", "-0", "-0.0", ".5", "5.",
                     "1E+3", "0001"]),
)
BAD = st.sampled_from(["x", "1.5e", "--1", "0x10", "1e", "#", "#1", "1#", "nanx", "in f"])
# read by float() but not by the C reader: rejected at their line
DECLARED = st.sampled_from(["1_0", "2_5e-3", "٣", "1٣", "１"])
SEPARATORS = st.sampled_from([" ", ",", "\t", ", ", " ,\t", "\xa0", "\x0b", "\x0c", ",,"])
PADDING = st.sampled_from(["", "", " ", "\t", "\xa0", " \x0b"])
# a line of separators only is an empty row, which np.loadtxt would skip
EXTRA_LINES = st.sampled_from(["", "   ", "\xa0", "# comment", "  # indented, 1 2", "#"] * 3
                              + [",", " , ,"])
SENTINEL = "?"  # float() rejects it, as the C reader rejects a declared token


@st.composite
def matrix_files(draw):
    """(file text, the same text with each declared token replaced by SENTINEL)."""
    width = draw(st.integers(1, 4))
    texts, sentinel_texts = [], []
    for _ in range(draw(st.integers(0, 5))):
        for _ in range(draw(st.integers(0, 2))):
            texts.append(draw(EXTRA_LINES))
            sentinel_texts.append(texts[-1])
        n_tokens = width + draw(st.sampled_from([0] * 18 + [-1, 1]))
        kinds = [draw(st.sampled_from(["number"] * 60 + ["bad", "declared"]))
                 for _ in range(max(n_tokens, 0))]
        tokens = [draw({"number": NUMBERS, "bad": BAD, "declared": DECLARED}[kind])
                  for kind in kinds]
        sentinels = [SENTINEL if kind == "declared" else tok for kind, tok in zip(kinds, tokens)]
        seps = [draw(SEPARATORS) for _ in tokens[1:]]
        pad, tail = draw(PADDING), draw(PADDING)
        comment = draw(st.sampled_from([""] * 30 + [" # mid-line"]))

        def join(toks):
            body = toks[0] if toks else ""
            for sep, tok in zip(seps, toks[1:]):
                body += sep + tok
            return pad + body + comment + tail

        texts.append(join(tokens))
        sentinel_texts.append(join(sentinels))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    final = draw(st.sampled_from(["", ending]))
    return (ending.join(texts) + final, ending.join(sentinel_texts) + final)


def outcome(read, path):
    try:
        return read(path)
    except MatrixParseError as exc:
        return exc


def first_empty_row(path):
    """The line number of the first row with no entries, read as the reader reads lines, or 0."""
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and line[0] != "#" and not line.replace(",", " ").split():
                return line_no
    return 0


@pytest.mark.parametrize("text, message", [
    (",,\n1 2\n3 4\n", ":1: row has no entries"),
    ("1 2\n3 4\n,\n", ":3: row has no entries"),
])
def test_row_without_entries_reported_at_its_line(text, message, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(MatrixParseError) as info:
        parse_matrix(str(path))
    assert str(info.value) == f"{path}{message}"


@settings(max_examples=300, deadline=None)
@given(matrix_files())
@example(("1 2\n٣ x\n", f"1 2\n{SENTINEL} x\n"))
@example(("1_0\n", f"{SENTINEL}\n"))
@example((",\n, ,\n", ",\n, ,\n"))
@example(("1 2\r\n,\r\n3 4\r\n", "1 2\r\n,\r\n3 4\r\n"))
@example(("nan\t-infinity,1e400 5e-324\n", "nan\t-infinity,1e400 5e-324\n"))
def test_reader_matches_token_loop(tmp_path_factory, files):
    text, sentinel_text = files
    directory = tmp_path_factory.mktemp("m")
    path, sentinel_path = directory / "m.txt", directory / "sentinel.txt"
    path.write_bytes(text.encode())
    sentinel_path.write_bytes(sentinel_text.encode())
    got = outcome(parse_matrix, str(path))
    expected = outcome(parse_matrix_loop, str(sentinel_path))
    empty = first_empty_row(str(path))
    if empty and (isinstance(expected, np.ndarray) or expected.line_no >= empty):
        # the loop had not failed before this row: now an error at the row
        assert isinstance(got, MatrixParseError), got
        assert got.line_no == empty and str(got).endswith("row has no entries")
    elif isinstance(expected, np.ndarray):
        assert isinstance(got, np.ndarray), got
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    else:
        assert isinstance(got, MatrixParseError), got
        assert got.line_no == expected.line_no
        message = str(expected).replace(str(sentinel_path), str(path))
        if repr(SENTINEL) in message:
            assert "only ASCII digits without underscores are read" in str(got)
        else:
            assert str(got) == message



# a gamma the sweep accepted while the CSVs wrote it at 12 significant digits: a normal
# float in (0, 1) that its 12 digits read back as, 0.d1...d12 times 10**-exponent
TWELVE_DIGIT_GAMMAS = st.builds(lambda digits, exponent: float(f"0.{digits}e-{exponent}"),
                                st.integers(10**11, 10**12 - 1), st.integers(0, 307)
                                ).filter(lambda gamma: gamma >= np.finfo(float).tiny)


@settings(max_examples=500, deadline=None)
@given(TWELVE_DIGIT_GAMMAS)
@example(0.999999999999)  # the 12-digit gamma closest to 1
@example(2.22507385851e-308)  # the least normal float, rounded up to 12 digits
def test_gamma_text_is_its_old_12_digit_text(gamma):
    assert float("%.12g" % gamma) == gamma
    rows = np.zeros(1, dtype=harness.CELL_DTYPE)
    rows["gamma"] = gamma
    fh = io.StringIO()
    write_csv(fh, [rows], CELL_HEADER)
    assert fh.getvalue().split("\r\n")[1].split(",")[0] == "%.12g" % gamma


EDGE_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e17, 0.1, 1.0 / 3.0,
               -2.5e-7, 123456789012.5, 1e300, np.finfo(float).max]
EDGE_INTS = [0, 1, -1, np.iinfo(np.int32).max, np.iinfo(np.int32).min]


@pytest.mark.parametrize("dtype, header", [(harness.TRIAL_DTYPE, TRIAL_HEADER),
                                           (harness.CELL_DTYPE, CELL_HEADER)])
def test_csv_writer_matches_format_oracle(dtype, header, tmp_path):
    # every float and int field takes every edge value, and both bool flags occur
    size = len(EDGE_FLOATS) * len(EDGE_INTS)
    rows = np.zeros(size, dtype=dtype)
    for i, f in enumerate(dtype.names):
        values = EDGE_FLOATS if dtype[f].kind == "f" else EDGE_INTS
        if dtype[f].kind == "b":
            values = [False, True]
        rows[f] = np.roll(np.resize(np.array(values, dtype=dtype[f]), size), i)
    blocks = [rows[:7], rows[7:], rows[:0]]
    for write, name in ((write_csv, "got.csv"), (write_csv_format, "expected.csv")):
        with open(tmp_path / name, "w", newline="") as fh:
            write(fh, blocks, header)
    expected = (tmp_path / "expected.csv").read_bytes()
    assert (tmp_path / "got.csv").read_bytes() == expected
    for token in (b"nan", b"-inf", b"-0,", b"4.94065645841e-324", b"1e+16", b"0.333333333333",
                  b"2147483647", b"-2147483648",
                  # gamma leads each row at its shortest exact text
                  b"\r\n5e-324,", b"\r\n-0.0,", b"\r\n0.3333333333333333,"):
        assert token in expected


def test_trial_csv_reads_back_at_12_digits(tmp_path):
    # a gamma of 13 digits, which only its shortest exact text keeps, and both flags
    records = harness.sweep(harness.SweepConfig(gammas=(0.9, 0.1000000000001), n_max=4,
                                                feature_trials=2, mdp_trials=3))
    records.td_singular[::5] = True
    path = tmp_path / "trials.csv"
    write_trial_csv(path, records)
    back = read_csv(path)
    assert isinstance(back, np.recarray) and back.dtype.names == tuple(TRIAL_HEADER)
    assert "v_norm" not in back.dtype.names
    for f in TRIAL_HEADER:
        values = records[f].tolist()
        if records.dtype[f].kind == "f" and f != "gamma":
            values = [float(f"{x:.12g}") for x in values]
        assert back[f].dtype == records.dtype[f]
        np.testing.assert_array_equal(back[f], np.array(values, records.dtype[f]), err_msg=f,
                                      strict=True)
    # without v_norm no trial can be told degenerate, so aggregate refuses the file
    with pytest.raises(ValueError, match="v_norm"):
        harness.aggregate(back)


@pytest.fixture(scope="module")
def long_trials_lines(tmp_path_factory):
    """The lines of a 6,000-row trials.csv on one grid, as the writer writes them."""
    records = np.zeros(6000, dtype=harness.TRIAL_DTYPE).view(np.recarray)
    records.gamma, records.n, records.k = 0.9, 10, 3
    records.phi_trial = np.arange(6000) // 60
    records.mdp_trial = np.arange(6000) % 60
    records.e, records.e_td, records.e_br, records.b_td, records.b_br = 1.0, 1.5, 1.25, 2.0, 3.0
    path = tmp_path_factory.mktemp("long") / "trials.csv"
    write_trial_csv(path, records)
    return path.read_bytes().decode().split("\r\n")


def read_error(lines, tmp_path, line_no, row):
    """The error of the long file with line `line_no` (1-based) replaced by `row`."""
    lines = list(lines)
    lines[line_no - 1] = row
    path = tmp_path / "trials.csv"
    path.write_bytes("\r\n".join(lines).encode("utf-8", "surrogateescape"))
    with pytest.raises(MatrixParseError) as info:
        read_csv(path)
    assert info.value.line_no == line_no
    return str(info.value).removeprefix(f"{path}:{line_no}: ")


@pytest.mark.parametrize("row, message", [
    ("0.9,10,3,0,0,1,1.5,1.25,2,3,zero", "bad value: "),
    ("0.9,10,3,0,0,1,1.5,1.25,2,3,0", "duplicate trial gamma=0.9 n=10 k=3 phi_trial=0 "
                                      "mdp_trial=0, first on line 2"),
    ("0.9,10,11,100,0,1,1.5,1.25,2,3,0", "k is 11, expected 1..10"),
    ("0.9,10,3,100,0,1,1.5,1.25,2,3,2", "td_singular is 2, expected 0 or 1"),
    ("", "row has 0 fields, expected 11"),
    ("   ", "row has 1 fields, expected 11"),
    ("0.9,10,3,100,0,1,1.5,1.25,2,3", "row has 10 fields, expected 11"),
    # matrix files' number rules: float() and int() read the first two
    ("0.9,1_0,3,100,0,1,1.5,1.25,2,3,0", "bad value: could not convert string '1_0' to int32 "
                                         "at column 2."),
    ("0.9,10,٣,100,0,1,1.5,1.25,2,3,0", "bad value: could not convert string '٣' to int32 "
                                        "at column 3."),
    ('"0.9",10,3,100,0,1,1.5,1.25,2,3,0', "bad value: "),
    ("0.9,10,3,100,0,1,1.5,1.25,2,\udcff,0", "not UTF-8: "),
])
def test_bad_row_deep_in_long_file_names_its_line(row, message, long_trials_lines, tmp_path):
    # line 5,102 holds the key (0.9, 10, 3, 85, 0): a new key replaces it in the k, flag and
    # width rows, so only the checked fault is left
    assert read_error(long_trials_lines, tmp_path, 5102, row).startswith(message)


def test_conversion_error_reported_before_earlier_off_grid_row(long_trials_lines, tmp_path):
    lines = list(long_trials_lines)
    lines[5000] = "0.9,10,11,99,1,1,1.5,1.25,2,3,0"  # line 5,001: k past n
    assert read_error(lines, tmp_path, 5800, "0.9,zero").startswith("row has 2 fields")


@pytest.mark.parametrize("data, message", [
    (b"", "{path}: unexpected header None"),
    (b"gamma,n\xff\r\n", "{path}:1: not UTF-8: "),
])
def test_header_messages(data, message, tmp_path):
    path = tmp_path / "trials.csv"
    path.write_bytes(data)
    with pytest.raises(MatrixParseError) as info:
        read_csv(path)
    assert str(info.value).startswith(message.format(path=path))


def test_fraction_in_an_integer_field_is_a_bad_value_under_any_warning_filter(
        long_trials_lines, tmp_path):
    # numpy 1.x's np.loadtxt reads 0.5 in an integer field as 0 with only a DeprecationWarning;
    # the reader turns it down itself, so a caller's filters (here: ignore all) cannot hide it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        message = read_error(long_trials_lines, tmp_path, 5102,
                             "0.9,10,3,100,0.5,1,1.5,1.25,2,3,0")
    assert message.startswith("bad value: could not convert string '0.5' to int32")
