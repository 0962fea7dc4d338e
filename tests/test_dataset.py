import codecs
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcluster import (
    DataError,
    Dataset,
    DegenerateDataError,
    Distribution,
    InstanceSpec,
    generate,
    instance_name,
    load_csv,
    standardize,
    write_csv,
)

from conftest import nearly_constant_column, small_dataset
from csv_reference import load_csv_scan
from gcluster import dataset as dataset_module


def test_load_single_column(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("0\n0\n3\n")
    ds = load_csv(path)
    assert (ds.n, ds.m) == (3, 1)
    assert ds.values[:, 0].tolist() == [0.0, 0.0, 3.0]
    assert not ds.standardized


def test_load_header_autodetect(tmp_path):
    path = tmp_path / "rgb.csv"
    path.write_text("r,g,b\n1,2,3\n4,5,6\n")
    ds = load_csv(path)
    assert (ds.n, ds.m) == (2, 3)


def test_load_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n1,2,3\n")
    with pytest.raises(DataError, match="cells"):
        load_csv(path)


def test_load_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,x\n")
    with pytest.raises(DataError, match="not a finite number"):
        load_csv(path)


def test_load_rejects_single_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("1,2\n")
    with pytest.raises(DataError):
        load_csv(path)


def test_load_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError):
        load_csv(path)


@settings(max_examples=30, deadline=None)
@given(small_dataset())
def test_csv_round_trip(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("rt") / "m.csv"
    write_csv(ds, path)
    back = load_csv(path)
    assert np.allclose(back.values, ds.values, rtol=0, atol=1e-12)


def test_generate_is_deterministic():
    spec = InstanceSpec(Distribution.NORMAL01, 100, 3, 7)
    assert np.array_equal(generate(spec).values, generate(spec).values)


def test_generate_uniform_range():
    ds = generate(InstanceSpec(Distribution.UNIFORM, 500, 25, 1))
    assert ds.values.min() >= -1.0 and ds.values.max() <= 1.0


def test_generate_normal_column_means_near_zero():
    # law of large numbers: at n=10000 the sample mean should be well inside
    # +-0.05 (sd of the mean is 0.01)
    ds = generate(InstanceSpec(Distribution.NORMAL01, 10000, 3, 3))
    assert np.all(np.abs(ds.values.mean(axis=0)) < 0.05)


def test_spec_validation():
    with pytest.raises(DataError):
        InstanceSpec(Distribution.NORMAL01, 1, 3, 0)
    with pytest.raises(DataError):
        InstanceSpec(Distribution.NORMAL01, 5, 0, 0)
    with pytest.raises(DataError):
        InstanceSpec(Distribution.NORMAL01, 5, 3, -1)
    with pytest.raises(DataError):
        InstanceSpec(Distribution.NORMAL01, 5, 3, 2**64)


@pytest.mark.parametrize(
    "n, m, seed, name",
    [
        (20.7, 3, 1, "n"),  # once numpy's TypeError in generate
        (20, True, 1, "m"),
        (20, 3, 1.0, "seed"),
        (20, 3, "1", "seed"),
        (20, np.bool_(True), 1, "m"),
    ],
    ids=["n-float", "m-bool", "seed-float", "seed-string", "m-numpy-bool"],
)
def test_spec_rejects_non_integer_sizes(n, m, seed, name):
    with pytest.raises(DataError, match=f"^{name} must be an integer, got "):
        InstanceSpec(Distribution.NORMAL01, n, m, seed)


def test_spec_takes_numpy_integers():
    spec = InstanceSpec(Distribution.NORMAL01, np.int64(20), np.int32(3), np.uint64(1))
    assert generate(spec).values.tobytes() == generate(
        InstanceSpec(Distribution.NORMAL01, 20, 3, 1)
    ).values.tobytes()


def test_instance_names():
    assert instance_name(InstanceSpec(Distribution.NORMAL01, 100, 3, 1)) == "N-100-3"
    assert instance_name(InstanceSpec(Distribution.UNIFORM, 500, 25, 1)) == "U-500-25"


def test_standardize_hand_example():
    # column (0,0,3,3): mean 1.5, sample sd sqrt(3)
    ds = standardize(Dataset(np.array([[0.0], [0.0], [3.0], [3.0]])))
    v = 1.5 / math.sqrt(3.0)
    assert np.allclose(ds.values[:, 0], [-v, -v, v, v])
    assert math.isclose(ds.column_sds[0], math.sqrt(3.0))
    assert ds.standardized


def test_standardize_zeroes_constant_column():
    ds = standardize(Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])))
    assert ds.degenerate_columns == (0,)
    assert np.all(ds.values[:, 0] == 0.0)
    assert abs(ds.values[:, 1].std(ddof=1) - 1.0) < 1e-9


def test_standardize_all_constant_is_an_error():
    with pytest.raises(DegenerateDataError):
        standardize(Dataset(np.array([[5.0], [5.0], [5.0]])))


def test_standardize_twice_is_an_error():
    ds = standardize(Dataset(np.array([[0.0], [1.0], [2.0]])))
    with pytest.raises(DataError):
        standardize(ds)


def test_standardize_names_a_column_it_cannot_center():
    # it once raised "standardized flag set but columns are not z-scored"
    # for its own output
    with pytest.raises(DataError, match="column 1 cannot be z-scored in float64") as err:
        standardize(nearly_constant_column())
    assert "too small relative to its magnitude" in str(err.value)
    assert "flag" not in str(err.value)


@settings(max_examples=40, deadline=None)
@given(small_dataset(min_n=3))
def test_standardize_invariants(ds):
    out = standardize(ds)
    keep = [j for j in range(out.m) if j not in out.degenerate_columns]
    means = out.values[:, keep].mean(axis=0)
    sds = out.values[:, keep].std(axis=0, ddof=1)
    assert np.all(np.abs(means) <= 1e-9)
    assert np.all(np.abs(sds - 1.0) <= 1e-9)


def _standardized_by_temporaries(v):
    """The z-score with a full n x m temporary for |x| and for x - mean."""
    means = v.mean(axis=0)
    sds = v.std(axis=0, ddof=1)
    scale = np.maximum(np.abs(v).max(axis=0), 1.0)
    degenerate = sds <= 1e-12 * scale
    out = (v - means) / np.where(degenerate, 1.0, sds)
    out[:, degenerate] = 0.0
    return out, means, sds, tuple(np.flatnonzero(degenerate).tolist())


@settings(max_examples=40, deadline=None)
@given(small_dataset(min_n=3, max_m=4), st.integers(0, 3), st.sampled_from([-1e6, 0.0, 3e3]))
def test_standardize_matches_the_temporaries_byte_for_byte(ds, j, offset):
    # one column is shifted far off zero and squeezed to a spread below
    # 1e-12 of its magnitude: the column's scale, not its sd, marks it
    assume(ds.m > 1)  # else every column is constant
    values = ds.values.copy()
    j %= ds.m
    values[:, j] = offset + values[:, j] * 1e-14 * abs(offset)
    out = standardize(Dataset(values))
    expect, means, sds, degenerate = _standardized_by_temporaries(values)
    assert out.values.tobytes() == expect.tobytes()
    assert out.column_means.tobytes() == means.tobytes()
    assert out.column_sds.tobytes() == sds.tobytes()
    assert out.degenerate_columns == degenerate


@pytest.mark.parametrize("constant", [None, 2])
def test_standardize_returns_its_matrix_column_major(constant):
    # its readers (group_sums, the certificate, SST, k-means) take whole columns
    values = np.random.default_rng(4).normal(size=(50, 4))
    if constant is not None:
        values[:, constant] = 7.0
    out = standardize(Dataset(values))
    assert out.values.flags.f_contiguous and not out.values.flags.c_contiguous
    assert out.degenerate_columns == (() if constant is None else (constant,))
    assert out.values.tobytes() == _standardized_by_temporaries(values)[0].tobytes()


def test_standardize_peak_memory_is_near_one_matrix():
    # An n x m |x| next to the result, and the standardized check's copies
    # of the columns, peaked at 3x the matrix's bytes.
    ds = generate(InstanceSpec(Distribution.NORMAL01, 20_000, 5, 11))
    tracemalloc.start()
    try:
        out = standardize(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.values.shape == ds.values.shape
    matrix_bytes = ds.values.nbytes
    assert peak < 1.5 * matrix_bytes, f"peak {peak} B for a {matrix_bytes} B matrix"


@settings(max_examples=40, deadline=None)
@given(small_dataset(min_n=3))
def test_standardized_sst_identity(ds):
    from gcluster import sst

    out = standardize(ds)
    live = out.m - len(out.degenerate_columns)
    expect = live * (out.n - 1)
    assert math.isclose(sst(out).total, expect, rel_tol=1e-9)


def test_dataset_is_immutable():
    ds = Dataset(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        ds.values[0, 0] = 5.0


def _spell(value: float, style: int) -> str:
    """One of several spellings that ``float`` reads back as ``value``."""
    text = repr(value)
    if style == 1:
        return "%.17g" % value
    if style == 2 and not text.startswith("-"):
        return "+" + text
    if style == 3:
        return f"  {text} "
    if style == 4 and value.is_integer() and abs(value) < 1e15:
        sign, digits = ("-", str(int(-value))) if text.startswith("-") else ("", str(int(value)))
        return sign + "_".join(digits)
    return text


_CELL_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310]),
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 8).flatmap(
        lambda m: st.lists(
            st.lists(st.tuples(_CELL_VALUES, st.integers(0, 4)), min_size=m, max_size=m),
            min_size=2,
            max_size=12,
        )
    ),
    st.booleans(),
)
def test_load_mixed_spellings_equal_per_cell_float(tmp_path_factory, rows, header):
    lines = [",".join(_spell(v, style) for v, style in row) for row in rows]
    if header:
        lines.insert(0, ",".join(f"c{j}" for j in range(len(rows[0]))))
    path = tmp_path_factory.mktemp("spell") / "m.csv"
    path.write_text("\n".join(lines) + "\n")
    expect = np.array(
        [[float(cell) for cell in line.split(",")] for line in lines[int(header):]],
        dtype=np.float64,
    )
    got = load_csv(path).values
    assert got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()  # bit for bit, -0.0 included


@pytest.mark.parametrize(
    "text, fault",
    [
        ("1,2\n3,x\n4\n", "row 2, column 2: 'x' is not a finite number"),
        ("1,2\n3\n4,x\n", "row 2 has 1 cells, expected 2"),
        ("1,2,3\nnan,5,x\n", "row 2, column 1: 'nan' is not a finite number"),
        ("1,2\n3,NaN\n4,x\n", "row 2, column 2: 'NaN' is not a finite number"),
        ("a,b\n1,2\n3,inf\n4\n", "row 3, column 2: 'inf' is not a finite number"),
        ("1,2\n\n3,4\n\n\n5,x\n", "row 3, column 2: 'x' is not a finite number"),
        ("a,b\n\n1,2\n\n1,2,3\n", "row 3 has 3 cells, expected 2"),
        ("1,2\n3,1e999\n", "row 2, column 2: '1e999' is not a finite number"),
        ("a,b\n1,x\n", "row 2, column 2: 'x' is not a finite number"),
        ("a,b\n1,2\n", "need at least 2 data rows, got 1"),
        ("a,b\n\n", "no data rows"),
        ("\n\n", "file is empty"),
    ],
)
def test_load_reports_first_fault_in_row_major_order(tmp_path, text, fault):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: {fault}"


@pytest.mark.parametrize("lead_rows", [0, 5000])
@pytest.mark.parametrize(
    "tail", ["caf\u00e9,1\n".encode("latin-1"), b'"' + b"9" * 131_073 + b'",1\n'],
    ids=["latin-1", "oversized-field"],
)
def test_load_wraps_unreadable_text_anywhere_in_the_file(tmp_path, lead_rows, tail):
    # 5000 rows put the fault past the first decoded chunk, inside the streamed parse
    path = tmp_path / "bad.csv"
    path.write_bytes(b"x,y\n" + b"1.5,2.5\n" * (lead_rows + 2) + tail)
    with pytest.raises(DataError, match="^" + re.escape(f"{path}: ")):
        load_csv(path)


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("\nx,y\n\n1,2\n\n\n3,4\n\n")
    assert load_csv(path).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.lists(st.lists(_CELL_VALUES, min_size=m, max_size=m), min_size=2, max_size=10)
    )
)
def test_csv_round_trip_is_exact(tmp_path_factory, rows):
    ds = Dataset(np.array(rows, dtype=np.float64))
    path = tmp_path_factory.mktemp("exact") / "m.csv"
    write_csv(ds, path)
    back = load_csv(path).values
    assert np.array_equal(back, ds.values)
    assert back.tobytes() == ds.values.tobytes()


def test_load_peak_memory_is_a_small_multiple_of_the_matrix(tmp_path):
    # A loader that holds the rows as lists of strings peaks near 14x the
    # matrix's bytes on this file; the streamed parse peaks near 2x.
    ds = generate(InstanceSpec(Distribution.NORMAL01, 20_000, 5, 11))
    path = tmp_path / "m.csv"
    write_csv(ds, path)
    tracemalloc.start()
    try:
        back = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, ds.values)
    matrix_bytes = ds.values.nbytes
    assert peak < 4 * matrix_bytes, f"peak {peak} B for a {matrix_bytes} B matrix"


def test_load_keeps_the_parsed_matrix_instead_of_a_copy(tmp_path):
    # The parse peaks near 1.4x the matrix's bytes, from the growth of its
    # buffer. A Dataset that copied the parsed matrix would add 1x more.
    ds = generate(InstanceSpec(Distribution.NORMAL01, 20_000, 5, 11))
    path = tmp_path / "m.csv"
    write_csv(ds, path)
    tracemalloc.start()
    try:
        back = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, ds.values)
    matrix_bytes = ds.values.nbytes
    assert peak < 1.75 * matrix_bytes, f"peak {peak} B for a {matrix_bytes} B matrix"


@pytest.mark.parametrize(
    "values, match",
    [
        (np.zeros(3), "2-d matrix"),
        (np.zeros((1, 2)), "at least 2 rows"),
        (np.zeros((3, 0)), "at least 1 column"),
        (np.array([[0.0, 1.0], [np.nan, 2.0]]), "non-finite"),
        (np.array([[0.0, np.inf], [1.0, 2.0]]), "non-finite"),
    ],
    ids=["one-dimensional", "one-row", "no-column", "nan", "inf"],
)
def test_dataset_rejects_an_unusable_matrix(values, match):
    with pytest.raises(DataError, match=match):
        Dataset(values)


def test_dataset_copies_a_callers_array():
    given = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 7.0]])
    ds = Dataset(given)
    given[0, 0] = 99.0
    assert ds.values[0, 0] == 0.0
    assert given.flags.writeable  # the caller's own array is left alone


def test_loaded_and_standardized_values_are_read_only(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("0,1\n2,5\n4,0\n")
    loaded = load_csv(path)
    for ds in (loaded, standardize(loaded)):
        assert not ds.values.flags.writeable
        with pytest.raises(ValueError):
            ds.values[0, 0] = 1.0


# Cells for the differential test. Numbers in the spellings numpy's reader
# and float() share, and in float()-only ones; padding numpy strips but
# float() does not (U+001C..U+001F); non-finite spellings; and junk.
_SHARED_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["+1", "-0", "-0.0", ".5", "5.", "1e5", "1E-3", "+2.5e+10", "5e-324", "1e-400"]),
)
_ODD_CELLS = st.sampled_from(
    ["1_000", "-1_0.5", "１２", "٣", "nan", "-inf", "Infinity", "1e999", "-1e999",
     "", "x", "#", "#1", "1#", "1 2", '"', '""', "1e", "--1", "0x10", "1\x002", "9" * 400]
)
_SHARED_PADS = st.sampled_from(["", " ", "\t", "  ", " \t"])
_ODD_PADS = st.sampled_from(["\x0b", "\x0c", "\xa0", "　", "\x1c", "\x1f", "\x85"])


@st.composite
def _csv_cell(draw, clean):
    pads = _SHARED_PADS if clean or draw(st.integers(0, 3)) else _ODD_PADS
    core = draw(_SHARED_NUMBERS if clean or draw(st.integers(0, 4)) else _ODD_CELLS)
    text = draw(pads) + core + draw(pads)
    if not clean and draw(st.integers(0, 5)) == 0:
        text = f'"{text}"'
    return text


@st.composite
def _csv_bytes(draw, clean=None):
    """CSV text from the cell grammar above, as UTF-8 bytes: blank and
    whitespace-only lines, ragged rows, mixed line ends, an optional header
    and an optional byte-order mark. ``clean`` files use only the spellings
    both readers share; the others switch on odd cells, ragged rows and odd
    lines independently."""
    if clean is None:
        clean = draw(st.booleans())
    odd_cells, ragged, odd_lines = (not clean and draw(st.booleans()) for _ in range(3))
    m = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.sampled_from(["a", "x 1", '"b,c"', "1x", "y"])) for _ in range(m)))
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", '""'] if odd_lines else [""])))
        width = draw(st.integers(1, m + 1)) if ragged and draw(st.integers(0, 3)) == 0 else m
        lines.append(",".join(draw(_csv_cell(not odd_cells)) for _ in range(width)))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    bom = codecs.BOM_UTF8 if draw(st.integers(0, 4)) == 0 else b""
    return bom + "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")


def _loaded_or_fault(load, path):
    try:
        return np.asarray(load(path)).tobytes()
    except DataError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(_csv_bytes())
def test_load_matches_the_streamed_reference(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("diff") / "d.csv"
    path.write_bytes(data)
    expect = _loaded_or_fault(load_csv_scan, path)
    got = _loaded_or_fault(lambda p: load_csv(p).values, path)
    assert got == expect


def _spy_on_the_fallback(monkeypatch):
    calls = []
    streamed = dataset_module._parse_streamed

    def spy(*args):
        calls.append(args)
        return streamed(*args)

    monkeypatch.setattr(dataset_module, "_parse_streamed", spy)
    return calls


@settings(max_examples=60, deadline=None)
@given(_csv_bytes(clean=True))
def test_clean_file_never_enters_the_fallback(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("clean") / "c.csv"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _spy_on_the_fallback(monkeypatch)
        _loaded_or_fault(lambda p: load_csv(p).values, path)
    assert calls == []


@pytest.mark.parametrize(
    "text", ["a,b\n1_000,2\n3,4\n", "1,2\n3,\x1c4\n", '1,"2"\n3,4\n', "1,2\n3,4 " + " " * 131_072 + "\n"],
    ids=["digit-groups", "unit-separator", "quoted", "long-cell"],
)
def test_float_only_files_take_the_fallback(monkeypatch, tmp_path, text):
    path = tmp_path / "f.csv"
    path.write_text(text, encoding="utf-8", newline="")
    calls = _spy_on_the_fallback(monkeypatch)
    assert _loaded_or_fault(lambda p: load_csv(p).values, path) == _loaded_or_fault(load_csv_scan, path)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "text, c_parses",
    [("x,y\n" + "1,2\n" * 50 + '3,"4"\n', 0), ('"x","y"\n1,2\n3,4\n', 1)],
    ids=["late-quote", "quoted-header"],
)
def test_a_quote_after_the_header_skips_the_c_parse(monkeypatch, tmp_path, text, c_parses):
    # a quoted cell anywhere in the rows goes straight to the streamed pass,
    # which reads it; a quoted header does not count, since numpy skips it
    path = tmp_path / "q.csv"
    path.write_text(text, encoding="utf-8", newline="")
    calls = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    assert _loaded_or_fault(lambda p: load_csv(p).values, path) == _loaded_or_fault(load_csv_scan, path)
    assert len(calls) == c_parses


@pytest.mark.parametrize(
    "text, expect",
    [
        ("1.5,2\n3,4\n5,7\n", [[1.5, 2.0], [3.0, 4.0], [5.0, 7.0]]),
        ('"x","y"\n1.5,2\n3,4\n', [[1.5, 2.0], [3.0, 4.0]]),
    ],
    ids=["no header", "quoted header"],
)
def test_load_skips_a_byte_order_mark(monkeypatch, tmp_path, text, expect):
    # Excel's "CSV UTF-8" export starts with a BOM, which is not part of the
    # first cell. numpy's reader still takes the rows after the header: the
    # quote scan starts past the header's bytes and the BOM's 3.
    path = tmp_path / "excel.csv"
    path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    calls = _spy_on_the_fallback(monkeypatch)
    assert load_csv(path).values.tobytes() == np.array(expect).tobytes()
    assert calls == []


@pytest.mark.parametrize(
    "text, expect",
    [
        ("x,y\n1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("x,y\n1,2\n3,z\n", "row 3, column 2: 'z' is not a finite number"),
        ("\ufeff1.5,2\n3,4\n", [[1.5, 2.0], [3.0, 4.0]]),
    ],
    ids=["valid", "fault", "byte-order mark"],
)
def test_load_reads_a_pipe_in_one_pass(tmp_path, text, expect):
    # A named pipe cannot be read twice: it takes the streamed pass alone,
    # which also words its own fault
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    result = []

    def write():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def read():
        result.append(_loaded_or_fault(lambda p: load_csv(p).values, path))

    threads = [threading.Thread(target=f, daemon=True) for f in (write, read)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    if isinstance(expect, list):
        assert result == [np.array(expect).tobytes()]
    else:
        assert result == [f"{path}: {expect}"]
