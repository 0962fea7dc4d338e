import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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

from conftest import small_dataset


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


def test_load_explicit_header_flag(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    ds = load_csv(path, has_header=True)
    assert ds.n == 2
    assert ds.values[0].tolist() == [3.0, 4.0]


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


@settings(max_examples=40, deadline=None)
@given(small_dataset(min_n=3))
def test_standardize_invariants(ds):
    out = standardize(ds)
    keep = [j for j in range(out.m) if j not in out.degenerate_columns]
    means = out.values[:, keep].mean(axis=0)
    sds = out.values[:, keep].std(axis=0, ddof=1)
    assert np.all(np.abs(means) <= 1e-9)
    assert np.all(np.abs(sds - 1.0) <= 1e-9)


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
