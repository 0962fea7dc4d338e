"""Data matrices: CSV ingestion, seeded synthetic instances, z-scoring.

A :class:`Dataset` is an immutable n x m float matrix (rows = elements,
columns = attributes). Everything downstream (variance bookkeeping and the
solvers) reads it but never writes it, so one Dataset can back any number of
concurrent solver runs; only its SST summary is cached on it, once.
"""

from __future__ import annotations

import array
import codecs
import csv
import enum
import numbers
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .errors import DataError, DegenerateDataError

# A column whose sample sd is below this (relative to the column magnitude)
# carries no usable signal and is treated as constant.
_DEGENERATE_REL_SD = 1e-12


class Distribution(enum.Enum):
    """Entry distribution for synthetic instances."""

    NORMAL01 = "normal"
    UNIFORM = "uniform"


@dataclass(frozen=True, eq=False)
class InstanceSpec:
    """Recipe for one synthetic instance; fully determines the matrix. ``n``,
    ``m`` and ``seed`` are integers (not ``bool``) with n >= 2, m >= 1 and
    0 <= seed < 2^64; anything else raises :class:`DataError`."""

    distribution: Distribution
    n: int
    m: int
    seed: int

    def __post_init__(self):
        for name in ("n", "m", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DataError(f"{name} must be an integer, got {value!r}")
        if self.n < 2:
            raise DataError(f"instance needs n >= 2 elements, got n={self.n}")
        if self.m < 1:
            raise DataError(f"instance needs m >= 1 attributes, got m={self.m}")
        if not 0 <= self.seed < 2**64:
            raise DataError("seed must fit in an unsigned 64-bit integer")


def instance_name(spec: InstanceSpec) -> str:
    """Canonical instance label, e.g. ``N-100-3`` for n=100, m=3."""
    prefix = "N" if spec.distribution is Distribution.NORMAL01 else "U"
    return f"{prefix}-{spec.n}-{spec.m}"


class _Owned:
    """A float64 matrix that this module has just built and hands over to
    :class:`Dataset`, which keeps it instead of a copy."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable n x m data matrix with standardization metadata.

    ``values`` keeps the memory layout it was built in: row-major from
    :func:`load_csv` and :func:`generate`, column-major from
    :func:`standardize`. ``column_means``/``column_sds`` record the
    transform applied by :func:`standardize` (sample sd, n-1 denominator).
    ``degenerate_columns`` lists columns that were constant and have been
    zeroed out. ``_sst`` is where :func:`stats.sst` caches its summary of
    the matrix on first use.
    """

    values: np.ndarray
    standardized: bool = False
    column_means: np.ndarray | None = None
    column_sds: np.ndarray | None = None
    degenerate_columns: tuple[int, ...] = field(default=())
    _sst: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.values, _Owned):
            arr = self.values.array
        else:  # the caller may still write to what it passed
            arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise DataError(f"expected a 2-d matrix, got shape {arr.shape}")
        n, m = arr.shape
        if n < 2:
            raise DataError(f"dataset needs at least 2 rows, got {n}")
        if m < 1:
            raise DataError(f"dataset needs at least 1 column, got {m}")
        if not np.isfinite(arr).all():
            raise DataError("dataset contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if self.standardized:
            self._check_standardized()

    def _check_standardized(self):
        off = _unscored_columns(self.values, self.degenerate_columns)
        if len(off):
            raise DataError(f"standardized flag set but column {off[0]} is not z-scored")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


def _unscored_columns(v: np.ndarray, skip) -> np.ndarray:
    """The columns, other than ``skip``, whose mean is off 0 or whose sample
    sd is off 1 by more than 1e-9."""
    n = len(v)
    means = v.mean(axis=0)
    # sums of squares without an n x m temporary; they give the sd only
    # where |mean| <= 1e-9, but every other column fails the check anyway
    sds = np.sqrt((np.einsum("ij,ij->j", v, v) - n * means**2) / (n - 1))
    off = (np.abs(means) > 1e-9) | (np.abs(sds - 1.0) > 1e-9)
    off[list(skip)] = False
    return np.flatnonzero(off)


def generate(spec: InstanceSpec) -> Dataset:
    """Draw an instance matrix from the spec's distribution.

    The generator is numpy's PCG64 seeded with ``spec.seed``, so the same
    spec always reproduces the same matrix bit for bit.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.distribution is Distribution.NORMAL01:
        vals = rng.standard_normal((spec.n, spec.m))
    else:
        vals = rng.uniform(-1.0, 1.0, size=(spec.n, spec.m))
    return Dataset(values=_Owned(vals))


def standardize(ds: Dataset) -> Dataset:
    """Z-score every column: subtract the mean, divide by the sample sd.

    The result is column-major, so every reader of a standardized matrix
    (group sums, the certificate, SST, k-means) takes contiguous columns.
    Its values have the same bits as a row-major result would; the means
    and sds are reduced in the layout of ``ds``.

    Constant columns cannot be scaled; they are zeroed and reported in the
    returned dataset's ``degenerate_columns``. Raises
    :class:`DegenerateDataError` if every column is constant, and
    :class:`DataError` naming a column whose mean or sd overflows float64,
    or whose spread is above the constant guard but still too small against
    its magnitude for float64 to center it (the z-scored mean keeps an error
    of about eps * |mean| / sd).
    """
    if ds.standardized:
        raise DataError("dataset is already standardized")
    v = ds.values
    with np.errstate(over="ignore", invalid="ignore"):
        means = v.mean(axis=0)
        sds = v.std(axis=0, ddof=1)
    if not np.isfinite(sds).all():
        j = np.flatnonzero(~np.isfinite(sds))[0]
        raise DataError(
            f"column {j} cannot be z-scored in float64: its mean or spread overflows"
            f" (sd {sds[j]:.3g}, mean {means[j]:.6g})"
        )
    # the one n x m array: |x| first, then the result, column-major
    out = np.abs(v, out=np.empty(v.shape, order="F"))
    scale = np.maximum(out.max(axis=0), 1.0)
    degenerate = sds <= _DEGENERATE_REL_SD * scale
    if degenerate.all():
        raise DegenerateDataError("every column is constant; nothing to cluster")
    safe_sds = np.where(degenerate, 1.0, sds)
    np.subtract(v, means, out=out)
    out /= safe_sds
    out[:, degenerate] = 0.0
    skip = tuple(int(j) for j in np.flatnonzero(degenerate))
    try:
        return Dataset(
            values=_Owned(out),
            standardized=True,
            column_means=means,
            column_sds=sds,
            degenerate_columns=skip,
        )
    except DataError:
        off = _unscored_columns(out, skip)  # which column; only on failure
        if not len(off):
            raise
        j = off[0]
        raise DataError(
            f"column {j} cannot be z-scored in float64: its spread (sd {sds[j]:.3g})"
            f" is too small relative to its magnitude (mean {means[j]:.6g})"
        ) from None


def _parse_cell(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if np.isfinite(value) else None


# Bytes that send a data row to the streamed pass: a quote, and the ASCII
# separators U+001C..U+001F, whitespace to numpy's float parse but not to
# ``float``.
_STREAMED_ONLY = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# Rows per block of the streamed pass; a fault is worded from its block.
_STREAM_ROWS = 512


def load_csv(path) -> Dataset:
    """Read a comma-separated numeric matrix (rows = elements).

    The first non-empty row is a header iff any of its cells does not parse
    as a finite number; the first data row sets the width m. Blank lines are
    skipped. numpy's C reader parses the rows after the header, and its
    matrix is kept when it is m wide and every entry is finite. Anything
    else goes to the streamed ``csv`` + ``float`` pass: the only one that
    reads ``float``'s whole grammar (``1_000``, non-ASCII digits, quoted
    cells), and the one that names the first fault in row-major order in a
    :class:`DataError`. Both give every cell the bits ``float`` gives it.
    A stream that cannot be read twice, such as a pipe, takes the streamed
    pass alone. A leading UTF-8 byte-order mark, which Excel's "CSV UTF-8"
    writes, is not part of the first cell.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = filter(None, reader)
            first = next(rows, [])
            has_header = any(_parse_cell(c) is None for c in first)
            header_lines = reader.line_num if has_header else 0
            head = next(rows, []) if has_header else first
            if not head:
                raise DataError(f"{path}: {'no data rows' if first else 'file is empty'}")
            m = len(head)
            values = _parse_in_c(path, header_lines, m) if fh.seekable() else None
            if values is None:
                values = _parse_streamed(path, chain([head], rows), 1 + has_header, m)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from None
    if len(values) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(values)}")
    return Dataset(values=_Owned(values))


def _parse_in_c(path, header_lines: int, m: int) -> np.ndarray | None:
    """numpy's parse of the file after its first ``header_lines`` lines, or
    None unless it is m wide, finite, and sure to equal the streamed pass.

    Quoting stays off, so a cell is the text between commas on one line, as
    ``csv`` splits it there, and a cell that numpy's float parse accepts
    gets ``float``'s bits. The rows after the header are first scanned for
    a quote, which numpy would reject only once it reached it, and for the
    two things numpy accepts and the streamed pass does not: a U+001C..U+001F
    character, and a cell over ``csv.field_size_limit()``. numpy reads the
    lines of a handle opened here: given a path, it would decompress by the
    file's extension.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = "".join(islice(fh, header_lines))
        if not _c_reader_agrees(path, len(header.encode("utf-8"))):
            return None
        try:
            values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
        except ValueError:  # a cell or row it rejects, or undecodable text
            return None
    if values.shape[1] != m or not np.isfinite(values).all():
        return None
    return values


def _c_reader_agrees(path, start: int) -> bool:
    """False if the file's text from byte ``start`` on has a quote, a byte
    U+001C..U+001F, or a run of 2w bytes, 2w <= ``csv.field_size_limit()``,
    with no comma or line end: a longer cell would cover one of the aligned
    w-byte windows checked here. The text starts after a byte-order mark,
    so the file offset counts the mark's 3 bytes."""
    w = max(1, min(csv.field_size_limit(), 1 << 17) // 2)
    with open(path, "rb") as fb:
        if fb.read(len(codecs.BOM_UTF8)) == codecs.BOM_UTF8:
            start += len(codecs.BOM_UTF8)
        fb.seek(start)
        while block := fb.read(4 * w):
            if any(c in block for c in _STREAMED_ONLY):
                return False
            for lo in range(0, len(block) - w + 1, w):
                if all(block.find(c, lo, lo + w) < 0 for c in (b",", b"\n", b"\r")):
                    return False
    return True


def _parse_streamed(path, rows, rownum: int, m: int) -> np.ndarray:
    """The ``csv`` + ``float`` pass over the data ``rows``, the first of
    them non-empty row ``rownum``, a block of rows at a time. The first
    block with a fault words it."""
    flat = array.array("d")
    while block := list(islice(rows, _STREAM_ROWS)):
        try:
            if set(map(len, block)) != {m}:
                raise ValueError("ragged row")
            cells = map(float, chain.from_iterable(block))
            values = np.fromiter(cells, dtype=np.float64, count=len(block) * m)
            if not np.isfinite(values).all():
                raise ValueError("non-finite cell")
        except ValueError:
            raise DataError(_first_fault(path, rownum, block, m)) from None
        flat.frombytes(values.tobytes())
        rownum += len(block)
    return np.frombuffer(flat).reshape(-1, m)


def _first_fault(path, rownum: int, block: list[list[str]], m: int) -> str:
    """Word the first fault in row-major order in a block of rows, the first
    of them row ``rownum``."""
    for i, row in enumerate(block, rownum):
        if len(row) != m:
            return f"{path}: row {i} has {len(row)} cells, expected {m}"
        for j, cell in enumerate(row, 1):
            if _parse_cell(cell) is None:
                return f"{path}: row {i}, column {j}: {cell!r} is not a finite number"
    raise ValueError("the block has no fault")


def write_csv(ds: Dataset, path) -> None:
    """Write the matrix as CSV with full round-trip decimal precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in ds.values:
            writer.writerow([repr(float(v)) for v in row])
