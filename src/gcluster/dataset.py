"""Data matrices: CSV ingestion, seeded synthetic instances, z-scoring.

A :class:`Dataset` is an immutable n x m float matrix (rows = elements,
columns = attributes). Everything downstream (variance bookkeeping and the
solvers) reads it but never writes it, so one Dataset can back any number of
concurrent solver runs.
"""

from __future__ import annotations

import csv
import enum
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
    """Recipe for one synthetic instance; fully determines the matrix."""

    distribution: Distribution
    n: int
    m: int
    seed: int

    def __post_init__(self):
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

    ``column_means``/``column_sds`` record the transform applied by
    :func:`standardize` (sample sd, n-1 denominator). ``degenerate_columns``
    lists columns that were constant and have been zeroed out.
    """

    values: np.ndarray
    standardized: bool = False
    column_means: np.ndarray | None = None
    column_sds: np.ndarray | None = None
    degenerate_columns: tuple[int, ...] = field(default=())

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
        keep = np.ones(self.m, dtype=bool)
        keep[list(self.degenerate_columns)] = False
        means = self.values[:, keep].mean(axis=0)
        sds = self.values[:, keep].std(axis=0, ddof=1)
        if np.any(np.abs(means) > 1e-9) or np.any(np.abs(sds - 1.0) > 1e-9):
            raise DataError("standardized flag set but columns are not z-scored")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


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

    Constant columns cannot be scaled; they are zeroed and reported in the
    returned dataset's ``degenerate_columns``. Raises
    :class:`DegenerateDataError` if every column is constant.
    """
    if ds.standardized:
        raise DataError("dataset is already standardized")
    means = ds.values.mean(axis=0)
    sds = ds.values.std(axis=0, ddof=1)
    scale = np.maximum(np.abs(ds.values).max(axis=0), 1.0)
    degenerate = sds <= _DEGENERATE_REL_SD * scale
    if degenerate.all():
        raise DegenerateDataError("every column is constant; nothing to cluster")
    safe_sds = np.where(degenerate, 1.0, sds)
    out = (ds.values - means) / safe_sds
    out[:, degenerate] = 0.0
    return Dataset(
        values=_Owned(out),
        standardized=True,
        column_means=means,
        column_sds=sds,
        degenerate_columns=tuple(int(j) for j in np.flatnonzero(degenerate)),
    )


def _parse_cell(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if np.isfinite(value) else None


def load_csv(path, has_header: bool | None = None) -> Dataset:
    """Read a comma-separated numeric matrix (rows = elements).

    With ``has_header=None`` the first row is treated as a header iff any of
    its cells does not parse as a finite number. Blank lines are skipped. One
    streamed pass parses the cells; a :class:`DataError` names the first fault.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = filter(None, csv.reader(fh))
            first = next(rows, [])
            if has_header is None:
                has_header = any(_parse_cell(c) is None for c in first)
            head = next(rows, []) if has_header else first
            if not head:
                raise DataError(f"{path}: {'no data rows' if first else 'file is empty'}")
            m = len(head)

            def cells():
                for row in chain([head], rows):
                    if len(row) != m:
                        raise ValueError("ragged row")
                    yield from row

            # every fault ends the pass as a ValueError; _first_fault words it
            try:
                flat = np.fromiter(map(float, cells()), dtype=np.float64)
                if not np.isfinite(flat).all():
                    raise ValueError("non-finite cell")
            except ValueError:
                raise DataError(_first_fault(path, has_header, m)) from None
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from None
    n = len(flat) // m
    if n < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {n}")
    return Dataset(values=_Owned(flat.reshape(n, m)))


def _first_fault(path, has_header: bool, m: int) -> str:
    """Word the first fault in row-major order from a second read, as the
    streamed pass keeps no cell text. Row numbers count non-empty rows."""
    with open(path, newline="", encoding="utf-8") as fh:
        for rownum, row in islice(enumerate(filter(None, csv.reader(fh)), 1), has_header, None):
            if len(row) != m:
                return f"{path}: row {rownum} has {len(row)} cells, expected {m}"
            for j, cell in enumerate(row, 1):
                if _parse_cell(cell) is None:
                    return f"{path}: row {rownum}, column {j}: {cell!r} is not a finite number"
    return f"{path}: changed while it was read"


def write_csv(ds: Dataset, path, header: list[str] | None = None) -> None:
    """Write the matrix as CSV with full round-trip decimal precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in ds.values:
            writer.writerow([repr(float(v)) for v in row])
