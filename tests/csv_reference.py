"""Reference CSV parse: the streamed ``csv`` + ``float`` loader that
``gcluster.dataset.load_csv`` must reproduce.

``load_csv_scan`` reads the file with the ``csv`` module and converts every
cell with ``float``, the grammar the loader promises. It returns the data
matrix, or raises the :class:`DataError` the loader must raise, with the
same text: the first fault in row-major order, row numbers counting
non-empty rows. It is slow but plainly right, and kept self-contained so a
change to the library cannot move it.
"""

import csv
from itertools import chain, islice

import numpy as np

from gcluster import DataError


def _parse_cell(cell):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if np.isfinite(value) else None


def load_csv_scan(path):
    """The n x m float64 matrix of the file at ``path``, or DataError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = filter(None, csv.reader(fh))
            first = next(rows, [])
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
    return flat.reshape(n, m)


def _first_fault(path, has_header, m):
    """Word the first fault from a second, cell-by-cell read."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        numbered = enumerate(filter(None, csv.reader(fh)), 1)
        for rownum, row in islice(numbered, has_header, None):
            if len(row) != m:
                return f"{path}: row {rownum} has {len(row)} cells, expected {m}"
            for j, cell in enumerate(row, 1):
                if _parse_cell(cell) is None:
                    return f"{path}: row {rownum}, column {j}: {cell!r} is not a finite number"
    raise AssertionError(f"{path}: no fault found on the second read")
