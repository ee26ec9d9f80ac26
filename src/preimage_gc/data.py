"""Panel container, CSV ingestion, normalization, and shared argument checks."""

from __future__ import annotations

import csv
import io
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError


def _frozen_array(values, dtype=float, order="K"):
    """A read-only copy of values, never a view of the caller's array.

    order="K" keeps the input's memory layout. The layout picks the BLAS
    path of later products and with it their last bits, so each frozen
    field keeps the layout it was built with.
    """
    out = np.array(values, dtype=dtype, order=order)
    out.setflags(write=False)
    return out


def _as_matrix(values, name):
    """values as a float64 array, with no copy when they already are one;
    ValueError naming the argument unless it is 2-d."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got ndim={values.ndim}")
    return values


def _freeze(obj, *names, dtype=float, order="K"):
    """Replace the named fields of a frozen dataclass by read-only copies."""
    for name in names:
        object.__setattr__(obj, name, _frozen_array(getattr(obj, name), dtype, order))


def _refuse_overflow(values, what, fix="rescale the input or normalize it"):
    """DegenerateInputError "<what> float64; <fix>" unless values are all
    finite; the caller's inputs are, so a non-finite value is an overflow."""
    if not np.isfinite(values).all():
        raise DegenerateInputError(f"{what} float64; {fix}")


def _finite_nonnegative(value):
    """Whether value is a real number in [0, inf) that is not a bool and
    that float64 holds: 0, 1e-3 and np.float64(2) are; True, "1", None,
    [1.0], nan, inf and 10**400 are not."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        return False
    try:
        return 0 <= value and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _is_integer(value):
    """Whether value's type is an integer type other than bool: 2 and
    np.int64(2) are; 2.0, "2" and True are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_lag(lag):
    """Raise ValueError unless lag is an integer (see _is_integer) >= 1."""
    if not _is_integer(lag) or lag < 1:
        raise ValueError(f"lag must be a positive integer, got {lag!r}")


def _csv_text(rows):
    """rows as CSV text, fields quoted where they need it, each line ended
    by a bare newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _node_names(names, count, what):
    """names as a tuple of str, one per entry of what; ValueError unless
    there are count of them, each nonempty and all distinct, naming the
    repeated ones in sorted order."""
    names = tuple(str(n) for n in names)
    if len(names) != count:
        raise ValueError(f"node_names length must match {what}: got {len(names)}, need {count}")
    if any(not n for n in names):
        raise ValueError("node names must be nonempty")
    if len(set(names)) != len(names):
        repeated = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"node names must be unique; repeated: {', '.join(repeated)}")
    return names


@dataclass(frozen=True, eq=False)
class TimeSeriesPanel:
    """A multivariate series: ``values`` is T x N, column j belongs to ``node_names[j]``.

    The array is stored as a read-only float64 copy, so a panel can be
    shared freely without defensive copies downstream.
    """

    values: np.ndarray
    node_names: tuple

    def __post_init__(self):
        _freeze(self, "values", order="C")
        values = self.values
        if values.ndim != 2:
            raise ValueError(f"panel values must be 2-d, got ndim={values.ndim}")
        T, N = values.shape
        if T < 2:
            raise ValueError(f"panel needs at least 2 rows, got {T}")
        if N < 2:
            raise ValueError(f"panel needs at least 2 nodes, got {N}")
        if not np.all(np.isfinite(values)):
            raise ValueError("panel values must be finite")
        object.__setattr__(self, "node_names", _node_names(self.node_names, N, "the columns"))

    @property
    def n_samples(self):
        return self.values.shape[0]

    @property
    def n_nodes(self):
        return self.values.shape[1]


def ingest_csv(source) -> TimeSeriesPanel:
    """Parse a header + float-rows CSV into a panel.

    ``source`` may be CSV text, a path (str paths are treated as text, so
    pass ``pathlib.Path`` for files), or an open file object. Malformed
    text raises ValueError: an empty file, a row without exactly as many
    cells as the header, or a cell that is not a finite float written in
    ASCII without digit grouping, naming the offending row/column. The
    header is checked as node names before any row is read, and the
    panel's own refusals (fewer than two columns or two data rows) are
    ``TimeSeriesPanel``'s.
    """
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, os.PathLike):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source
    if text.startswith("﻿"):
        text = text[1:]
    lines = [line for line in text.splitlines() if line.strip() != ""]
    if not lines:
        raise ValueError("need a header line, got an empty file")
    header = [cell.strip() for cell in lines[0].split(",")]
    n_cols = len(header)
    header = _node_names(header, n_cols, "the header")
    # math.isfinite on Python floats and one store per row; a list of all
    # rows would instead hold every cell as a Python object until the end
    rows = np.empty((len(lines) - 1, n_cols))
    for r, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != n_cols:
            raise ValueError(f"row {r} has {len(cells)} cells, expected {n_cols}")
        # float also reads digit grouping and non-ASCII digits ("1_000",
        # "\u0663"); only the cells of a line that holds either are searched
        unplain = "_" in line or not line.isascii()
        row = []
        for c, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value) or unplain and ("_" in cell or not cell.isascii()):
                # ASCII blanks only, so the repr shows a non-ASCII space
                shown = cell.strip(" \t")
                raise ValueError(
                    f"row {r}, column {header[c]!r}: "
                    f"cannot parse {shown!r} as a finite number"
                )
            row.append(value)
        rows[r - 2] = row
    return TimeSeriesPanel(values=rows, node_names=header)


def panel_to_csv(panel: TimeSeriesPanel) -> str:
    """Serialize a panel so ``ingest_csv`` reproduces it bit-exactly.

    Raises ValueError, naming the node, for a name the header cannot
    carry back: one that holds a comma or a line break, or has leading
    or trailing whitespace, and a first name that starts with U+FEFF,
    which ``ingest_csv`` strips as a byte-order mark.
    """
    for j, name in enumerate(panel.node_names):
        if (
            "," in name
            or name.splitlines() != [name]
            or name != name.strip()
            or (j == 0 and name.startswith("\ufeff"))
        ):
            raise ValueError(
                f"node name {name!r} cannot be written to CSV: it holds a comma or "
                "a line break, has leading or trailing whitespace, or is the first "
                "name and starts with a byte-order mark"
            )
    lines = [",".join(panel.node_names)]
    lines += [",".join(map(repr, row)) for row in panel.values.tolist()]
    return "\n".join(lines) + "\n"


def _column_moments(values):
    """(mean, variance) of each column of the 2-d values, the mean with
    shape (1, N) and the population variance with shape (N,).

    The reductions and in-place divisions of numpy's own mean and var, in
    their order, without the wrappers around them (numpy 2.x,
    numpy/_core/_methods.py): equal bit for bit to values.mean(axis=0)
    and values.var(axis=0), and after np.sqrt to values.std(axis=0),
    whatever the layout. The caller sets the error state.
    """
    n = values.shape[0]
    mean = np.add.reduce(values, axis=0, keepdims=True)
    mean /= n
    deviations = values - mean
    np.square(deviations, out=deviations)
    variance = np.add.reduce(deviations, axis=0)
    variance /= n
    return mean, variance


def normalize_columns(values, node_names=None) -> np.ndarray:
    """Center each column and scale to unit population variance.

    Raises DegenerateInputError on a column that holds NaN or inf, on a
    zero-variance column, and on one whose standard deviation overflows,
    naming the node when names are given.
    """
    values = _as_matrix(values, "values")
    # a NaN, inf or overflow is reported below as the column's error, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        means, variance = _column_moments(values)
        stds = np.sqrt(variance)  # population convention, ddof=0
    # a column holding NaN or inf has a NaN standard deviation, so every
    # bad column fails this test; only the first is searched for the cause
    usable = (stds > 0.0) & (stds < math.inf)
    if not usable.all():
        j = int(np.flatnonzero(~usable)[0])
        label = node_names[j] if node_names is not None else f"column {j}"
        problem = (
            "holds NaN or inf" if not np.isfinite(values[:, j]).all()
            else "has zero variance" if stds[j] == 0.0
            else "has a standard deviation that overflows float64"
        )
        raise DegenerateInputError(f"{label} {problem} and cannot be normalized")
    return (values - means) / stds
