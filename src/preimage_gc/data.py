"""Panel container, CSV ingestion, normalization, and lag embedding."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    CsvFormatError,
    CsvParseError,
    CsvSchemaError,
    DegenerateInputError,
    InsufficientSamplesError,
    ShapeError,
)


def _frozen_array(values, dtype=float, order="K"):
    """A read-only copy of values, never a view of the caller's array.

    order="K" keeps the input's memory layout. The layout picks the BLAS
    path of later products and with it their last bits, so each frozen
    field keeps the layout it was built with.
    """
    out = np.array(values, dtype=dtype, order=order)
    out.setflags(write=False)
    return out


def _freeze(obj, *names, dtype=float, order="K"):
    """Replace the named fields of a frozen dataclass by read-only copies."""
    for name in names:
        object.__setattr__(obj, name, _frozen_array(getattr(obj, name), dtype, order))


@dataclass(frozen=True)
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
        names = tuple(str(n) for n in self.node_names)
        if len(names) != N:
            raise ValueError(
                f"got {len(names)} node names for {N} columns"
            )
        if any(not n for n in names):
            raise ValueError("node names must be nonempty")
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        object.__setattr__(self, "node_names", names)

    @property
    def n_samples(self):
        return self.values.shape[0]

    @property
    def n_nodes(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class LaggedDesign:
    """Lag-embedded regression problem: ``targets[t] ~ design[t]``.

    ``design`` rows hold the lag-1 block first, then lag-2, ..., lag-L,
    each block in original column order.
    """

    design: np.ndarray
    targets: np.ndarray
    lag: int

    def __post_init__(self):
        _freeze(self, "design", "targets", order="C")


def ingest_csv(source) -> TimeSeriesPanel:
    """Parse a header + float-rows CSV into a panel.

    ``source`` may be CSV text, a path (str paths are treated as text, so
    pass ``pathlib.Path`` for files), or an open file object. Every row
    must have exactly as many cells as the header, and every cell must be
    a finite float; violations name the offending row/column.
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
    if len(lines) < 2:
        raise CsvFormatError("need a header line and at least one data row")
    header = [cell.strip() for cell in lines[0].split(",")]
    if any(not name for name in header):
        raise CsvSchemaError("header contains an empty column name")
    if len(set(header)) != len(header):
        dupes = sorted({n for n in header if header.count(n) > 1})
        raise CsvSchemaError(f"duplicate column names: {', '.join(dupes)}")
    n_cols = len(header)
    # math.isfinite on Python floats and one store per row; a list of all
    # rows would instead hold every cell as a Python object until the end
    rows = np.empty((len(lines) - 1, n_cols))
    for r, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != n_cols:
            raise CsvFormatError(
                f"row {r} has {len(cells)} cells, expected {n_cols}"
            )
        row = []
        for c, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise CsvParseError(
                    f"row {r}, column {header[c]!r}: "
                    f"cannot parse {cell.strip()!r} as a finite number"
                )
            row.append(value)
        rows[r - 2] = row
    return TimeSeriesPanel(values=rows, node_names=tuple(header))


def panel_to_csv(panel: TimeSeriesPanel) -> str:
    """Serialize a panel so ``ingest_csv`` reproduces it bit-exactly."""
    lines = [",".join(panel.node_names)]
    for row in panel.values:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def normalize_columns(values, node_names=None) -> np.ndarray:
    """Center each column and scale to unit population variance.

    Raises DegenerateInputError on a zero-variance column, and on one
    whose standard deviation overflows, naming the node when names are
    given.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got ndim={values.ndim}")
    means = values.mean(axis=0)
    # an overflow is reported below as the column's error, not as a warning
    with np.errstate(over="ignore"):
        stds = values.std(axis=0)  # population convention, ddof=0
    bad = np.flatnonzero((stds == 0.0) | ~np.isfinite(stds))
    if bad.size:
        j = int(bad[0])
        label = node_names[j] if node_names is not None else f"column {j}"
        problem = (
            "has zero variance" if stds[j] == 0.0
            else "has a standard deviation that overflows float64"
        )
        raise DegenerateInputError(f"{label} {problem} and cannot be normalized")
    return (values - means) / stds


def lag_embed(values, lag: int) -> LaggedDesign:
    """Stack ``lag`` past rows next to each target row.

    For row t of ``targets`` (original time L+t), ``design[t]`` is the
    concatenation ``[y_{L+t-1}, y_{L+t-2}, ..., y_{L+t-lag}]``.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got ndim={values.ndim}")
    if isinstance(lag, bool) or not isinstance(lag, (int, np.integer)) or lag < 1:
        raise ValueError(f"lag must be a positive integer, got {lag!r}")
    T = values.shape[0]
    if T <= lag:
        raise InsufficientSamplesError(
            f"need more than lag={lag} rows to embed, got {T}"
        )
    blocks = [values[lag - ell : T - ell] for ell in range(1, lag + 1)]
    return LaggedDesign(
        design=np.hstack(blocks), targets=values[lag:], lag=lag
    )
