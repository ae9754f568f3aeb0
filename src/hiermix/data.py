"""Rectangular data ingestion and the nested cluster hierarchy."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DataError", "DataFrame", "Hierarchy", "OutcomeRows", "load_csv", "as_frame", "build_hierarchy", "split_outcome_rows"]


class DataError(ValueError):
    pass


class DataFrame:
    """Named numeric columns of equal length. Missing values are NaN.

    Columns that failed numeric parsing are carried along and only
    raise when actually referenced.
    """

    def __init__(self, columns: dict[str, np.ndarray], bad_cells: dict[str, tuple[int, str]] | None = None):
        self.columns = {name: np.asarray(col, dtype=float) for name, col in columns.items()}
        lengths = {len(c) for c in self.columns.values()}
        if len(lengths) > 1:
            raise DataError(f"columns have unequal lengths: {sorted(lengths)}")
        self.n = lengths.pop() if lengths else 0
        self._bad = dict(bad_cells or {})

    @property
    def names(self) -> list[str]:
        return list(self.columns)

    def has(self, name: str) -> bool:
        return name in self.columns

    def col(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise DataError(f"column {name!r} not found (available: {', '.join(self.names)})")
        if name in self._bad:
            row, text = self._bad[name]
            raise DataError(f"column {name!r} has non-numeric value {text!r} at data row {row}")
        return self.columns[name]


def load_csv(path, columns: list[str] | None = None) -> DataFrame:
    """Read a comma-delimited file with a header row.

    A cell is read by ``float()`` once stripped; empty cells and "."
    become missing. Non-numeric cells are an error, naming a column's
    first, when the column is in ``columns`` (or later, when first
    referenced). A non-empty header name that appears twice is an error.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        for j, name in enumerate(header):
            if name and name in header[:j]:
                raise DataError(f"{path}: column {name!r} appears twice in the header")
        rows = []
        for i, cells in enumerate(reader):
            if not cells or (len(cells) == 1 and not cells[0].strip()):
                continue
            if len(cells) != len(header):
                raise DataError(f"{path}: row {i + 1} has {len(cells)} fields, header has {len(header)}")
            rows.append(cells)
    cols: dict[str, np.ndarray] = {}
    bad: dict[str, tuple[int, str]] = {}
    for name, cells in zip(header, zip(*rows) if rows else [()] * len(header)):
        vals = []
        for i, cell in enumerate(cells):
            cell = cell.strip()
            try:
                vals.append(float(cell) if cell and cell != "." else math.nan)
            except ValueError:
                bad.setdefault(name, (i + 1, cell))
                vals.append(math.nan)
        cols[name] = np.array(vals, dtype=float)
    frame = DataFrame(cols, bad)
    if columns:
        for name in columns:
            frame.col(name)  # raises on missing or unparseable
    return frame


def as_frame(data) -> DataFrame:
    """Coerce a DataFrame, mapping of columns, pandas frame, or CSV path."""
    if isinstance(data, DataFrame):
        return data
    if isinstance(data, (str,)) or hasattr(data, "__fspath__"):
        return load_csv(data)
    if hasattr(data, "columns") and hasattr(data, "__getitem__"):  # pandas-like
        return DataFrame({str(c): np.asarray(data[c], dtype=float) for c in data.columns})
    if isinstance(data, dict):
        return DataFrame({str(k): np.asarray(v, dtype=float) for k, v in data.items()})
    raise DataError(f"cannot interpret {type(data).__name__} as a data frame")


@dataclass
class Hierarchy:
    """Nested cluster structure, levels listed outermost to innermost.

    For level l, ``unit_ids[l]`` holds the distinct ids in sorted order,
    ``row_unit[l]`` maps each data row to its unit ordinal, and
    ``parent[l]`` maps each unit ordinal to its parent ordinal one level
    out (empty at the outermost level).
    """

    levels: tuple[str, ...]
    unit_ids: list[np.ndarray]
    row_unit: list[np.ndarray]
    parent: list[np.ndarray]

    def n_units(self, level: int) -> int:
        return len(self.unit_ids[level])


def build_hierarchy(frame: DataFrame, level_columns: list[str]) -> Hierarchy:
    """Group rows by nested cluster ids, outermost level first.

    Ids are matched by exact value; they need not be consecutive. A
    lower-level id under two distinct parents violates strict nesting.
    """
    if not level_columns:
        return Hierarchy((), [], [], [])
    id_cols = []
    for name in level_columns:
        col = frame.col(name)
        if np.any(~np.isfinite(col)):
            bad = int(np.flatnonzero(~np.isfinite(col))[0])
            raise DataError(f"level column {name!r} is missing at data row {bad + 1}")
        id_cols.append(col)
    unit_ids: list[np.ndarray] = []
    row_unit: list[np.ndarray] = []
    parent: list[np.ndarray] = []
    for l, (name, col) in enumerate(zip(level_columns, id_cols)):
        ids, inverse = np.unique(col, return_inverse=True)
        unit_ids.append(ids)
        row_unit.append(inverse)
        if l == 0:
            parent.append(np.empty(0, dtype=int))
            continue
        outer = row_unit[l - 1]
        par = outer[np.unique(inverse, return_index=True)[1]]  # each unit's parent at its first row
        clash = np.flatnonzero(outer != par[inverse])
        if clash.size:
            u, p = inverse[clash[0]], outer[clash[0]]
            raise DataError(
                f"unit {ids[u]:g} of level {name!r} appears under two parents "
                f"({unit_ids[l - 1][par[u]]:g} and {unit_ids[l - 1][p]:g} of {level_columns[l - 1]!r}): "
                "nesting must be strict"
            )
        parent.append(par)
    return Hierarchy(tuple(level_columns), unit_ids, row_unit, parent)


@dataclass
class OutcomeRows:
    """Row subset and response data for one outcome."""

    rows: np.ndarray  # indices into the frame, ascending
    response: np.ndarray | None = None
    event: np.ndarray | None = None
    entry: np.ndarray | None = None
    bhaz: np.ndarray | None = None
    times: np.ndarray | None = None


def split_outcome_rows(frame: DataFrame, spec) -> list[OutcomeRows]:
    """Per-outcome row subsets: survival outcomes keep rows with a
    non-missing event indicator, longitudinal outcomes keep rows with a
    non-missing response, null-family outcomes take no rows.
    """
    out = []
    for k, outcome in enumerate(spec.outcomes):
        fam = outcome.family
        label = outcome.response or f"outcome {k + 1}"
        if fam.is_null:
            out.append(OutcomeRows(rows=np.empty(0, dtype=int)))
            continue
        if fam.is_survival:
            d = frame.col(fam.failure)
            rows = np.flatnonzero(np.isfinite(d))
            if rows.size == 0:
                raise DataError(f"outcome {k + 1} ({label}): no rows with non-missing {fam.failure!r}")
            dsub = d[rows]
            if np.any((dsub != 0.0) & (dsub != 1.0)):
                bad = rows[np.flatnonzero((dsub != 0.0) & (dsub != 1.0))[0]]
                raise DataError(f"outcome {k + 1} ({label}): event indicator {fam.failure!r} must be 0/1, row {bad + 1}")
            y = frame.col(outcome.response)[rows]
            if np.any(~np.isfinite(y)):
                bad = rows[np.flatnonzero(~np.isfinite(y))[0]]
                raise DataError(f"outcome {k + 1} ({label}): missing survival time at data row {bad + 1}")
            if np.any(y <= 0):
                bad = rows[np.flatnonzero(y <= 0)[0]]
                raise DataError(f"outcome {k + 1} ({label}): survival times must be positive, row {bad + 1}")
            if fam.ltrunc and frame.has(fam.ltrunc):
                t0 = frame.col(fam.ltrunc)[rows]
                t0 = np.where(np.isfinite(t0), t0, 0.0)
            else:
                t0 = np.zeros(rows.size)
            if np.any(t0 >= y):
                bad = rows[np.flatnonzero(t0 >= y)[0]]
                raise DataError(f"outcome {k + 1} ({label}): entry time >= event time at data row {bad + 1}")
            bh = None
            if fam.bhazard:
                bh = frame.col(fam.bhazard)[rows]
                if np.any(~np.isfinite(bh) | (bh < 0)):
                    bad = rows[np.flatnonzero(~np.isfinite(bh) | (bh < 0))[0]]
                    raise DataError(f"outcome {k + 1} ({label}): expected hazard {fam.bhazard!r} invalid at row {bad + 1}")
            out.append(OutcomeRows(rows=rows, response=y, event=dsub, entry=t0, bhaz=bh))
            continue
        y = frame.col(outcome.response)
        rows = np.flatnonzero(np.isfinite(y))
        if rows.size == 0:
            raise DataError(f"outcome {k + 1} ({label}): all responses missing")
        times = None
        if outcome.timevar:
            times = frame.col(outcome.timevar)[rows]
            if np.any(~np.isfinite(times)):
                bad = rows[np.flatnonzero(~np.isfinite(times))[0]]
                raise DataError(f"outcome {k + 1} ({label}): missing {outcome.timevar!r} at data row {bad + 1}")
        out.append(OutcomeRows(rows=rows, response=y[rows], times=times))
    return out
