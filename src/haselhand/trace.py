"""Uniformly sampled monitor traces and their on-disk format.

A trace holds the 1 kHz monitor channels (commanded and measured
voltage, measured current of the monitored stack) plus the internal
plant state sampled on the same grid: per-joint angles and contact
forces, per-stack contraction and capacitance.

On disk a trace is a CSV whose header names every column with its unit
in parentheses, next to a .meta.json companion carrying seed, config
hash, scenario name and run diagnostics. Floats are written with repr
so a re-run with the same seed is byte-identical. The encoder works on
arrays, a block of rows at a time, and calls repr once per distinct
64-bit pattern in the block; the bytes are those of one repr per cell.
That pays because coupled joint angles, zero contact forces and rest
and hold runs repeat most values.

The decoder parses every cell in one np.loadtxt pass, bit for bit the
float() of each cell; a row-by-row float() scan runs only when that pass
fails, and names the damaged row.

Every file the package writes goes through write_atomic, and every JSON
document it reads goes through read_json.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ConfigError, TraceSchemaError

# SignalTrace attribute -> header name of the four fixed columns, and
# SignalTrace attribute -> (header prefix, unit) of the keyed column
# groups, in file order. Both encode and decode read these tables.
FIXED_COLUMNS = {"t": "t(s)", "v_cmd": "v_cmd(kV)",
                 "v_meas": "v_meas(kV)", "i_meas": "i_meas(uA)"}
KEYED_COLUMNS = {"theta": ("theta", "rad"), "f_contact": ("fc", "N"),
                 "x": ("x", "mm"), "c": ("c", "nF")}
# Rows csv_text encodes and joins at a time. A block's distinct strings
# are all alive at once, so longer blocks raise peak memory; shorter ones
# pay numpy's per-call overhead more often.
CSV_BLOCK_ROWS = 64


def write_atomic(path: Path, text: str) -> None:
    """Write text to path through a temporary file and a rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_text(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def read_json(path: str | Path) -> Any:
    """Parse a JSON file; a document the parser rejects is a ConfigError
    naming the file.

    The non-standard constants NaN, Infinity and -Infinity are rejected:
    no document the package reads can give them a meaning. So is an
    integer too long to convert (Python's int string-conversion limit).
    """
    def reject(name: str):
        raise ValueError(f"{name} is not a finite JSON number")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=reject)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def csv_text(columns: list[tuple[str, Any]]) -> str:
    """CSV document of (header name, values) columns of equal length.

    Each value is written as repr of the float, so equal inputs give
    equal bytes. The rows are encoded in blocks of CSV_BLOCK_ROWS: the
    block's values are deduplicated by their 64-bit pattern (so -0.0
    and 0.0 stay apart), repr runs once per distinct value, and the
    block is joined into one string. A column whose length differs from
    the first column's is a ValueError naming it.
    """
    arrays = [np.asarray(values, dtype=np.float64) for _, values in columns]
    n_rows = len(arrays[0])
    for (name, _), a in zip(columns, arrays):
        if len(a) != n_rows:
            raise ValueError(f"column {name!r} has {len(a)} values, "
                             f"column {columns[0][0]!r} has {n_rows}")
    parts = [",".join(name for name, _ in columns), "\n"]
    for start in range(0, n_rows, CSV_BLOCK_ROWS):
        block = np.stack([a[start:start + CSV_BLOCK_ROWS] for a in arrays], axis=1)
        distinct, inverse = np.unique(block.view(np.int64), return_inverse=True)
        text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
        parts.append("\n".join(map(",".join, text[inverse.reshape(block.shape)].tolist())))
        parts.append("\n")
    return "".join(parts)


def column_name(group: str, key: str) -> str:
    """Header name of a keyed trace column, e.g. ("theta", "index_mcp")."""
    prefix, unit = KEYED_COLUMNS[group]
    return f"{prefix}_{key}({unit})"


@dataclass
class SignalTrace:
    t: np.ndarray
    v_cmd: np.ndarray
    v_meas: np.ndarray
    i_meas: np.ndarray
    theta: dict[str, np.ndarray]      # "finger_joint" -> rad
    f_contact: dict[str, np.ndarray]  # "finger_joint" -> N
    x: dict[str, np.ndarray]          # stack id -> mm
    c: dict[str, np.ndarray]          # stack id -> nF
    meta: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.t)

    def columns(self) -> list[tuple[str, np.ndarray]]:
        cols = [(name, getattr(self, attr)) for attr, name in FIXED_COLUMNS.items()]
        for group in KEYED_COLUMNS:
            arrays = getattr(self, group)
            cols += [(column_name(group, key), arrays[key]) for key in sorted(arrays)]
        return cols

    def to_csv_text(self) -> str:
        return csv_text(self.columns())

    def save(self, csv_path: str | Path) -> Path:
        csv_path = Path(csv_path)
        write_atomic(csv_path, self.to_csv_text())
        write_atomic(csv_path.with_suffix(".meta.json"), json_text(self.meta))
        return csv_path


def _parse_header(header: str) -> list[str]:
    names = [h.strip() for h in header.split(",")]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise TraceSchemaError(f"trace has column {name!r} twice", column=name)
    for required in FIXED_COLUMNS.values():
        if required not in names:
            raise TraceSchemaError(f"trace is missing column {required!r}", column=required)
    return names


def _scan_rows(rows: list[str], n_columns: int) -> np.ndarray:
    """The rows' cells, one float() per cell; a row without n_columns
    numbers is a TraceSchemaError naming it (counted from 1)."""
    data = np.zeros((len(rows), n_columns))
    for r, line in enumerate(rows):
        parts = line.split(",")
        if len(parts) != n_columns:
            raise TraceSchemaError(
                f"row {r + 1} has {len(parts)} values for {n_columns} columns"
            )
        try:
            data[r] = [float(p) for p in parts]
        except ValueError as exc:
            raise TraceSchemaError(f"row {r + 1} has a non-numeric value: {exc}") from None
    return data


def load_trace(csv_path: str | Path) -> SignalTrace:
    """Read a trace CSV (and its .meta.json companion if present).

    Blank lines are skipped. The data rows are parsed in one np.loadtxt
    pass (comments=None, so a '#' cell is an error, not a comment), which
    reads the bits of one float() per cell. If it raises, or gives a shape
    other than (rows, columns), _scan_rows parses the rows again, one
    float() per cell: it accepts what float() accepts (an underscore
    between digits) and raises the TraceSchemaError naming the first
    damaged row. Every cell must be finite.
    """
    csv_path = Path(csv_path)
    text = csv_path.read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TraceSchemaError("trace file is empty")
    names = _parse_header(lines[0])
    rows, data = lines[1:], None
    if rows:  # loadtxt warns on a header-only file
        try:
            data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
        except ValueError:
            pass
    # A trace whose every row is one value short loads as (rows, n - 1).
    if data is None or data.shape != (len(rows), len(names)):
        data = _scan_rows(rows, len(names))
    # The package writes finite values only: any other cell marks a damaged file.
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        r, j = bad[0]
        raise TraceSchemaError(f"row {r + 1} has a non-finite value in column "
                               f"{names[j]!r}: {float(data[r, j])}", column=names[j])

    by_name = {name: data[:, j] for j, name in enumerate(names)}
    groups: dict[str, dict[str, np.ndarray]] = {group: {} for group in KEYED_COLUMNS}
    for name, col in by_name.items():
        if name in FIXED_COLUMNS.values():
            continue
        for group, (prefix, unit) in KEYED_COLUMNS.items():
            if name.startswith(f"{prefix}_") and name.endswith(f"({unit})"):
                groups[group][name[len(prefix) + 1:-len(unit) - 2]] = col
                break
        else:
            raise TraceSchemaError(f"unrecognized column {name!r}", column=name)

    meta: dict[str, Any] = {}
    meta_path = csv_path.with_suffix(".meta.json")
    if meta_path.exists():
        meta = read_json(meta_path)

    fixed = {attr: by_name[name] for attr, name in FIXED_COLUMNS.items()}
    return SignalTrace(**fixed, **groups, meta=meta)
