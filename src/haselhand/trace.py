"""Uniformly sampled monitor traces and their on-disk format.

A trace holds the 1 kHz monitor channels (commanded and measured
voltage, measured current of the monitored stack) plus the internal
plant state sampled on the same grid: per-joint angles and contact
forces, per-stack contraction and capacitance.

On disk a trace is a CSV whose header names every column with its unit
in parentheses, next to a .meta.json companion carrying seed, config
hash, scenario name and run diagnostics. Floats are written with repr
so a re-run with the same seed is byte-identical. The encoder encodes
each distinct column once, a block of rows at a time, with one repr per
run of equal 64-bit patterns; the bytes are those of one repr per cell.
Coupled joints, chains that share a kernel and equal contact forces give
equal columns, and rest and hold phases give long runs. The traces of one
record (plant.run_scenario) differ in v_meas and i_meas alone: from
their second encode on, they take the text of every other column from a
frame they share, built once (SignalTrace.to_csv_text).

The decoder parses every cell in one np.loadtxt pass, bit for bit the
float() of each cell; a row-by-row float() scan runs only when that pass
fails, and names the damaged row.

Every file the package writes goes through write_atomic, and every JSON
document it reads goes through read_json.
"""

from __future__ import annotations

import json
import os
import uuid
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
# Rows csv_text encodes at a time (timed best on shipped traces). A block's
# strings are all alive at once, so longer blocks raise peak memory; each
# block restarts every run and pays numpy's per-call overhead again.
CSV_BLOCK_ROWS = 256


def write_atomic(path: Path, text: str) -> None:
    """Write text to path through a temporary file and a rename.

    The temporary file is created as open() creates a file, with mode
    0666 less the process umask, and O_EXCL keeps it our own.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{uuid.uuid4().hex}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
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


def csv_rows(columns: list[tuple[str, Any]]) -> list[str]:
    """Each row's text, without its newline, of (header name, values)
    columns of equal length.

    Each value is written as repr of the float, so equal inputs give
    equal bytes. Columns with equal bytes are encoded once, in blocks of
    CSV_BLOCK_ROWS rows: a block calls repr where a column's 64-bit pattern
    differs from the row before (so -0.0 and 0.0 stay apart) or the block
    starts, repeats each string over its run and gathers the rows by column.
    A column whose length differs from the first's is a ValueError naming it.
    """
    arrays = [np.asarray(values, dtype=np.float64) for _, values in columns]
    n_rows = len(arrays[0])
    for (name, _), a in zip(columns, arrays):
        if len(a) != n_rows:
            raise ValueError(f"column {name!r} has {len(a)} values, "
                             f"column {columns[0][0]!r} has {n_rows}")
    first: dict[bytes, int] = {}
    index = [first.setdefault(a.tobytes(), len(first)) for a in arrays]
    values = np.array([arrays[index.index(k)] for k in range(len(first))])
    bits = values.view(np.int64)
    starts = np.ones(values.shape, dtype=bool)
    np.not_equal(bits[:, 1:], bits[:, :-1], out=starts[:, 1:])
    starts[:, ::CSV_BLOCK_ROWS] = True
    rows: list[str] = []
    for start in range(0, n_rows, CSV_BLOCK_ROWS):
        block = values[:, start:start + CSV_BLOCK_ROWS]
        at = np.flatnonzero(starts[:, start:start + CSV_BLOCK_ROWS])
        text = np.array(list(map(repr, block.ravel()[at].tolist())), dtype=object)
        cells = np.repeat(text, np.diff(at, append=block.size)).reshape(block.shape)
        rows += map(",".join, cells[index].T.tolist())
    return rows


def csv_text(columns: list[tuple[str, Any]]) -> str:
    """CSV document of (header name, values) columns of equal length: the
    header, then csv_rows, each line ending in a newline."""
    return "\n".join([",".join(name for name, _ in columns), *csv_rows(columns)]) + "\n"


def column_name(group: str, key: str) -> str:
    """Header name of a keyed trace column, e.g. ("theta", "index_mcp")."""
    prefix, unit = KEYED_COLUMNS[group]
    return f"{prefix}_{key}({unit})"


def keyed_columns(groups: dict[str, dict[str, Any]]) -> list[tuple[str, Any]]:
    """(header name, values) of keyed column groups in file order: the
    groups as in KEYED_COLUMNS, each sorted by key."""
    return [(column_name(group, key), groups[group][key])
            for group in KEYED_COLUMNS for key in sorted(groups[group])]


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
    # The encoded seed-free columns of a record (see to_csv_text), shared
    # with every trace that dataclasses.replace makes of this one.
    frame: dict[str, Any] = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.t)

    def columns(self) -> list[tuple[str, np.ndarray]]:
        cols = [(name, getattr(self, attr)) for attr, name in FIXED_COLUMNS.items()]
        return cols + keyed_columns({group: getattr(self, group) for group in KEYED_COLUMNS})

    def to_csv_text(self) -> str:
        """csv_text of columns(), its seed-free columns taken from the frame
        where it serves.

        The traces of one record share every column but v_meas and i_meas.
        The first of them to encode keeps its seed-free columns (t, v_cmd
        and the keyed groups) in the frame and encodes in full, as csv_text
        does. The second also keeps each row's text of them, split either
        side of v_meas and i_meas, so it and every later trace encodes those
        two columns alone. The frame serves a trace only when its seed-free
        columns are the frame's, name for name and array for array, each
        read-only; any other trace encodes in full and leaves it alone.
        """
        columns = self.columns()
        free, measured = columns[:2] + columns[4:], columns[2:4]
        read_only = all(isinstance(a, np.ndarray) and not a.flags.writeable for _, a in free)
        # setdefault returns free itself only to the first trace to encode.
        if not read_only or self.frame.setdefault("columns", free) is free:
            return csv_text(columns)
        n_rows = len(self.t)
        if ([(name, id(a)) for name, a in self.frame["columns"]] != [(name, id(a)) for name, a in free]
                or any(len(a) != n_rows for _, a in measured)):
            return csv_text(columns)
        if "rows" not in self.frame:
            tails = [f",{row}\n" for row in csv_rows(columns[4:])] if len(columns) > 4 else ["\n"] * n_rows
            self.frame["rows"] = [f"{row}," for row in csv_rows(columns[:2])], tails
        heads, tails = self.frame["rows"]
        parts = [",".join(name for name, _ in columns) + "\n", *[""] * (3 * n_rows)]
        parts[1::3], parts[2::3], parts[3::3] = heads, csv_rows(measured), tails
        return "".join(parts)

    def file_texts(self, csv_path: str | Path) -> dict[str, str]:
        """path -> text of the CSV at csv_path, then of its .meta.json companion."""
        return {str(csv_path): self.to_csv_text(),
                str(Path(csv_path).with_suffix(".meta.json")): json_text(self.meta)}

    def save(self, csv_path: str | Path) -> Path:
        for path, text in self.file_texts(csv_path).items():
            write_atomic(Path(path), text)
        return Path(csv_path)


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
