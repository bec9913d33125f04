"""Deterministic IO: binary field snapshots and diagnostics CSV.

Snapshot layout (all little-endian): magic b"QNSF", format version u16,
grid_n u32, field_count u32, then per field a u16 name length, the
UTF-8 name, and grid_n^2 float64 values row-major (x fastest).
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

SNAPSHOT_MAGIC = b"QNSF"
SNAPSHOT_VERSION = 1

CSV_HEADER = (
    "t,rel_entropy,kinetic,quantum,internal,"
    "thm_vel,thm_dens,thm_grad,E_total,E_diss_cum"
)


class SnapshotError(ValueError):
    pass


class BadMagic(SnapshotError):
    pass


class VersionMismatch(SnapshotError):
    pass


class Truncated(SnapshotError):
    pass


def write_snapshot(fields: dict[str, np.ndarray], path) -> None:
    """Write named grid_n x grid_n float64 fields, bit-exactly."""
    if not fields:
        raise SnapshotError("snapshot needs at least one field")
    shapes = {arr.shape for arr in fields.values()}
    if len(shapes) != 1:
        raise SnapshotError(f"snapshot fields must share one shape, got {shapes}")
    (rows, cols), = shapes
    if rows != cols:
        raise SnapshotError(f"snapshot fields must be square, got {rows}x{cols}")
    blob = bytearray()
    blob += SNAPSHOT_MAGIC
    blob += struct.pack("<HII", SNAPSHOT_VERSION, rows, len(fields))
    for name, arr in fields.items():
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def read_snapshot(path) -> tuple[int, dict[str, np.ndarray]]:
    """Read a snapshot back; returns (grid_n, ordered field dict).

    Raises BadMagic, VersionMismatch or Truncated with distinct messages
    for the three malformation classes, and a SnapshotError naming the
    byte offset of a field name that is not UTF-8, a field that holds a
    NaN or an infinity or repeats a name, or bytes after the last field.
    """
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != SNAPSHOT_MAGIC:
        raise BadMagic(
            f"BAD_MAGIC: expected {SNAPSHOT_MAGIC!r}, found {data[:4]!r}"
        )
    if len(data) < 14:
        raise Truncated(f"TRUNCATED: header needs 14 bytes, file has {len(data)}")
    version, grid_n, field_count = struct.unpack_from("<HII", data, 4)
    if version != SNAPSHOT_VERSION:
        raise VersionMismatch(
            f"VERSION_MISMATCH: file version {version}, supported {SNAPSHOT_VERSION}"
        )
    offset = 14
    payload = grid_n * grid_n * 8
    fields: dict[str, np.ndarray] = {}
    for _ in range(field_count):
        if offset + 2 > len(data):
            raise Truncated(f"TRUNCATED: field name length missing at byte {offset}")
        (name_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        if offset + name_len + payload > len(data):
            raise Truncated(
                f"TRUNCATED: field payload incomplete at byte {offset} "
                f"(need {name_len + payload} more bytes, have {len(data) - offset})"
            )
        try:
            name = data[offset : offset + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotError(
                f"BAD_NAME: field name at byte {offset} is not UTF-8 ({exc.reason})"
            ) from None
        if name in fields:
            raise SnapshotError(f"DUPLICATE_NAME: field {name!r} at byte {offset} was read before")
        offset += name_len
        arr = np.frombuffer(data, dtype="<f8", count=grid_n * grid_n, offset=offset)
        if not np.isfinite(arr).all():
            raise SnapshotError(f"NON_FINITE: field {name!r} holds non-finite values")
        fields[name] = arr.reshape(grid_n, grid_n).copy()
        offset += payload
    if offset != len(data):
        raise SnapshotError(f"TRAILING: {len(data) - offset} bytes after the last field")
    return int(grid_n), fields


def format_sig17(x: float) -> str:
    return f"{x:.17g}"


def write_csv(rows, path, aborted: str | None = None) -> None:
    """Write diagnostics rows (10 floats each, ordered by t) with 17
    significant digits and LF endings.  An abort appends a sentinel row
    whose first cell is ABORTED."""
    rows = sorted(rows, key=lambda r: r[0])
    lines = [CSV_HEADER]
    for row in rows:
        if len(row) != 10:
            raise ValueError(f"diagnostics row needs 10 values, got {len(row)}")
        lines.append(",".join(format_sig17(float(v)) for v in row))
    if aborted is not None:
        sentinel = "ABORTED," + str(aborted).replace(",", ";").replace("\n", " ")
        sentinel += "," * (10 - 2)
        lines.append(sentinel)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_csv_columns(path) -> tuple[list[str], dict[str, list[float]]]:
    """Read a numeric CSV back into columns, skipping blank lines and
    sentinel rows; ValueError for an empty file, a column name the header
    repeats, a row whose cell count is not the header's, or a non-numeric cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty file, no header row")
        cols: dict[str, list[float]] = {name: [] for name in header}
        repeated = [name for i, name in enumerate(header) if name in header[:i]]
        if repeated:
            raise ValueError(f"the header names column {repeated[0]!r} more than once")
        for row in reader:
            if not row or row[0] == "ABORTED":
                continue
            if len(row) != len(header):
                raise ValueError(f"line {reader.line_num} has {len(row)} cells, "
                                 f"the header {len(header)}")
            for name, cell in zip(header, row):
                cols[name].append(float(cell))
    return header, cols
