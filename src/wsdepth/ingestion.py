"""Delimited-file ingestion: one uniform-weight cloud per group id."""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyGroup, InvalidParameter, NonFiniteValue, ParseError
from .ot_core import Cloud

__all__ = ["IngestManifest", "ingest"]


@dataclass(frozen=True)
class IngestManifest:
    """How to read a delimited file into clouds.

    ``group_col`` and ``coord_cols`` are column names when the file has a
    header, otherwise zero-based indices below the first row's width.
    ``coord_cols=None`` takes every column except the group column.
    """

    path: str
    group_col: str = "id"
    coord_cols: Optional[tuple] = None
    delimiter: str = ","
    has_header: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise InvalidParameter(
                f"delimiter must be one character, got {self.delimiter!r}"
            )


def _resolve_columns(manifest: IngestManifest, first_row: list) -> tuple[int, list]:
    if manifest.has_header:
        names = [h.strip() for h in first_row]
        try:
            group_idx = names.index(manifest.group_col)
        except ValueError:
            raise ParseError(
                f"group column {manifest.group_col!r} not in header {names}"
            ) from None
        if manifest.coord_cols is None:
            coord_idx = [i for i in range(len(names)) if i != group_idx]
        else:
            coord_idx = []
            for c in manifest.coord_cols:
                try:
                    coord_idx.append(names.index(str(c)))
                except ValueError:
                    raise ParseError(f"coordinate column {c!r} not in header") from None
    else:
        width = len(first_row)

        def index(value, what: str) -> int:
            try:
                i = int(value)
            except ValueError:
                raise ParseError(
                    f"without a header the {what} must be an index, got {value!r}"
                ) from None
            if not 0 <= i < width:
                raise ParseError(
                    f"{what} index {i} outside the first row's columns 0..{width - 1}"
                )
            return i

        group_idx = index(manifest.group_col, "group column")
        if manifest.coord_cols is None:
            coord_idx = [i for i in range(width) if i != group_idx]
        else:
            coord_idx = [index(c, "coordinate column") for c in manifest.coord_cols]
    if not coord_idx:
        raise ParseError("no coordinate columns")
    if group_idx in coord_idx:
        raise ParseError(
            f"group column {manifest.group_col!r} is also a coordinate column"
        )
    return group_idx, coord_idx


def ingest(manifest: IngestManifest) -> list[tuple[str, Cloud]]:
    """Read one cloud per distinct group id, ordered by first appearance.

    Groups may have unequal sizes; every cloud carries uniform weights.
    Errors in a record name the file line on which that record starts.

    Raises:
        ParseError: a file that cannot be opened or read, malformed rows,
            unknown columns (row and column reported), column indices
            outside the first row (files without a header), undecodable
            bytes or fields that csv rejects.
        NonFiniteValue: NaN or infinite coordinate.
        EmptyGroup: the file has no data rows.
    """
    rows = []  # (line on which the record starts, record), blank ones dropped
    line = 1
    try:
        with open(manifest.path, newline="") as handle:
            reader = csv.reader(handle, delimiter=manifest.delimiter)
            for row in reader:
                if row and any(cell.strip() for cell in row):
                    rows.append((line, row))
                line = reader.line_num + 1  # a quoted field may span lines
    except OSError as exc:  # missing file, a directory, no permission
        raise ParseError(
            f"{manifest.path}: cannot read: {exc.strerror or exc}"
        ) from None
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise ParseError(f"{manifest.path}:{line}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{manifest.path}: not readable as text: {exc}") from None
    if not rows:
        raise EmptyGroup(f"{manifest.path}: file is empty")
    group_idx, coord_idx = _resolve_columns(manifest, rows[0][1])
    data_rows = rows[1:] if manifest.has_header else rows
    if not data_rows:
        raise EmptyGroup(f"{manifest.path}: no data rows")

    groups: dict[str, list] = {}
    for lineno, row in data_rows:
        needed = max([group_idx] + coord_idx)
        if len(row) <= needed:
            raise ParseError(
                f"{manifest.path}:{lineno}: row has {len(row)} fields, needs"
                f" {needed + 1}"
            )
        coords = []
        for c in coord_idx:
            text = row[c].strip()
            try:
                value = float(text)
            except ValueError:
                raise ParseError(
                    f"{manifest.path}:{lineno}: column {c}: cannot parse {text!r}"
                ) from None
            if not np.isfinite(value):
                raise NonFiniteValue(
                    f"{manifest.path}:{lineno}: column {c}: non-finite value {text!r}"
                )
            coords.append(value)
        groups.setdefault(row[group_idx].strip(), []).append(coords)
    return [(gid, Cloud(np.asarray(pts))) for gid, pts in groups.items()]
