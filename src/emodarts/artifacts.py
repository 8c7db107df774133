"""Artifact files: everything the package writes, and every text or
container file a user hands it, goes through this module.

Writes are atomic: the bytes go to a temp file beside the target, are
flushed to disk, then renamed over it, so a crash leaves the old file or
the new one, never a truncated one. Datasets (EDSET) and checkpoints share
one container: a compact, key-sorted JSON header line with `format` and
`version`, then a raw payload. CSVs share one dialect: a header row,
comma-separated cells, `\\n` line ends, `NA` for a missing value, `0`/`1`
for booleans, `repr` for floats. Unreadable input is a `DataError`.
"""

from __future__ import annotations

import contextlib
import json
import os

from .errors import DataError

__all__ = ["write_file", "write_csv", "write_container", "read_container",
           "read_text", "is_int"]


def write_file(path, data: str | bytes) -> None:
    """Replace `path` with `data` (text is UTF-8 encoded) atomically."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _cell(v) -> str:
    if v is None:
        return "NA"
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path, columns: list[str], rows) -> None:
    """One header row of `columns`, then one line per row of cell values."""
    lines = [",".join(columns)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    write_file(path, "\n".join(lines) + "\n")


def write_container(path, header: dict, payload: bytes) -> None:
    head = json.dumps(header, sort_keys=True, separators=(",", ":"))
    write_file(path, head.encode("utf-8") + b"\n" + payload)


def read_container(path, fmt: str, version: int, keys) -> tuple[dict, bytes]:
    """(header, payload); the header must carry every name in `keys`."""
    try:
        with open(path, "rb") as fh:
            head_line, payload = fh.readline(), fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {fmt} file {path}: {exc}") from exc
    try:
        header = json.loads(head_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{fmt} header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError(f"{fmt} header is not a JSON object")
    if header.get("format") != fmt:
        raise DataError(f"not a {fmt} file: format {header.get('format')!r}")
    if header.get("version") != version:
        raise DataError(f"unsupported {fmt} version {header.get('version')!r}")
    missing = [k for k in keys if k not in header]
    if missing:
        raise DataError(f"{fmt} header is missing {missing}")
    return header, payload


def read_text(path, what: str) -> str:
    """The UTF-8 text of a user-supplied `what` file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def is_int(v) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)
