"""Line records: the text format of model files and golden recall tables, and
the one place the package reads and writes files.

Files are UTF-8, split on "\\n" only, so a value holding U+2028 survives. A
blank line or a line starting with "#" is not a record. A record's key ends at
the first whitespace character; its value is the rest of the line after that
character, unchanged, so edge spaces survive. Every file starts with a
`format_version 1` record, then its fixed header records in order: only
write_records and head know the version. Writes are atomic: a temp file
beside the target replaces it, so a failed or killed write leaves the old file.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import shutil
from pathlib import Path

from .errors import InputOutputError, ValidationError

FORMAT_VERSION = 1

_RECORD = re.compile(r"(\S*)(?:\s(.*))?", re.DOTALL)


def read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputOutputError(f"cannot read {Path(path)}: {exc.strerror or exc}") from exc


def read_text(path, label: str) -> str:
    """The file decoded as UTF-8; label prefixes the decode error."""
    try:
        return read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{label}: not valid UTF-8 ({exc})") from exc


def parse(text: str) -> list[tuple[int, str, str]]:
    """(line number, key, value) of every record in the text, in order."""
    return [(lineno, *_RECORD.fullmatch(line).groups(""))
            for lineno, line in enumerate(text.split("\n"), start=1)
            if line.strip() and not line.startswith("#")]


def head(records, keys, label: str) -> tuple[dict[str, str], list]:
    """(values of the header, the records after it). The header is a
    `format_version 1` record, then records carrying exactly `keys` in order."""
    keys = ("format_version", *keys)
    if len(records) < len(keys):
        raise ValidationError(f"{label}: truncated header")
    for key, (_, found, _) in zip(keys, records):
        if found != key:
            raise ValidationError(f"{label}: expected {key!r} record, found {found!r}")
    if records[0][2] != str(FORMAT_VERSION):
        raise ValidationError(f"{label}: unsupported format_version {records[0][2]!r}")
    return ({key: value for key, (_, _, value) in zip(keys[1:], records[1:])},
            records[len(keys):])


def to_int(label: str, key: str, value: str) -> int:
    """A 64-bit integer, so later float arithmetic on it cannot overflow."""
    try:
        x = int(value)
    except ValueError:
        x = None
    if x is None or not -2**63 <= x < 2**63:
        raise ValidationError(f"{label}: {key} is not a 64-bit integer: {value!r}")
    return x


def format_float(x: float) -> str:
    """Shortest fixed-rule decimal that reparses to the identical double."""
    return format(x, ".17g")


def to_float(label: str, key: str, value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise ValidationError(f"{label}: {key} is not a number: {value!r}") from None
    if not math.isfinite(x):
        raise ValidationError(f"{label}: {key} must be finite, got {value!r}")
    return x


def write_records(path, records: list[tuple[str, str]]) -> None:
    """Write `format_version 1`, then the (key, value) records, one line each,
    atomically."""
    records = [("format_version", str(FORMAT_VERSION)), *records]
    for key, value in records:
        if "\n" in value:
            raise ValidationError(f"{key} {value!r} contains a newline: a record is one line")
    write_text(path, "".join(f"{key} {value}\n" for key, value in records))


def write_text(path, text: str) -> None:
    """Replace the file at path with text. The text is encoded before any file
    is created; a device or pipe such as /dev/stdout is written in place."""
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError(f"{path}: text is not encodable as UTF-8 ({exc})") from exc
    p = Path(path)
    try:
        if p.exists() and not p.is_file():
            p.write_bytes(data)
        else:
            _replace(p.resolve(), data)
    except OSError as exc:
        raise InputOutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _replace(target: Path, data: bytes) -> None:
    # No fsync: this guards against a killed process, not against power loss.
    # The temp name leaves out the target's name, so it fits wherever that fits.
    tmp = target.with_name(f".{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:  # a new file, with the umask's mode
            if target.exists():
                shutil.copymode(target, tmp)  # calibrate keeps a 0600 model at 0600
            f.write(data)
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink()  # gone already after a successful replace
