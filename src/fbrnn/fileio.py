"""The one place where files are read and written.

Input files are UTF-8 text, or a UTF-8 JSON header line followed by raw
bytes; a file that cannot be read, decoded or parsed, or whose JSON repeats
a key, is a DataError naming it. JSON values and config fields are checked
against one table of kinds. Artifacts are written atomically.
"""

from __future__ import annotations

import json
import numbers
import os
import reprlib
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from types import UnionType
from typing import Callable, Iterable, Iterator

from .errors import DataError

# each kind a JSON value or config field may have -> the types that fit it, its
# name, and the types that fit each element, if any; `kind | None` takes None too
KINDS = {
    int: (numbers.Integral, "an integer", None),
    float: (numbers.Real, "a real number", None),
    bool: (bool, "true or false", None),
    str: (str, "a string", None),
    list: (list, "an array", None),
    list[int]: (list, "an array of integers", numbers.Integral),
    list[str]: (list, "an array of strings", str),
    dict: (dict, "an object", None),
    tuple[int, ...]: (tuple, "a tuple of integers", numbers.Integral),
}


def check(value, kind, where: str, key: str | None = None, error: type = DataError):
    """`value` if it is of `kind`, a KINDS key or one `| None` (a bool is no
    number), else raise `error` naming `where` (the file and the line, tensor
    or record) and the field `key`, if any."""
    optional = isinstance(kind, UnionType)
    base = kind.__args__[0] if optional else kind
    types, words, item = KINDS[base]
    if not (
        type(value) is base or (value is None and optional)  # fits, found at once
        or isinstance(value, types) and (base is bool or not isinstance(value, bool))
        and (item is None or all(isinstance(v, item) and not isinstance(v, bool) for v in value))
    ):
        what = where if key is None else f"{where}: field {key!r}"
        words += " or None" if optional else ""
        raise error(f"{what} must be {words}, got {reprlib.repr(value)}")
    return value


def read_field(obj: dict, key: str, kind, where: str, default=...):
    """`obj[key]`, or `default` if the key is absent, which must be of `kind`."""
    value = obj.get(key, default)
    if value is ...:  # absent, with no default
        raise DataError(f"{where}: missing field {key!r}")
    return check(value, kind, where, key)


def read_utf8(path: str | Path, what: str) -> str:
    """The whole text of `path`; `what` names the kind of file in errors."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read {what} {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: {what} is not UTF-8 text: {e}") from e


def _object(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"an object repeats the key {repeated!r}")
    return obj


def _parse(text: str, where: str):
    try:
        return json.loads(text, object_pairs_hook=_object)
    except (ValueError, RecursionError) as e:  # ValueError covers JSONDecodeError
        raise DataError(f"{where}: {e}") from e


def read_json(path: str | Path, what: str):
    """The one JSON document in `path`."""
    return _parse(read_utf8(path, what), f"{path}: corrupt {what} (invalid JSON)")


@contextmanager
def header_and_payload(path: str | Path, what: str) -> Iterator[tuple[object, Callable]]:
    """For a file of one UTF-8 JSON header line and a raw payload: yield the
    parsed header and `read_payload(buffer)`, which checks that the payload
    exactly fills the writable `buffer` and fills it with one `readinto`."""
    try:
        with open(path, "rb") as f:
            line = f.readline()
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as e:
                raise DataError(f"{path}: {what} header is not UTF-8 text: {e}") from e

            def read_payload(buffer) -> None:
                size, need = os.fstat(f.fileno()).st_size - f.tell(), memoryview(buffer).nbytes
                if size != need or f.readinto(buffer) != size:
                    raise DataError(f"{path}: {what} payload holds {size} bytes, not {need}")

            yield _parse(text, f"{path}: corrupt {what} header (invalid JSON)"), read_payload
    except OSError as e:
        raise DataError(f"cannot read {what} {path}: {e}") from e


def json_lines(lines: Iterable[str], source: str) -> Iterator[tuple[str, object]]:
    """(`source:lineno`, value) for every non-blank line, one JSON value each."""
    for lineno, line in enumerate(lines, 1):
        if line.strip():
            where = f"{source}:{lineno}"
            yield where, _parse(line, f"{where}: invalid JSON")


def write_text_atomic(path: str | Path, *parts: str | bytes | memoryview) -> None:
    """Write `parts` in order, text as UTF-8 and the rest as raw bytes, via
    temp file + rename so a failure leaves no partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            for part in parts:
                f.write(part.encode("utf-8") if isinstance(part, str) else part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
