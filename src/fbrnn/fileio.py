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
from typing import BinaryIO, Callable, Iterable, Iterator

from .errors import DataError

# each kind a JSON value or config field may have, and its `kind | None`,
# resolved once -> (the one type that fits it at once, if any; the types that
# fit it; its name; the types that fit each element, if any; takes None)
KINDS = {
    kind | None if optional else kind:
        (None if item else kind, types, words + " or None" * optional, item, optional)
    for kind, types, words, item in [
        (int, numbers.Integral, "an integer", None),
        (float, numbers.Real, "a real number", None),
        (bool, bool, "true or false", None),
        (str, str, "a string", None),
        (list, list, "an array", None),
        (list[int], list, "an array of integers", numbers.Integral),
        (list[str], list, "an array of strings", str),
        (dict, dict, "an object", None),
        (tuple[int, ...], tuple, "a tuple of integers", numbers.Integral),
    ]
    for optional in (False, True)
}


def check(value, kind, where: str, error: type = DataError):
    """`value` if it is of `kind`, a KINDS key (a bool is no number), else
    raise `error`: "`where` must be <kind>, got <value>"."""
    exact, types, words, item, optional = KINDS[kind]
    if not (
        type(value) is exact or (value is None and optional)
        or isinstance(value, types) and (exact is bool or not isinstance(value, bool))
        and (item is None or all(isinstance(v, item) and not isinstance(v, bool) for v in value))
    ):
        raise error(f"{where} must be {words}, got {reprlib.repr(value)}")
    return value


def object_kind(noun: str, *rows: tuple) -> tuple:
    """A JSON object kind for `read_fields`: `(key, kind[, default])` rows (no
    default: required), each kind resolved and each default checked once, and
    `noun` ("line", or ""), which names the object after its location in errors."""
    return noun, tuple(
        (key, kind, check(*default, kind, f"the default of field {key!r}", TypeError)
         if default else ..., KINDS[kind][0])
        for key, kind, *default in rows
    )


def read_fields(obj, declared: tuple, where: str) -> list:
    """Each field of `declared` (an `object_kind`) in the JSON object `obj`, or
    its default if absent; else a DataError naming `where` and the field."""
    noun, rows = declared
    if type(obj) is not dict:
        check(obj, dict, f"{where}: {noun}" if noun else where)
    values = []
    for key, kind, default, exact in rows:
        value = obj.get(key, default)
        if type(value) is not exact and value is not default:  # a default fits (`object_kind`)
            check(value, kind, f"{where}: field {key!r}")
        elif value is ...:
            raise DataError(f"{where}: missing field {key!r}")
        values.append(value)
    return values


def _object(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"an object repeats the key {repeated!r}")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_object)  # one, not one per parse


def _parse(text: str, where: str):
    try:
        if text.startswith("\ufeff"):  # as `json.loads` rejects it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except (ValueError, RecursionError) as e:  # ValueError covers JSONDecodeError
        raise DataError(f"{where}: {e}") from e


@contextmanager
def _opened(path: str | Path, what: str) -> Iterator[BinaryIO]:
    """`path` open for binary reading; an OSError in the block is a DataError."""
    try:
        with open(path, "rb") as f:
            yield f
    except OSError as e:
        raise DataError(f"cannot read {what} {path}: {e}") from e


def _decode(data: bytes, where: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{where}: {e}") from e


@contextmanager
def text_lines(path: str | Path, what: str) -> Iterator[Iterator[tuple[int, str, str]]]:
    r"""A generator of (lineno, `path:lineno`, text) for each line of `path`,
    blank ones included, decoded as it is reached; the file closes with the
    block. A line ends at "\n" alone, which is dropped: U+2028 or a lone "\r"
    is data, and the "\r" of a "\r\n" whitespace."""
    def located(f: BinaryIO) -> Iterator[tuple[int, str, str]]:
        for lineno, raw in enumerate(f, 1):
            try:
                line = raw.rstrip(b"\n").decode("utf-8")
            except UnicodeDecodeError as e:
                raise DataError(f"{path}: {what} is not UTF-8 text at line {lineno}: {e}") from e
            yield lineno, f"{path}:{lineno}", line

    with _opened(path, what) as f:
        yield located(f)


def read_json(path: str | Path, what: str):
    """The one JSON document in `path`."""
    with _opened(path, what) as f:
        text = _decode(f.read(), f"{path}: {what} is not UTF-8 text")
    return _parse(text, f"{path}: corrupt {what} (invalid JSON)")


@contextmanager
def header_and_payload(path: str | Path, what: str) -> Iterator[tuple[object, Callable]]:
    """For a file of one UTF-8 JSON header line and a raw payload: yield the
    parsed header and `open_payload(nbytes)`, which checks that the payload
    holds exactly `nbytes` and returns `read_into(piece)`, which fills the
    writable buffer `piece` with the payload's next bytes."""
    with _opened(path, what) as f:
        text = _decode(f.readline(), f"{path}: {what} header is not UTF-8 text")

        def open_payload(need: int) -> Callable:
            size = os.fstat(f.fileno()).st_size - f.tell()
            if size != need:
                raise DataError(f"{path}: {what} payload holds {size} bytes, not {need}")

            def read_into(piece) -> None:
                if f.readinto(piece) != memoryview(piece).nbytes:
                    raise DataError(f"{path}: {what} payload ended before {need} bytes")

            return read_into

        yield _parse(text, f"{path}: corrupt {what} header (invalid JSON)"), open_payload


def json_lines(lines: Iterable[tuple[int, str, str]]) -> Iterator[tuple[str, object]]:
    """(location, value) for each non-blank line of `text_lines`: one JSON value."""
    for _, where, line in lines:
        if line.strip():
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
