"""The one place where files are read and written.

Input files are UTF-8 text; a file that cannot be read, decoded or parsed
is a DataError naming it. Artifacts are written atomically.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DataError


def read_utf8(path: str | Path, what: str) -> str:
    """The whole text of `path`; `what` names the kind of file in errors."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read {what} {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: {what} is not UTF-8 text: {e}") from e


def read_json(path: str | Path, what: str):
    """The one JSON document in `path`."""
    text = read_utf8(path, what)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # ValueError covers JSONDecodeError
        raise DataError(f"{path}: corrupt {what} (invalid JSON): {e}") from e


def json_lines(lines: Iterable[str], source: str) -> Iterator[tuple[str, object]]:
    """(`source:lineno`, value) for every non-blank line, one JSON value each."""
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        where = f"{source}:{lineno}"
        try:
            value = json.loads(line)
        except (ValueError, RecursionError) as e:
            raise DataError(f"{where}: invalid JSON: {e}") from e
        yield where, value


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via temp file + rename so a failure leaves no partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
