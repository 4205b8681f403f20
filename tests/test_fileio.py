"""Every input file is read, decoded and parsed in `fbrnn.fileio` alone."""

import re
from pathlib import Path

import fbrnn

_READS = re.compile(r"\b(read_text|read_bytes|open)\(|\bjson\.loads?\(")


def test_only_fileio_reads_files():
    package = Path(fbrnn.__file__).parent
    offenders = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "fileio.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if _READS.search(line)
    ]
    assert offenders == []
