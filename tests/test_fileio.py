"""Every input file is read, decoded and parsed in `fbrnn.fileio` alone, and
every value read from JSON is checked against its one table of kinds."""

import re
from pathlib import Path

import pytest

import fbrnn
from fbrnn.errors import DataError
from fbrnn.fileio import KINDS, check, json_lines, read_field, read_json

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


def test_repeated_key_is_a_data_error_naming_file_and_key(tmp_path):
    """A repeated key would otherwise keep only its last value, silently."""
    path = tmp_path / "lexicon.json"
    path.write_text('{"entries": {"met": {"gold": 2}, "met": {"gold": 1}}}')
    with pytest.raises(DataError, match=r"lexicon\.json: .*repeats the key 'met'"):
        read_json(path, "lexicon")


def test_repeated_key_in_json_lines_names_the_line():
    lines = ['{"a": 1}', '{"a": {"b": 1, "b": 2}}']
    with pytest.raises(DataError, match=r"corpus\.jsonl:2: .*repeats the key 'b'"):
        list(json_lines(lines, "corpus.jsonl"))


@pytest.mark.parametrize(
    "value, kind",
    [(True, int), (1, bool), (2.0, int), (True, float), ([True], list[int]),
     ((1, True), tuple[int, ...] | None), (["a", 1], list[str]), ("ab", list[str]),
     ([1], dict | None), ("1", int | None),
     ({"a": 1}, list), ([["a", 1]], dict), (None, str), (1, str | None)],
)
def test_a_value_of_another_kind_is_rejected_not_converted(value, kind):
    """A bool is no number, a number no bool, an array must be an array
    and an object an object, down to the elements of an array."""
    with pytest.raises(DataError, match=r"^x\.json: field 'k' must be "):
        read_field({"k": value}, "k", kind, "x.json")


_FITTING = {int: 3, float: 3, bool: False, str: "", list: [{}], list[int]: [1, 2],
            list[str]: ["a"], dict: {}, tuple[int, ...]: (1, 2)}


def test_every_kind_takes_a_value_that_fits_it_unchanged_and_none_when_optional():
    assert set(_FITTING) == set(KINDS)
    for kind, value in _FITTING.items():
        assert read_field({"k": value}, "k", kind, "x.json") is value
        assert read_field({"k": value}, "k", kind | None, "x.json") is value
        assert read_field({"k": None}, "k", kind | None, "x.json") is None
        with pytest.raises(DataError, match=r"^x\.json: field 'k' must be .*, got None$"):
            read_field({"k": None}, "k", kind, "x.json")


def test_a_missing_field_is_named_unless_it_has_a_default():
    assert read_field({}, "k", int, "x.json", 7) == 7
    with pytest.raises(DataError, match=r"^x\.json: missing field 'k'$"):
        read_field({}, "k", int, "x.json")
