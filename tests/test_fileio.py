"""Every input file is read, decoded and parsed in `fbrnn.fileio` alone, and
every value read from JSON is checked against its one table of kinds."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fbrnn
from fbrnn import fileio
from fbrnn.candidates import _COUNTS, _LEXICON
from fbrnn.cli import _RECORD
from fbrnn.corpus import _LINE, _SPAN, _TOKEN, LabelSet, Token, corpus_from_lines
from fbrnn.errors import DataError
from fbrnn.fileio import KINDS, check, json_lines, object_kind, read_fields, read_json, read_utf8
from fbrnn.training import _HEADER, _PIPELINE

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


def test_a_byte_order_mark_is_named(tmp_path):
    path = tmp_path / "labels.json"
    path.write_text('\ufeff["A"]', encoding="utf-8")
    with pytest.raises(DataError, match=r"labels\.json: .*Unexpected UTF-8 BOM"):
        read_json(path, "label file")


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
        read_fields({"k": value}, object_kind("", ("k", kind)), "x.json")


_FITTING = {int: 3, float: 3, bool: False, str: "", list: [{}], list[int]: [1, 2],
            list[str]: ["a"], dict: {}, tuple[int, ...]: (1, 2)}


def test_every_kind_takes_a_value_that_fits_it_unchanged_and_none_when_optional():
    assert set(_FITTING) | {kind | None for kind in _FITTING} == set(KINDS)
    for kind, value in _FITTING.items():
        both = object_kind("", ("k", kind), ("o", kind | None))
        assert all(v is value for v in read_fields({"k": value, "o": value}, both, "x.json"))
        assert read_fields({"k": value, "o": None}, both, "x.json")[1] is None
        with pytest.raises(DataError, match=r"^x\.json: field 'k' must be .*, got None$"):
            read_fields({"k": None, "o": None}, both, "x.json")


def test_a_missing_field_is_named_unless_it_has_a_default():
    assert read_fields({}, object_kind("", ("k", int, 7)), "x.json") == [7]
    with pytest.raises(DataError, match=r"^x\.json: missing field 'k'$"):
        read_fields({"j": 1}, object_kind("", ("j", int), ("k", int)), "x.json")


def test_a_default_that_does_not_fit_its_kind_is_refused_when_declared():
    with pytest.raises(TypeError, match=r"^the default of field 'k' must be an integer, got '7'$"):
        object_kind("", ("k", int, "7"))
    with pytest.raises(TypeError, match=r"^the default of field 'k' must be a string, got None$"):
        object_kind("", ("k", str, None))


def test_a_field_left_at_its_default_is_not_checked(monkeypatch):
    """A POS-less corpus reads to the tokens it always did, without one
    `check` call; `"pos": null` still reads as None and `"pos": 3` is
    still refused."""
    calls = []
    monkeypatch.setattr(fileio, "check", lambda *a, **k: calls.append(a) or a[0])
    line = json.dumps({"tokens": [{"t": "they"}, {"t": "met", "pos": "VBD"}, {"t": "a"}]})
    corpus = corpus_from_lines([line], LabelSet(["A"]))
    assert corpus.sentences[0].tokens == (Token("they"), Token("met", "VBD"), Token("a"))
    assert [t.pos for t in corpus.sentences[0].tokens] == [None, "VBD", None]
    assert calls == []
    monkeypatch.undo()
    assert read_fields({"t": "a", "pos": None}, _TOKEN, "x.jsonl:1") == ["a", None]
    with pytest.raises(DataError, match=r"^x\.jsonl:1: field 'pos' must be a string or None, got 3$"):
        read_fields({"t": "a", "pos": 3}, _TOKEN, "x.jsonl:1")


def test_an_object_of_another_kind_is_named_by_its_noun():
    with pytest.raises(DataError, match=r"^x\.jsonl:3: line must be an object, got \[1\]$"):
        read_fields([1], object_kind("line", ("k", int)), "x.jsonl:3")
    with pytest.raises(DataError, match=r"^x\.jsonl:3: token 0 must be an object, got 'a'$"):
        read_fields("a", object_kind("", ("k", int)), "x.jsonl:3: token 0")


# Every JSON object kind that a reader declares, by the reader's name for it.
_OBJECTS = {"line": _LINE, "token": _TOKEN, "span": _SPAN, "record": _RECORD,
            "lexicon": _LEXICON, "counts": _COUNTS, "header": _HEADER, "pipeline": _PIPELINE}

# JSON values of every kind: null, bools, integers, fractions, strings,
# arrays (of strings, integers, bools or a mix) and objects
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                     st.floats(allow_nan=False), st.text(max_size=3))
_JSON = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                  st.lists(st.text(max_size=2), max_size=3), st.lists(st.integers(), max_size=3),
                  st.dictionaries(st.text(max_size=2), _SCALARS, max_size=2))


def _check_each_field(obj, declared, where):
    """The reference reader: one `check` for the object and one per field."""
    noun, rows = declared
    check(obj, dict, f"{where}: {noun}" if noun else where)
    values = []
    for key, kind, default, _ in rows:
        if key not in obj and default is ...:
            raise DataError(f"{where}: missing field {key!r}")
        values.append(check(obj.get(key, default), kind, f"{where}: field {key!r}"))
    return values


@settings(max_examples=800, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_read_fields_fails_exactly_where_a_check_per_field_fails(data):
    """Over every reader's rows, with each field absent, fitting its kind
    (None for a `kind | None`) or of any JSON kind, `read_fields` raises
    exactly when a `check` per field would, with the same message, and
    returns the same values otherwise."""
    declared = _OBJECTS[data.draw(st.sampled_from(sorted(_OBJECTS)))]
    obj = {}
    for key, kind, *_ in declared[1]:
        how = data.draw(st.sampled_from(["fits"] * 4 + ["any", "absent"]))
        if how != "absent":
            obj[key] = _FITTING.get(kind) if how == "fits" else data.draw(_JSON)
    if data.draw(st.integers(0, 5)) == 0:  # no object at all
        obj = data.draw(_JSON)
    try:
        expected = _check_each_field(obj, declared, "x.jsonl:1")
    except DataError as e:
        with pytest.raises(DataError) as got:
            read_fields(obj, declared, "x.jsonl:1")
        assert str(got.value) == str(e)
    else:
        assert read_fields(obj, declared, "x.jsonl:1") == expected


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\v", "\f", "\x1c", "\x1e", "\r"])
def test_text_keeps_every_line_end_as_it_is(tmp_path, char):
    """Line readers split at "\\n" alone, so nothing else may end a line:
    universal newlines would turn a lone "\\r" into "\\n"."""
    path = tmp_path / "x.txt"
    path.write_bytes(f"a{char}b\r\nc\r\n\nd".encode())
    assert read_utf8(path, "text").split("\n") == [f"a{char}b\r", "c\r", "", "d"]
