"""Every input file is read, decoded and parsed in `fbrnn.fileio` alone, and
every value read from JSON is checked against its one table of kinds."""

import argparse
import builtins
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fbrnn
from fbrnn import fileio
from fbrnn.candidates import _COUNTS, _LEXICON, load_paraphrases
from fbrnn.cli import _RECORD, _read_config_file, _score_predictions
from fbrnn.corpus import _LINE, _SPAN, _TOKEN, LabelSet, Token, load_corpus, save_label_set
from fbrnn.embeddings import load_pretrained
from fbrnn.errors import ConfigurationError, DataError
from fbrnn.fileio import KINDS, check, json_lines, object_kind, read_fields, read_json, text_lines
from fbrnn.training import _HEADER, _PIPELINE

# opening, reading, decoding or splitting a file's text
_READS = re.compile(
    r"\b(read_text|read_bytes|open)\(|\bjson\.loads?\(|\.decode\(\"utf|\.split\(\"\\n\"\)|splitlines\("
)


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


def test_repeated_key_in_json_lines_names_the_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"a": 1}\n{"a": {"b": 1, "b": 2}}\n')
    with text_lines(path, "corpus") as lines:
        with pytest.raises(DataError, match=r"corpus\.jsonl:2: .*repeats the key 'b'"):
            list(json_lines(lines))


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


def test_a_field_left_at_its_default_is_not_checked(monkeypatch, tmp_path):
    """A POS-less corpus reads to the tokens it always did, without one
    `check` call; `"pos": null` still reads as None and `"pos": 3` is
    still refused."""
    calls = []
    monkeypatch.setattr(fileio, "check", lambda *a, **k: calls.append(a) or a[0])
    line = json.dumps({"tokens": [{"t": "they"}, {"t": "met", "pos": "VBD"}, {"t": "a"}]})
    path = tmp_path / "corpus.jsonl"
    path.write_text(line + "\n")
    corpus = load_corpus(path, LabelSet(["A"]))
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
    """`text_lines` splits at "\\n" alone, so nothing else may end a line:
    universal newlines would turn a lone "\\r" into "\\n"."""
    path = tmp_path / "x.txt"
    path.write_bytes(f"a{char}b\r\nc\r\n\nd".encode())
    with text_lines(path, "text") as lines:
        assert [line for _, _, line in lines] == [f"a{char}b\r", "c\r", "", "d"]


def test_text_lines_numbers_and_locates_every_line_blank_ones_too(tmp_path):
    path = tmp_path / "x.txt"
    path.write_bytes(b"a\n\n \nb\n")
    with text_lines(path, "text") as lines:
        assert list(lines) == [(1, f"{path}:1", "a"), (2, f"{path}:2", ""),
                               (3, f"{path}:3", " "), (4, f"{path}:4", "b")]
    path.write_bytes(b"")
    with text_lines(path, "text") as lines:
        assert list(lines) == []


def test_a_line_that_is_not_utf8_is_named_by_its_number(tmp_path):
    """The lines before it are read; the message keeps the file's name first."""
    path = tmp_path / "x.txt"
    path.write_bytes(b"a\n" + "\u00e9".encode() + b"\xff\nc\n")
    with text_lines(path, "paraphrase file") as lines:
        assert next(lines) == (1, f"{path}:1", "a")
        with pytest.raises(DataError, match=re.escape(
                f"{path}: paraphrase file is not UTF-8 text at line 2: 'utf-8' codec can't "
                "decode byte 0xff in position 2")):
            next(lines)


def test_a_file_that_cannot_be_read_is_a_data_error(tmp_path):
    for path in (tmp_path / "missing.txt", tmp_path):  # absent, and a directory
        with pytest.raises(DataError, match=re.escape(f"cannot read corpus {path}: ")):
            with text_lines(path, "corpus") as lines:
                list(lines)


_GOOD = json.dumps({"tokens": [{"t": "a"}]})

# Each text reader and a file that it refuses at line 2 of 3: (file name,
# content, call that reads it given its path and the test's directory)
_REFUSED_AT_LINE_2 = {
    "corpus-json": ("c.jsonl", f"{_GOOD}\n{{oops\n{_GOOD}\n",
                    lambda p, d: load_corpus(p, LabelSet(["A"]))),
    "corpus-sentence": ("c.jsonl", f"{_GOOD}\n{{\"tokens\": []}}\n{_GOOD}\n",
                        lambda p, d: load_corpus(p, LabelSet(["A"]))),
    "predictions": ("p.jsonl", '{"sentence": 0, "start": 0, "end": 0, "types": ["A"]}\n'
                    '{"sentence": 9, "start": 0, "end": 0, "types": ["A"]}\n\n',
                    lambda p, d: _score_predictions(argparse.Namespace(
                        labels=d / "labels.json", corpus=d / "gold.jsonl", predictions=p,
                        span_only=False))),
    "embeddings": ("v.txt", "2 2\na 1 x\nb 1 2\n", lambda p, d: load_pretrained(p, 2)),
    "paraphrases": ("p.tsv", "a\tb\nab\nc\td\n", lambda p, d: load_paraphrases(p)),
    "paraphrases-not-utf8": ("p.tsv", b"a\tb\n\xff\nc\td\n", lambda p, d: load_paraphrases(p)),
    "config": ("run.cfg", "seed = 1\nnope = 2\nseed = 3\n", lambda p, d: _read_config_file(str(p))),
    "config-not-utf8": ("run.cfg", b"seed = 1\n\xff\nseed = 3\n",
                        lambda p, d: _read_config_file(str(p))),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_AT_LINE_2))
def test_a_reader_that_refuses_a_line_has_closed_its_file(tmp_path, monkeypatch, case):
    """Every file a reader opened is closed while its error is still held,
    and the error names line 2. A config file's refused line is exit 1,
    also when it is not UTF-8: a config file is configuration."""
    save_label_set(LabelSet(["A"]), tmp_path / "labels.json")
    (tmp_path / "gold.jsonl").write_text(f"{_GOOD}\n")
    name, content, read = _REFUSED_AT_LINE_2[case]
    path = tmp_path / name
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    opened = []
    monkeypatch.setattr(fileio, "open", lambda *a: opened.append(builtins.open(*a)) or opened[-1],
                        raising=False)
    with pytest.raises(ConfigurationError if case.startswith("config") else DataError) as error:
        read(path, tmp_path)
    assert str(error.value).startswith(f"{path}:2: ") or "at line 2: " in str(error.value)
    assert path.name in [Path(f.name).name for f in opened]
    assert all(f.closed for f in opened)


def test_a_part_that_fails_to_be_written_leaves_no_file(tmp_path):
    """A text part that cannot be encoded fails after the first part was
    written: the error propagates, and neither the target nor its temp file
    is left."""
    with pytest.raises(UnicodeEncodeError):
        fileio.write_text_atomic(tmp_path / "out.json", "{}\n", "\ud800")
    assert list(tmp_path.iterdir()) == []
