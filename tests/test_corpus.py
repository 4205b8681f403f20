"""Corpus model, JSON-lines IO, label sets, splitting, synthetic generators."""

import contextlib
import dataclasses
import gc
import hashlib
import json
import re

import pytest

import fbrnn.corpus as corpus_module
from fbrnn.corpus import (
    Corpus,
    EventTemplate,
    GoldNugget,
    LabelSet,
    Sentence,
    SyntheticSpec,
    Token,
    default_synthetic_spec,
    load_corpus,
    load_label_set,
    make_positional_corpus,
    make_synthetic_corpus,
    save_corpus,
    save_label_set,
    split_corpus,
    vocabulary_of,
    POSITIONAL_EVENT_TYPE,
)
from fbrnn.errors import ConfigurationError, DataError
from fbrnn.numerics import Rng

BREAK_IN_LINE = json.dumps(
    {
        "tokens": [
            {"t": "an", "pos": "DT"},
            {"t": "unknown", "pos": "JJ"},
            {"t": "man", "pos": "NN"},
            {"t": "had", "pos": "VBD"},
            {"t": "broken", "pos": "VBN"},
            {"t": "into", "pos": "IN"},
            {"t": "a", "pos": "DT"},
            {"t": "house", "pos": "NN"},
            {"t": "last", "pos": "JJ"},
            {"t": "November", "pos": "NNP"},
        ],
        "nuggets": [{"start": 4, "end": 5, "types": ["Conflict.Attack"]}],
    }
)


@pytest.fixture
def labels():
    return LabelSet(["Conflict.Attack", "Contact.Meet"])


class TestLabelSet:
    def test_class_count_includes_non_event(self, labels):
        assert labels.n_classes == 3

    def test_non_event_reserved_at_zero(self, labels):
        assert labels.type_at(0) is None
        assert labels.class_index("Conflict.Attack") == 1

    def test_rejects_reserved_label(self):
        with pytest.raises(ConfigurationError):
            LabelSet(["NON_EVENT", "X"])

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            LabelSet(["A", "A"])

    @pytest.mark.parametrize("name", ["", " ", "\t\n"], ids=["empty", "space", "whitespace"])
    def test_rejects_empty_and_blank_names(self, name):
        with pytest.raises(ConfigurationError, match=re.escape(repr(name))):
            LabelSet(["A", name])

    def test_file_roundtrip(self, labels, tmp_path):
        path = tmp_path / "labels.json"
        save_label_set(labels, path)
        assert load_label_set(path) == labels

    def test_file_with_reserved_label_rejected(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text('["A", "NON_EVENT"]')
        with pytest.raises(DataError):
            load_label_set(path)


def _load_lines(tmp_path, labels, *lines):
    """`lines` written to a corpus file, one per line, and loaded."""
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return load_corpus(path, labels)


class TestCorpusIO:
    def test_load_break_in_sentence(self, labels, tmp_path):
        corpus = _load_lines(tmp_path, labels, BREAK_IN_LINE)
        assert len(corpus) == 1
        sentence = corpus[0]
        assert len(sentence.tokens) == 10
        assert sentence.nuggets == (GoldNugget(4, 5, ("Conflict.Attack",)),)

    def test_empty_file_is_empty_corpus(self, labels, tmp_path):
        assert len(_load_lines(tmp_path, labels)) == 0

    def test_reversed_span_rejected_with_line(self, labels, tmp_path):
        bad = json.dumps(
            {"tokens": [{"t": "a"}, {"t": "b"}],
             "nuggets": [{"start": 1, "end": 0, "types": ["Contact.Meet"]}]}
        )
        with pytest.raises(DataError, match=":1:"):
            _load_lines(tmp_path, labels, bad)

    def test_out_of_range_span_rejected(self, labels, tmp_path):
        bad = json.dumps(
            {"tokens": [{"t": "a"}],
             "nuggets": [{"start": 0, "end": 1, "types": ["Contact.Meet"]}]}
        )
        with pytest.raises(DataError, match="out of range"):
            _load_lines(tmp_path, labels, bad)

    def test_unknown_label_rejected(self, labels, tmp_path):
        bad = json.dumps(
            {"tokens": [{"t": "a"}],
             "nuggets": [{"start": 0, "end": 0, "types": ["Nope"]}]}
        )
        with pytest.raises(DataError, match="Nope"):
            _load_lines(tmp_path, labels, bad)

    def test_empty_token_text_rejected(self, labels, tmp_path):
        bad = json.dumps({"tokens": [{"t": ""}], "nuggets": []})
        with pytest.raises(DataError, match="non-empty"):
            _load_lines(tmp_path, labels, bad)

    def test_malformed_json_names_line(self, labels, tmp_path):
        with pytest.raises(DataError, match="corpus.jsonl:2"):
            _load_lines(tmp_path, labels, BREAK_IN_LINE, "{oops")

    @pytest.mark.parametrize("char", ["\u2028", "\x85"])
    def test_a_raw_line_separator_in_a_token_is_data(self, labels, tmp_path, char):
        """A corpus breaks at "\\n" alone (after an optional "\\r"):
        `str.splitlines` would cut this line at U+2028 or U+0085, reject both
        halves as invalid JSON and misnumber every later line."""
        line = json.dumps({"tokens": [{"t": f"met{char}up", "pos": "VBD"}, {"t": "a"}],
                           "nuggets": [{"start": 0, "end": 0, "types": ["Contact.Meet"]}]},
                          ensure_ascii=False)
        assert char in line
        path = tmp_path / "c.jsonl"
        path.write_bytes(f"{line}\r\n{line}\n".encode())
        corpus = load_corpus(path, labels)
        assert [s.tokens for s in corpus] == [(Token(f"met{char}up", "VBD"), Token("a"))] * 2
        path.write_bytes(f"{line}\r\n{{oops}}\n".encode())
        with pytest.raises(DataError, match=r"c\.jsonl:2: invalid JSON"):
            load_corpus(path, labels)

    def test_save_load_roundtrip(self, labels, tmp_path):
        corpus = _load_lines(tmp_path, labels, BREAK_IN_LINE)
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path, labels) == corpus

    def test_synthetic_roundtrip(self, tmp_path):
        spec = default_synthetic_spec(n_sentences=40)
        corpus = make_synthetic_corpus(spec, Rng(5))
        path = tmp_path / "synth.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path, spec.label_set()) == corpus

    def test_all_spans_in_range_after_load(self, tmp_path):
        spec = default_synthetic_spec(n_sentences=100)
        corpus = make_synthetic_corpus(spec, Rng(8))
        for sentence in corpus:
            for nugget in sentence.nuggets:
                assert 0 <= nugget.start <= nugget.end < len(sentence.tokens)


class TestCollectorPause:
    """A load pauses the cyclic garbage collector and gives the caller back
    the state it had, however the load ends."""

    @pytest.mark.parametrize("line, error", [(BREAK_IN_LINE, None), ("[1]", DataError)],
                             ids=["loads", "raises"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_state_restored(self, labels, tmp_path, monkeypatch, line, error, enabled):
        seen, parse_sentence = [], corpus_module._parse_sentence

        def parse(*args):  # records whether the collector runs during the parse
            seen.append(gc.isenabled())
            return parse_sentence(*args)

        monkeypatch.setattr(corpus_module, "_parse_sentence", parse)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(error) if error else contextlib.nullcontext():
                _load_lines(tmp_path, labels, line, line)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen and not any(seen)


class TestSplit:
    def make(self, n):
        return Corpus(tuple(Sentence((Token(f"w{i}"),)) for i in range(n)))

    def test_even_split(self):
        train, dev = split_corpus(self.make(10), 0.2, Rng(0))
        assert (len(train), len(dev)) == (8, 2)

    def test_counting_oracle(self):
        train, dev = split_corpus(self.make(100), 0.1, Rng(1))
        assert len(dev) == 10
        assert len(train) == 90

    def test_same_seed_same_split(self):
        a_train, a_dev = split_corpus(self.make(30), 0.3, Rng(4))
        b_train, b_dev = split_corpus(self.make(30), 0.3, Rng(4))
        assert a_train == b_train and a_dev == b_dev

    def test_partition_is_exact(self):
        corpus = self.make(17)
        train, dev = split_corpus(corpus, 0.25, Rng(2))
        assert sorted(
            (s.tokens[0].text for s in tuple(train) + tuple(dev))
        ) == sorted(s.tokens[0].text for s in corpus)

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            split_corpus(self.make(5), 1.5, Rng(0))


class TestSyntheticGenerator:
    def test_template_oracle_multi_token_nugget(self):
        # single template, single pattern: the nugget must cover exactly
        # the trigger tokens, right after the subject phrase
        spec = SyntheticSpec(
            templates=(
                EventTemplate(
                    "Conflict.Attack",
                    ((Token("broken", "VBN"), Token("into", "IN")),),
                ),
            ),
            subjects=((Token("somebody", "NN"),),),
            objects=((Token("houses", "NNS"),),),
            tails=((),),
            n_sentences=5,
        )
        corpus = make_synthetic_corpus(spec, Rng(0))
        for sentence in corpus:
            assert sentence.texts() == ("somebody", "broken", "into", "houses")
            (nugget,) = sentence.nuggets
            assert (nugget.start, nugget.end) == (1, 2)
            assert nugget.types == ("Conflict.Attack",)
            assert sentence.tokens[1].pos == "VBN"

    def test_zero_sentences(self):
        spec = default_synthetic_spec(n_sentences=0)
        assert len(make_synthetic_corpus(spec, Rng(0))) == 0

    @pytest.mark.parametrize("templates, match", [
        ((), "no event templates"),
        ((EventTemplate("Conflict.Attack", ((Token("hit", "VBD"),), ())),),
         "'Conflict.Attack' has an empty trigger phrase"),
    ], ids=["no-templates", "empty-trigger-phrase"])
    def test_empty_templates_rejected(self, templates, match):
        spec = SyntheticSpec(
            templates=templates,
            subjects=((Token("a"),),),
            objects=((Token("b"),),),
            tails=((),),
            n_sentences=0,
        )
        with pytest.raises(ConfigurationError, match=match):
            make_synthetic_corpus(spec, Rng(0))

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -1.0])
    def test_unusable_template_weight_rejected_before_drawing(self, weight):
        spec = default_synthetic_spec(n_sentences=5)
        bad = EventTemplate("Life.Die", spec.templates[0].patterns, weight)
        spec = dataclasses.replace(spec, templates=spec.templates + (bad,))
        rng = Rng(0)
        with pytest.raises(ConfigurationError,
                           match=r"'Life\.Die' has weight .*finite and non-negative"):
            make_synthetic_corpus(spec, rng)
        assert rng.next_u64() == Rng(0).next_u64()  # nothing drawn

    @pytest.mark.parametrize("n_sentences", [0, 5])
    def test_all_zero_template_weights_rejected_before_drawing(self, n_sentences):
        spec = default_synthetic_spec(n_sentences=n_sentences)
        zero = tuple(dataclasses.replace(t, weight=0.0) for t in spec.templates)
        spec = dataclasses.replace(spec, templates=zero)
        rng = Rng(0)
        with pytest.raises(ConfigurationError, match="template weights are all zero"):
            make_synthetic_corpus(spec, rng)
        assert rng.next_u64() == Rng(0).next_u64()  # nothing drawn

    @pytest.mark.parametrize("n_sentences", [0, 5])
    def test_template_without_patterns_rejected_before_drawing(self, n_sentences):
        spec = default_synthetic_spec(n_sentences=n_sentences)
        bare = EventTemplate("Life.Die", ())
        spec = dataclasses.replace(spec, templates=spec.templates + (bare,))
        rng = Rng(0)
        with pytest.raises(ConfigurationError,
                           match=r"event template 'Life\.Die' has no trigger phrases"):
            make_synthetic_corpus(spec, rng)
        assert rng.next_u64() == Rng(0).next_u64()  # nothing drawn

    def test_label_histogram_matches_weights(self):
        base = default_synthetic_spec(n_sentences=2000, negative_rate=0.0)
        corpus = make_synthetic_corpus(base, Rng(13))
        counts = {t.event_type: 0 for t in base.templates}
        for sentence in corpus:
            for nugget in sentence.nuggets:
                counts[nugget.types[0]] += 1
        total = sum(counts.values())
        assert total == 2000
        for template in base.templates:
            expected = template.weight / sum(t.weight for t in base.templates)
            assert abs(counts[template.event_type] / total - expected) < 0.03

    def test_negative_rate_produces_unannotated_sentences(self):
        spec = default_synthetic_spec(n_sentences=400, negative_rate=0.25)
        corpus = make_synthetic_corpus(spec, Rng(3))
        negatives = sum(1 for s in corpus if not s.nuggets)
        assert abs(negatives / 400 - 0.25) < 0.06

    def test_determinism(self):
        spec = default_synthetic_spec(n_sentences=50)
        assert make_synthetic_corpus(spec, Rng(77)) == make_synthetic_corpus(
            spec, Rng(77)
        )

    # SHA-256 of `save_corpus` output: every perfbench workload is drawn by
    # these generators, so a changed draw moves every benchmark number.
    @pytest.mark.parametrize("make, seed, digest", [
        (lambda rng: make_synthetic_corpus(default_synthetic_spec(200), rng), 0,
         "83d2f59ce69fa82b7d94f8baa88ebc824e19370c9c9a7c2e66560eaa9f599c61"),
        (lambda rng: make_synthetic_corpus(default_synthetic_spec(200), rng), 1,
         "a7b26017560daf0abed2af0950c20d9f3036303f64a13b01cac2ced9a3c3a57e"),
        (lambda rng: make_positional_corpus(50, rng), 0,
         "1204862efb4ff4272592ccaa0bf2853f8c00c9293bdcfd291882d14f1fdf6ec3"),
        (lambda rng: make_positional_corpus(50, rng), 1,
         "fe469f2ba96311ac5316f375c8006280a5e44bb39a12906f0be7c870dac4e7ce"),
    ], ids=["default-0", "default-1", "positional-0", "positional-1"])
    def test_generated_bytes_pinned(self, tmp_path, make, seed, digest):
        save_corpus(make(Rng(seed)), tmp_path / "c.jsonl")
        assert hashlib.sha256((tmp_path / "c.jsonl").read_bytes()).hexdigest() == digest

    def test_pos_tags_everywhere(self):
        corpus = make_synthetic_corpus(default_synthetic_spec(50), Rng(1))
        assert all(t.pos for s in corpus for t in s.tokens)


class TestPositionalCorpus:
    def test_first_occurrence_is_gold(self):
        corpus = make_positional_corpus(60, Rng(9))
        for sentence in corpus:
            (nugget,) = sentence.nuggets
            texts = sentence.texts()
            occurrences = [i for i, w in enumerate(texts) if w == "struck"]
            assert len(occurrences) == 2
            assert nugget.start == nugget.end == occurrences[0]
            assert nugget.types == (POSITIONAL_EVENT_TYPE,)

    def test_vocabulary_contains_trigger(self):
        corpus = make_positional_corpus(10, Rng(2))
        assert "struck" in vocabulary_of(corpus)
