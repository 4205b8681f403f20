"""Candidate generation: lexicon, extraction, expansion, alignment, splits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbrnn.candidates import (
    NuggetCandidate,
    TriggerLexicon,
    align_labels,
    build_examples,
    build_trigger_lexicon,
    expand_candidates,
    extract_single_token_candidates,
    labeled_candidates,
    load_lexicon,
    save_lexicon,
    split_branches,
)
from fbrnn.corpus import (
    Corpus,
    GoldNugget,
    LabelSet,
    Sentence,
    Token,
    default_synthetic_spec,
    make_synthetic_corpus,
)
from fbrnn.errors import ConfigurationError, DataError
from fbrnn.numerics import Rng


def lexicon_of(*words):
    lex = TriggerLexicon()
    for w in words:
        lex.add_gold(w)
    return lex


class TestLexicon:
    def test_head_token_of_multi_token_nugget(self, break_in_sentence, attack_labels):
        corpus = Corpus((break_in_sentence,))
        lex = build_trigger_lexicon(corpus)
        assert "broken" in lex
        assert "into" not in lex
        assert lex.counts("broken") == (1, 0)

    def test_empty_corpus_warns(self):
        with pytest.warns(UserWarning, match="empty"):
            lex = build_trigger_lexicon(Corpus(()))
        assert len(lex) == 0

    def test_paraphrase_rule_trace(self, break_in_sentence, tmp_path):
        para = tmp_path / "p.tsv"
        para.write_text("# comment line\nbroken\tsmashed\nunrelated\tignored\n")
        lex = build_trigger_lexicon(Corpus((break_in_sentence,)), para)
        assert "smashed" in lex
        assert "ignored" not in lex
        assert lex.counts("smashed") == (0, 1)

    def test_malformed_paraphrase_line(self, break_in_sentence, tmp_path):
        para = tmp_path / "p.tsv"
        para.write_text("only-one-field\n")
        with pytest.raises(DataError, match="p.tsv:1"):
            build_trigger_lexicon(Corpus((break_in_sentence,)), para)

    def test_missing_paraphrase_file(self, break_in_sentence, tmp_path):
        with pytest.raises(DataError):
            build_trigger_lexicon(
                Corpus((break_in_sentence,)), tmp_path / "nope.tsv"
            )

    def test_spellings_that_differ_only_in_case_are_rejected(self):
        entries = {"Met": {"gold": 2}, "met": {"gold": 1}}
        with pytest.raises(DataError, match="'Met' and 'met' differ only in case"):
            TriggerLexicon.from_dict({"entries": entries})

    def test_lexicon_file_roundtrip(self, tmp_path):
        lex = lexicon_of("broken", "met")
        lex.add_paraphrase("smashed")
        path = tmp_path / "lex.json"
        save_lexicon(lex, path)
        loaded = load_lexicon(path)
        assert loaded.entries == lex.entries
        assert loaded.counts("broken") == (1, 0)
        assert loaded.counts("smashed") == (0, 1)


class TestExtraction:
    def test_break_in_sentence(self, break_in_sentence):
        cands = extract_single_token_candidates(break_in_sentence, lexicon_of("broken"))
        assert [c.span for c in cands] == [(4, 4)]

    def test_empty_lexicon(self, break_in_sentence):
        assert extract_single_token_candidates(break_in_sentence, TriggerLexicon()) == []

    def test_repeated_token_gives_two_candidates(self):
        s = Sentence(tuple(Token(w, "VBD") for w in ("struck", "twice", "struck")))
        cands = extract_single_token_candidates(s, lexicon_of("struck"))
        assert [c.span for c in cands] == [(0, 0), (2, 2)]

    def test_lookup_is_case_insensitive(self):
        s = Sentence((Token("Broken", "VBN"),))
        assert len(extract_single_token_candidates(s, lexicon_of("broken"))) == 1


class TestExpansion:
    def test_verb_plus_preposition(self, break_in_sentence):
        cands = [NuggetCandidate(4, 4)]
        out = expand_candidates(break_in_sentence, cands, max_len=3)
        assert [c.span for c in out] == [(4, 4), (4, 5)]

    def test_no_expansion_before_noun(self):
        s = Sentence((Token("met", "VBD"), Token("reporters", "NNS")))
        out = expand_candidates(s, [NuggetCandidate(0, 0)], max_len=3)
        assert [c.span for c in out] == [(0, 0)]

    def test_rule_trace_over_prefixes(self):
        s = Sentence(
            (
                Token("gave", "VBD"),
                Token("up", "RP"),
                Token("on", "IN"),
                Token("it", "PRP"),
            )
        )
        out = expand_candidates(s, [NuggetCandidate(0, 0)], max_len=3)
        assert [c.span for c in out] == [(0, 0), (0, 1), (0, 2)]

    def test_max_len_caps_expansion(self):
        s = Sentence(
            (Token("gave", "VBD"), Token("up", "RP"), Token("on", "IN"))
        )
        out = expand_candidates(s, [NuggetCandidate(0, 0)], max_len=2)
        assert [c.span for c in out] == [(0, 0), (0, 1)]

    def test_non_verbal_head_not_expanded(self):
        s = Sentence((Token("word", "NN"), Token("up", "RP")))
        out = expand_candidates(s, [NuggetCandidate(0, 0)], max_len=3)
        assert [c.span for c in out] == [(0, 0)]

    def test_missing_pos_tags_rejected(self):
        s = Sentence((Token("gave"), Token("up")))
        with pytest.raises(DataError, match="POS"):
            expand_candidates(s, [NuggetCandidate(0, 0)], max_len=3)

    def test_missing_pos_names_the_first_untagged_token(self):
        words = ("they", "met", "in", "the", "old", "city", "hall")
        s = Sentence(tuple(Token(w, None if i in (2, 4) else "NN") for i, w in enumerate(words)))
        with pytest.raises(
            DataError,
            match="^token 2 'in' of the sentence starting 'they met in the old city' has no POS",
        ):
            expand_candidates(s, [], max_len=3)

    def test_output_restricted_to_singletons_equals_input(self, break_in_sentence):
        cands = extract_single_token_candidates(break_in_sentence, lexicon_of("broken", "had"))
        out = expand_candidates(break_in_sentence, cands, max_len=3)
        singles = [c for c in out if len(c) == 1]
        assert singles == sorted(cands, key=lambda c: c.span)


class TestAlignment:
    def test_exact_match_gets_types(self, attack_labels):
        out = align_labels(
            [NuggetCandidate(4, 5)],
            [GoldNugget(4, 5, ("Conflict.Attack",))],
            attack_labels,
        )
        assert out[0].types == ("Conflict.Attack",)

    def test_partial_overlap_is_non_event(self, attack_labels):
        out = align_labels(
            [NuggetCandidate(4, 4)],
            [GoldNugget(4, 5, ("Conflict.Attack",))],
            attack_labels,
        )
        assert out[0].types == ()

    def test_multi_label_gold_preserved(self, attack_labels):
        out = align_labels(
            [NuggetCandidate(1, 1)],
            [GoldNugget(1, 1, ("Conflict.Attack", "Justice.Arrest"))],
            attack_labels,
        )
        assert out[0].types == ("Conflict.Attack", "Justice.Arrest")

    def test_duplicate_gold_spans_merge_with_warning(self, attack_labels):
        with pytest.warns(UserWarning, match="duplicate gold span"):
            out = align_labels(
                [NuggetCandidate(0, 0)],
                [
                    GoldNugget(0, 0, ("Conflict.Attack",)),
                    GoldNugget(0, 0, ("Contact.Meet",)),
                ],
                attack_labels,
            )
        assert out[0].types == ("Conflict.Attack", "Contact.Meet")

    def test_unknown_gold_type_rejected(self, attack_labels):
        with pytest.raises(DataError):
            align_labels([], [GoldNugget(0, 0, ("Nope",))], attack_labels)


class TestSplitBranches:
    def test_break_in_three_parts(self, break_in_sentence):
        split = split_branches(break_in_sentence, NuggetCandidate(4, 5))
        assert split.left == ("an", "unknown", "man", "had")
        assert split.nugget == ("broken", "into")
        assert split.right == ("a", "house", "last", "November")

    def test_whole_sentence_span(self):
        s = Sentence((Token("a"), Token("b")))
        split = split_branches(s, NuggetCandidate(0, 1))
        assert split.left == () and split.right == ()

    def test_leading_span(self):
        s = Sentence((Token("a"), Token("b")))
        split = split_branches(s, NuggetCandidate(0, 0))
        assert split.left == ()
        assert split.right == ("b",)

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=60)
    def test_concatenation_identity(self, n, data):
        tokens = tuple(Token(f"w{i}") for i in range(n))
        s = Sentence(tokens)
        start = data.draw(st.integers(0, n - 1))
        end = data.draw(st.integers(start, n - 1))
        split = split_branches(s, NuggetCandidate(start, end))
        assert split.left + split.nugget + split.right == s.texts()


class TestRecallInvariant:
    def test_gold_spans_recovered_on_synthetic_corpus(self):
        spec = default_synthetic_spec(n_sentences=150)
        corpus = make_synthetic_corpus(spec, Rng(17))
        lex = build_trigger_lexicon(corpus)
        labels = spec.label_set()
        for sentence in corpus:
            cands = labeled_candidates(sentence, lex, labels, max_nugget_len=3)
            spans = {c.span for c in cands}
            for nugget in sentence.nuggets:
                assert (nugget.start, nugget.end) in spans
                matched = next(c for c in cands if c.span == (nugget.start, nugget.end))
                assert matched.types == nugget.types


class TestBuildExamples:
    def test_examples_cover_sentences_and_carry_splits(self, attack_labels):
        spec = default_synthetic_spec(n_sentences=30)
        corpus = make_synthetic_corpus(spec, Rng(4))
        lex = build_trigger_lexicon(corpus)
        examples = build_examples(corpus, lex, spec.label_set(), 3)
        assert examples
        for ex in examples:
            sentence = corpus[ex.sentence_index]
            assert (
                ex.split.left + ex.split.nugget + ex.split.right == sentence.texts()
            )

    @pytest.mark.parametrize("max_len", [0, -2])
    def test_max_nugget_len_below_one_is_rejected(self, max_len):
        spec = default_synthetic_spec(n_sentences=5)
        corpus = make_synthetic_corpus(spec, Rng(4))
        lex = build_trigger_lexicon(corpus)
        with pytest.raises(ConfigurationError, match="max_nugget_len"):
            build_examples(corpus, lex, spec.label_set(), max_len)

    def test_missing_pos_names_the_sentence_index(self):
        """The index in the corpus handed in, which after a dev split is
        not the file's line; without expansion no tag is needed."""
        tagged = Sentence((Token("they", "PRP"), Token("met", "VBD")))
        untagged = Sentence((Token("they", "PRP"), Token("met")))
        corpus = Corpus((tagged, untagged))
        lex = lexicon_of("met")
        expected = "^sentence 1: token 1 'met' of the sentence starting 'they met' "
        with pytest.raises(DataError, match=expected):
            build_examples(corpus, lex, LabelSet(["A"]), 3)
        assert len(build_examples(corpus, lex, LabelSet(["A"]), 1)) == 2

    def test_max_nugget_len_below_one_is_rejected_on_an_empty_corpus(self):
        spec = default_synthetic_spec(n_sentences=5)
        lex = build_trigger_lexicon(make_synthetic_corpus(spec, Rng(4)))
        with pytest.raises(ConfigurationError, match="max_nugget_len"):
            build_examples(Corpus(()), lex, spec.label_set(), 0)
