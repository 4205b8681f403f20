"""Scoring: micro P/R/F1 over (sentence, span, type) triples, the
batched prediction of candidate examples, and the ablation grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fbrnn.evaluation
import fbrnn.training
from fbrnn.candidates import LabeledExample, NuggetCandidate, split_branches
from fbrnn.corpus import (
    Corpus,
    GoldNugget,
    LabelSet,
    Sentence,
    Token,
    default_synthetic_spec,
    make_synthetic_corpus,
    split_corpus,
)
from fbrnn.errors import ConfigurationError, DataError, NumericError
from fbrnn.evaluation import (
    BLOCK_TOKENS,
    PredictedNugget,
    PRFReport,
    f1,
    predict_examples,
    run_ablation,
    score,
)
from fbrnn.model import ModelConfig, build_model
from fbrnn.numerics import Rng


def corpus_with(*nuggets_per_sentence):
    sentences = []
    for nuggets in nuggets_per_sentence:
        tokens = tuple(Token(f"w{i}") for i in range(10))
        sentences.append(Sentence(tokens, tuple(nuggets)))
    return Corpus(tuple(sentences))


class TestScore:
    def test_perfect_predictions(self):
        gold = corpus_with([GoldNugget(1, 2, ("A",))], [GoldNugget(0, 0, ("B",))])
        preds = [
            PredictedNugget(0, 1, 2, ("A",)),
            PredictedNugget(1, 0, 0, ("B",)),
        ]
        report = score(preds, gold)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_correct_span_wrong_type_counts_both_ways(self):
        gold = corpus_with([GoldNugget(1, 2, ("A",))])
        report = score([PredictedNugget(0, 1, 2, ("B",))], gold)
        assert report.true_positives == 0
        assert report.predicted_count == 1
        assert report.gold_count == 1

    def test_counting_oracle(self):
        # tp=2, predicted=3, gold=4 -> P=2/3, R=1/2, F1=4/7
        gold = corpus_with(
            [GoldNugget(0, 0, ("A",)), GoldNugget(2, 3, ("B",))],
            [GoldNugget(1, 1, ("A",)), GoldNugget(4, 4, ("C",))],
        )
        preds = [
            PredictedNugget(0, 0, 0, ("A",)),  # hit
            PredictedNugget(0, 2, 3, ("B",)),  # hit
            PredictedNugget(1, 5, 5, ("A",)),  # miss
        ]
        report = score(preds, gold)
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == pytest.approx(1 / 2)
        assert report.f1 == pytest.approx(4 / 7)

    def test_multi_typed_gold_gives_partial_recall_credit(self):
        gold = corpus_with([GoldNugget(0, 1, ("A", "B"))])
        report = score([PredictedNugget(0, 0, 1, ("A",))], gold)
        assert report.true_positives == 1
        assert report.gold_count == 2
        assert report.precision == 1.0
        assert report.recall == 0.5

    def test_duplicate_predictions_deduplicated_with_warning(self):
        gold = corpus_with([GoldNugget(0, 0, ("A",))])
        preds = [PredictedNugget(0, 0, 0, ("A",)), PredictedNugget(0, 0, 0, ("A",))]
        with pytest.warns(UserWarning, match="dedup"):
            report = score(preds, gold)
        assert report.predicted_count == 1
        assert report.precision == 1.0

    def test_non_event_prediction_rejected(self):
        gold = corpus_with([])
        with pytest.raises(DataError):
            score([PredictedNugget(0, 0, 0, ())], gold)

    def test_span_only_mode_ignores_types(self):
        gold = corpus_with([GoldNugget(1, 2, ("A",))])
        preds = [PredictedNugget(0, 1, 2, ("B",))]
        assert score(preds, gold).f1 == 0.0
        assert score(preds, gold, span_only=True).f1 == 1.0

    def test_zero_denominators(self):
        report = score([], corpus_with([]))
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_report_json_keys(self):
        report = PRFReport(2, 3, 4)
        d = report.as_dict()
        assert set(d) == {"tp", "pred", "gold", "p", "r", "f1"}

    @given(st.data())
    @settings(max_examples=60)
    def test_order_invariance(self, data):
        n_gold = data.draw(st.integers(0, 5))
        gold_nuggets = [
            GoldNugget(i, i, (data.draw(st.sampled_from(["A", "B"])),))
            for i in range(n_gold)
        ]
        gold = corpus_with(gold_nuggets)
        preds = [
            PredictedNugget(0, data.draw(st.integers(0, 6)), 7, ("A",))
            for _ in range(data.draw(st.integers(0, 4)))
        ]
        shuffled = data.draw(st.permutations(preds))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = score(preds, gold)
            b = score(list(shuffled), gold)
        assert a == b

    def test_adding_correct_prediction_never_lowers_recall(self):
        gold = corpus_with([GoldNugget(0, 0, ("A",)), GoldNugget(1, 1, ("B",))])
        base = [PredictedNugget(0, 0, 0, ("A",))]
        more = base + [PredictedNugget(0, 1, 1, ("B",))]
        assert score(more, gold).recall >= score(base, gold).recall

    def test_adding_wrong_prediction_never_raises_precision(self):
        gold = corpus_with([GoldNugget(0, 0, ("A",))])
        base = [PredictedNugget(0, 0, 0, ("A",))]
        more = base + [PredictedNugget(0, 5, 5, ("A",))]
        assert score(more, gold).precision <= score(base, gold).precision


# Rounded percentage P/R pairs with their published-style F1 values, used
# to pin down the harmonic-mean arithmetic at reporting precision.
ROUNDED_PAIRS = [
    (66.8, 68.0, 67.4),
    (71.9, 63.8, 67.6),
    (75.23, 47.74, 58.41),
    (73.95, 46.61, 57.18),
    (73.68, 44.94, 55.83),
    (73.73, 44.57, 55.56),
    (71.06, 43.50, 53.97),
    (71.58, 48.19, 57.61),
    (59.82, 48.39, 53.50),
    (58.50, 44.82, 50.76),
    (63.72, 47.68, 54.55),
    (64.56, 43.93, 52.28),
]


class TestF1Arithmetic:
    @pytest.mark.parametrize("p,r,expected", ROUNDED_PAIRS)
    def test_reported_pairs(self, p, r, expected):
        assert f1(p, r) == pytest.approx(expected, abs=0.05)

    def test_fixed_point(self):
        assert f1(42.0, 42.0) == 42.0

    def test_zero_case(self):
        assert f1(0.0, 0.0) == 0.0

    def test_range_validated(self):
        with pytest.raises(ConfigurationError):
            f1(101.0, 50.0)


# ---------------------------------------------------------------------------
# Batched prediction: one LEFT, NUGGET and RIGHT pass per block of sentences
# ---------------------------------------------------------------------------

SEVEN = Sentence(tuple(Token(w) for w in "the crowd broke into the old office".split()))
OTHER = Sentence(tuple(Token(w) for w in "police had fired on the crowd".split()))
SINGLE = Sentence((Token("attacked"),))

# (start, end): a candidate at token 0, one ending at the last token, one
# spanning the whole sentence, and overlapping ones in between.
SEVEN_SPANS = [(0, 0), (6, 6), (0, 6), (2, 3), (3, 5), (3, 3), (1, 2)]


def examples_of(index, sentence, spans):
    candidates = [NuggetCandidate(s, e) for s, e in spans]
    return [LabeledExample(index, c, split_branches(sentence, c)) for c in candidates]


def reference_predictions(model, examples, threshold):
    """The per-example loop: one full forward pass per candidate."""
    out = []
    for ex in examples:
        types = model.predict(ex.split, threshold)
        if types:
            out.append(
                PredictedNugget(ex.sentence_index, ex.candidate.start, ex.candidate.end, types)
            )
    return out


MODEL_GRID = [
    (cell, layers, head_mode, use_branch)
    for cell in ("gru", "lstm")
    for layers in (1, 2)
    for head_mode in ("softmax", "sigmoid")
    for use_branch in (True, False)
]


class TestPredictExamples:
    @staticmethod
    def model(cell="gru", layers=1, head_mode="softmax", use_branch=True):
        cfg = ModelConfig(
            cell=cell, hidden_size=5, layers=layers, word_dim=4, branch_dim=3,
            use_branch=use_branch, head_mode=head_mode,
        )
        words = [t.text for s in (SEVEN, OTHER, SINGLE) for t in s.tokens]
        return build_model(cfg, words, LabelSet(["Attack", "Move"]), Rng(11))

    @pytest.mark.parametrize("cell,layers,head_mode,use_branch", MODEL_GRID)
    def test_batch_proba_matches_predict_proba(self, cell, layers, head_mode, use_branch):
        """`batch_proba` over several sentences and over each sentence alone
        against `predict_proba` per candidate: only the summation
        order of the matrix products differs, so within 1e-12 (measured
        below 1e-15), and every decoded type tuple is equal. The groups
        hold candidates at the first and the last token, the whole
        sentence, a 1-token sentence and one sentence twice."""
        model = self.model(cell, layers, head_mode, use_branch)
        groups = [
            [ex.split for ex in examples_of(0, sentence, spans)]
            for sentence, spans in (
                (SEVEN, SEVEN_SPANS),
                (SINGLE, [(0, 0)]),
                (SEVEN, [(6, 6)]),
                (OTHER, [(5, 5), (0, 1), (2, 2)]),
            )
        ]
        splits = [split for group in groups for split in group]
        batched = model.batch_proba(groups)
        assert batched.shape == (len(splits), model.head.layers[-1][1].size)
        shared = [probs for group in groups for probs in model.batch_proba([group])]
        assert len(shared) == len(splits)
        threshold = 0.5 if head_mode == "softmax" else 0.45
        singles = np.array([model.predict_proba(split) for split in splits])
        np.testing.assert_allclose(batched, singles, rtol=0, atol=1e-12)
        np.testing.assert_allclose(shared, singles, rtol=0, atol=1e-12)
        decoded = model.decode(singles, threshold)
        assert model.decode(batched, threshold) == decoded
        assert model.decode(np.array(shared), threshold) == decoded

    @pytest.mark.parametrize("cell,layers,head_mode,use_branch", MODEL_GRID)
    def test_predict_examples_equals_per_example_loop(self, cell, layers, head_mode, use_branch):
        model = self.model(cell, layers, head_mode, use_branch)
        # sentence 0's examples are split by sentence 1's; sentence 2 has
        # the same index as sentence 1 but other tokens
        examples = (
            examples_of(0, SEVEN, SEVEN_SPANS[:4])
            + examples_of(1, OTHER, [(2, 2), (0, 5)])
            + examples_of(1, SINGLE, [(0, 0)])
            + examples_of(0, SEVEN, SEVEN_SPANS[4:])
        )
        threshold = 0.5 if head_mode == "softmax" else 0.45
        expected = reference_predictions(model, examples, threshold)
        assert predict_examples(model, examples, threshold) == expected
        assert expected  # the comparison covers some predicted nuggets

    def test_groups_are_consecutive_runs_of_one_sentence(self, monkeypatch):
        model = self.model()
        calls = []
        original = model.batch_proba

        def spy(groups):
            calls.append([[s.left + s.nugget + s.right for s in splits] for splits in groups])
            return original(groups)

        monkeypatch.setattr(model, "batch_proba", spy)
        examples = (
            examples_of(0, SEVEN, [(0, 0), (2, 3)])
            + examples_of(1, OTHER, [(2, 2)])
            + examples_of(1, SINGLE, [(0, 0)])
            + examples_of(0, SEVEN, [(6, 6)])
        )
        predict_examples(model, examples)
        seven, other, single = (s.texts() for s in (SEVEN, OTHER, SINGLE))
        assert calls == [[[seven, seven], [other], [single], [seven]]]

    @pytest.mark.parametrize("head_mode", ["softmax", "sigmoid"])
    def test_one_call_for_many_sentences_equals_per_sentence_calls(self, head_mode):
        model = self.model(head_mode=head_mode)
        runs = [
            examples_of(0, SEVEN, SEVEN_SPANS),
            examples_of(1, SINGLE, [(0, 0)]),
            examples_of(1, OTHER, [(0, 0), (5, 5), (0, 5), (3, 4)]),
            examples_of(2, SEVEN, [(6, 6), (0, 0)]),
        ]
        threshold = 0.5 if head_mode == "softmax" else 0.45
        together = predict_examples(model, [ex for run in runs for ex in run], threshold)
        assert together == [p for run in runs for p in predict_examples(model, run, threshold)]
        assert together

    def test_blocks_hold_whole_runs_of_at_most_block_tokens(self, monkeypatch):
        """Runs are packed in order into blocks until the next run's
        sentence would overflow BLOCK_TOKENS, so a block may hold exactly
        that many; a run whose sentence alone is longer is a block of its
        own."""
        model = self.model()
        n_seven, n_single = divmod(BLOCK_TOKENS, len(SEVEN))
        runs = [examples_of(i, SEVEN, SEVEN_SPANS[:2]) for i in range(n_seven)]
        runs += [examples_of(n_seven + i, SINGLE, [(0, 0)]) for i in range(n_single)]
        full = len(runs)
        long = Sentence(SEVEN.tokens * (n_seven + 1))
        runs.append(examples_of(full, long, [(0, 0), (len(long) - 1, len(long) - 1)]))
        runs += [examples_of(full + 1 + i, SEVEN, SEVEN_SPANS[:3]) for i in range(2)]
        blocks = [runs[:full], runs[full : full + 1], runs[full + 1 :]]
        assert sum(len(run[0].split.tokens) for run in blocks[0]) == BLOCK_TOKENS < len(long)
        calls = []
        original = model.batch_proba

        def spy(groups):
            calls.append([(len(splits), len(splits[0].tokens)) for splits in groups])
            return original(groups)

        monkeypatch.setattr(model, "batch_proba", spy)
        examples = [ex for run in runs for ex in run]
        predictions = predict_examples(model, examples)
        assert calls == [[(len(run), len(run[0].split.tokens)) for run in block] for block in blocks]
        per_run = [p for run in runs for p in predict_examples(model, run)]
        assert predictions == per_run
        assert predictions

    @pytest.mark.parametrize("cap", [1, 37, 4096])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_any_block_cap_predicts_as_the_per_sentence_loop(self, cap, data):
        """Whatever the token cap, packing runs into blocks changes only the
        summation order: the predictions equal one call per sentence."""
        model = self.model()
        runs = []
        for i in range(data.draw(st.integers(0, 12))):
            sentence = data.draw(st.sampled_from([SEVEN, OTHER, SINGLE]))
            last = len(sentence) - 1
            spans = data.draw(
                st.lists(
                    st.tuples(st.integers(0, last), st.integers(0, 2)).map(
                        lambda se: (se[0], min(last, se[0] + se[1]))
                    ),
                    min_size=1,
                    max_size=5,
                )
            )
            runs.append(examples_of(i, sentence, spans))
        per_sentence = [p for run in runs for p in predict_examples(model, run)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fbrnn.evaluation, "BLOCK_TOKENS", cap)
            assert predict_examples(model, [ex for run in runs for ex in run]) == per_sentence

    def test_splits_of_different_sentences_are_rejected(self):
        model = self.model()
        examples = examples_of(0, SEVEN, [(0, 0)]) + examples_of(0, OTHER, [(0, 0)])
        splits = [ex.split for ex in examples]
        with pytest.raises(ValueError, match="different sentences"):
            model.batch_proba([splits])

    def test_no_examples(self):
        model = self.model()
        assert model.batch_proba([[]]).shape == (0, model.head.layers[-1][1].size)
        assert predict_examples(model, []) == []


# ---------------------------------------------------------------------------
# Ablation grid
# ---------------------------------------------------------------------------


def test_a_failed_ablation_cell_keeps_its_message_and_the_others_run(monkeypatch):
    spec = default_synthetic_spec(n_sentences=30)
    train, dev = split_corpus(make_synthetic_corpus(spec, Rng(5)), 0.3, Rng(6))
    real = fbrnn.training.train_model
    trained = []

    def train_model(cfg, *args):
        if (cfg.cell, cfg.use_branch) == ("lstm", False):
            raise NumericError("epoch 1: non-finite gradient in tensor 'head.out.b'")
        trained.append((cfg.cell, cfg.use_branch))
        return real(cfg, *args)

    monkeypatch.setattr(fbrnn.training, "train_model", train_model)
    cfg = fbrnn.training.TrainConfig(hidden_size=4, word_dim=4, branch_dim=2, max_epochs=1)
    grid = run_ablation(train, dev, cfg, spec.label_set())
    failed = grid.get("lstm", False)
    assert failed.report is None
    assert failed.error == "epoch 1: non-finite gradient in tensor 'head.out.b'"
    assert trained == [("lstm", True), ("gru", True), ("gru", False)]
    assert all(grid.get(*cell).report is not None for cell in trained)
    assert "LSTM -branch     failed: epoch 1: non-finite gradient in tensor 'head.out.b'" in (
        grid.format_table().splitlines()
    )
