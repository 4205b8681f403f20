"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every tolerance is pinned here; nothing is deferred.
"""

import time

import numpy as np

from fbrnn.candidates import (
    BranchSplit,
    NuggetCandidate,
    build_examples,
    build_trigger_lexicon,
    expand_candidates,
    extract_single_token_candidates,
    split_branches,
)
from fbrnn.corpus import (
    LabelSet,
    POSITIONAL_EVENT_TYPE,
    default_synthetic_spec,
    make_positional_corpus,
    make_synthetic_corpus,
    split_corpus,
    vocabulary_of,
)
from fbrnn.embeddings import Branch
from fbrnn.evaluation import evaluate_model, f1, run_ablation
from fbrnn.model import (
    BranchEncoder,
    ModelConfig,
    build_model,
    gru_step,
    lstm_step,
    tiny_gradcheck,
)
from fbrnn.numerics import ParamStore, Rng
from fbrnn.training import TrainConfig, load_checkpoint, save_checkpoint, train_model


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


# -- 1. gradient correctness -------------------------------------------------


def test_criterion_1_gradient_correctness():
    combos = [
        ("gru", "softmax", True),
        ("gru", "sigmoid", True),
        ("lstm", "softmax", True),
        ("lstm", "sigmoid", True),
        ("gru", "softmax", False),
    ]
    started = time.perf_counter()
    worst = 0.0
    for cell, head, use_branch in combos:
        rep = tiny_gradcheck(cell, head, use_branch, seed=0)
        assert rep.max_rel_error < 1e-4, (cell, head, use_branch, rep.per_tensor)
        worst = max(worst, rep.max_rel_error)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(1, f"max rel err {worst:.2e} over {len(combos)} configs in {elapsed:.1f}s")


# -- 2. closed-form cell identities ------------------------------------------


def test_criterion_2_zero_weight_cell_identities():
    from fbrnn.model import _build_layer, _layer_specs

    rng = Rng(0)
    store = ParamStore(_layer_specs("g", "gru", 3, 5) + _layer_specs("l", "lstm", 3, 5))
    gru = _build_layer(store, "g", "gru", 3, 5, rng)
    lstm = _build_layer(store, "l", "lstm", 3, 5, rng)
    for layer in (gru, lstm):
        for tensor in vars(layer).values():
            tensor.values.fill(0.0)
    h_prev = np.array([0.3, -1.2, 2.0, 0.0, -0.5])
    c_prev = np.array([1.0, -2.0, 0.25, 4.0, -0.125])
    x = np.array([0.7, -0.1, 0.4])

    h_new, _ = gru_step(x, h_prev, gru)
    assert np.max(np.abs(h_new - 0.5 * h_prev)) < 1e-12

    h_l, c_l, _ = lstm_step(x, h_prev, c_prev, lstm)
    assert np.max(np.abs(c_l - 0.5 * c_prev)) < 1e-12
    assert np.max(np.abs(h_l - 0.5 * np.tanh(0.5 * c_prev))) < 1e-12
    report(2, "zero-weight GRU halves h; LSTM gives c/2 and tanh(c/2)/2 (1e-12)")


# -- 3. direction identity ---------------------------------------------------


def test_criterion_3_direction_identity():
    rng = Rng(33)
    worst = 0.0
    for kind in ("gru", "lstm"):
        store = ParamStore(BranchEncoder.specs(Branch.RIGHT, kind, 4, 6, 1))
        backward_enc = BranchEncoder.build(
            Branch.RIGHT, kind, 4, 6, 1, store, rng
        )
        forward_twin = BranchEncoder(
            Branch.NUGGET, kind, 6, backward_enc.layers, backward=False
        )
        for _ in range(100):
            seq = [np.asarray(rng.uniform(-2, 2, 4)) for _ in range(1 + rng.randint(8))]
            rep_b, _ = backward_enc.encode(seq)
            rep_f, _ = forward_twin.encode(list(reversed(seq)))
            worst = max(worst, float(np.max(np.abs(rep_b - rep_f))))
    assert worst < 1e-12
    report(3, f"backward == forward-on-reversed over 2x100 trials (max diff {worst:.1e})")


# -- 4. memorization ----------------------------------------------------------


def test_criterion_4_memorization():
    spec = default_synthetic_spec(n_sentences=250)
    corpus = make_synthetic_corpus(spec, Rng(0xFB12))
    labels = spec.label_set()
    train, dev = split_corpus(corpus, 0.2, Rng(0xFB13))
    assert (len(train), len(dev)) == (200, 50)
    multi_token = sum(
        1 for s in train for n in s.nuggets if n.end > n.start
    )
    assert multi_token > 0, "corpus must contain verb+particle nuggets"

    lexicon = build_trigger_lexicon(train)
    train_ex = build_examples(train, lexicon, labels, 3)
    dev_ex = build_examples(dev, lexicon, labels, 3)
    cfg = TrainConfig(
        cell="gru",
        hidden_size=24,
        word_dim=16,
        branch_dim=8,
        dropout=0.5,
        lr=1e-3,
        max_epochs=50,
        patience=8,
        seed=7,
    )
    started = time.perf_counter()
    model, log = train_model(cfg, train_ex, dev_ex, dev, vocabulary_of(train), labels)
    elapsed = time.perf_counter() - started

    train_f1 = evaluate_model(model, train_ex, train).f1
    dev_f1 = evaluate_model(model, dev_ex, dev).f1
    assert len(log.epochs) <= 50
    assert elapsed < 300.0
    assert train_f1 >= 0.99
    assert dev_f1 >= 0.90
    report(
        4,
        f"train F1 {train_f1:.3f}, dev F1 {dev_f1:.3f} "
        f"in {len(log.epochs)} epochs / {elapsed:.1f}s",
    )


# -- 5. reported-table arithmetic ----------------------------------------------


def test_criterion_5_percentage_f1_arithmetic():
    rows = [
        (66.8, 68.0, 67.4),
        (71.9, 63.8, 67.6),
        (75.23, 47.74, 58.41),
        (73.95, 46.61, 57.18),
        (73.68, 44.94, 55.83),
        (73.73, 44.57, 55.56),
        (71.06, 43.50, 53.97),
        (71.58, 48.19, 57.61),
    ]
    for p, r, expected in rows:
        got = f1(p, r)
        assert abs(got - expected) <= 0.05, (p, r, got, expected)
    report(5, f"{len(rows)} published-style P/R pairs reproduce their F1 within 0.05")


# -- 6. candidate-generation fidelity -----------------------------------------


def test_criterion_6_candidate_fidelity(break_in_sentence):
    from fbrnn.candidates import TriggerLexicon

    lex = TriggerLexicon()
    lex.add_gold("broken")
    cands = extract_single_token_candidates(break_in_sentence, lex)
    cands = expand_candidates(break_in_sentence, cands, max_len=3)
    assert [c.span for c in cands] == [(4, 4), (4, 5)]

    split = split_branches(break_in_sentence, NuggetCandidate(4, 5))
    assert split.left == ("an", "unknown", "man", "had")
    assert split.nugget == ("broken", "into")
    assert split.right == ("a", "house", "last", "November")
    report(6, "spans (4,4)+(4,5) and the exact three-way split recovered")


# -- 7. ablation protocol ------------------------------------------------------


def test_criterion_7_ablation_grid():
    corpus = make_positional_corpus(160, Rng(0xAB1))
    labels = LabelSet([POSITIONAL_EVENT_TYPE])
    train, dev = split_corpus(corpus, 0.25, Rng(0xAB2))
    cfg = TrainConfig(
        cell="gru",
        hidden_size=16,
        word_dim=12,
        branch_dim=6,
        dropout=0.2,
        lr=3e-3,
        max_epochs=30,
        patience=8,
        max_nugget_len=1,
        seed=11,
    )
    grid = run_ablation(train, dev, cfg, labels)
    table = grid.format_table()
    assert len(grid.cells) == 4
    assert {(c.cell, c.use_branch) for c in grid.cells} == {
        ("lstm", True),
        ("lstm", False),
        ("gru", True),
        ("gru", False),
    }
    assert all(c.report is not None for c in grid.cells)
    assert len(table.splitlines()) == 6  # header + rule + 4 rows

    plus = grid.get("gru", True).report.f1
    minus = grid.get("gru", False).report.f1
    assert plus >= minus
    print(table)
    report(7, f"4-cell grid complete; GRU +branch F1 {plus:.3f} >= -branch {minus:.3f}")


# -- 8. determinism and persistence ---------------------------------------------


def test_criterion_8_determinism_and_persistence(tmp_path):
    spec = default_synthetic_spec(n_sentences=60)
    corpus = make_synthetic_corpus(spec, Rng(500))
    labels = spec.label_set()
    train, dev = split_corpus(corpus, 0.2, Rng(501))
    lexicon = build_trigger_lexicon(train)
    train_ex = build_examples(train, lexicon, labels, 3)
    dev_ex = build_examples(dev, lexicon, labels, 3)
    cfg = TrainConfig(
        cell="gru",
        hidden_size=10,
        word_dim=8,
        branch_dim=4,
        dropout=0.3,
        max_epochs=3,
        patience=3,
        seed=99,
    )
    vocab = vocabulary_of(train)
    model_a, log_a = train_model(cfg, train_ex, dev_ex, dev, vocab, labels)
    model_b, log_b = train_model(cfg, train_ex, dev_ex, dev, vocab, labels)
    csv_a, csv_b = log_a.to_csv(), log_b.to_csv()
    assert csv_a.encode() == csv_b.encode()
    assert len(log_a.epochs) == 3

    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model_a, lexicon=lexicon, max_nugget_len=3)
    loaded = load_checkpoint(path).model
    for ex in dev_ex:
        assert np.array_equal(
            model_a.predict_proba(ex.split), loaded.predict_proba(ex.split)
        )
        assert model_a.predict(ex.split) == loaded.predict(ex.split)
    report(
        8,
        f"3-epoch logs byte-identical; {len(dev_ex)} round-trip predictions bit-exact",
    )


# -- 9. multi-label capability ---------------------------------------------------


def test_criterion_9_multi_label_sigmoid(tmp_path):
    labels = LabelSet(["Conflict.Attack", "Movement.Transport", "Contact.Meet"])
    cfg = ModelConfig(
        hidden_size=4, word_dim=5, branch_dim=2, head_mode="sigmoid", dropout=0.0
    )
    model = build_model(cfg, ["they", "crossed", "over", "armed"], labels, Rng(1))
    # construct a head that asserts two types for any input
    for name in model.store.names():
        if name.startswith("head."):
            model.store[name].values.fill(0.0)
    model.store["head.out.b"].values[:] = [10.0, 10.0, -10.0]

    path = tmp_path / "sigmoid.json"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path).model
    split = BranchSplit(("they",), ("crossed", "over"), ("armed",))
    predicted = loaded.predict(split, threshold=0.5)
    assert predicted == ("Conflict.Attack", "Movement.Transport")

    probs = loaded.predict_proba(split)
    assert (probs > 0.5).sum() == 2
    report(9, f"sigmoid head emits both types {predicted} above threshold")
