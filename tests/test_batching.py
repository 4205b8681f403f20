"""Minibatches: one recurrence per branch over B sequences of mixed length.

The batched forward and backward must give the gradient of the summed
per-example losses: checked against central differences on padded batches
with empty branches, and against the per-example passes it replaced.
"""

from itertools import chain

import numpy as np
import pytest

from fbrnn.candidates import BranchSplit, build_examples, build_trigger_lexicon
from fbrnn.corpus import LabelSet, default_synthetic_spec, make_synthetic_corpus, vocabulary_of
from fbrnn.embeddings import Branch
from fbrnn.errors import NumericError
from fbrnn.model import BranchEncoder, ModelConfig, build_model
from fbrnn.numerics import Optimizer, ParamStore, Rng, grad_check
from fbrnn.training import TrainConfig, _epoch_order, train_model

LONG = ("officials", "had", "slipped", "past", "the", "checkpoint")
SHORT = ("the", "guards", "fired")
ONE = ("attack",)
TYPES = ("TypeA", "TypeB", "TypeC")


def split(tokens, start, end):
    return BranchSplit(tokens[:start], tokens[start : end + 1], tokens[end + 1 :])


# Mixed lengths in every branch: a candidate at token 0 (empty LEFT), one
# ending at the last token (empty RIGHT), a 1-token sentence (both empty),
# and "the" in several examples and branches.
BATCH = [
    (split(LONG, 0, 0), ()),
    (split(LONG, 2, 3), ("TypeB",)),
    (split(LONG, 5, 5), ()),
    (split(ONE, 0, 0), ("TypeA",)),
    (split(SHORT, 2, 2), ("TypeC", "TypeA")),
    (split(SHORT, 0, 1), ()),
]
SPLITS = [s for s, _ in BATCH]
GOLD = [t for _, t in BATCH]

CONFIGS = [
    dict(cell=cell, layers=layers, head_mode=head, use_branch=branch)
    for cell in ("gru", "lstm")
    for layers in (1, 2)
    for head in ("softmax", "sigmoid")
    for branch in (True, False)
]


def config_id(c):
    branch = "branch" if c["use_branch"] else "nobranch"
    return f"{c['cell']}-{c['layers']}l-{c['head_mode']}-{branch}"


def make_model(dropout=0.0, seed=4, **over):
    cfg = ModelConfig(hidden_size=2, word_dim=3, branch_dim=2, dropout=dropout, **over)
    return build_model(cfg, LONG + SHORT + ONE, LabelSet(TYPES), Rng(seed))


def grads(model):
    return {t.name: t.grad.copy() for t in model.store}


def max_rel_diff(a, b):
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def test_batch_layout_is_mixed():
    lengths = [[len(getattr(s, part)) for s in SPLITS] for part in ("left", "nugget", "right")]
    assert len(SPLITS) >= 5
    for branch in lengths:
        assert len(set(branch)) >= 2
    assert lengths[0][0] == 0 and lengths[2][2] == 0  # empty LEFT, empty RIGHT
    assert sum(s.tokens.count("the") for s in SPLITS) > 1


def branchwise_forward(model, splits):
    """Each branch's `encode(..., lengths=...)` representations of the
    splits, concatenated, through the head: the formula the model's pass
    replaces by reading packed rows."""
    reps = []
    for branch in (Branch.LEFT, Branch.NUGGET, Branch.RIGHT):
        texts = [getattr(s, branch.name.lower()) for s in splits]
        rows = model.embedder.word.rows(tuple(chain.from_iterable(texts)))
        inputs, _, index = model.embedder.assemble_input(rows, branch)
        lengths = [len(t) for t in texts]
        reps.append(model.encoders[branch].encode(inputs, lengths=lengths, index=index)[0])
    return model.head.forward(np.concatenate(reps, axis=1))[0]


@pytest.mark.parametrize("over", CONFIGS, ids=config_id)
def test_padded_batch_gradcheck(over):
    """The batched gradient against central differences of the summed
    per-example losses: every parameter of every branch and the head. The
    forward pass differentiated is, bit for bit, the branchwise formula."""
    model = make_model(**over)
    assert model.forward(SPLITS)[0].tobytes() == branchwise_forward(model, SPLITS).tobytes()
    model.forward_backward(SPLITS, GOLD)

    def loss_fn():  # the batched forward of the same sum, to keep the check fast
        probs, _ = model.forward(SPLITS)
        return sum(model._losses(probs, GOLD)[0])

    report = grad_check(loss_fn, model.store, eps=2e-4)
    assert report.max_rel_error < 1e-4, report.per_tensor


# "the" twice in one LEFT, and in LEFT, NUGGET and RIGHT of one example;
# "guards" in LEFT and RIGHT: each branch reads fewer distinct words than tokens.
REPEATS = ("the", "guards", "the", "attack", "the", "fired", "the", "guards")
REPEAT_BATCH = [
    (split(REPEATS, 4, 4), ("TypeA",)),
    (split(REPEATS, 2, 3), ()),
    (split(REPEATS, 0, 0), ("TypeC", "TypeB")),
    (split(SHORT, 0, 2), ()),
]


@pytest.mark.parametrize("over", CONFIGS, ids=config_id)
def test_repeated_words_gradcheck(over):
    """Words repeated within a branch and across the three branches: each
    distinct word's gradient is the sum over all of its tokens."""
    model = make_model(**over)
    splits, gold = zip(*REPEAT_BATCH)
    _, cache = model.forward(splits)
    for branch in Branch:
        assert len(cache.rows[branch]) < cache.enc[branch].layout.n_rows, branch
    model.forward_backward(splits, gold)

    def loss_fn():
        probs, _ = model.forward(splits)
        return sum(model._losses(probs, gold)[0])

    report = grad_check(loss_fn, model.store, eps=2e-4)
    assert report.max_rel_error < 1e-4, report.per_tensor


@pytest.mark.parametrize("cell", ["gru", "lstm"])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("backward", [False, True], ids=["reads-forward", "reads-backward"])
def test_distinct_rows_match_the_token_matrix(cell, layers, backward):
    """`encode(rows, index=index)` against `encode(rows[index])` at the
    paper's input width. Layer 0's projection is one product over U rows,
    not N, whose rows the BLAS may round otherwise: every state is within
    1e-13 of the largest (measured up to 2.2e-15 with one BLAS thread and
    with two). `backprop`'s (U, d_in) gradient is within 1e-12 relative of
    the token-wise (N, d_in) gradient summed per distinct row, and so are
    the weight gradients: each row's tokens are summed in another order
    (measured up to 1.5e-15)."""
    d_in, hidden = 320, 32
    rng = Rng(5)
    branch = Branch.RIGHT if backward else Branch.LEFT
    store = ParamStore(BranchEncoder.specs(branch, cell, d_in, hidden, layers))
    enc = BranchEncoder.build(branch, cell, d_in, hidden, layers, store, rng)
    for layer in enc.layers:
        layer.b.values[:] = rng.uniform(-1, 1, layer.b.size)
    lengths = [9, 0, 23, 1, 14, 23]
    rows = np.asarray(rng.uniform(-1, 1, 11 * d_in)).reshape(11, d_in)
    index = list(range(11)) + [rng.randint(11) for _ in range(sum(lengths) - 11)]
    rng.shuffle(index)  # every row read, most of them more than once
    index = np.array(index)
    _, distinct = enc.encode(rows, lengths=lengths, index=index)
    _, tokens = enc.encode(rows[index], lengths=lengths)
    for a, b in zip(distinct.states + distinct.cells, tokens.states + tokens.cells):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
    readout = np.asarray(rng.uniform(-1, 1, tokens.outputs.size)).reshape(tokens.outputs.shape)
    d_rows = enc.backprop(readout, distinct)
    distinct_grads = {t.name: t.grad.copy() for t in store}
    store.zero_grads()
    d_tokens = enc.backprop(readout, tokens)
    assert d_rows.shape == rows.shape and d_tokens.shape == (len(index), d_in)
    summed = np.zeros_like(rows)
    np.add.at(summed, index, d_tokens)
    assert max_rel_diff(d_rows, summed) <= 1e-12
    for t in store:
        assert max_rel_diff(distinct_grads[t.name], t.grad) <= 1e-12, t.name


@pytest.mark.parametrize("head_mode", ["softmax", "sigmoid"])
@pytest.mark.parametrize("head_hidden", [(), (5,), (5, 4)], ids=["0tanh", "1tanh", "2tanh"])
def test_head_depth_gradcheck(head_hidden, head_mode):
    """The head's one reverse loop with no tanh layer below the output
    layer, and with two, on the padded batch."""
    model = make_model(head_hidden=head_hidden, head_mode=head_mode)
    assert len(model.head.layers) == len(head_hidden) + 1
    model.forward_backward(SPLITS, GOLD)

    def loss_fn():
        probs, _ = model.forward(SPLITS)
        return sum(model._losses(probs, GOLD)[0])

    report = grad_check(loss_fn, model.store, eps=2e-4)
    assert report.max_rel_error < 1e-4, report.per_tensor


def test_head_store_names_follow_the_layer_list():
    model = make_model(head_hidden=(5, 4))
    names = [n for n in model.store.names() if n.startswith("head.")]
    assert names == ["head.l0.W", "head.l0.b", "head.l1.W", "head.l1.b", "head.out.W", "head.out.b"]
    assert [(W.name, b.name) for W, b in model.head.layers] == [
        ("head.l0.W", "head.l0.b"), ("head.l1.W", "head.l1.b"), ("head.out.W", "head.out.b")
    ]
    assert [W.values.shape for W, _ in model.head.layers] == [(5, 6), (4, 5), (4, 4)]


@pytest.mark.parametrize("over", CONFIGS, ids=config_id)
def test_batched_gradient_is_the_sum_of_per_example_gradients(over):
    """Only the summation order differs: within 1e-12 of the largest entry."""
    model = make_model(**over)
    losses = model.forward_backward(SPLITS, GOLD)
    batched = grads(model)
    model.store.zero_grads()
    singles = [model.forward_backward([s], [t])[0] for s, t in BATCH]
    for name, g in grads(model).items():
        assert max_rel_diff(batched[name], g) <= 1e-12, name
    assert np.max(np.abs(np.subtract(losses, singles))) <= 1e-12 * max(singles)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("backward", [False, True], ids=["reads-forward", "reads-backward"])
def test_backprop_from_every_packed_row_gradcheck(cell, layers, backward):
    """Gradient entering at every packed row, not only at each sequence's
    last state, over sequences of mixed length, 0 and 1 among them: the
    loss sum_r readout_r . outputs[r] against central differences, for
    every parameter and every input entry."""
    rng = Rng(31)
    branch = Branch.RIGHT if backward else Branch.LEFT
    store = ParamStore(BranchEncoder.specs(branch, cell, 3, 2, layers))
    enc = BranchEncoder.build(branch, cell, 3, 2, layers, store, rng)
    for layer in enc.layers:
        layer.b.values[:] = rng.uniform(-1, 1, layer.b.size)
    lengths = [3, 0, 1, 4, 1, 2]
    inputs = rng.uniform(-1, 1, 3 * sum(lengths)).reshape(-1, 3)
    _, cache = enc.encode(inputs, lengths=lengths)
    readout = rng.uniform(-1, 1, cache.outputs.size).reshape(cache.outputs.shape)
    d_inputs = enc.backprop(readout, cache)

    def loss_fn():
        return float(np.sum(enc.encode(inputs, lengths=lengths)[1].outputs * readout))

    eps = 1e-5
    numeric = np.empty_like(inputs)
    for i in np.ndindex(inputs.shape):
        orig = inputs[i]
        inputs[i] = orig + eps
        f_plus = loss_fn()
        inputs[i] = orig - eps
        f_minus = loss_fn()
        inputs[i] = orig
        numeric[i] = (f_plus - f_minus) / (2 * eps)
    assert max_rel_diff(d_inputs, numeric) < 1e-7
    report = grad_check(loss_fn, store, eps=2e-4)
    assert report.max_rel_error < 1e-4, report.per_tensor


# Every split of a batch with its LEFT (RIGHT) empty: that branch's encoder
# runs on zero rows over several sequences. "attack" is read by neither.
EMPTY_PART_BATCHES = {
    Branch.LEFT: [
        (split(LONG, 0, 0), ("TypeB",)),
        (split(LONG, 0, 2), ()),
        (split(SHORT, 0, 2), ("TypeC", "TypeA")),
    ],
    Branch.RIGHT: [
        (split(LONG, 5, 5), ()),
        (split(LONG, 3, 5), ("TypeA",)),
        (split(SHORT, 1, 2), ("TypeB",)),
    ],
}


@pytest.mark.parametrize("empty", [Branch.LEFT, Branch.RIGHT], ids=["left", "right"])
@pytest.mark.parametrize("over", CONFIGS, ids=config_id)
def test_a_branch_empty_in_every_split_takes_the_common_path(over, empty):
    """The batched gradient is the sum of the per-example ones; the empty
    branch's encoder tensors and branch row receive exactly zero, and the
    word rows reached are those the other branches read."""
    model = make_model(**over)
    batch = EMPTY_PART_BATCHES[empty]
    splits, gold = zip(*batch)
    assert not any(getattr(s, empty.name.lower()) for s in splits)
    losses = model.forward_backward(splits, gold)
    batched = grads(model)
    prefix = empty.name.lower() + "."
    for name, g in batched.items():
        if name.startswith(prefix):
            assert not g.any(), name
    if over["use_branch"]:
        assert not batched["branch_emb"][empty].any()
    read = model.embedder.word.rows(chain.from_iterable(s.tokens for s in splits))
    reached = np.flatnonzero(model.store["word_emb"].reached)
    assert reached.tolist() == sorted(set(read))
    assert model.embedder.word.rows(ONE)[0] not in read
    model.store.zero_grads()
    singles = [model.forward_backward([s], [t])[0] for s, t in batch]
    for name, g in grads(model).items():
        assert max_rel_diff(batched[name], g) <= 1e-12, name
    assert np.max(np.abs(np.subtract(losses, singles))) <= 1e-12 * max(singles)


@pytest.mark.parametrize("over", CONFIGS, ids=config_id)
def test_batch_proba_of_candidates_at_a_sentence_edge(over):
    """One group whose candidates all start at token 0 (no LEFT), one whose
    candidates all end at the last token (no RIGHT) and a whole sentence:
    each row equals `predict_proba` of its split."""
    model = make_model(**over)
    groups = [
        [split(LONG, 0, 0), split(LONG, 0, 1), split(LONG, 0, 3)],
        [split(LONG, 5, 5), split(LONG, 4, 5)],
        [split(SHORT, 0, 2)],
    ]
    batched = model.batch_proba(groups)
    singles = np.array([model.predict_proba(s) for group in groups for s in group])
    np.testing.assert_allclose(batched, singles, rtol=0, atol=1e-12)


@pytest.mark.parametrize("over", CONFIGS, ids=config_id)
def test_each_branch_block_is_what_encode_returns_for_its_sequences(over):
    """The model pass's representation rows, block by block, against one
    `encode` per branch over the sequences its docstring names: NUGGET
    every candidate's span, LEFT each group's tokens before its last
    candidate start, RIGHT those after its first candidate end. A
    candidate's block is, bit for bit, its sequence's state after its
    part's last token, and zero for an empty part. The groups hold empty
    LEFT and RIGHT parts, alone and beside non-empty ones."""
    model = make_model(**over)
    groups = [
        [split(LONG, 0, 0), split(LONG, 2, 3), split(LONG, 5, 5)],
        [split(LONG, 0, 1), split(LONG, 0, 3)],
        [split(SHORT, 1, 2), split(SHORT, 2, 2)],
        [split(ONE, 0, 0)],
        [split(SHORT, 0, 1)],
    ]
    _, cache = model._forward(groups, keep=True)
    reps = cache.head.acts[0]  # the head's input: no rng, so no dropout
    h = model.cfg.hidden_size
    for b in Branch:
        parts = [[getattr(s, b.name.lower()) for s in group] for group in groups]
        if b is Branch.NUGGET:  # (candidate, its sequence, its part's length)
            seqs = list(chain.from_iterable(parts))
            reads = [(k, k, len(part)) for k, part in enumerate(seqs)]
        else:
            seqs = [max(group, key=len) for group in parts]
            group_of = [g for g, group in enumerate(parts) for _ in group]
            reads = [(k, group_of[k], len(part))
                     for k, part in enumerate(chain.from_iterable(parts))]
        rows = model.embedder.word.rows(chain.from_iterable(seqs))
        inputs, _, index = model.embedder.assemble_input(rows, b)
        _, enc = model.encoders[b].encode(inputs, lengths=[len(q) for q in seqs], index=index)
        for k, seq, n in reads:
            block = reps[k, b * h : (b + 1) * h]
            expected = enc.outputs[enc.layout.row(n - 1, seq)] if n else np.zeros(h)
            assert block.tobytes() == expected.tobytes(), (b, k)
        assert any(n == 0 for _, _, n in reads) is (b is not Branch.NUGGET)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_dropout_masks_follow_the_per_example_stream(cell):
    """A batch draws its masks in example order: the same masks, the same
    rng state afterwards and the same gradients as B per-example passes."""
    model = make_model(dropout=0.5, cell=cell, layers=2)
    _, cache = model.forward(SPLITS, Rng(17))
    per_example = Rng(17)
    for k, s in enumerate(SPLITS):
        _, single = model.forward([s], per_example)
        assert single.head.mask[0].tobytes() == cache.head.mask[k].tobytes(), k

    rng = Rng(17)
    model.forward_backward(SPLITS, GOLD, rng)
    batched = grads(model)
    model.store.zero_grads()
    reference = Rng(17)
    for s, t in BATCH:
        model.forward_backward([s], [t], reference)
    after = rng.random(4).tobytes()
    assert after == reference.random(4).tobytes() == per_example.random(4).tobytes()
    for name, g in grads(model).items():
        assert max_rel_diff(batched[name], g) <= 1e-12, name


def test_non_finite_loss_names_the_first_bad_example():
    """Row k of every batched product depends on example k alone, so a NaN
    word row poisons exactly the examples that use it; the error names the
    first and no gradient has been accumulated."""
    model = make_model()
    model.store["word_emb"].values[model.embedder.word.rows(["guards"])] = np.nan
    with pytest.raises(NumericError, match="non-finite loss") as info:
        model.forward_backward(SPLITS, GOLD)
    assert info.value.position == 4
    assert not model.store.grad.any()
    assert np.isfinite(model.forward(SPLITS[:4])[0]).all()


# -- the training loop: one forward_backward call per minibatch --------------


@pytest.fixture(scope="module")
def data():
    spec = default_synthetic_spec(n_sentences=30)
    corpus = make_synthetic_corpus(spec, Rng(100))
    labels = spec.label_set()
    lexicon = build_trigger_lexicon(corpus)
    return build_examples(corpus, lexicon, labels, 3), vocabulary_of(corpus), labels


def per_example_reference(cfg, examples, vocab, labels):
    """Training as a loop over single examples: accumulate `batch_size`
    per-example gradients, then step. Returns (parameters, epoch losses)."""
    rng = Rng(cfg.seed)
    model = build_model(cfg.model_config(), list(vocab), labels, rng)
    opt = Optimizer(
        model.store, kind=cfg.optimizer, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
        eps=cfg.eps, clip_norm=cfg.clip_norm,
    )
    losses = []
    for _ in range(cfg.max_epochs):
        order = _epoch_order(examples, rng, cfg.negative_ratio)
        total = 0.0
        for pos, i in enumerate(order):
            ex = examples[i]
            total += model.forward_backward([ex.split], [ex.candidate.types], rng)[0]
            if (pos + 1) % cfg.batch_size == 0 or pos == len(order) - 1:
                opt.step()
                model.store.zero_grads()
        losses.append(total / len(order))
    return model.store.values, losses


def train(cfg, data):
    examples, vocab, labels = data
    with pytest.warns(UserWarning, match="no dev set"):
        model, log = train_model(cfg, examples, None, None, vocab, labels)
    return model.store.values, [e.loss for e in log.epochs]


TRAIN_CFG = dict(
    hidden_size=4, word_dim=5, branch_dim=2, dropout=0.3, lr=3e-3, max_epochs=2, seed=3
)


@pytest.mark.parametrize("over", [{}, {"cell": "lstm", "layers": 2, "head_mode": "sigmoid"}])
def test_batch_size_one_is_bit_identical_to_the_per_example_loop(data, over):
    cfg = TrainConfig(batch_size=1, **TRAIN_CFG, **over)
    values, losses = train(cfg, data)
    ref_values, ref_losses = per_example_reference(cfg, *data)
    assert values.tobytes() == ref_values.tobytes()
    assert losses == ref_losses


def test_minibatches_match_the_per_example_loop(data):
    """Batch 8 with a short last batch: the same steps, up to summation
    order (measured about 1e-16 relative; the bound leaves room for Adam)."""
    cfg = TrainConfig(batch_size=8, **TRAIN_CFG)
    assert len(data[0]) % 8
    values, losses = train(cfg, data)
    ref_values, ref_losses = per_example_reference(cfg, *data)
    assert max_rel_diff(values, ref_values) <= 1e-10
    assert max_rel_diff(np.array(losses), np.array(ref_losses)) <= 1e-10
