"""Word/branch embedding tables, the word2vec text loader, input assembly."""

from pathlib import Path

import numpy as np
import pytest

from fbrnn.candidates import BranchSplit
from fbrnn.corpus import LabelSet
from fbrnn.embeddings import (
    Branch,
    Embedder,
    UNK,
    WordTable,
    load_pretrained,
)
from fbrnn.errors import ConfigurationError, DataError
from fbrnn.model import ModelConfig, build_model
from fbrnn.numerics import ParamStore, Rng, init_uniform_scaled

FIXTURES = Path(__file__).parent / "fixtures"
MINI_W2V = FIXTURES / "mini_word2vec.txt"


class TestLoadPretrained:
    def test_fixture_loads(self):
        vectors = load_pretrained(MINI_W2V, 8)
        assert len(vectors) == 100
        assert "broken" in vectors
        assert vectors["broken"].shape == (8,)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DataError, match="dimension"):
            load_pretrained(MINI_W2V, 300)

    def test_malformed_line_names_lineno(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\nalpha 0.1 0.2 0.3\nbeta 0.1 0.2\n")
        with pytest.raises(DataError, match="bad.txt:3"):
            load_pretrained(path, 3)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\nalpha 0.1 0.2\n")
        with pytest.raises(DataError, match="declares 3"):
            load_pretrained(path, 2)

    def test_blank_lines_between_vectors_are_skipped(self, tmp_path):
        dense, spaced = tmp_path / "dense.txt", tmp_path / "spaced.txt"
        dense.write_text("2 2\nalpha 0.1 0.2\nbeta 0.3 0.4\n")
        spaced.write_text("2 2\nalpha 0.1 0.2\n\nbeta 0.3 0.4\n")
        expected, got = load_pretrained(dense, 2), load_pretrained(spaced, 2)
        assert list(got) == list(expected) == ["alpha", "beta"]
        assert all(np.array_equal(got[w], expected[w]) for w in expected)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\nalpha 0.1 oops\n")
        with pytest.raises(DataError, match="bad.txt:2"):
            load_pretrained(path, 2)


def build_table(words, dim, rng, pretrained=None):
    """A word table in a store of its own, declared by `WordTable.spec`."""
    store = ParamStore([WordTable.spec(words, dim)])
    return WordTable.build(words, dim, rng, store, pretrained)


class TestWordTable:
    def test_pretrained_row_copied(self):
        vectors = load_pretrained(MINI_W2V, 8)
        table = build_table([UNK, "broken", "zzz-novel"], 8, Rng(0), vectors)
        [row] = table.rows(["broken"])
        assert np.array_equal(table.tensor.values[row], vectors["broken"])
        assert table.pretrained_hits == 1
        assert table.oov_words == ("zzz-novel",)

    def test_oov_row_comes_from_initializer(self):
        vectors = load_pretrained(MINI_W2V, 8)
        with_pre = build_table([UNK, "zzz-novel"], 8, Rng(4), vectors)
        without = build_table([UNK, "zzz-novel"], 8, Rng(4), None)
        [row] = with_pre.rows(["zzz-novel"])
        assert np.array_equal(with_pre.tensor.values[row], without.tensor.values[row])

    def test_first_file_entry_of_a_lowercase_form_wins(self):
        first, second = np.full(4, 1.0), np.full(4, 2.0)
        for pretrained in ({"Alpha": first, "alpha": second}, {"alpha": first, "ALPHA": second}):
            table = build_table([UNK, "alpha"], 4, Rng(0), pretrained)
            assert np.array_equal(table.tensor.values[1], first)
            assert table.pretrained_hits == 1 and table.oov_words == ()

    @pytest.mark.parametrize("spelling", [UNK, UNK.upper()])
    def test_an_unk_entry_never_overwrites_row_zero(self, spelling):
        table = build_table([UNK, "alpha"], 4, Rng(3), {spelling: np.full(4, 9.0)})
        drawn = build_table([UNK, "alpha"], 4, Rng(3))
        assert np.array_equal(table.tensor.values, drawn.tensor.values)
        assert table.pretrained_hits == 0 and table.oov_words == ("alpha",)

    def test_hits_and_oov_words_are_exact(self):
        """Hits count the vocabulary rows written from the file; the OOV
        words are the other rows but UNK, in vocabulary order."""
        words = [UNK, "zulu", "mike", "alpha", "kilo", "bravo"]
        vec = {w: np.full(4, float(k)) for k, w in enumerate(("BRAVO", "x-ray", "mike", UNK))}
        table = build_table(words, 4, Rng(1), vec)
        drawn = build_table(words, 4, Rng(1))
        assert table.pretrained_hits == 2
        assert table.oov_words == ("zulu", "alpha", "kilo")
        assert np.array_equal(table.tensor.values[2], vec["mike"])
        assert np.array_equal(table.tensor.values[5], vec["BRAVO"])
        for row in (0, 1, 3, 4):
            assert np.array_equal(table.tensor.values[row], drawn.tensor.values[row])

    def test_unknown_word_maps_to_unk_row(self):
        table = build_table([UNK, "alpha"], 4, Rng(0))
        assert table.rows(["never-seen", "alpha"]) == [0, 1]

    def test_lookup_lowercases(self):
        table = build_table([UNK, "november"], 4, Rng(0))
        upper, lower = table.rows(["NOVEMBER", "november"])
        assert upper == lower != 0

    def test_duplicate_words_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate words"):
            build_table([UNK, "alpha", "alpha"], 4, Rng(0))

    def test_word_list_must_start_with_unk(self):
        with pytest.raises(ConfigurationError):
            WordTable.spec(["alpha", UNK], 4)


class TestAssembly:
    def build_embedder(self, d_w=300, d_b=20):
        words = [UNK, "alpha", "beta"]
        store = ParamStore([WordTable.spec(words, d_w), ("branch_emb", (3, d_b))])
        rng = Rng(1)
        word = WordTable.build(words, d_w, rng, store)
        branch = store["branch_emb"]
        init_uniform_scaled(branch.values, rng)
        return Embedder(word, branch)

    @staticmethod
    def assemble(emb, words, branch):
        return emb.assemble_input(emb.word.rows(words), branch)

    def test_concatenated_width(self):
        emb = self.build_embedder(300, 20)
        x, rows, index = self.assemble(emb, ("alpha", "beta", "gamma"), Branch.LEFT)
        assert x.shape == (3, 320)
        assert rows[index].tolist() == [1, 2, 0]  # the unknown word maps to UNK
        two_rows = ParamStore([("branch_emb", (2, 20))])["branch_emb"]
        with pytest.raises(ConfigurationError, match="branch table must have 3 rows"):
            Embedder(emb.word, two_rows)

    def test_rows_are_word_row_then_branch_row(self):
        emb = self.build_embedder(8, 3)
        x, rows, index = self.assemble(emb, ("beta", "alpha", "beta"), Branch.NUGGET)
        for t, row in enumerate(rows[index]):
            assert np.array_equal(x[index[t], :8], emb.word.tensor.values[row])
            assert np.array_equal(x[index[t], 8:], emb.branch.values[Branch.NUGGET])

    def test_each_distinct_word_is_one_row(self):
        """Tokens of one word share its row: rows in order of first use, each once."""
        emb = self.build_embedder(8, 3)
        x, rows, index = self.assemble(
            emb, ("beta", "gamma", "alpha", "beta", "delta", "Beta"), Branch.LEFT
        )
        assert rows.tolist() == [2, 0, 1] and x.shape == (3, 11)
        assert index.tolist() == [0, 1, 2, 0, 1, 0] and index.dtype == np.intp
        assert np.array_equal(x[:, :8], emb.word.tensor.values[rows])

    def test_same_word_different_branch(self):
        emb = self.build_embedder(8, 3)
        left, _, _ = self.assemble(emb, ("alpha",), Branch.LEFT)
        nugget, _, _ = self.assemble(emb, ("alpha",), Branch.NUGGET)
        assert np.array_equal(left[:, :8], nugget[:, :8])
        assert not np.array_equal(left[:, 8:], nugget[:, 8:])

    def test_branch_disabled_width(self):
        word = build_table([UNK, "alpha"], 300, Rng(0))
        emb = Embedder(word, None)
        x, _, index = self.assemble(emb, ("alpha", "alpha"), Branch.RIGHT)
        assert x.shape == (1, 300) and index.tolist() == [0, 0]
        x[0, 0] += 1.0  # a copy, not a view of the table
        assert x[0, 0] != word.tensor.values[1, 0]

    def test_empty_branch(self):
        with_branch = self.build_embedder(4, 2)
        no_tokens = with_branch.word.rows(())
        assert no_tokens == []
        for emb in (with_branch, Embedder(with_branch.word, None)):
            d_in = emb.input_dim
            d_empty = np.zeros((0, d_in))
            x, rows, index = emb.assemble_input(no_tokens, Branch.LEFT)
            emb.accumulate_grad(rows, Branch.LEFT, d_empty)
            assert x.shape == (0, d_in)
            for a in (rows, index):
                assert a.shape == (0,) and a.dtype == np.intp
        assert not with_branch.word.tensor.grad.any()
        assert not with_branch.branch.grad.any()

    def test_grad_routing(self):
        emb = self.build_embedder(4, 2)
        _, rows, _ = self.assemble(emb, ("beta",), Branch.RIGHT)
        d_inputs = np.arange(6, dtype=float).reshape(1, 6)
        emb.accumulate_grad(rows, Branch.RIGHT, d_inputs)
        assert np.array_equal(emb.word.tensor.grad[rows[0]], [0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(emb.branch.grad[Branch.RIGHT], [4.0, 5.0])

    def test_distinct_word_rows_are_added_once(self):
        """A repeated word is one input row, whose gradient (already summed
        over its tokens by the encoder) is added to its table row once; the
        branch row receives the sum over the distinct rows, in row order."""
        emb = self.build_embedder(4, 2)
        _, rows, index = self.assemble(emb, ("beta", "alpha", "beta"), Branch.LEFT)
        assert rows.tolist() == [2, 1] and index.tolist() == [0, 1, 0]
        d_inputs = np.asarray(Rng(4).uniform(-1, 1, 12)).reshape(2, 6)
        emb.accumulate_grad(rows, Branch.LEFT, d_inputs)
        beta, alpha = emb.word.tensor.grad[2], emb.word.tensor.grad[1]
        assert np.array_equal(beta, d_inputs[0, :4])
        assert np.array_equal(alpha, d_inputs[1, :4])
        branch = emb.branch.grad[Branch.LEFT]
        assert np.array_equal(branch, (0.0 + d_inputs[0, 4:]) + d_inputs[1, 4:])
        assert emb.word.tensor.reached.tolist() == [False, True, True]

    def test_scatter_matches_a_per_token_loop(self):
        """Per-row sums against adding token by token: a word repeated
        within a branch and across branches, onto gradients that are not
        zero. Only the summation order differs (a row's tokens are summed
        before they meet the table row), so within 1e-13; measured about
        1e-15."""
        emb = self.build_embedder(4, 2)
        rng = Rng(9)
        for t in (emb.word.tensor, emb.branch):
            t.grad[:] = np.asarray(rng.uniform(-1, 1, t.size)).reshape(t.shape)
        word_ref, branch_ref = emb.word.tensor.grad.copy(), emb.branch.grad.copy()
        texts = {
            Branch.LEFT: ("beta", "alpha", "beta", "gamma", "beta", "alpha"),
            Branch.NUGGET: ("alpha",),
            Branch.RIGHT: ("gamma", "beta", "delta", "beta"),
        }
        for branch, words in texts.items():
            _, rows, index = self.assemble(emb, words, branch)
            d_tokens = np.asarray(rng.uniform(-1, 1, len(words) * 6)).reshape(-1, 6)
            d_inputs = np.zeros((len(rows), 6))
            np.add.at(d_inputs, index, d_tokens)  # what the encoder hands back
            emb.accumulate_grad(rows, branch, d_inputs)
            for row, d in zip(rows[index], d_tokens):
                word_ref[row] += d[:4]
                branch_ref[branch] += d[4:]
        np.testing.assert_allclose(emb.word.tensor.grad, word_ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(emb.branch.grad, branch_ref, rtol=0, atol=1e-13)


class TestGradientFlowInvariant:
    def test_one_step_touches_used_word_and_branch_rows_only(self):
        labels = LabelSet(["A", "B"])
        cfg = ModelConfig(hidden_size=4, word_dim=6, branch_dim=3, dropout=0.0)
        words = ["w0", "w1", "w2", "w3", "w4"]
        model = build_model(cfg, words, labels, Rng(6))
        split = BranchSplit(("w0",), ("w1", "unseen-word"), ("w2",))
        model.store.zero_grads()
        [loss] = model.forward_backward([split], [("A",)])
        assert loss > 0.0
        word_grad = model.store["word_emb"].grad
        used_rows = set(model.embedder.word.rows(["w0", "w1", "w2"]))
        used_rows.add(0)  # the unseen word maps to UNK
        for row in range(word_grad.shape[0]):
            assert word_grad[row].any() == (row in used_rows)
        branch_grad = model.store["branch_emb"].grad
        assert all(branch_grad[b].any() for b in range(3))

    def test_ablation_mode_still_runs_end_to_end(self):
        labels = LabelSet(["A", "B"])
        cfg = ModelConfig(
            hidden_size=4, word_dim=6, branch_dim=3, use_branch=False, dropout=0.0
        )
        model = build_model(cfg, ["w0", "w1"], labels, Rng(6))
        assert "branch_emb" not in model.store
        assert model.embedder.input_dim == 6
        split = BranchSplit(("w0",), ("w1",), ())
        model.store.zero_grads()
        [loss] = model.forward_backward([split], [("B",)])
        assert loss > 0.0
        assert model.predict(split) in ((), ("A",), ("B",))
