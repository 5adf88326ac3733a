import random

import numpy as np
import pytest

from rstboost.boosting import structure_mask
from rstboost.encoder import (
    CENTER,
    NUCLEUS,
    EncoderConfig,
    encode_state,
    hash_token,
    represent_span,
    row_key,
    truncate_center,
)
from rstboost.errors import InvalidConfig
from rstboost.transition import SHIFT, Reduce, apply, initial_state
from rstboost.treebank import NUCLEARITIES, Document, Internal, Leaf, postorder

from conftest import dense, head_nucleus_edu, make_doc, random_tree


class TestTruncateCenter:
    def test_drops_center_keeping_edges(self):
        assert truncate_center(["t1", "t2", "t3", "t4"], 2) == ["t1", "t4"]

    def test_under_length_unchanged(self):
        assert truncate_center(["t1", "t2"], 4) == ["t1", "t2"]

    def test_odd_budget_favors_head(self):
        assert truncate_center(["t1", "t2", "t3", "t4", "t5"], 3) == ["t1", "t2", "t5"]

    def test_idempotent(self, rng):
        for _ in range(50):
            tokens = [f"t{i}" for i in range(rng.randint(0, 20))]
            limit = rng.randint(1, 10)
            once = truncate_center(tokens, limit)
            assert truncate_center(once, limit) == once

    def test_length_one(self):
        assert truncate_center(["a", "b", "c"], 1) == ["a"]


class TestHeadNucleus:
    def test_leaf(self):
        assert Leaf(3).head == 3

    def test_ns_heads_left(self):
        assert Internal("NS", "r", Leaf(1), Leaf(2)).head == 1

    def test_sn_then_ns_hand_trace(self):
        # SN: follow right -> NS: follow left -> EDU 2
        tree = Internal("SN", "r", Leaf(1), Internal("NS", "r", Leaf(2), Leaf(3)))
        assert tree.head == 2

    def test_nn_ties_left(self):
        assert Internal("NN", "r", Leaf(4), Leaf(5)).head == 4

    def test_head_within_span(self, rng):
        for _ in range(50):
            tree = random_tree(rng, rng.randint(2, 10))
            lo, hi = tree.span
            assert lo <= tree.head <= hi

    def test_head_matches_reference_walk(self, rng):
        for _ in range(50):
            for node in postorder(random_tree(rng, rng.randint(1, 30))):
                assert node.head == head_nucleus_edu(node)


class TestRepresentSpan:
    def doc(self):
        return Document(
            "d",
            (("a1", "a2", "a3"), ("b1", "b2", "b3")),
        )

    def test_leaf_same_under_both_strategies(self):
        doc = self.doc()
        for strategy in ("center", "nucleus"):
            cfg = EncoderConfig(truncation_strategy=strategy, max_span_tokens=8)
            assert represent_span(Leaf(1), doc, cfg) == ["a1", "a2", "a3"]

    def test_nucleus_strategy_keeps_head_edu(self):
        cfg = EncoderConfig(truncation_strategy="nucleus", max_span_tokens=8)
        node = Internal("NS", "r", Leaf(1), Leaf(2))
        assert represent_span(node, self.doc(), cfg) == ["a1", "a2", "a3"]

    def test_center_strategy_concatenates_then_truncates(self, rng):
        # 3+3 tokens, budget 4: first two of EDU 1 + last two of EDU 2
        cfg = EncoderConfig(truncation_strategy="center", max_span_tokens=4)
        node = Internal("NS", "r", Leaf(1), Leaf(2))
        assert represent_span(node, self.doc(), cfg) == ["a1", "a2", "b2", "b3"]
        # random spans and budgets over EDUs of 0-5 tokens
        doc = Document("r", tuple(
            tuple(f"e{i}t{j}" for j in range(rng.randint(0, 5))) for i in range(1, 31)))
        for _ in range(500):
            lo = rng.randint(1, 30)
            hi = rng.randint(lo, 30)
            limit = rng.randint(1, 12)
            cfg = EncoderConfig(truncation_strategy="center", max_span_tokens=limit)
            node = Leaf(lo) if lo == hi else Internal("NS", "r", Leaf(lo), Leaf(hi))
            joined = [t for edu in doc.edus[lo - 1:hi] for t in edu]
            assert represent_span(node, doc, cfg) == truncate_center(joined, limit)

    def test_nucleus_strategy_truncates_long_edu(self):
        doc = Document("d", (tuple(f"t{i}" for i in range(10)),))
        cfg = EncoderConfig(truncation_strategy="nucleus", max_span_tokens=4)
        assert represent_span(Leaf(1), doc, cfg) == ["t0", "t1", "t8", "t9"]


class TestHashToken:
    def test_stable_frozen_value(self):
        # pinned: BLAKE2b-64 of "0:hello", little-endian
        assert hash_token("hello", 0) == hash_token("hello", 0)
        assert hash_token("hello", 0) != hash_token("hello", 1)
        assert hash_token("hello", 0) != hash_token("olleh", 0)

    def test_known_digest(self):
        import hashlib

        expected = int.from_bytes(
            hashlib.blake2b(b"42:token", digest_size=8).digest(), "little"
        )
        assert hash_token("token", 42) == expected


class TestEncodeState:
    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            EncoderConfig(max_span_tokens=0)
        with pytest.raises(InvalidConfig):
            EncoderConfig(hash_dim=4)
        with pytest.raises(InvalidConfig):
            EncoderConfig(truncation_strategy="middle")

    def test_initial_state_blocks(self):
        doc = make_doc(3)
        cfg = EncoderConfig(hash_dim=64)
        x = dense(encode_state(initial_state(3), doc, cfg), cfg.width)
        assert x.shape == (3 * 64 + 4,)
        assert not x[:128].any()          # stack blocks empty
        assert x[128:192].any()           # queue block populated
        assert x[192] == 0.0              # stack depth
        assert x[193] == 1.0              # full queue remaining

    def test_deterministic(self):
        doc = make_doc(4)
        cfg = EncoderConfig(hash_dim=128)
        s = apply(initial_state(4), SHIFT)
        a = encode_state(s, doc, cfg)
        b = encode_state(s, doc, cfg)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_bag_of_words_ignores_order(self):
        cfg = EncoderConfig(hash_dim=128)
        d1 = Document("d", (("x", "y", "z"),))
        d2 = Document("d", (("z", "x", "y"),))
        s = initial_state(1)
        assert all(np.array_equal(u, v)
                   for u, v in zip(encode_state(s, d1, cfg), encode_state(s, d2, cfg)))

    def test_width_invariant_across_states(self):
        doc = make_doc(5)
        cfg = EncoderConfig(hash_dim=64)
        state = initial_state(5)
        widths = set()
        for action in [SHIFT, SHIFT, Reduce("NS", "r"), SHIFT]:
            indices, values = encode_state(state, doc, cfg)
            assert 0 <= indices.min() and indices.max() < 3 * 64 + 4
            widths.add(dense((indices, values), cfg.width).shape)
            state = apply(state, action)
        assert widths == {(3 * 64 + 4,)}

    def test_blocks_nonnegative_and_normalized(self):
        doc = make_doc(4, tokens_per_edu=3)
        cfg = EncoderConfig(hash_dim=64)
        s = apply(apply(initial_state(4), SHIFT), SHIFT)
        x = dense(encode_state(s, doc, cfg), cfg.width)
        bags = x[: 3 * 64]
        assert (bags >= 0).all()
        # each non-empty block sums to 1 under count normalization
        assert np.isclose(bags[0:64].sum(), 1.0)
        assert np.isclose(bags[64:128].sum(), 1.0)

    def test_structural_features(self):
        doc = make_doc(4)
        s = apply(apply(initial_state(4), SHIFT), SHIFT)
        s = apply(s, Reduce("NN", "joint"))
        cfg = EncoderConfig(hash_dim=64)
        x = dense(encode_state(s, doc, cfg), cfg.width)
        depth, remaining, top_len, second_len = x[-4:]
        assert depth == 1 / 8
        assert remaining == 2 / 4
        assert top_len == 2 / 8
        assert second_len == 0.0

    def test_sparse_row_is_sorted_and_nonzero(self):
        doc = make_doc(6, tokens_per_edu=5)
        cfg = EncoderConfig(hash_dim=16, max_span_tokens=4)
        state = initial_state(6)
        for action in [SHIFT, SHIFT, Reduce("NS", "r"), SHIFT, SHIFT, Reduce("NN", "r")]:
            indices, values = encode_state(state, doc, cfg)
            assert indices.dtype == np.int64 and values.dtype == np.float64
            assert indices.shape == values.shape
            assert (np.diff(indices) > 0).all()
            assert (values != 0).all()
            state = apply(state, action)


class TestRowKey:
    @staticmethod
    def random_states(rng, doc, walks):
        """Every state of ``walks`` random legal derivations over ``doc``."""
        states = []
        for _ in range(walks):
            state = initial_state(doc.n_edus)
            while not state.is_terminal:
                states.append(state)
                if state.can_shift and (not state.can_reduce or rng.random() < 0.5):
                    state = apply(state, SHIFT)
                else:
                    state = apply(state, Reduce(rng.choice(NUCLEARITIES), "r"))
        return states

    @pytest.mark.parametrize("strategy", [CENTER, NUCLEUS])
    def test_equal_keys_give_equal_rows_and_masks(self, strategy):
        """States of one document with equal ``row_key`` encode to the same row and
        legality mask; the states compared differ in their lower stack or in their
        top items' inner structure."""
        rng = random.Random(71)
        cfg = EncoderConfig(hash_dim=64, max_span_tokens=3, truncation_strategy=strategy)
        doc = Document("d", tuple(tuple(f"e{i}t{j}" for j in range(rng.randint(1, 4)))
                                  for i in range(1, 9)))
        by_key: dict = {}
        for state in self.random_states(rng, doc, 200):
            by_key.setdefault(row_key(state, cfg), set()).add(state)
        shared = [states for states in by_key.values() if len(states) > 1]
        assert len(shared) > 20
        for states in shared:
            first, *rest = states
            row, mask = encode_state(first, doc, cfg), structure_mask(first)
            for state in rest:
                assert all(np.array_equal(u, v)
                           for u, v in zip(encode_state(state, doc, cfg), row))
                assert np.array_equal(structure_mask(state), mask)

    def test_center_key_reads_spans_only(self):
        """Under ``center`` a row does not read the head, so two reduces that differ
        only in nuclearity share a key; under ``nucleus`` they do not."""
        state = apply(apply(initial_state(3), SHIFT), SHIFT)
        ns, sn = apply(state, Reduce("NS", "r")), apply(state, Reduce("SN", "r"))
        assert row_key(ns, EncoderConfig(truncation_strategy=CENTER)) == row_key(
            sn, EncoderConfig(truncation_strategy=CENTER))
        assert row_key(ns, EncoderConfig(truncation_strategy=NUCLEUS)) != row_key(
            sn, EncoderConfig(truncation_strategy=NUCLEUS))
