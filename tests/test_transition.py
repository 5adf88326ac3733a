import random

import pytest

from rstboost.errors import IllegalAction, InvalidInput
from rstboost.transition import (
    SHIFT,
    ParserState,
    Reduce,
    Shift,
    apply,
    initial_state,
    legal_actions,
    oracle,
)
from rstboost.treebank import Internal, Leaf

from conftest import enumerate_shapes, label_shape, random_tree, replay


class TestInitialState:
    def test_single_edu(self):
        s = initial_state(1)
        assert s.stack == () and s.queue_cursor == 1 and s.n_edus == 1

    def test_four_edus(self):
        s = initial_state(4)
        assert s.stack == () and s.queue_cursor == 1 and s.n_edus == 4

    def test_zero_rejected(self):
        with pytest.raises(InvalidInput):
            initial_state(0)


class TestLegalActions:
    def test_initial_shift_only(self):
        legal = legal_actions(initial_state(3))
        assert legal.shift_legal and not legal.reduce_legal

    def test_reduce_only_when_queue_empty(self):
        s = ParserState(stack=(Leaf(1), Leaf(2)), queue_cursor=3, n_edus=2)
        legal = legal_actions(s)
        assert not legal.shift_legal and legal.reduce_legal

    def test_both_legal(self):
        s = ParserState(stack=(Leaf(1), Leaf(2)), queue_cursor=3, n_edus=4)
        legal = legal_actions(s)
        assert legal.shift_legal and legal.reduce_legal


class TestApply:
    def test_shift(self):
        s = apply(initial_state(2), SHIFT)
        assert s.stack == (Leaf(1),) and s.queue_cursor == 2

    def test_reduce(self):
        s = initial_state(2)
        s = apply(apply(s, SHIFT), SHIFT)
        s = apply(s, Reduce("NS", "elaboration"))
        assert s.stack == (Internal("NS", "elaboration", Leaf(1), Leaf(2)),)
        assert s.is_terminal

    def test_shift_with_empty_queue_illegal(self):
        s = apply(initial_state(1), SHIFT)
        with pytest.raises(IllegalAction):
            apply(s, SHIFT)

    def test_reduce_with_short_stack_illegal(self):
        s = apply(initial_state(2), SHIFT)
        with pytest.raises(IllegalAction):
            apply(s, Reduce("NS", "rel"))

    def test_apply_is_pure(self):
        s0 = initial_state(2)
        apply(s0, SHIFT)
        assert s0.stack == () and s0.queue_cursor == 1

    def test_merged_span(self):
        s = apply(apply(initial_state(3), SHIFT), SHIFT)
        s = apply(s, Reduce("NN", "joint"))
        assert s.stack[0].span == (1, 2)


class TestOracle:
    def test_leaf_only(self):
        assert oracle(Leaf(1)) == [SHIFT]

    def test_two_edu_tree(self):
        tree = Internal("NS", "elaboration", Leaf(1), Leaf(2))
        assert oracle(tree) == [SHIFT, SHIFT, Reduce("NS", "elaboration")]

    def test_length_identity(self, rng):
        for _ in range(50):
            n = rng.randint(1, 12)
            tree = random_tree(rng, n)
            assert len(oracle(tree)) == 2 * n - 1

    def test_prefix_property(self, rng):
        # every strict prefix has more shifts than reduces
        for _ in range(25):
            n = rng.randint(2, 10)
            actions = oracle(random_tree(rng, n))
            shifts = reduces = 0
            for action in actions[:-1]:
                if isinstance(action, Shift):
                    shifts += 1
                else:
                    reduces += 1
                assert shifts > reduces


class TestExecute:
    """The oracle's actions, replayed with ``apply``, rebuild the tree."""

    def test_round_trip_random(self, rng):
        for _ in range(100):
            n = rng.randint(1, 12)
            tree = random_tree(rng, n)
            assert replay(n, oracle(tree)) == tree

    def test_exhaustive_small_shapes(self, rng):
        # all shapes for n <= 4, a few labelings each
        for n in range(1, 5):
            for shape in enumerate_shapes(1, n):
                for _ in range(3):
                    tree = label_shape(shape, rng, ("a", "b"))
                    assert replay(n, oracle(tree)) == tree

    def test_stack_spans_adjacent_along_rollouts(self, rng):
        # stack items cover touching intervals and end at queue_cursor - 1
        for _ in range(20):
            n = rng.randint(2, 10)
            tree = random_tree(rng, n)
            state = initial_state(n)
            for action in oracle(tree):
                state = apply(state, action)
                spans = [item.span for item in state.stack]
                for (_, prev_hi), (lo, _) in zip(spans, spans[1:]):
                    assert lo == prev_hi + 1
                if spans:
                    assert spans[0][0] == 1
                    assert spans[-1][1] == state.queue_cursor - 1
