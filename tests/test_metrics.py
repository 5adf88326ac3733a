import dataclasses
import random

import pytest

import rstboost.treebank
from rstboost.boosting import BoostConfig, train
from rstboost.encoder import EncoderConfig
from rstboost.errors import (
    DocumentMismatch,
    EmptyTreebank,
    InvalidPrefix,
    RelationInventoryMismatch,
)
from rstboost.metrics import (
    CSV_HEADER,
    ParsevalScores,
    ZERO_SCORES,
    boost_curve,
    evaluate_treebank,
    score,
    score_entries,
)
from rstboost.transition import oracle
from rstboost.treebank import Internal, Leaf, SynthSettings, synthesize_treebank
from rstboost.weak_learner import LearnerConfig

from conftest import (
    enumerate_shapes,
    label_shape,
    random_tree,
    reference_decode,
    reference_score,
    replay,
)

SHARED = ("attribution", "background", "cause", "contrast", "elaboration", "joint")
DOMAIN = ("condition", "evidence")
ENC = EncoderConfig(hash_dim=64)


def mk_tb(n_docs=12, seed=1, tag="news", name="unit"):
    """A synthetic treebank of domain ``tag``, news or chat; both draw from ``DOMAIN``."""
    settings = SynthSettings(
        edu_range=(2, 6),
        shared_vocab=30,
        domain_vocab=10,
        shared_relations=SHARED,
        domain_relations_a=DOMAIN,
        domain_relations_b=DOMAIN,
        p_domain=0.3,
    )
    return synthesize_treebank(settings, {"news": "a", "chat": "b"}[tag], n_docs, name, seed)


def quick_ensemble(tb, n_steps=2):
    lc = LearnerConfig(
        input_dim=ENC.width, n_relations=len(tb.relation_inventory),
        hidden_dim=8, learning_rate=0.1)
    cfg = BoostConfig(learner=lc, n_steps=n_steps, epochs_max=6, patience=2,
                      dev_fraction=0.15, seed=3)
    ens, _ = train(tb, cfg, ENC)
    return ens


LEFT3 = Internal("NS", "cause", Internal("NS", "elaboration", Leaf(1), Leaf(2)), Leaf(3))
RIGHT3 = Internal("NS", "cause", Leaf(1), Internal("NS", "elaboration", Leaf(2), Leaf(3)))


def f1s(s):
    """(span, nuclearity, relation) F1."""
    return tuple(prf[2] for prf in s.levels().values())


class TestConstituents:
    """One constituent per internal node, as ``score`` counts them."""

    def test_leaf_tree_empty(self):
        assert score(Leaf(1), Leaf(1)) == ZERO_SCORES

    def test_two_edu_tree(self):
        tree = Internal("NS", "elaboration", Leaf(1), Leaf(2))
        assert score(tree, tree) == ParsevalScores(1, 1, 1, 1, 1)
        relabeled = Internal("SN", "contrast", Leaf(1), Leaf(2))
        assert score(tree, relabeled) == ParsevalScores(1, 1, 1, 0, 0)

    def test_left_branching_spans(self):
        # LEFT3 has spans {(1, 2), (1, 3)}: the right-branching tree shares
        # (1, 3), the other left-branching labelling shares both
        relabeled = Internal("NN", "joint", Internal("SN", "cause", Leaf(1), Leaf(2)), Leaf(3))
        assert score(LEFT3, RIGHT3).span_matches == 1
        assert score(LEFT3, relabeled) == ParsevalScores(2, 2, 2, 0, 0)

    def test_count_is_n_minus_one(self, rng):
        for _ in range(25):
            n = rng.randint(1, 10)
            tree = random_tree(rng, n)
            assert score(tree, tree) == ParsevalScores(*[n - 1] * 5)


class TestScore:
    def test_identical_trees_perfect(self, rng):
        # n >= 2: a leaf-only tree has no constituents, so its self-score is
        # the zero-support case (all counts 0 -> F1 = 0 by convention)
        for _ in range(50):
            tree = random_tree(rng, rng.randint(2, 10))
            assert f1s(score(tree, tree)) == (1.0, 1.0, 1.0)

    def test_leaf_tree_self_score_has_zero_support(self):
        s = score(Leaf(1), Leaf(1))
        assert s.gold_count == s.pred_count == 0
        assert s.span_f1 == 0.0

    def test_left_vs_right_branching_half_span(self):
        # gold {(1,2),(1,3)} vs pred {(2,3),(1,3)}: 1 match of 2 on each side
        s = score(LEFT3, RIGHT3)
        assert s.levels()["span"] == (0.5, 0.5, 0.5)

    def test_flipped_nuclearity(self):
        gold = Internal("NS", "r", Leaf(1), Leaf(2))
        pred = Internal("SN", "r", Leaf(1), Leaf(2))
        assert f1s(score(gold, pred)) == (1.0, 0.0, 1.0)

    def test_relation_match_independent_of_nuclearity(self):
        gold = Internal("NS", "cause", Leaf(1), Leaf(2))
        pred = Internal("NN", "cause", Leaf(1), Leaf(2))
        assert score(gold, pred).levels()["relation"][2] == 1.0

    def test_document_mismatch(self):
        with pytest.raises(DocumentMismatch):
            score(Leaf(1), Internal("NS", "r", Leaf(1), Leaf(2)))

    def test_span_symmetry(self, rng):
        for _ in range(25):
            n = rng.randint(2, 8)
            a, b = random_tree(rng, n), random_tree(rng, n)
            assert score(a, b).span_f1 == score(b, a).span_f1

    def test_nuc_f1_bounded_by_span_f1(self, rng):
        for _ in range(25):
            n = rng.randint(2, 8)
            a, b = random_tree(rng, n), random_tree(rng, n)
            span, nuc, rel = f1s(score(a, b))
            assert nuc <= span + 1e-12
            assert rel <= span + 1e-12

    def test_oracle_replay_scores_perfect(self, rng):
        for _ in range(20):
            n = rng.randint(2, 8)
            tree = random_tree(rng, n)
            replayed = replay(n, oracle(tree))
            assert f1s(score(tree, replayed)) == (1.0, 1.0, 1.0)

    def test_aggregation_equivalence(self, rng):
        pairs = []
        for _ in range(10):
            n = rng.randint(2, 8)
            pairs.append((random_tree(rng, n), random_tree(rng, n)))
        total = score_entries(pairs)
        by_hand = ZERO_SCORES
        for g, p in pairs:
            by_hand = by_hand + score(g, p)
        assert total == by_hand
        # micro counts: f1 recomputed from summed counts, not averaged
        assert total.gold_count == sum(score(g, p).gold_count for g, p in pairs)

    def test_walks_each_tree_once(self, rng, monkeypatch):
        walks = []
        postorder = rstboost.treebank.postorder
        monkeypatch.setattr(rstboost.treebank, "postorder",
                            lambda tree: walks.append(tree) or postorder(tree))
        gold, pred = random_tree(rng, 7), random_tree(rng, 7)
        score(gold, pred)
        assert walks == [gold, pred]

    def test_matches_constituent_set_reference(self):
        """``score`` against the constituent-set scorer it replaced, on seeded
        pairs of random labelled trees: leaf-only, identical, same-size and
        different-size pairs."""
        rng = random.Random(2026)
        relations = ("cause", "contrast", "elaboration")
        pairs = [(Leaf(1), Leaf(1))]
        for _ in range(800):
            n = rng.randint(1, 9)
            gold = random_tree(rng, n, relations)
            kind = rng.choice(("identical", "random", "shape", "size"))
            if kind == "identical":
                pred = gold
            elif kind == "random":
                pred = random_tree(rng, n, relations)
            elif kind == "shape" and n <= 6:
                pred = label_shape(rng.choice(enumerate_shapes(1, n)), rng, relations)
            else:
                pred = random_tree(rng, rng.randint(1, 9), relations)
            pairs.append((gold, pred))
        kinds = {"equal": 0, "mismatch": 0, "leaf": 0}
        for gold, pred in pairs:
            try:
                want = reference_score(gold, pred)
            except DocumentMismatch as exc:
                with pytest.raises(DocumentMismatch) as got:
                    score(gold, pred)
                assert str(got.value) == str(exc)
                kinds["mismatch"] += 1
                continue
            assert score(gold, pred) == want
            kinds["equal"] += 1
            kinds["leaf"] += isinstance(gold, Leaf)
        assert kinds["equal"] >= 500 and kinds["mismatch"] >= 20 and kinds["leaf"] >= 20, kinds


class TestEvaluateTreebank:
    def test_empty_treebank_rejected(self):
        tb = mk_tb()
        ens = quick_ensemble(tb, n_steps=1)
        empty = dataclasses.replace(tb, entries=())
        with pytest.raises(EmptyTreebank):
            evaluate_treebank(ens, 1, empty)

    def test_invalid_prefix(self):
        tb = mk_tb()
        ens = quick_ensemble(tb, n_steps=1)
        with pytest.raises(InvalidPrefix):
            evaluate_treebank(ens, 2, tb)

    def test_inventory_mismatch(self):
        tb = mk_tb()
        ens = quick_ensemble(tb, n_steps=1)
        alien = dataclasses.replace(
            tb, relation_inventory=tb.relation_inventory + ("alienrel",))
        with pytest.raises(RelationInventoryMismatch):
            evaluate_treebank(ens, 1, alien)

    def test_document_order_invariance(self):
        tb = mk_tb(n_docs=10)
        ens = quick_ensemble(tb, n_steps=1)
        shuffled = dataclasses.replace(
            tb, entries=tuple(reversed(tb.entries)))
        assert evaluate_treebank(ens, 1, tb) == evaluate_treebank(ens, 1, shuffled)

    def test_trained_beats_chance(self):
        tb = mk_tb(n_docs=40)
        ens = quick_ensemble(tb, n_steps=2)
        s = evaluate_treebank(ens, 2, tb)
        assert s.span_f1 > 0.7


class TestBoostCurve:
    def test_table_shape(self):
        tb_a = mk_tb(n_docs=8, tag="news", name="a")
        tb_b = mk_tb(n_docs=6, seed=9, tag="chat", name="b")
        ens = quick_ensemble(tb_a, n_steps=2)
        table = boost_curve(ens, [tb_a, tb_b])
        assert len(table.rows) == 2 * 2
        assert {r.domain for r in table.rows} == {"news", "chat"}
        assert {r.m for r in table.rows} == {1, 2}
        assert table.gaps is not None and set(table.gaps) == {1, 2}

    def test_single_treebank_single_step(self):
        tb = mk_tb(n_docs=6)
        ens = quick_ensemble(tb, n_steps=1)
        table = boost_curve(ens, [tb])
        assert len(table.rows) == 1
        assert table.gaps is None  # no out-of-domain treebank

    def test_gap_requires_unique_in_domain(self):
        tb_a = mk_tb(n_docs=6, tag="news", name="a")
        tb_b = mk_tb(n_docs=6, seed=5, tag="news", name="b")
        ens = quick_ensemble(tb_a, n_steps=1)
        assert boost_curve(ens, [tb_a, tb_b]).gaps is None

    def test_csv_format(self):
        tb = mk_tb(n_docs=6)
        ens = quick_ensemble(tb, n_steps=2)
        csv = boost_curve(ens, [tb]).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        cells = lines[1].split(",")
        assert cells[0] == "1" and cells[1] == "news" and cells[2] == "6"
        assert all("." in c and len(c.split(".")[1]) == 4 for c in cells[3:])

    def test_empty_input_rejected(self):
        tb = mk_tb(n_docs=6)
        ens = quick_ensemble(tb, n_steps=1)
        with pytest.raises(EmptyTreebank):
            boost_curve(ens, [])

    def test_rows_equal_per_prefix_sequential_parse(self):
        tb_a = mk_tb(n_docs=8, tag="news", name="a")
        tb_b = mk_tb(n_docs=8, seed=9, tag="chat", name="b")
        ens = quick_ensemble(tb_a, n_steps=3)
        table = boost_curve(ens, [tb_a, tb_b])
        expected = [
            (m, tb.domain_tag,
             score_entries((tree, reference_decode(ens, m, doc)[0])
                           for doc, tree in tb.entries))
            for tb in (tb_a, tb_b) for m in (1, 2, 3)
        ]
        assert [(r.m, r.domain, r.scores) for r in table.rows] == expected
        for m, _, scores in expected[:3]:
            assert evaluate_treebank(ens, m, tb_a) == scores


class TestParsevalScores:
    def test_zero_counts_give_zero_scores(self):
        assert ZERO_SCORES.levels() == {
            level: (0.0, 0.0, 0.0) for level in ("span", "nuclearity", "relation")}

    def test_levels_from_counts(self):
        s = ParsevalScores(gold_count=4, pred_count=5, span_matches=3, nuc_matches=2,
                           rel_matches=0)
        levels = s.levels()
        assert list(levels) == ["span", "nuclearity", "relation"]
        assert levels["span"] == pytest.approx((3 / 5, 3 / 4, 2 / 3))
        assert levels["nuclearity"] == pytest.approx((2 / 5, 2 / 4, 4 / 9))
        assert levels["relation"] == (0.0, 0.0, 0.0)
        assert s.span_f1 == levels["span"][2]

    def test_to_dict_layout(self):
        s = ParsevalScores(4, 4, 2, 1, 1)
        d = s.to_dict()
        assert d["support"] == {"gold": 4, "pred": 4}
        assert d["span"]["f1"] == pytest.approx(0.5)
        assert d["nuclearity"]["f1"] == pytest.approx(0.25)
