"""Tree functions and the CLI on documents far deeper than Python's recursion limit."""

import json
import tracemalloc

import pytest

from rstboost.cli import main
from rstboost.metrics import ParsevalScores, score
from rstboost.transition import SHIFT, oracle
from rstboost.treebank import (
    Document,
    Internal,
    Leaf,
    iter_internal,
    parse_bracketed,
    postorder,
    serialize_bracketed,
    SynthSettings,
    synthesize_treebank,
    validate,
)

from conftest import head_nucleus_edu, replay

DEPTH = 5000


def chain(n, side, deepest=None):
    """A chain of n leaves whose internal nodes all branch to one side;
    ``deepest`` relabels the relation of the deepest internal node."""
    if side == "left":
        tree = Leaf(1)
        for i in range(2, n + 1):
            relation = deepest if deepest and i == 2 else "elaboration"
            tree = Internal("NS", relation, tree, Leaf(i))
    else:
        tree = Leaf(n)
        for i in range(n - 1, 0, -1):
            relation = deepest if deepest and i == n - 1 else "cause"
            tree = Internal("SN", relation, Leaf(i), tree)
    return tree


@pytest.fixture(scope="module", params=["left", "right"])
def deep(request):
    doc = Document("deep", tuple((f"w{i}", 'q"\\') for i in range(1, DEPTH + 1)))
    return doc, chain(DEPTH, request.param)


def test_postorder_puts_children_first_left_to_right():
    tree = Internal("NN", "joint", Internal("NS", "cause", Leaf(1), Leaf(2)), Leaf(3))
    assert [n.span for n in postorder(tree)] == [(1, 1), (2, 2), (1, 2), (3, 3), (1, 3)]
    assert postorder(Leaf(4)) == [Leaf(4)]


def test_eq_hash_repr(deep):
    _, tree = deep
    side = "left" if isinstance(tree.left, Internal) else "right"
    twin = chain(DEPTH, side)
    assert twin is not tree
    assert twin == tree and not twin != tree
    assert hash(twin) == hash(tree)
    assert {twin, tree} == {tree}
    other = chain(DEPTH, side, deepest="joint")
    assert other != tree and not other == tree
    assert tree != Leaf(1) and Leaf(1) != tree
    text = repr(tree)
    assert repr(twin) == text != repr(other)
    assert text.count("Internal(") == DEPTH - 1 and text.count("Leaf(") == DEPTH


def test_head(deep):
    _, tree = deep
    assert tree.head == head_nucleus_edu(tree) == (1 if tree.nuclearity == "NS" else DEPTH)


def test_oracle(deep):
    doc, tree = deep
    actions = oracle(tree)
    assert len(actions) == 2 * DEPTH - 1
    assert actions.count(SHIFT) == DEPTH
    assert serialize_bracketed(doc, replay(DEPTH, actions)) == serialize_bracketed(doc, tree)


def test_serialize_parse_round_trip(deep):
    doc, tree = deep
    text = serialize_bracketed(doc, tree)
    doc2, tree2 = parse_bracketed(text, doc_id="deep")
    assert doc2 == doc
    assert serialize_bracketed(doc2, tree2) == text
    assert [n.span for n in postorder(tree2)] == [n.span for n in postorder(tree)]


def test_validate(deep):
    doc, tree = deep
    assert validate(doc, tree) == []
    # Without the last EDU the last leaf is out of range; its path is rendered.
    path = "root" + ".right" * (1 if isinstance(tree.left, Internal) else DEPTH - 1)
    assert validate(Document("deep", doc.edus[:-1]), tree) == [
        f"{path}: leaf edu_id {DEPTH} outside 1..{DEPTH - 1}"]


def test_validate_does_not_hold_every_leaf_path(deep):
    doc, tree = deep
    tracemalloc.start()
    try:
        assert validate(doc, tree) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Every leaf's path string at once would hold O(depth^2) characters
    # (about 100 MB here); the links hold O(depth).
    assert peak < 10_000_000


def test_iter_leaves_and_iter_internal(deep):
    _, tree = deep
    leaves = [n.edu_id for n in postorder(tree) if isinstance(n, Leaf)]
    assert leaves == list(range(1, DEPTH + 1))
    internal = list(iter_internal(tree))
    assert len(internal) == DEPTH - 1
    assert internal[-1] is tree


def test_span(deep):
    _, tree = deep
    assert tree.span == (1, DEPTH)
    for node in iter_internal(tree):
        assert node.span == (node.left.span[0], node.right.span[1])


def test_constituents(deep):
    _, tree = deep
    n = DEPTH - 1
    assert score(tree, tree) == ParsevalScores(n, n, n, n, n)
    # A left and a right chain share only the root span, whose labels differ.
    side = "right" if isinstance(tree.left, Internal) else "left"
    assert score(tree, chain(DEPTH, side)) == ParsevalScores(n, n, 1, 0, 0)


def test_synthesize_deep_document():
    cfg = SynthSettings(n_train=1, n_test=0, edu_range=(DEPTH, DEPTH), p_domain=0.3,
                        shared_relations=("cause", "joint"), domain_relations_a=("evidence",))
    (doc, tree), = synthesize_treebank(cfg, "a", 1, "synth", seed=4).entries
    assert doc.n_edus == DEPTH
    assert validate(doc, tree) == []


def test_cli_pipeline_on_1100_edu_documents(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"n_train": 2, "n_test": 1, "edu_range": [1100, 1100]}))
    data, model = tmp_path / "data", tmp_path / "model.json"

    def run(*argv):
        return main(["--quiet", *map(str, argv)])

    assert run("--seed", 3, "synth", "--config", cfg, "--out", data) == 0
    assert run("--seed", 3, "train", data / "train_news.tb", "--out", model, "--steps", 2,
               "--hash-dim", 64, "--epochs-max", 2, "--patience", 1) == 0
    assert run("parse", model, data / "test_news.tb", "--out", tmp_path / "pred.tb") == 0
    assert run("eval", data / "test_news.tb", tmp_path / "pred.tb") == 0
    assert run("curve", model, data / "test_news.tb", data / "test_chat.tb",
               "--out", tmp_path / "curve.csv") == 0
