import argparse
import functools
import random
import time
from dataclasses import dataclass

import numpy as np
import pytest

import rstboost.weak_learner as wl
from rstboost.boosting import (
    BoostConfig,
    _build_instances,
    _check_prefix,
    _decision,
    structure_mask,
    train,
)
from rstboost.cli import build_parser, main as cli_main
from rstboost.encoder import EncoderConfig, encode_state
from rstboost.errors import DocumentMismatch, MalformedSyntax
from rstboost.metrics import ParsevalScores
from rstboost.transition import SHIFT, Reduce, apply, initial_state
from rstboost.treebank import (
    Document,
    Internal,
    Leaf,
    NUCLEARITIES,
    iter_internal,
    load_treebank,
    postorder,
    validate,
)
from rstboost.weak_learner import LearnerConfig

DEFAULT_ENC = EncoderConfig()  # library defaults: L=8, D=1024, nucleus, seed 0


def default_boost_config(tb, seed):
    """The cmd_train defaults, resolved against a treebank."""
    learner = LearnerConfig(
        input_dim=DEFAULT_ENC.width,
        n_relations=len(tb.relation_inventory),
        hidden_dim=16,
        learning_rate=0.1,
        l2_penalty=0.0,
    )
    return BoostConfig(learner=learner, n_steps=5, epochs_max=30, patience=3,
                       dev_fraction=0.1, seed=seed)


@pytest.fixture(scope="session")
def setups(tmp_path_factory):
    """Default-config synthetic data per master seed, via the real CLI."""
    base = tmp_path_factory.mktemp("shared_data")
    cache = {}

    def get(seed):
        if seed not in cache:
            out = base / f"seed{seed}"
            assert cli_main(["--seed", str(seed), "--quiet", "synth",
                             "--out", str(out)]) == 0
            cache[seed] = {
                "dir": out,
                "train": load_treebank(out / "train_news.tb"),
                "test_in": load_treebank(out / "test_news.tb"),
                "test_out": load_treebank(out / "test_chat.tb"),
            }
        return cache[seed]

    return get


@pytest.fixture(scope="session")
def ensembles(setups):
    """Default-config 5-step ensembles per master seed, trained once."""
    cache = {}

    def get(seed):
        if seed not in cache:
            tb = setups(seed)["train"]
            t0 = time.perf_counter()
            ens, rep = train(tb, default_boost_config(tb, seed), DEFAULT_ENC)
            cache[seed] = (ens, rep, time.perf_counter() - t0)
        return cache[seed]

    return get


def numeric_flags(command):
    """The int and float options that ``command`` reads, the global ones included."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a.option_strings[0] for a in parser._actions + sub.choices[command]._actions
            if a.option_strings and a.type in (int, float)]


def sparse(x):
    """A dense test vector as the sparse row ``(indices, values)`` of its nonzeros."""
    x = np.asarray(x, dtype=np.float64)
    indices = np.flatnonzero(x)
    return indices, x[indices]


def dense(row, width):
    """A sparse row ``(indices, values)`` as a dense vector of ``width``."""
    x = np.zeros(width)
    x[row[0]] = row[1]
    return x


def reference_logit_sum(ensemble, m, rows):
    """Summed (structure, relation) logits, (N, 4) and (N, R), of the first m steps
    (m = 0 gives zeros) on a ``wl.Rows`` batch, one ``wl.forward`` per step in step order."""
    s = np.zeros((len(rows.indptr) - 1, wl.N_STRUCTURE))
    r = np.zeros((len(rows.indptr) - 1, len(ensemble.relation_inventory)))
    for step in ensemble.steps[:m]:
        out = wl.forward(step, rows)
        s += out.structure
        r += out.relation
    return s, r


def reference_decode(ens, m, doc):
    """Sequential greedy parse with prefix m, one state at a time: ``encode_state``,
    then the prefix-m ``reference_logit_sum``, then ``_decision``."""
    state = initial_state(doc.n_edus)
    actions = []
    while not state.is_terminal:
        row = encode_state(state, doc, ens.encoder_config)
        s, r = reference_logit_sum(ens, m, wl.stack_rows(ens.encoder_config.width, [row]))
        cls, rel = _decision(structure_mask(state), s[0], r[0])
        action = SHIFT if cls == 0 else Reduce(NUCLEARITIES[cls - 1],
                                               ens.relation_inventory[rel])
        actions.append(action)
        state = apply(state, action)
    return state.stack[0], actions


class TerminalState(Exception):
    """``reference_predict_action`` was asked for an action in a terminal state."""


def reference_predict_action(ens, prefixes, state, doc):
    """The per-state decode step that the frontier step ``predict_action`` replaced,
    kept as its reference: each prefix's greedy action at ``state`` as
    {action: [prefixes choosing it]} in order of first choice, from one encoding
    and one ``wl.forward`` of its one-row batch per step into one running sum."""
    if state.is_terminal:
        raise TerminalState("no action to predict in a terminal state")
    row = wl.stack_rows(ens.encoder_config.width, [encode_state(state, doc, ens.encoder_config)])
    mask = structure_mask(state)
    s, r = np.zeros(wl.N_STRUCTURE), np.zeros(len(ens.relation_inventory))
    chosen = {}
    for k, step in enumerate(ens.steps[:max(prefixes)], 1):
        out = wl.forward(step, row)
        s += out.structure[0]
        r += out.relation[0]
        if k in prefixes:
            cls, rel = _decision(mask, s, r)
            action = SHIFT if cls == wl.SHIFT_CLASS else Reduce(
                NUCLEARITIES[cls - 1], ens.relation_inventory[rel])
            chosen.setdefault(action, []).append(k)
    return chosen


def replay(n_edus, actions):
    """The tree that ``actions`` build: a fold of ``apply`` from the initial state,
    which must end in the terminal state."""
    state = functools.reduce(apply, actions, initial_state(n_edus))
    assert state.is_terminal, f"{len(state.stack)} stack item(s) left"
    return state.stack[0]


def oracle_action_accuracy(ensemble, m, entries):
    """Fraction of oracle states where prefix m predicts the full gold action."""
    _check_prefix(ensemble, m)
    inst = _build_instances(entries, ensemble, 0)
    cls, rel = _decision(inst.mask, *reference_logit_sum(ensemble, m, inst.rows))
    ok = cls == inst.gold_structure
    is_reduce = inst.gold_relation >= 0
    ok &= ~is_reduce | (rel == inst.gold_relation)
    return float(ok.mean())


def reference_lex(text):
    """The character loop that ``treebank._lex``'s one regex pass replaced, kept as its
    reference: the same (kind, value) tokens, or the same MalformedSyntax message."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == "(":
            out.append(("open", c))
            i += 1
        elif c == ")":
            out.append(("close", c))
            i += 1
        elif c == '"':
            i += 1
            buf = []
            while True:
                if i >= n:
                    raise MalformedSyntax("unterminated string literal")
                c = text[i]
                if c == "\\":
                    if i + 1 >= n:
                        raise MalformedSyntax("dangling escape at end of input")
                    nxt = text[i + 1]
                    if nxt not in ('"', "\\"):
                        raise MalformedSyntax(f"unsupported escape \\{nxt}")
                    buf.append(nxt)
                    i += 2
                elif c == '"':
                    i += 1
                    break
                else:
                    buf.append(c)
                    i += 1
            out.append(("string", "".join(buf)))
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '()"':
                j += 1
            out.append(("symbol", text[i:j]))
            i = j
    return out


def validate_treebank(tb):
    """Validate every entry; messages are prefixed with the doc_id."""
    return [f"{doc.doc_id}: {v}" for doc, tree in tb.entries
            for v in validate(doc, tree, tb.relation_inventory)]


# The constituent-set scorer that ``metrics.score`` replaced, kept as its reference.

@dataclass(frozen=True)
class LabeledConstituent:
    start_edu: int
    end_edu: int
    nuclearity: str
    relation: str

    @property
    def span(self) -> tuple[int, int]:
        return (self.start_edu, self.end_edu)


def constituents(tree):
    """Labeled constituents of all internal nodes; empty for a leaf tree."""
    return frozenset(
        LabeledConstituent(node.span[0], node.span[1], node.nuclearity, node.relation)
        for node in iter_internal(tree)
    )


def iter_leaves(node):
    return (n for n in postorder(node) if isinstance(n, Leaf))


def reference_score(gold, pred):
    """Micro counts for one document pair; trees must cover the same EDUs."""
    n_gold = sum(1 for _ in iter_leaves(gold))
    n_pred = sum(1 for _ in iter_leaves(pred))
    if n_gold != n_pred:
        raise DocumentMismatch(
            f"gold tree covers {n_gold} EDUs but predicted tree covers {n_pred}"
        )
    g = constituents(gold)
    p = constituents(pred)
    g_spans = {c.span: c for c in g}
    span_m = nuc_m = rel_m = 0
    for c in p:
        gc = g_spans.get(c.span)
        if gc is None:
            continue
        span_m += 1
        if gc.nuclearity == c.nuclearity:
            nuc_m += 1
        if gc.relation == c.relation:
            rel_m += 1
    return ParsevalScores(len(g), len(p), span_m, nuc_m, rel_m)


def learner_from_flat(learner, theta):
    """A learner of ``learner``'s config whose parameters, in ``param_items`` order, are
    the flat vector ``theta``."""
    arrays = {}
    i = 0
    for name, arr in learner.param_items():
        arrays[name] = theta[i:i + arr.size].reshape(arr.shape).copy()
        i += arr.size
    return wl.WeakLearner.from_params(learner.cfg, arrays)


def reference_learner_dict(learner):
    """One step as a JSON-ready dict, parameters as lists."""
    out = {"hidden_dim": learner.cfg.hidden_dim}
    for name, arr in learner.param_items():
        out[name] = {"shape": list(arr.shape), "data": arr.ravel().tolist()}
    return out


def head_nucleus_edu(node):
    """Reference for ``node.head``: follow the nucleus child down to a leaf (NN ties
    break to the left)."""
    while isinstance(node, Internal):
        node = node.right if node.nuclearity == "SN" else node.left
    return node.edu_id


def make_doc(n_edus, doc_id="doc", tokens_per_edu=2):
    edus = tuple(
        tuple(f"tok{i}_{j}" for j in range(tokens_per_edu))
        for i in range(1, n_edus + 1)
    )
    return Document(doc_id, edus)


def enumerate_shapes(lo, hi):
    """All binary tree shapes over leaves lo..hi, as nested span tuples."""
    if lo == hi:
        return [("leaf", lo)]
    shapes = []
    for split in range(lo, hi):
        for left in enumerate_shapes(lo, split):
            for right in enumerate_shapes(split + 1, hi):
                shapes.append(("node", left, right))
    return shapes


def label_shape(shape, rng, relations):
    """Attach random nuclearity + relation labels to a shape."""
    if shape[0] == "leaf":
        return Leaf(shape[1])
    left = label_shape(shape[1], rng, relations)
    right = label_shape(shape[2], rng, relations)
    return Internal(rng.choice(NUCLEARITIES), rng.choice(relations), left, right)


def random_tree(rng, n_edus, relations=("elaboration", "contrast")):
    """Uniformly random split structure with random labels."""

    def build(lo, hi):
        if lo == hi:
            return Leaf(lo)
        split = rng.randint(lo, hi - 1)
        return Internal(
            rng.choice(NUCLEARITIES),
            rng.choice(relations),
            build(lo, split),
            build(split + 1, hi),
        )

    return build(1, n_edus)


@pytest.fixture
def rng():
    return random.Random(12345)
