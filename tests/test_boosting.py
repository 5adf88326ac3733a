import base64
import binascii
import dataclasses
import functools
import gc
import itertools
import json
import math
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

import rstboost.boosting as boosting
import rstboost.weak_learner as wl
from rstboost.boosting import (
    DECODE_CHUNK_DOCS,
    BoostConfig,
    BoostedEnsemble,
    _build_instances,
    _run_epoch,
    action_to_class,
    decode,
    decode_batch,
    load_model,
    mean_oracle_ce,
    model_from_json,
    model_to_json,
    predict_action,
    save_model,
    split_dev,
    structure_mask,
    train,
    train_step,
)
from rstboost.encoder import CENTER, NUCLEUS, EncoderConfig, encode_state, row_key
from rstboost.errors import (DimensionMismatch, EmptyTreebank, InvalidConfig, InvalidPrefix,
                             MalformedSyntax)
from rstboost.metrics import score
from rstboost.transition import SHIFT, Reduce, apply, initial_state, oracle
from rstboost.treebank import (
    Document,
    Internal,
    Leaf,
    SynthSettings,
    postorder,
    synthesize_treebank,
    validate,
)
from rstboost.weak_learner import LearnerConfig, LogitPair

from conftest import (
    TerminalState,
    head_nucleus_edu,
    oracle_action_accuracy,
    reference_decode,
    reference_logit_sum,
    reference_predict_action,
)

SHARED = ("attribution", "background", "cause", "contrast", "elaboration", "joint")
DOMAIN = ("condition", "evidence")
ENC = EncoderConfig(hash_dim=64)


def row_of(inst, i):
    """Instance i's sparse row ``(indices, values)``."""
    indptr, indices, data = inst.rows
    return indices[indptr[i]:indptr[i + 1]], data[indptr[i]:indptr[i + 1]]


def oracle_instances(tb):
    """``tb``'s oracle instance set under ``ENC``, with no step added (zero frozen sums)."""
    ens = BoostedEnsemble(ENC, tb.relation_inventory, (), boost_cfg(tb))
    return _build_instances(tb.entries, ens)


def small_treebank(n_docs=30, seed=1, edu_range=(2, 6), relations=(SHARED, DOMAIN)):
    """A synthetic news treebank; ``relations`` is its (shared, domain) relation sets."""
    settings = SynthSettings(
        edu_range=edu_range,
        shared_vocab=30,
        domain_vocab=10,
        shared_relations=relations[0],
        domain_relations_a=relations[1],
        domain_relations_b=relations[1],
        p_domain=0.3,
    )
    return synthesize_treebank(settings, "a", n_docs, "unit", seed)


def boost_cfg(tb, n_steps=2, **kw):
    lc = LearnerConfig(
        input_dim=ENC.width,
        n_relations=len(tb.relation_inventory),
        hidden_dim=kw.pop("hidden_dim", 8),
        learning_rate=kw.pop("learning_rate", 0.1),
        l2_penalty=kw.pop("l2_penalty", 0.0),
    )
    defaults = dict(n_steps=n_steps, epochs_max=6, patience=2, dev_fraction=0.15, seed=3)
    defaults.update(kw)
    return BoostConfig(learner=lc, **defaults)


def bias_only_learner(cfg, structure_bias, relation_bias=None):
    learner = wl.zeros(cfg)
    learner.b_structure[...] = structure_bias
    if relation_bias is not None:
        learner.b_relation[...] = relation_bias
    return learner


def format2_reference(ens):
    """The model file as the README lays out format 2, each parameter packed
    with ``struct`` rather than numpy."""
    def param(arr):
        flat = arr.ravel().tolist()
        packed = struct.pack(f"<{len(flat)}d", *flat)
        return {"shape": list(arr.shape), "f64le": base64.b64encode(packed).decode()}

    doc = {
        "format_version": 2,
        "encoder_config": dataclasses.asdict(ens.encoder_config),
        "relation_inventory": list(ens.relation_inventory),
        "train_domain_tag": ens.train_domain_tag,
        "boost_config": dataclasses.asdict(ens.boost_config),
        "steps": [{name: param(arr) for name, arr in s.param_items()} for s in ens.steps],
    }
    return json.dumps(doc, indent=1)


def frontier_step(ens, prefixes, state, doc):
    """``predict_action`` on a one-state frontier, checked against the per-state
    reference step."""
    rows = wl.stack_rows(ens.encoder_config.width, [encode_state(state, doc, ens.encoder_config)])
    got, = predict_action(ens, [sorted(prefixes)], rows, structure_mask(state)[None])
    assert list(got.items()) == list(reference_predict_action(ens, prefixes, state, doc).items())
    return got


def scored_states(tree):
    """The states of ``tree``'s derivation that can reduce, each after its number of
    actions taken: the ones the decoder encodes and scores, as every other state has one
    legal action, a shift."""
    states = itertools.accumulate(oracle(tree)[:-1], apply, initial=initial_state(tree.span[1]))
    return [(t, state) for t, state in enumerate(states) if len(state.stack) >= 2]


def manual_ensemble(steps, n_relations, inventory=None):
    cfg = steps[0].cfg
    lc = LearnerConfig(input_dim=cfg.input_dim, n_relations=n_relations, hidden_dim=0)
    inventory = inventory or tuple(f"rel{i}" for i in range(n_relations))
    return BoostedEnsemble(
        encoder_config=ENC,
        relation_inventory=inventory,
        steps=tuple(steps),
        boost_config=BoostConfig(learner=lc),
        train_domain_tag="news",
    )


class TestActionMapping:
    def test_classes(self):
        assert action_to_class(SHIFT) == 0
        assert action_to_class(Reduce("NN", "r")) == 1
        assert action_to_class(Reduce("NS", "r")) == 2
        assert action_to_class(Reduce("SN", "r")) == 3

    def test_structure_mask(self):
        s = initial_state(2)
        assert structure_mask(s).tolist() == [True, False, False, False]
        s = apply(apply(s, SHIFT), SHIFT)
        assert structure_mask(s).tolist() == [False, True, True, True]


class TestAggregate:
    """The frozen sums of ``_build_instances(..., m)`` and ``_Instances.add`` against
    per-step ``wl.forward`` sums, over the oracle states of a small treebank."""
    TB = small_treebank(n_docs=3)

    def cfg(self, hidden_dim=0):
        return LearnerConfig(input_dim=ENC.width, n_relations=len(self.TB.relation_inventory),
                             hidden_dim=hidden_dim)

    def ensemble(self, steps):
        return manual_ensemble(steps, len(self.TB.relation_inventory),
                               inventory=self.TB.relation_inventory)

    def test_prefix_one_equals_forward(self):
        learner = bias_only_learner(self.cfg(), np.array([1.0, 0, 0, 0]))
        inst = _build_instances(self.TB.entries, self.ensemble([learner]), 1)
        fw = wl.forward(learner, inst.rows)
        assert np.array_equal(inst.frozen_s, fw.structure)
        assert np.array_equal(inst.frozen_r, fw.relation)

    def test_elementwise_sum(self):
        a = bias_only_learner(self.cfg(), np.array([1.0, 0, 0, 0]))
        b = bias_only_learner(self.cfg(), np.array([0.5, 2.0, 0, 0]))
        inst = _build_instances(self.TB.entries, self.ensemble([a, b]), 2)
        assert np.allclose(inst.frozen_s, [1.5, 2.0, 0, 0])

    def test_zero_step_is_identity(self):
        a = bias_only_learner(self.cfg(), np.array([1.0, -1.0, 0, 0]))
        z = wl.zeros(self.cfg())
        with_zero = _build_instances(self.TB.entries, self.ensemble([a, z]), 2)
        without = _build_instances(self.TB.entries, self.ensemble([a]), 1)
        assert np.array_equal(with_zero.frozen_s, without.frozen_s)
        assert np.array_equal(with_zero.frozen_r, without.frozen_r)

    def test_additivity(self):
        rng = np.random.default_rng(0)
        steps = [wl.init(self.cfg(hidden_dim=4), int(s)) for s in rng.integers(0, 100, size=3)]
        ens = self.ensemble(steps)
        for m in (2, 3):
            total = _build_instances(self.TB.entries, ens, m)
            prev = _build_instances(self.TB.entries, ens, m - 1)
            step = wl.forward(steps[m - 1], prev.rows)
            assert np.allclose(total.frozen_s, prev.frozen_s + step.structure)
            assert np.allclose(total.frozen_r, prev.frozen_r + step.relation)
            prev.add(steps[m - 1])
            assert np.array_equal(prev.frozen_s, total.frozen_s)
            assert np.array_equal(prev.frozen_r, total.frozen_r)
        every = _build_instances(self.TB.entries, ens)
        assert np.array_equal(every.frozen_s, total.frozen_s)

    def test_mean_oracle_ce_is_the_boosted_loss_of_step_m(self):
        """Prefix m's oracle CE is the mean loss of step m against the sum of steps
        1..m-1, as ``boosted_loss_and_grad`` takes it one state at a time."""
        rng = np.random.default_rng(1)
        steps = [wl.init(self.cfg(hidden_dim=3), int(s)) for s in rng.integers(0, 100, size=3)]
        ens = self.ensemble(steps)
        inst = _build_instances(self.TB.entries, ens, 0)
        for m in (1, 2, 3):
            losses = []
            for i in range(len(inst)):
                gr = int(inst.gold_relation[i])
                row = row_of(inst, i)
                s, r = reference_logit_sum(ens, m - 1, wl.stack_rows(ENC.width, [row]))
                loss, _ = wl.boosted_loss_and_grad(
                    steps[m - 1], row, LogitPair(s[0], r[0]),
                    int(inst.gold_structure[i]), gr if gr >= 0 else None, inst.mask[i])
                losses.append(loss)
            assert np.isclose(mean_oracle_ce(ens, m, self.TB.entries), np.mean(losses),
                              rtol=1e-12, atol=0)

    def test_invalid_prefix(self):
        ens = manual_ensemble([wl.zeros(self.cfg())], 3)
        tb = small_treebank(n_docs=2)
        for m in (0, 2):
            with pytest.raises(InvalidPrefix):
                decode(ens, m, tb.entries[0][0])
            with pytest.raises(InvalidPrefix):
                mean_oracle_ce(ens, m, tb.entries)


class TestTraining:
    def test_deterministic(self):
        tb = small_treebank()
        cfg = boost_cfg(tb)
        a, _ = train(tb, cfg, ENC)
        b, _ = train(tb, cfg, ENC)
        assert model_to_json(a) == model_to_json(b)

    def test_report_shape(self):
        tb = small_treebank()
        ens, report = train(tb, boost_cfg(tb, n_steps=3), ENC)
        assert len(ens.steps) == 3
        assert len(report.steps) == 3
        assert len(report.cumulative_params) == 3
        assert report.cumulative_params[-1] == sum(s.param_count for s in report.steps)
        for s in report.steps:
            assert s.epochs_run >= 1
            assert s.seconds >= 0
            assert len(s.dev_losses) == s.epochs_run

    @pytest.mark.parametrize("n_steps,epochs_max", [(1, 1), (3, 4)])
    def test_rows_are_checked_once_per_instance_set(self, monkeypatch, n_steps, epochs_max):
        """The train and dev rows are stacked and checked once each, whatever the steps
        and epochs: every forward, CE and update reads the checked batch."""
        tb = small_treebank()
        calls, forwards, stack_rows, forward = [], [], wl.stack_rows, wl.forward
        monkeypatch.setattr(wl, "stack_rows",
                            lambda *args: calls.append(len(args[1])) or stack_rows(*args))
        monkeypatch.setattr(wl, "forward", lambda *args: forwards.append(1) or forward(*args))
        cfg = boost_cfg(tb, n_steps=n_steps, epochs_max=epochs_max)
        _, report = train(tb, cfg, ENC)
        # A train and a dev CE forward per epoch, and one add per set per step.
        assert len(forwards) == 2 * sum(s.epochs_run for s in report.steps) + 2 * n_steps
        train_entries, dev_entries = split_dev(tb, cfg.dev_fraction, cfg.seed)
        assert sorted(calls) == sorted(sum(2 * doc.n_edus - 1 for doc, _ in entries)
                                       for entries in (train_entries, dev_entries))

    def test_report_counts_skipped_states(self):
        """The report counts the train split's oracle states and the ones with one legal
        class, which the SGD loop skips."""
        tb = small_treebank()
        cfg = boost_cfg(tb)
        _, report = train(tb, cfg, ENC)
        train_entries, _ = split_dev(tb, cfg.dev_fraction, cfg.seed)
        ens = BoostedEnsemble(ENC, tb.relation_inventory, (), cfg)
        inst = _build_instances(train_entries, ens)
        assert report.train_states == len(inst)
        assert report.skipped_states == (inst.mask.sum(1) == 1).sum()
        assert report.skipped_states == inst.per_state().count(None)
        assert 0 < report.skipped_states < report.train_states

    def test_single_step_train(self):
        tb = small_treebank()
        ens, report = train(tb, boost_cfg(tb, n_steps=1), ENC)
        assert len(ens.steps) == 1

    def test_train_ce_non_increasing_in_prefix(self):
        tb = small_treebank(n_docs=40)
        cfg = boost_cfg(tb, n_steps=3)
        ens, _ = train(tb, cfg, ENC)
        train_entries, _ = split_dev(tb, cfg.dev_fraction, cfg.seed)
        ces = [mean_oracle_ce(ens, m, train_entries) for m in (1, 2, 3)]
        for prev, cur in zip(ces, ces[1:]):
            assert cur <= prev + 1e-6

    def test_train_step_appends_frozen(self):
        tb = small_treebank()
        cfg = boost_cfg(tb, n_steps=2)
        ens, _ = train(tb, cfg, ENC)
        before = [model_to_json(manual_ensemble([s], 8)) for s in ens.steps]
        ens2, report = train_step(ens, tb, seed=99)
        assert len(ens2.steps) == 3
        after = [model_to_json(manual_ensemble([s], 8)) for s in ens2.steps[:2]]
        assert before == after
        assert report.param_count == wl.n_params(ens2.steps[-1].cfg)

    def test_train_step_deterministic(self):
        tb = small_treebank()
        ens, _ = train(tb, boost_cfg(tb, n_steps=1), ENC)
        a, _ = train_step(ens, tb, seed=5)
        b, _ = train_step(ens, tb, seed=5)
        assert model_to_json(a) == model_to_json(b)

    def test_empty_treebank_rejected(self):
        tb = dataclasses.replace(small_treebank(), entries=())
        with pytest.raises(EmptyTreebank):
            train(tb, boost_cfg(small_treebank()), ENC)

    def test_dimension_mismatch_rejected(self):
        tb = small_treebank()
        lc = LearnerConfig(input_dim=10, n_relations=len(tb.relation_inventory))
        with pytest.raises(DimensionMismatch):
            train(tb, BoostConfig(learner=lc), ENC)

    def test_split_dev_fixed_and_disjoint(self):
        tb = small_treebank(n_docs=20)
        a = split_dev(tb, 0.25, seed=3)
        b = split_dev(tb, 0.25, seed=3)
        assert a == b
        train_ids = {d.doc_id for d, _ in a[0]}
        dev_ids = {d.doc_id for d, _ in a[1]}
        assert not train_ids & dev_ids
        assert len(train_ids) + len(dev_ids) == 20

    def test_single_doc_treebank_trains(self):
        tb = small_treebank(n_docs=1, edu_range=(3, 5))
        ens, report = train(tb, boost_cfg(tb, n_steps=1, epochs_max=2), ENC)
        assert len(ens.steps) == 1

    def test_prefix_accuracy_non_decreasing_across_seeds(self, setups, ensembles):
        # default 200-document setup; allow a 0.5pp dip for noise
        for seed in (1, 2, 3):
            ens, _, _ = ensembles(seed)
            tb = setups(seed)["train"]
            train_entries, _ = split_dev(tb, 0.1, seed)
            accs = [oracle_action_accuracy(ens, m, train_entries)
                    for m in range(1, 6)]
            for prev, cur in zip(accs, accs[1:]):
                assert cur >= prev - 0.005, accs


class TestStepSelection:
    """Which epoch ``_train_one_step`` keeps, with the epochs' train and dev CEs
    scripted: epoch k writes k into the learner's structure bias, so the kept
    parameters name their epoch, and the kept epoch of the zero learner is 0."""
    BASELINE = 1.0  # the train CE of the frozen sums alone

    def run(self, monkeypatch, train_ces, dev_ces, patience=3, epochs_max=10):
        tb = small_treebank(n_docs=4)
        train_inst, dev_inst = oracle_instances(tb), oracle_instances(tb)
        epochs = []

        def run_epoch(learner, *_):
            epochs.append(len(epochs) + 1)
            learner.b_structure[:] = epochs[-1]

        def mean_ce(inst, step=None):
            if step is None:
                assert inst is train_inst
                return self.BASELINE
            ces = train_ces if inst is train_inst else dev_ces
            return ces[int(step.b_structure[0]) - 1]

        monkeypatch.setattr(boosting, "_run_epoch", run_epoch)
        monkeypatch.setattr(boosting._Instances, "mean_ce", mean_ce)
        cfg = boost_cfg(tb, n_steps=1, patience=patience, epochs_max=epochs_max)
        learner, report = boosting._train_one_step(cfg, 1, 0, train_inst, dev_inst)
        assert report.epochs_run == len(epochs) == len(report.dev_losses)
        # The report holds each epoch's dev CE, a non-finite one as None (JSON's null).
        assert report.dev_losses == [d if math.isfinite(d) else None
                                     for d in dev_ces[:len(epochs)]]
        if report.selection == "zero":
            assert not any(arr.any() for _, arr in learner.param_items())
            return report, 0
        return report, int(learner.b_structure[0])

    def test_dev_pick(self, monkeypatch):
        report, kept = self.run(monkeypatch, [0.9, 0.8, 0.7, 0.6, 0.5],
                                [0.5, 0.4, 0.45, 0.46, 0.47])
        assert (report.selection, report.epochs_run, report.final_train_loss) == ("dev", 5, 0.8)
        assert kept == 2

    def test_fallback_to_best_train_epoch(self, monkeypatch):
        """The dev pick's train CE is above the baseline; a later epoch's is not."""
        report, kept = self.run(monkeypatch, [1.2, 1.1, 0.9, 1.3], [0.5, 0.6, 0.7, 0.8])
        assert (report.selection, report.epochs_run, report.final_train_loss) == ("train", 4, 0.9)
        assert kept == 3

    def test_fallback_to_zero_learner(self, monkeypatch):
        report, kept = self.run(monkeypatch, [1.2, 1.1, 1.3, 1.4], [0.5, 0.6, 0.7, 0.8])
        assert (report.selection, report.epochs_run) == ("zero", 4)
        assert report.final_train_loss == self.BASELINE
        assert kept == 0

    @pytest.mark.parametrize("train_ces, selection, final, kept", [
        ([0.9, 0.8, 0.95], "train", 0.8, 2),
        ([1.1, math.nan, 1.2], "zero", 1.0, 0),
    ])
    def test_dev_ce_never_finite(self, monkeypatch, train_ces, selection, final, kept):
        """No epoch improves on an infinite best dev CE, so patience ends the loop and
        selection falls back as if the dev pick were worse than the baseline."""
        report, got = self.run(monkeypatch, train_ces, [math.nan, math.inf, math.nan])
        assert (report.selection, report.epochs_run, report.final_train_loss) == (
            selection, 3, final)
        assert report.dev_losses == [None, None, None]
        assert got == kept

    def test_patience_stops_the_loop(self, monkeypatch):
        """An improving epoch resets the count; ``patience`` epochs in a row without one
        end the loop before ``epochs_max``."""
        report, kept = self.run(monkeypatch, [0.9, 0.8, 0.7, 0.6, 0.5, 0.4],
                                [0.5, 0.6, 0.4, 0.7, 0.8, 0.3], patience=2)
        assert (report.selection, report.epochs_run, report.final_train_loss) == ("dev", 5, 0.7)
        assert kept == 3

    def test_epochs_max_stops_the_loop(self, monkeypatch):
        report, kept = self.run(monkeypatch, [0.9, 0.8, 0.7], [0.5, 0.4, 0.3], epochs_max=3)
        assert (report.selection, report.epochs_run, report.final_train_loss) == ("dev", 3, 0.7)
        assert kept == 3


def reference_run_epoch(params, cfg, inst, frozen_s, frozen_r, order):
    """The SGD epoch loop as first written (``np.outer``, ``np.where`` masking and
    ``[:, slice(None)]`` head columns), updating ``params`` in place."""
    lr = cfg.learning_rate
    decay = 1.0 - 2.0 * lr * cfg.l2_penalty
    p = params
    hidden = "w_hidden" in p
    w1 = p.get("w_hidden")
    b1 = p.get("b_hidden")
    ws, bs = p["w_structure"], p["b_structure"]
    wr, br = p["w_relation"], p["b_relation"]
    indptr, indices, data = inst.rows
    for i in order:
        idx, xv = indices[indptr[i]:indptr[i + 1]], data[indptr[i]:indptr[i + 1]]
        if hidden:
            h, cols = np.tanh(w1[:, idx] @ xv + b1), slice(None)
        else:
            h, cols = xv, idx
        zs = frozen_s[i] + ws[:, cols] @ h + bs
        zs = np.where(inst.mask[i], zs, -np.inf)
        e = np.exp(zs - zs.max())
        dz_s = e / e.sum()
        dz_s[inst.gold_structure[i]] -= 1.0

        g_rel = inst.gold_relation[i]
        if g_rel >= 0:
            zr = frozen_r[i] + wr[:, cols] @ h + br
            e = np.exp(zr - zr.max())
            dz_r = e / e.sum()
            dz_r[g_rel] -= 1.0
        else:
            dz_r = None

        if hidden:
            dh = ws.T @ dz_s
            if dz_r is not None:
                dh += wr.T @ dz_r
            dpre = dh * (1.0 - h * h)
        if decay != 1.0:
            for arr in p.values():
                arr *= decay
        ws[:, cols] -= lr * np.outer(dz_s, h)
        bs -= lr * dz_s
        if dz_r is not None:
            wr[:, cols] -= lr * np.outer(dz_r, h)
            br -= lr * dz_r
        if hidden:
            w1[:, idx] -= lr * np.outer(dpre, xv)
            b1 -= lr * dpre


def epochs_against_reference(hidden_dim, l2_penalty, n_docs=6, n_epochs=1,
                             relations=(SHARED, DOMAIN)):
    """``_run_epoch`` and ``reference_run_epoch`` from the same start, ``n_epochs``
    times each over random frozen sums and one fixed order: the learner, the
    reference's arrays after each epoch and the instance set."""
    tb = small_treebank(n_docs=n_docs, relations=relations)
    inst = oracle_instances(tb)
    cfg = LearnerConfig(
        input_dim=ENC.width, n_relations=len(tb.relation_inventory),
        hidden_dim=hidden_dim, learning_rate=0.05, l2_penalty=l2_penalty)
    rng = np.random.default_rng(hidden_dim)
    inst.frozen_s = rng.normal(size=(len(inst), 4))
    inst.frozen_r = rng.normal(size=(len(inst), cfg.n_relations))
    order = rng.permutation(len(inst))

    fast = wl.init(cfg, 7)
    ref = {name: arr.copy() for name, arr in fast.param_items()}
    after = []
    for _ in range(n_epochs):
        _run_epoch(fast, inst.per_state(), order)
        reference_run_epoch(ref, cfg, inst, inst.frozen_s, inst.frozen_r, order)
        after.append(({name: arr.copy() for name, arr in fast.param_items()},
                      {name: arr.copy() for name, arr in ref.items()}))
    return fast, after, inst


def assert_params_close(got, ref):
    """The lazily decayed arrays round differently from the eager reference's; the
    tolerance is that of the gradient tests."""
    assert list(got) == list(ref)
    for name, arr in ref.items():
        assert np.allclose(got[name], arr, rtol=1e-10, atol=1e-12), name


# One relation: the relation head is a single row, a shape BLAS may treat apart.
ONE_RELATION = (("elaboration",), ("elaboration",))


class TestFastPathEquivalence:
    # 16 is the README's hidden width.  BLAS picks its kernel by shape, so each
    # width, and a relation head of one row, needs its own bitwise check.
    @pytest.mark.parametrize("hidden_dim, relations", [
        pytest.param(h, rels, id=f"{h}{name}") for rels, name in (
            ((SHARED, DOMAIN), ""), (ONE_RELATION, "-one_relation")) for h in (0, 3, 16)])
    @pytest.mark.parametrize("l2_penalty", [0.0, 0.01])
    def test_epoch_bitwise_equals_reference_loop(self, hidden_dim, relations, l2_penalty):
        """Bitwise without L2, where the running scale stays exactly 1.0; with L2 the
        input-wide arrays decay through the scale, within the gradient tests' tolerance."""
        fast, [(got, ref)], _ = epochs_against_reference(hidden_dim, l2_penalty,
                                                         relations=relations)
        cfg = fast.cfg
        assert cfg.n_relations == len(set(relations[0] + relations[1]))
        if l2_penalty:
            assert_params_close(got, ref)
        else:
            assert list(got) == list(ref)
            for name, arr in ref.items():
                assert np.array_equal(got[name], arr), name
        for name, arr in ref.items():
            # A one-class softmax has zero gradient: one relation's head only decays.
            if cfg.n_relations > 1 or "relation" not in name:
                assert not np.array_equal(arr, getattr(wl.init(cfg, 7), name)), name

    @pytest.mark.parametrize("hidden_dim", [0, 3])
    @pytest.mark.parametrize("decay", [0.6, 1e-3])
    def test_scale_folded_below_floor_matches_reference(self, hidden_dim, decay):
        """Decay strong enough that the running scale falls below the floor many times
        in one epoch.  At 1e-3 an unfolded scale would underflow to 0 in ~110 updates."""
        lr = 0.05
        fast, [(got, ref)], inst = epochs_against_reference(
            hidden_dim, (1.0 - decay) / (2.0 * lr), n_docs=20)
        assert fast.cfg.learning_rate == lr
        updates_per_fold = math.floor(math.log(boosting._SCALE_FLOOR) / math.log(decay)) + 1
        assert len(inst) >= 3 * updates_per_fold and len(inst) > 110
        assert_params_close(got, ref)

    @pytest.mark.parametrize("hidden_dim", [0, 3])
    def test_epoch_ends_with_true_parameters(self, hidden_dim):
        """Each epoch folds the running scale into the arrays before it returns, so the
        next epoch, ``mean_ce`` and a snapshot all read the true parameters."""
        fast, after, inst = epochs_against_reference(hidden_dim, 0.01, n_epochs=2)
        for got, ref in after:
            assert_params_close(got, ref)
        reference = wl.WeakLearner.from_params(fast.cfg, after[-1][1])
        assert math.isclose(inst.mean_ce(fast), inst.mean_ce(reference), rel_tol=1e-10)

    def test_sparse_epoch_matches_reference_updates(self):
        tb = small_treebank(n_docs=6)
        inst = oracle_instances(tb)
        cfg = LearnerConfig(
            input_dim=ENC.width, n_relations=len(tb.relation_inventory),
            hidden_dim=4, learning_rate=0.05, l2_penalty=0.0)
        inst.frozen_s = frozen_s = np.random.default_rng(0).normal(size=(len(inst), 4)) * 0.1
        frozen_r = inst.frozen_r
        order = np.arange(len(inst))

        fast = wl.init(cfg, 7)
        _run_epoch(fast, inst.per_state(), order)

        ref = wl.init(cfg, 7)
        for i in order:
            gr = int(inst.gold_relation[i])
            _, grads = wl.boosted_loss_and_grad(
                ref, row_of(inst, i), LogitPair(frozen_s[i], frozen_r[i]),
                int(inst.gold_structure[i]), gr if gr >= 0 else None, inst.mask[i])
            ref = wl.sgd_step(ref, grads, cfg.learning_rate)

        for (_, a), (_, b) in zip(fast.param_items(), ref.param_items()):
            assert np.allclose(a, b, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("hidden_dim", [0, 3])
    def test_l2_epoch_matches_reference_updates(self, hidden_dim):
        tb = small_treebank(n_docs=4)
        inst = oracle_instances(tb)
        cfg = LearnerConfig(
            input_dim=ENC.width, n_relations=len(tb.relation_inventory),
            hidden_dim=hidden_dim, learning_rate=0.05, l2_penalty=0.01)
        frozen_s, frozen_r = inst.frozen_s, inst.frozen_r  # zero: no step added
        order = np.arange(len(inst))
        fast = wl.init(cfg, 7)
        _run_epoch(fast, inst.per_state(), order)
        ref = wl.init(cfg, 7)
        for i in order:
            gr = int(inst.gold_relation[i])
            _, grads = wl.boosted_loss_and_grad(
                ref, row_of(inst, i), LogitPair(frozen_s[i], frozen_r[i]),
                int(inst.gold_structure[i]), gr if gr >= 0 else None, inst.mask[i])
            ref = wl.sgd_step(ref, grads, cfg.learning_rate)
        for (_, a), (_, b) in zip(fast.param_items(), ref.param_items()):
            assert np.allclose(a, b, rtol=1e-10, atol=1e-12)


class TestSkippedStates:
    """The SGD loop skips the states with one legal class: their update subtracts only
    zeros, so only L2 decay acts on them."""

    @pytest.mark.parametrize("hidden_dim", [0, 3])
    def test_one_legal_class_has_zero_gradient(self, hidden_dim):
        tb = small_treebank()
        inst = oracle_instances(tb)
        cfg = LearnerConfig(input_dim=ENC.width, n_relations=len(tb.relation_inventory),
                            hidden_dim=hidden_dim)
        rng = np.random.default_rng(hidden_dim)
        inst.frozen_s = rng.normal(size=(len(inst), 4))
        inst.frozen_r = rng.normal(size=(len(inst), cfg.n_relations))
        one_legal = inst.mask.sum(1) == 1
        assert [state is None for state in inst.per_state()] == one_legal.tolist()
        assert 0 < one_legal.sum() < len(inst)
        assert (inst.gold_structure[one_legal] == wl.SHIFT_CLASS).all()
        assert (inst.gold_relation[one_legal] == -1).all()
        learner = wl.init(cfg, 7)
        for i in np.flatnonzero(one_legal):
            loss, grads = wl.boosted_loss_and_grad(
                learner, row_of(inst, i), LogitPair(inst.frozen_s[i], inst.frozen_r[i]),
                wl.SHIFT_CLASS, None, inst.mask[i])
            assert loss == 0.0
            assert set(grads) == set(wl.param_shapes(cfg))
            for name, grad in grads.items():
                assert not grad.any(), name

    @pytest.mark.parametrize("hidden_dim", [0, 3])
    @pytest.mark.parametrize("decay", [1.0, 1e-3])
    def test_epoch_over_skipped_states_only_decays(self, hidden_dim, decay):
        """Without L2 an epoch over skipped states leaves every bit as it was; at a decay
        of 1e-3 the running scale is folded on them, as the eager reference decays."""
        tb = small_treebank(n_docs=6)
        inst = oracle_instances(tb)
        lr = 0.05
        cfg = LearnerConfig(
            input_dim=ENC.width, n_relations=len(tb.relation_inventory),
            hidden_dim=hidden_dim, learning_rate=lr, l2_penalty=(1.0 - decay) / (2.0 * lr))
        # Three updates: a fold inside the loop after the second, and one at the end;
        # parameters of about 1e-10 stay far above the tolerance's absolute part.
        order = np.flatnonzero(inst.mask.sum(1) == 1)[:3]
        updates_per_fold = math.floor(math.log(boosting._SCALE_FLOOR) / math.log(1e-3)) + 1
        assert len(order) == 3 > updates_per_fold
        fast = wl.init(cfg, 7)
        ref = {name: arr.copy() for name, arr in fast.param_items()}
        _run_epoch(fast, inst.per_state(), order)
        got = dict(fast.param_items())
        if decay == 1.0:
            assert list(got) == list(ref)
            for name, arr in ref.items():
                assert got[name].tobytes() == arr.tobytes(), name
        else:
            reference_run_epoch(ref, cfg, inst, inst.frozen_s, inst.frozen_r, order)
            assert_params_close(got, ref)
            assert not np.array_equal(got["w_structure"], wl.init(cfg, 7).w_structure)


class TestDecoding:
    def linear_cfg(self, n_relations=3):
        return LearnerConfig(input_dim=ENC.width, n_relations=n_relations, hidden_dim=0)

    def test_initial_state_forces_shift(self):
        learner = bias_only_learner(self.linear_cfg(), np.array([-5.0, 9, 9, 9]))
        ens = manual_ensemble([learner], 3)
        doc = Document("d", (("a",), ("b",)))
        assert frontier_step(ens, [1], initial_state(2), doc) == {SHIFT: [1]}

    def test_exhausted_queue_forces_reduce(self):
        learner = bias_only_learner(self.linear_cfg(), np.array([9.0, -5, -5, -5]))
        ens = manual_ensemble([learner], 3)
        doc = Document("d", (("a",), ("b",)))
        state = apply(apply(initial_state(2), SHIFT), SHIFT)
        (action, prefixes), = frontier_step(ens, [1], state, doc).items()
        assert isinstance(action, Reduce) and prefixes == [1]

    def test_zero_ensemble_tie_breaks_to_lowest_index(self):
        ens = manual_ensemble([wl.zeros(self.linear_cfg())], 3,
                              inventory=("alpha", "beta", "gamma"))
        doc = Document("d", tuple(("t",) for i in (1, 2, 3)))
        state = apply(apply(initial_state(3), SHIFT), SHIFT)
        # shift and reduce both legal, all logits zero -> class 0 (shift)
        assert frontier_step(ens, [1], state, doc) == {SHIFT: [1]}
        # queue exhausted -> lowest reduce class (NN) and lowest relation index
        state = apply(state, SHIFT)
        assert frontier_step(ens, [1], state, doc) == {Reduce("NN", "alpha"): [1]}

    def test_terminal_state_rejected(self, monkeypatch):
        ens = manual_ensemble([wl.zeros(self.linear_cfg())], 3)
        doc = Document("d", (("a",),))
        state = apply(initial_state(1), SHIFT)
        with pytest.raises(TerminalState):
            reference_predict_action(ens, [1], state, doc)
        # No frontier holds a terminal state, whose forced shift would be illegal: a
        # one-EDU document takes one shift, which is not scored.
        calls = []
        monkeypatch.setattr(boosting, "predict_action",
                            lambda *args: calls.append(args) or predict_action(*args))
        assert decode(ens, 1, doc) == (Leaf(1), [SHIFT])
        assert len(calls) == 0

    def test_single_edu_parse(self):
        ens = manual_ensemble([wl.zeros(self.linear_cfg())], 3)
        doc = Document("d", (("hello",),))
        tree, actions = decode(ens, 1, doc)
        assert tree == Leaf(1)
        assert actions == [SHIFT]

    def test_parse_always_valid(self):
        rng = np.random.default_rng(42)
        cfg = LearnerConfig(input_dim=ENC.width, n_relations=8, hidden_dim=4)
        tb = small_treebank(n_docs=25, seed=17, edu_range=(1, 9))
        for seed in (0, 1):
            learner = wl.init(cfg, seed)
            ens = manual_ensemble([learner], 8, inventory=tb.relation_inventory)
            for doc, _ in tb.entries:
                tree, actions = decode(ens, 1, doc)
                assert validate(doc, tree) == []
                assert len(actions) == 2 * doc.n_edus - 1

    def test_shift_bias_gives_right_branching(self):
        learner = bias_only_learner(self.linear_cfg(), np.array([10.0, 0, 0, 0]))
        ens = manual_ensemble([learner], 3)
        n = 6
        doc = Document("d", tuple((f"t{i}",) for i in range(1, n + 1)))
        tree = decode(ens, 1, doc)[0]
        spans = set()

        def walk(node):
            if isinstance(node, Internal):
                spans.add(node.span)
                walk(node.left)
                walk(node.right)

        walk(tree)
        assert spans == {(k, n) for k in range(1, n)}

    def test_prefix_consistency(self):
        tb = small_treebank(n_docs=15)
        ens, _ = train(tb, boost_cfg(tb, n_steps=3), ENC)
        truncated = dataclasses.replace(ens, steps=ens.steps[:2])
        for doc, _ in tb.entries[:8]:
            assert decode(ens, 2, doc)[0] == decode(truncated, 2, doc)[0]

    def test_trained_model_fits_train_set(self):
        tb = small_treebank(n_docs=40)
        cfg = boost_cfg(tb, n_steps=2, epochs_max=10, patience=3)
        ens, _ = train(tb, cfg, ENC)
        acc = oracle_action_accuracy(ens, 2, tb.entries)
        assert acc > 0.9
        total = sum(score(t, decode(ens, 2, d)[0]).span_f1 for d, t in tb.entries)
        assert total / len(tb.entries) > 0.8


class TestDecodePrefixes:
    """The batched decoder against a sequential reference for every prefix."""

    def assert_matches_decode(self, ens, docs):
        n = ens.n_steps
        batch = decode_batch(ens, docs, range(1, n + 1))
        assert len(batch) == len(docs)
        for doc, got in zip(docs, batch):
            assert sorted(got) == list(range(1, n + 1))
            for m in range(1, n + 1):
                want = reference_decode(ens, m, doc)
                assert got[m] == want[0]
                assert decode(ens, m, doc) == want

    def test_trained_ensemble_matches_decode(self):
        tb = small_treebank(n_docs=15)
        ens, _ = train(tb, boost_cfg(tb, n_steps=3), ENC)
        other = small_treebank(n_docs=10, seed=23, edu_range=(1, 12))
        self.assert_matches_decode(ens, [doc for doc, _ in tb.entries + other.entries])

    def test_random_steps_split_and_match_decode(self):
        tb = small_treebank(n_docs=12, seed=17, edu_range=(1, 10))
        cfg = LearnerConfig(input_dim=ENC.width, n_relations=len(tb.relation_inventory),
                            hidden_dim=4)
        ens = manual_ensemble([wl.init(cfg, seed) for seed in range(4)],
                              len(tb.relation_inventory), inventory=tb.relation_inventory)
        docs = [doc for doc, _ in tb.entries]
        self.assert_matches_decode(ens, docs)
        assert any(len(set(got.values())) > 1 for got in decode_batch(ens, docs, range(1, 5)))

    def test_hand_built_groups_split(self):
        cfg = TestDecoding().linear_cfg()
        ens = manual_ensemble([
            bias_only_learner(cfg, np.array([10.0, 0, 0, 0]), np.array([1.0, 0, 0])),
            bias_only_learner(cfg, np.array([-20.0, 5, 0, 0])),
            bias_only_learner(cfg, np.zeros(4), np.array([-5.0, 3, 0])),
        ], 3)
        doc = Document("d", tuple((f"t{i}",) for i in range(1, 6)))
        state = apply(apply(initial_state(5), SHIFT), SHIFT)
        assert list(frontier_step(ens, [1, 2, 3], state, doc).items()) == [
            (SHIFT, [1]), (Reduce("NN", "rel0"), [2]), (Reduce("NN", "rel1"), [3])]
        got, = decode_batch(ens, [doc], [3, 1, 2, 2])
        # prefix 1 shifts while it can; 2 and 3 reduce as soon as they can
        # and split on the relation of that first reduce
        assert oracle(got[1])[:5] == [SHIFT] * 5
        assert oracle(got[2])[:3] == [SHIFT, SHIFT, Reduce("NN", "rel0")]
        assert oracle(got[3])[:3] == [SHIFT, SHIFT, Reduce("NN", "rel1")]
        self.assert_matches_decode(ens, [doc])

    def test_zero_step_ties_to_lowest_index(self):
        cfg = TestDecoding().linear_cfg()
        ens = manual_ensemble([wl.zeros(cfg), wl.zeros(cfg),
                               bias_only_learner(cfg, np.array([0.0, 0, 2, 0]))],
                              3, inventory=("alpha", "beta", "gamma"))
        doc = Document("d", tuple(("t",) for i in (1, 2, 3)))
        got, = decode_batch(ens, [doc], range(1, 4))
        tie = [SHIFT, SHIFT, SHIFT, Reduce("NN", "alpha"), Reduce("NN", "alpha")]
        assert oracle(got[1]) == oracle(got[2]) == tie
        assert oracle(got[3]) == [SHIFT, SHIFT, Reduce("NS", "alpha"), SHIFT,
                                  Reduce("NS", "alpha")]
        self.assert_matches_decode(ens, [doc])

    def test_invalid_prefix(self):
        ens = manual_ensemble([wl.zeros(TestDecoding().linear_cfg())], 3)
        doc = Document("d", (("a",),))
        with pytest.raises(InvalidPrefix):
            decode_batch(ens, [doc], [1, 2])

    def test_instances_hold_each_states_row(self):
        tb = small_treebank(n_docs=5, seed=3, edu_range=(2, 7))
        inst = oracle_instances(tb)
        i = 0
        for doc, tree in tb.entries:
            state = initial_state(doc.n_edus)
            for action in oracle(tree):
                want = encode_state(state, doc, ENC)
                assert all(np.array_equal(a, b) for a, b in zip(row_of(inst, i), want))
                state = apply(state, action)
                i += 1
        assert i == len(inst) == len(inst.rows[0]) - 1

    @pytest.mark.parametrize("strategy", [CENTER, NUCLEUS])
    def test_bag_memo_is_bit_exact(self, strategy):
        cfg = EncoderConfig(hash_dim=64, max_span_tokens=4, truncation_strategy=strategy)
        tb = small_treebank(n_docs=8, seed=5, edu_range=(2, 9))
        for doc, tree in tb.entries:
            bags: dict = {}
            state = initial_state(doc.n_edus)
            for action in oracle(tree):
                memo = encode_state(state, doc, cfg, bags)
                for again in (encode_state(state, doc, cfg), encode_state(state, doc, cfg, bags)):
                    assert all(np.array_equal(a, b) for a, b in zip(again, memo))
                state = apply(state, action)
            assert bags


class TestDecodeBatch:
    """``decode_batch`` over many documents against ``reference_decode``."""

    def random_ensemble(self, tb, hidden_dim, strategy, n_steps=4):
        cfg = LearnerConfig(input_dim=ENC.width, n_relations=len(tb.relation_inventory),
                            hidden_dim=hidden_dim)
        ens = manual_ensemble([wl.init(cfg, seed) for seed in range(n_steps)],
                              len(tb.relation_inventory), inventory=tb.relation_inventory)
        return dataclasses.replace(ens, encoder_config=EncoderConfig(
            hash_dim=ENC.hash_dim, max_span_tokens=4, truncation_strategy=strategy))

    @pytest.mark.parametrize("strategy", [CENTER, NUCLEUS])
    @pytest.mark.parametrize("hidden_dim", [0, 4])
    def test_mixed_lengths_match_reference(self, hidden_dim, strategy):
        tb = small_treebank(n_docs=24, seed=29, edu_range=(1, 12))
        docs = [doc for doc, _ in tb.entries]
        assert {doc.n_edus for doc in docs} >= {1, 12}
        ens = self.random_ensemble(tb, hidden_dim, strategy)
        batch = decode_batch(ens, docs, range(1, 5))
        for doc, got in zip(docs, batch):
            assert got == {m: reference_decode(ens, m, doc)[0] for m in range(1, 5)}
        assert any(len(set(got.values())) > 1 for got in batch)

    def test_unsorted_and_duplicate_prefixes(self):
        tb = small_treebank(n_docs=8, seed=31, edu_range=(1, 9))
        docs = [doc for doc, _ in tb.entries]
        ens = self.random_ensemble(tb, 4, NUCLEUS)
        for got, doc in zip(decode_batch(ens, docs, [4, 2, 4, 1, 2]), docs):
            assert sorted(got) == [1, 2, 4]
            assert got == {m: reference_decode(ens, m, doc)[0] for m in (1, 2, 4)}
        assert decode_batch(ens, docs, []) == [{} for _ in docs]
        assert decode_batch(ens, [], [1]) == []

    def test_duplicate_doc_ids(self):
        tb = small_treebank(n_docs=3, seed=37, edu_range=(3, 8))
        ens = self.random_ensemble(tb, 4, CENTER)
        a, b, c = (Document("same", doc.edus) for doc, _ in tb.entries)
        docs = [a, b, a, c, b]
        batch = decode_batch(ens, docs, range(1, 5))
        for doc, got in zip(docs, batch):
            assert got == {m: reference_decode(ens, m, doc)[0] for m in range(1, 5)}
        assert batch[0] == batch[2] and batch[1] == batch[4]

    def test_batch_independence(self):
        tb = small_treebank(n_docs=10, seed=41, edu_range=(1, 12))
        docs = [doc for doc, _ in tb.entries]
        ens = self.random_ensemble(tb, 4, NUCLEUS)
        alone = [decode_batch(ens, [doc], range(1, 5))[0] for doc in docs]
        assert decode_batch(ens, docs, range(1, 5)) == alone
        assert decode_batch(ens, docs[::-1], range(1, 5)) == alone[::-1]
        assert decode_batch(ens, docs[:1] + docs, range(1, 5))[1:] == alone

    def test_frontier_step_matches_per_state_reference(self):
        tb = small_treebank(n_docs=6, seed=43, edu_range=(3, 9))
        ens = self.random_ensemble(tb, 4, CENTER)
        frontier = []
        for (doc, tree), prefixes in zip(tb.entries, ([1, 2, 3, 4], [2], [1, 3], [4],
                                                      [2, 3, 4], [1])):
            state = initial_state(doc.n_edus)
            for action in oracle(tree)[:doc.n_edus]:
                frontier.append((state, doc, prefixes))
                state = apply(state, action)
        rows = [encode_state(state, doc, ens.encoder_config) for state, doc, _ in frontier]
        got = predict_action(ens, [prefixes for *_, prefixes in frontier],
                             wl.stack_rows(ens.encoder_config.width, rows),
                             np.array([structure_mask(state) for state, *_ in frontier]))
        for (state, doc, prefixes), choice in zip(frontier, got):
            want = reference_predict_action(ens, prefixes, state, doc)
            assert list(choice.items()) == list(want.items())

    def test_out_of_order_groups_match_per_state_reference(self):
        """Each group's {action: [prefixes]} items come in ascending prefix order, however
        the group is ordered."""
        tb = small_treebank(n_docs=4, seed=71, edu_range=(3, 9))
        ens = self.random_ensemble(tb, 4, NUCLEUS)
        frontier = []
        for (doc, tree), prefixes in zip(tb.entries, ([3, 1, 2], [4, 2], [2, 4, 1, 3], [3, 1])):
            state = initial_state(doc.n_edus)
            for action in oracle(tree)[:-1]:
                frontier.append((state, doc, prefixes))
                state = apply(state, action)
        rows = [encode_state(state, doc, ens.encoder_config) for state, doc, _ in frontier]
        got = predict_action(ens, [prefixes for *_, prefixes in frontier],
                             wl.stack_rows(ens.encoder_config.width, rows),
                             np.array([structure_mask(state) for state, *_ in frontier]))
        for (state, doc, prefixes), choice in zip(frontier, got):
            assert list(choice.items()) == list(
                reference_predict_action(ens, prefixes, state, doc).items())
        # Some state's prefixes disagree, where the order of the items shows.
        assert any(len(choice) > 1 for choice in got)

    def test_replaced_steps_decode_as_a_model_read_from_json(self):
        """``stacked`` belongs to one ensemble: one made by ``replace`` from an ensemble
        that has decoded decodes as the same steps read from a model file."""
        tb = small_treebank(n_docs=8, seed=67, edu_range=(2, 10))
        docs = [doc for doc, _ in tb.entries]
        cfg = LearnerConfig(input_dim=ENC.width, n_relations=len(tb.relation_inventory),
                            hidden_dim=4)
        ens = BoostedEnsemble(ENC, tb.relation_inventory,
                              tuple(wl.init(cfg, seed) for seed in range(4)),
                              BoostConfig(learner=cfg))
        full = decode_batch(ens, docs, [1, 2])
        for kept in (ens.steps[:2], ens.steps[2:]):
            short = dataclasses.replace(ens, steps=kept)
            got = decode_batch(short, docs, [1, 2])
            assert got == decode_batch(model_from_json(model_to_json(short)), docs, [1, 2])
            assert (got == full) == (kept == ens.steps[:2])

    def test_stack_is_freed_with_its_ensemble(self):
        tb = small_treebank(n_docs=2, seed=73, edu_range=(2, 4))
        ens = self.random_ensemble(tb, 4, NUCLEUS)
        decode_batch(ens, [doc for doc, _ in tb.entries], [1, 4])
        stacked = weakref.ref(ens.stacked.wide)
        del ens
        gc.collect()
        assert stacked() is None

    def test_rows_are_checked_once_per_iteration(self, monkeypatch):
        tb = small_treebank(n_docs=4, seed=53, edu_range=(2, 6))
        ens = self.random_ensemble(tb, 4, NUCLEUS)
        counts = {"check": 0, "step": 0}

        def counting(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(wl, "stack_rows", counting("check", wl.stack_rows))
        monkeypatch.setattr(boosting, "predict_action", counting("step", predict_action))
        batch = decode_batch(ens, [doc for doc, _ in tb.entries], range(1, 5))
        # All documents move in lockstep, one frontier per action of the longest, and
        # each frontier with a state that can reduce is checked and scored once.
        iterations = {t for got in batch for tree in got.values() for t, _ in scored_states(tree)}
        assert counts == {"check": len(iterations), "step": len(iterations)}
        assert len(iterations) < max(2 * doc.n_edus - 1 for doc, _ in tb.entries)

    @pytest.mark.parametrize("strategy", [CENTER, NUCLEUS])
    def test_shared_rows_match_each_prefix_alone(self, strategy, monkeypatch):
        """Entries whose states share a row are encoded and scored once, and every
        prefix still decodes as it does alone."""
        tb = small_treebank(n_docs=12, seed=59, edu_range=(2, 12))
        docs = [doc for doc, _ in tb.entries]
        ens = self.random_ensemble(tb, 4, strategy, n_steps=5)
        alone = {m: decode_batch(ens, docs, [m]) for m in range(1, 6)}
        encoded = []

        def counting_encode_state(*args):
            encoded.append(args[0])
            return encode_state(*args)

        monkeypatch.setattr(boosting, "encode_state", counting_encode_state)
        batch = decode_batch(ens, docs, range(1, 6))
        assert batch == [{m: alone[m][k][m] for m in range(1, 6)} for k in range(len(docs))]
        # Before action t, a document's frontier holds one entry per distinct history
        # of its prefixes.  Those whose states can reduce are encoded once per distinct
        # ``row_key`` of their states, at least once per distinct row.
        entries = keys = rows = 0
        for doc, got in zip(docs, batch):
            histories = [oracle(tree) for tree in got.values()]
            for t in range(2 * doc.n_edus - 1):
                entry_states = {tuple(actions[:t]): functools.reduce(
                    apply, actions[:t], initial_state(doc.n_edus)) for actions in histories}
                states = [state for state in entry_states.values() if len(state.stack) >= 2]
                entries += len(states)
                keys += len({row_key(state, ens.encoder_config) for state in states})
                rows += len({tuple(map(bytes, encode_state(state, doc, ens.encoder_config)))
                             for state in states})
        assert rows <= len(encoded) == keys < entries
        if strategy == CENTER:  # a center row reads only spans: one call per distinct row
            assert len(encoded) == rows

    @pytest.mark.parametrize("strategy", [CENTER, NUCLEUS])
    def test_decoded_heads_match_reference_walk(self, strategy):
        """Every node of a decoded tree holds the head of the reference walk."""
        tb = small_treebank(n_docs=12, seed=61, edu_range=(1, 12))
        docs = [doc for doc, _ in tb.entries]
        for got in decode_batch(self.random_ensemble(tb, 4, strategy), docs, range(1, 5)):
            for tree in got.values():
                assert all(node.head == head_nucleus_edu(node) for node in postorder(tree))

    def test_relation_split_shares_the_next_row(self, monkeypatch):
        """Two prefixes that choose the same structure but different relations split
        into two entries, which the next iteration that can reduce encodes and scores as
        one row."""
        cfg = LearnerConfig(input_dim=ENC.width, n_relations=2, hidden_dim=0)
        # Reduce-NS whenever it is legal; prefix 1 labels rel0 and prefix 2 rel1.
        ens = manual_ensemble([bias_only_learner(cfg, [0.0, -1.0, 1.0, -1.0], [1.0, 0.0]),
                               bias_only_learner(cfg, [0.0] * 4, [-2.0, 0.0])], 2)
        doc = Document("d", tuple((f"w{i}",) for i in range(1, 4)))
        groups, encoded = [], []

        def recording_predict_action(ensemble, g, rows, masks):
            groups.append(g)
            return predict_action(ensemble, g, rows, masks)

        def counting_encode_state(*args):
            encoded.append(args[0])
            return encode_state(*args)

        monkeypatch.setattr(boosting, "predict_action", recording_predict_action)
        monkeypatch.setattr(boosting, "encode_state", counting_encode_state)
        got = decode_batch(ens, [doc], [1, 2])[0]
        # The split is at the third action, the first that can reduce; the fourth is a
        # shift onto one stack item, which is not scored, and the fifth encodes one row.
        assert groups == [[[1, 2]]] * 2 and len(encoded) == 2
        assert [len(state.stack) for state in encoded] == [2, 2]
        for m, rel in ((1, "rel0"), (2, "rel1")):
            assert oracle(got[m]) == [SHIFT, SHIFT, Reduce("NS", rel), SHIFT, Reduce("NS", rel)]
            assert got[m] == Internal("NS", rel, Internal("NS", rel, Leaf(1), Leaf(2)), Leaf(3))
            assert got[m] == reference_decode(ens, m, doc)[0]

    def test_one_edu_document_is_neither_encoded_nor_scored(self, monkeypatch):
        """A one-EDU document's one state can only shift: every prefix takes that shift
        without an ``encode_state`` or a ``predict_action`` call."""
        cfg = TestDecoding().linear_cfg()
        ens = manual_ensemble([wl.init(cfg, seed) for seed in range(2)], 3)
        calls = []
        for name in ("encode_state", "predict_action"):
            monkeypatch.setattr(boosting, name, lambda *args, name=name: calls.append(name))
        doc = Document("d", (("hello",),))
        assert decode(ens, 1, doc) == (Leaf(1), [SHIFT])
        assert decode_batch(ens, [doc, doc], [2, 1]) == [{1: Leaf(1), 2: Leaf(1)}] * 2
        assert calls == []

    def test_large_treebank_is_decoded_in_bounded_chunks(self, monkeypatch):
        tb = small_treebank(n_docs=2000, seed=47, edu_range=(1, 4))
        docs = [doc for doc, _ in tb.entries]
        ens = self.random_ensemble(tb, 0, NUCLEUS, n_steps=2)
        alone = [decode_batch(ens, [doc], [1, 2])[0] for doc in docs]
        frontiers = []

        def counting_predict_action(ensemble, groups, rows, masks):
            frontiers.append(len(groups))
            return predict_action(ensemble, groups, rows, masks)

        monkeypatch.setattr(boosting, "predict_action", counting_predict_action)
        assert decode_batch(ens, docs, [1, 2]) == alone
        assert max(frontiers) <= 2 * DECODE_CHUNK_DOCS < len(docs)
        assert sum(frontiers) >= sum(len(scored_states(got[1])) for got in alone)


class TestEnsembleSize:
    def test_steps_times_learner_size_is_bounded(self):
        """Checked on the config, before anything trains: at most
        ``MAX_ENSEMBLE_PARAMS`` parameters over all steps."""
        lc = LearnerConfig(input_dim=ENC.width, n_relations=8)
        limit = boosting.MAX_ENSEMBLE_PARAMS // wl.n_params(lc)
        assert BoostConfig(learner=lc, n_steps=limit).n_steps == limit
        for n_steps in (limit + 1, 10**20):
            with pytest.raises(InvalidConfig, match="ensemble limit of 10,000,000"):
                BoostConfig(learner=lc, n_steps=n_steps)
        # The README's train, at the default width, is far inside the limit.
        readme = LearnerConfig(input_dim=EncoderConfig().width, n_relations=8)
        assert 5 * wl.n_params(readme) < boosting.MAX_ENSEMBLE_PARAMS // 40


class TestModelSerialization:
    def test_round_trip_bit_exact(self):
        tb = small_treebank(n_docs=10)
        ens, _ = train(tb, boost_cfg(tb), ENC)
        text = model_to_json(ens)
        clone = model_from_json(text)
        assert model_to_json(clone) == text
        for a, b in zip(ens.steps, clone.steps):
            for (_, pa), (_, pb) in zip(a.param_items(), b.param_items()):
                assert np.array_equal(pa, pb)
        assert clone.relation_inventory == ens.relation_inventory
        assert clone.encoder_config == ens.encoder_config
        assert clone.train_domain_tag == ens.train_domain_tag

    def test_load_draws_no_random_numbers(self, monkeypatch):
        tb = small_treebank(n_docs=8)
        ens, _ = train(tb, boost_cfg(tb, n_steps=1), ENC)
        text = model_to_json(ens)

        def no_rng(*args, **kwargs):
            raise AssertionError("loading a model must not draw random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        assert model_to_json(model_from_json(text)) == text

    def test_save_load_files(self, tmp_path):
        tb = small_treebank(n_docs=8)
        ens, _ = train(tb, boost_cfg(tb, n_steps=1), ENC)
        path = tmp_path / "model.json"
        save_model(ens, path)
        clone = load_model(path)
        assert model_to_json(clone) == model_to_json(ens)

    @pytest.mark.parametrize("hidden_dim,l2_penalty", [(0, 0.0), (8, 0.0), (8, 1e-4)])
    def test_writer_matches_reference(self, hidden_dim, l2_penalty):
        """Also at 1 and 3 steps under domain tags that the writer's splice of the
        base64 must leave as ``json.dumps`` writes them: empty, non-ASCII, with a
        quote and a backslash, and equal to the text the splice looks for."""
        tb = small_treebank(n_docs=8)
        ens, _ = train(tb, boost_cfg(tb, n_steps=3, hidden_dim=hidden_dim,
                                     l2_penalty=l2_penalty), ENC)
        assert ens.n_steps == 3 and model_to_json(ens) == format2_reference(ens)
        for n_steps in (1, 3):
            for tag in ("", "chät ✓", 'say "x" \\ y', '"f64le": ""'):
                other = dataclasses.replace(ens, steps=ens.steps[:n_steps], train_domain_tag=tag)
                text = model_to_json(other)
                assert text == format2_reference(other)
                assert model_from_json(text).train_domain_tag == tag

    def test_round_trip_bit_exact_on_edge_values(self):
        cfg = LearnerConfig(input_dim=ENC.width, n_relations=1, hidden_dim=1)
        step = wl.init(cfg, 3)
        step.b_hidden[0] = -0.0
        step.w_structure[0, 0], step.w_structure[1, 0] = 5e-324, -1.7976931348623157e308
        step.w_relation[0, 0] = -0.0
        ens = dataclasses.replace(
            manual_ensemble([step, wl.init(cfg, 4)], 1, inventory=("elaboration",)),
            boost_config=BoostConfig(learner=cfg), train_domain_tag="nouvelles-€")
        assert step.b_hidden.shape == step.b_relation.shape == (1,)
        text = model_to_json(ens)
        assert text == format2_reference(ens) and "nouvelles-\\u20ac" in text
        clone = model_from_json(text)
        for a, b in zip(ens.steps, clone.steps, strict=True):
            for (na, pa), (nb, pb) in zip(a.param_items(), b.param_items(), strict=True):
                assert na == nb and pa.shape == pb.shape and pb.dtype == np.float64
                assert pb.tobytes() == pa.tobytes()
                assert pb.flags.writeable
            # A loaded learner owns its arrays: a view of the decoded bytes is read-only.
            assert b.wide.flags.writeable and b.small.flags.writeable
        assert np.signbit(clone.steps[0].b_hidden[0])
        assert clone.relation_inventory == ("elaboration",)
        assert clone.train_domain_tag == "nouvelles-€"

    @staticmethod
    def assert_same_parameters(a, b):
        for sa, sb in zip(a.steps, b.steps, strict=True):
            for (na, pa), (nb, pb) in zip(sa.param_items(), sb.param_items(), strict=True):
                assert na == nb and pa.tobytes() == pb.tobytes()

    def test_file_written_otherwise_loads_the_same(self):
        """The reader cuts the base64 out of the text the writer writes; a file with other
        separators has nothing to cut, and one whose blob escapes a ``/`` keeps that blob,
        and both load to the same bits through ``json.loads`` alone."""
        tb = small_treebank(n_docs=8)
        ens, _ = train(tb, boost_cfg(tb), ENC)
        text = model_to_json(ens)
        n_params = sum(len(step.param_items()) for step in ens.steps)
        assert len(boosting._cut_blobs(text.encode())[1]) == n_params
        compact = json.dumps(json.loads(text), separators=(",", ":"))
        assert boosting._cut_blobs(compact.encode()) == (compact.encode(), [])
        self.assert_same_parameters(model_from_json(compact), ens)
        slash = text.index("/", text.index('"f64le": "'))
        assert '"' not in text[text.index('"f64le": "') + 10:slash]  # inside the first blob
        escaped = text[:slash] + "\\" + text[slash:]
        assert len(boosting._cut_blobs(escaped.encode())[1]) == n_params - 1
        self.assert_same_parameters(model_from_json(escaped), ens)

    @pytest.mark.parametrize("label", ["ela boration", "x)y", "élaboration", "Attri bution"])
    def test_inventory_label_outside_grammar_rejected(self, label):
        """A label that the bracket grammar forbids would be written into ``pred.tb``,
        which could then not be read back."""
        cfg = LearnerConfig(input_dim=ENC.width, n_relations=2, hidden_dim=0)
        ens = manual_ensemble([wl.init(cfg, 1)], 2, inventory=("elaboration", label))
        with pytest.raises(MalformedSyntax, match="bad relation label"):
            model_from_json(model_to_json(ens))

    @staticmethod
    def large_ensemble(hash_dim=4096):
        """Five steps at ``hash_dim`` (at 4096: 7.9 MB of parameters)."""
        enc = EncoderConfig(hash_dim=hash_dim)
        cfg = LearnerConfig(input_dim=enc.width, n_relations=8, hidden_dim=16)
        ens = dataclasses.replace(
            manual_ensemble([wl.init(cfg, seed) for seed in range(5)], 8, inventory=SHARED + DOMAIN),
            encoder_config=enc, boost_config=BoostConfig(learner=cfg))
        return ens, sum(arr.nbytes for s in ens.steps for _, arr in s.param_items())

    def test_writer_memory_is_linear_in_text(self):
        """The text is 4/3 of the parameter bytes, so the bound is on those."""
        ens, n_bytes = self.large_ensemble()
        tracemalloc.start()
        try:
            model_to_json(ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * n_bytes, peak / n_bytes

    def test_writer_holds_two_copies_of_the_text(self):
        """``model_to_json`` holds the file's chunks and the bytes it joins them into,
        then those bytes and their text, and nothing else of their size: no escaped
        dump of the blobs."""
        ens, _ = self.large_ensemble(hash_dim=1024)
        tracemalloc.start()
        try:
            text = model_to_json(ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * len(text), peak / len(text)

    def test_loader_memory_is_linear_in_parameters(self):
        ens, n_bytes = self.large_ensemble()
        text = model_to_json(ens)
        tracemalloc.start()
        try:
            clone = model_from_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert clone.n_steps == 5
        assert peak <= 3 * n_bytes, peak / n_bytes

    def test_save_streams_the_file(self, tmp_path):
        """``save_model`` holds one parameter's bytes and base64 at a time, never the
        whole file: its peak is under half the file's size."""
        ens, _ = self.large_ensemble()
        path = tmp_path / "model.json"
        tracemalloc.start()
        try:
            save_model(ens, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert path.read_text() == model_to_json(ens)
        assert peak < 0.5 * size, peak / size

    def test_loader_decodes_from_the_file_bytes(self):
        """Given the file's bytes, the reader decodes each parameter from its view of
        them: the peak is the loaded learners and little more."""
        ens, n_bytes = self.large_ensemble()
        data = model_to_json(ens).encode()
        tracemalloc.start()
        try:
            clone = model_from_json(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.assert_same_parameters(clone, ens)
        assert peak < 1.5 * n_bytes, peak / n_bytes

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        """A save that fails part-way through streaming the parameters leaves the old
        file as it was and no temporary file."""
        tb = small_treebank(n_docs=8)
        ens, _ = train(tb, boost_cfg(tb, n_steps=1), ENC)
        assert len(ens.steps[0].param_items()) >= 3
        target = tmp_path / "model.json"
        target.write_bytes(b"old model\n")
        encode, calls = binascii.b2a_base64, []

        def fail_third(data, **kwargs):
            calls.append(len(data))
            if len(calls) == 3:
                raise OSError("disk full")
            return encode(data, **kwargs)

        monkeypatch.setattr(binascii, "b2a_base64", fail_third)
        with pytest.raises(OSError, match="disk full"):
            save_model(ens, target)
        assert len(calls) == 3
        assert target.read_bytes() == b"old model\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    def test_linear_model_round_trip(self):
        tb = small_treebank(n_docs=8)
        ens, _ = train(tb, boost_cfg(tb, n_steps=1, hidden_dim=0), ENC)
        clone = model_from_json(model_to_json(ens))
        assert clone.steps[0].w_hidden is None
        assert model_to_json(clone) == model_to_json(ens)
