"""Shipping criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE <id>: PASS|FAIL`` line (visible with
``pytest tests/test_acceptance.py -v -s``) and then asserts.  Expensive
artifacts (synthetic treebanks, trained ensembles) are built once per
session and shared across criteria.
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

import rstboost.weak_learner as wl
from rstboost.boosting import (
    BoostedEnsemble,
    decode,
    load_model,
    mean_oracle_ce,
    save_model,
    split_dev,
    train_step,
)
from rstboost.cli import main as cli_main
from rstboost.encoder import truncate_center
from rstboost.metrics import boost_curve, evaluate_treebank, score
from rstboost.transition import oracle
from rstboost.treebank import Internal, Leaf, validate
from rstboost.weak_learner import LearnerConfig, LogitPair, boosted_loss_and_grad

from conftest import (
    DEFAULT_ENC as ENC,
    default_boost_config,
    enumerate_shapes,
    label_shape,
    learner_from_flat,
    random_tree,
    reference_learner_dict,
    replay,
    sparse,
)
from test_golden import SYNTH, WEAK_TRAIN


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_transition_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(20240)
    relations = ("elaboration", "contrast")
    total = failures = 0
    per_shape = 80  # 65 shapes for n in 1..6 -> 5200 trees
    for n in range(1, 7):
        for shape in enumerate_shapes(1, n):
            for _ in range(per_shape):
                tree = label_shape(shape, rng, relations)
                total += 1
                if replay(n, oracle(tree)) != tree:
                    failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and total >= 5000 and elapsed < 30
    report("1 transition-round-trip", ok,
           f"{total} trees, {failures} failures, {elapsed:.1f}s (< 30s)")


def test_criterion_02_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    n_checked = 0
    for hidden_dim in (0, 16):
        for frozen_scale in (0.0, 2.0):
            for _ in range(3):
                cfg = LearnerConfig(input_dim=10, n_relations=6,
                                    hidden_dim=hidden_dim,
                                    l2_penalty=float(rng.uniform(0, 0.01)))
                learner = wl.init(cfg, int(rng.integers(0, 10_000)))
                x = sparse(rng.normal(size=10))
                frozen = LogitPair(rng.normal(size=4) * frozen_scale,
                                   rng.normal(size=6) * frozen_scale)
                if rng.random() < 0.5:
                    gold_s, gold_r = 0, None
                else:
                    gold_s, gold_r = int(rng.integers(1, 4)), int(rng.integers(0, 6))
                mask = (True, True, True, True)
                _, grads = boosted_loss_and_grad(learner, x, frozen, gold_s,
                                                 gold_r, mask)
                analytic = np.concatenate(
                    [grads[name].ravel() for name, _ in learner.param_items()])

                theta = np.concatenate(
                    [arr.ravel() for _, arr in learner.param_items()])
                numeric = np.zeros_like(theta)
                eps = 1e-5
                for i in range(theta.size):
                    for sign in (1.0, -1.0):
                        shifted = theta.copy()
                        shifted[i] += sign * eps
                        probe = learner_from_flat(learner, shifted)
                        loss, _ = boosted_loss_and_grad(probe, x, frozen,
                                                        gold_s, gold_r, mask)
                        numeric[i] += sign * loss
                    numeric[i] /= 2 * eps
                rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
                worst = max(worst, float(rel.max()))
                n_checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and n_checked >= 10 and elapsed < 10
    report("2 gradient-oracle", ok,
           f"{n_checked} configurations, max relative error {worst:.2e} "
           f"(<= 1e-4), {elapsed:.1f}s (< 10s)")


def test_criterion_03_truncation_fidelity():
    got = truncate_center(["t1", "t2", "t3", "t4"], 2)
    ok = got == ["t1", "t4"]
    report("3 truncation-fidelity", ok, f"truncate_center(t1..t4, 2) -> {got}")


def test_criterion_04_boosting_improvement(setups, ensembles):
    t0 = time.perf_counter()
    details = []
    ok = True
    train_seconds = 0.0
    for seed in (1, 2, 3):
        ens, _, seconds = ensembles(seed)
        train_seconds += seconds
        tb = setups(seed)["train"]
        train_entries, _ = split_dev(tb, 0.1, seed)
        ces = [mean_oracle_ce(ens, m, train_entries) for m in range(1, 6)]
        steps_ok = all(b <= a + 1e-6 for a, b in zip(ces, ces[1:]))
        ok = ok and steps_ok
        details.append(f"seed {seed}: " + "->".join(f"{c:.4f}" for c in ces))
    elapsed = train_seconds + (time.perf_counter() - t0)
    ok = ok and elapsed < 300
    report("4 boosting-improvement", ok,
           "train CE non-increasing in prefix (+1e-6): "
           + "; ".join(details) + f"; {elapsed:.0f}s (< 300s)")


def test_criterion_05_frozen_immutability(setups):
    tb = setups(1)["train"]
    cfg = default_boost_config(tb, 1)
    ensemble = BoostedEnsemble(
        encoder_config=ENC,
        relation_inventory=tb.relation_inventory,
        steps=(),
        boost_config=cfg,
        train_domain_tag=tb.domain_tag,
    )
    snapshots = []
    ok = True
    breaches = []
    for k in range(1, 6):
        ensemble, _ = train_step(ensemble, tb, cfg.seed)
        current = [json.dumps(reference_learner_dict(s)) for s in ensemble.steps]
        if snapshots and current[: len(snapshots)] != snapshots:
            ok = False
            breaches.append(k)
        snapshots = current
    report("5 frozen-immutability", ok,
           "steps 1..k-1 byte-identical across k=2..5"
           + (f" (breached at {breaches})" if breaches else ""))


def test_criterion_06_parser_validity(setups, ensembles):
    trained, _, _ = ensembles(1)
    random_cfg = LearnerConfig(input_dim=ENC.width, n_relations=10, hidden_dim=16)
    random_ens = [
        BoostedEnsemble(
            encoder_config=ENC,
            relation_inventory=trained.relation_inventory,
            steps=(wl.init(random_cfg, seed), wl.init(random_cfg, seed + 1)),
            boost_config=default_boost_config(setups(1)["train"], 0),
            train_domain_tag="news",
        )
        for seed in (101, 202)
    ]
    jobs = []
    s1 = setups(1)
    jobs += [(trained, 5, doc) for doc, _ in s1["test_in"].entries]      # 100
    jobs += [(trained, 2, doc) for doc, _ in s1["test_out"].entries]     # 100
    s2 = setups(2)
    jobs += [(random_ens[0], 2, doc) for doc, _ in s2["test_in"].entries]   # 100
    jobs += [(random_ens[1], 2, doc) for doc, _ in s2["test_out"].entries]  # 100
    jobs += [(random_ens[0], 1, doc) for doc, _ in s2["train"].entries[:100]]
    assert len(jobs) == 500
    bad = 0
    for ens, m, doc in jobs:
        tree, actions = decode(ens, m, doc)
        if validate(doc, tree) != [] or len(actions) != 2 * doc.n_edus - 1:
            bad += 1
    report("6 parser-validity", bad == 0,
           f"500 documents parsed, {bad} invalid trees or action-count breaches")


def test_criterion_07_metric_self_consistency():
    rng = random.Random(777)
    bad = 0
    for _ in range(1000):
        tree = random_tree(rng, rng.randint(2, 12))
        if any(f1 != 1.0 for _, _, f1 in score(tree, tree).levels().values()):
            bad += 1
    left = Internal("NS", "cause",
                    Internal("NS", "elaboration", Leaf(1), Leaf(2)), Leaf(3))
    right = Internal("NS", "cause", Leaf(1),
                     Internal("NS", "elaboration", Leaf(2), Leaf(3)))
    half = score(left, right).span_f1
    ok = bad == 0 and half == 0.5
    report("7 metric-self-consistency", ok,
           f"1000 self-scores perfect ({bad} failures); "
           f"3-EDU left-vs-right span F1 = {half}")


def test_criterion_08_learnability(setups, ensembles):
    t0 = time.perf_counter()
    ens, _, train_seconds = ensembles(1)
    scores = evaluate_treebank(ens, 5, setups(1)["test_in"])
    elapsed = train_seconds + (time.perf_counter() - t0)
    rel_f1 = scores.levels()["relation"][2]
    ok = scores.span_f1 >= 0.85 and rel_f1 >= 0.70 and elapsed < 600
    report("8 learnability", ok,
           f"in-domain span F1 {scores.span_f1:.4f} (>= 0.85), "
           f"relation F1 {rel_f1:.4f} (>= 0.70), "
           f"{elapsed:.0f}s (< 600s)")


def test_criterion_09_domain_curve(setups, ensembles):
    directions = {}
    complete = True
    for seed in (1, 2, 3, 4, 5):
        ens, _, _ = ensembles(seed)
        s = setups(seed)
        table = boost_curve(ens, [s["test_in"], s["test_out"]])
        cells = {(r.m, r.domain) for r in table.rows}
        expected = {(m, d) for m in range(1, 6) for d in ("news", "chat")}
        complete = complete and cells == expected and table.gaps is not None
        directions[seed] = bool(table.gaps[5] >= table.gaps[1])
    # determinism of the full table
    ens, _, _ = ensembles(1)
    s = setups(1)
    again = boost_curve(ens, [s["test_in"], s["test_out"]])
    deterministic = again.to_csv() == boost_curve(
        ens, [s["test_in"], s["test_out"]]).to_csv()
    n_up = sum(directions.values())
    ok = complete and deterministic
    report("9 domain-curve", ok,
           f"5 seeds x (5 prefixes x 2 domains) tables complete and "
           f"deterministic; gap(m=n) >= gap(m=1) in {n_up}/5 seeds "
           f"(reported, not gated): {directions}")


def test_criterion_10_determinism(setups, tmp_path):
    data = setups(1)["dir"] / "train_news.tb"
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = cli_main(["--seed", "1", "--quiet", "train", str(data),
                         "--out", str(p)])
        assert code == 0
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    save_model(load_model(paths[0]), tmp_path / "saved.json")
    round_trip = (tmp_path / "saved.json").read_bytes() == paths[0].read_bytes()
    ok = identical and round_trip
    report("10 determinism", ok,
           f"repeat training byte-identical: {identical}; "
           f"save/load round-trip bit-exact: {round_trip}")


def test_criterion_11_parameter_matching(setups, tmp_path):
    data = setups(1)["dir"] / "train_news.tb"
    out = tmp_path / "compare.json"
    code = cli_main(["--seed", "1", "--quiet", "compare", str(data),
                     "--steps", "5", "--match-params",
                     "--epochs-max", "10", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    gap = rep["match_params"]["relative_param_gap"]
    matched = gap <= 0.05 or manifest["no_matching_width_warning"]
    timings = all(manifest["timings_seconds"][f"train_{c['name']}"] > 0
                  for c in rep["contenders"])
    ok = matched and timings
    report("11 parameter-matching", ok,
           f"parameter gap {gap:.2%} (<= 5% or warned); "
           f"both contenders timed: {timings}")


def test_criterion_12_weak_steps_lower_train_ce(tmp_path):
    """At the weak golden setting, where step 1 leaves work for the later steps,
    every step is kept and each kept step lowers the combined train CE."""
    cfg, data, model = tmp_path / "synth.json", tmp_path / "data", tmp_path / "model.json"
    cfg.write_text(json.dumps(SYNTH))
    assert cli_main(["--seed", "1", "--quiet", "synth", "--config", str(cfg),
                     "--out", str(data)]) == 0
    assert cli_main(["--seed", "1", "--quiet", "train", str(data / "train_news.tb"),
                     "--out", str(model), *WEAK_TRAIN]) == 0
    steps = json.loads(Path(str(model) + ".report.json").read_text())["steps"]
    kept = [s["final_train_loss"] for s in steps if s["selection"] != "zero"]
    ok = len(kept) == len(steps) == 5 and all(b < a for a, b in zip(kept, kept[1:]))
    report("12 weak-steps-lower-train-ce", ok,
           "kept steps' train CE " + " -> ".join(f"{c:.4f}" for c in kept)
           + f" ({len(kept)} of {len(steps)} kept), strictly decreasing")
