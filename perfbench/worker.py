"""One benchmark process: ``setup`` writes a workload's inputs, ``measure`` runs it.

``measure`` is a closed loop with one client: it calls ``rstboost.cli.main``
with each command of the workload's sequence, one after the other, checks
each command's outputs, and repeats the sequence until the time budget is
spent.  With ``--trace 1`` it records spans around the package's public
functions and then calls, directly, the public functions the sequence did
not reach, so that every per-layer metric has samples.

Run by ``perfbench/run.py``; the result goes to the ``--result`` JSON file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from rstboost import boosting, cli, encoder, metrics, transition, treebank  # noqa: E402
from rstboost import weak_learner as wl  # noqa: E402
import workloads  # noqa: E402
from calibrate import clocked, kernel  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

MAX_PROBLEMS = 20
DENSE_PROBE_STATES = 200


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def runtime_facts() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (AttributeError, KeyError, TypeError):
        pass
    return {"numpy": np.__version__, "blas": blas}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class Checker:
    def __init__(self) -> None:
        self._gold: dict[Path, treebank.Treebank] = {}

    def gold(self, path: Path) -> treebank.Treebank:
        if path not in self._gold:
            self._gold[path] = treebank.load_treebank(path)
        return self._gold[path]

    def check(self, op: workloads.Op) -> tuple[list[str], dict]:
        """Problems found in the outputs of one successful command, and facts read."""
        problems: list[str] = []
        info: dict = {}
        for path in op.outputs:
            if not path.is_file():
                problems.append(f"{op.kind}: missing output {path.name}")
        if problems:
            return problems, info
        if op.kind == "synth":
            for path in op.outputs:
                if len(treebank.load_treebank(path)) == 0:
                    problems.append(f"synth: {path.name} has no documents")
        elif op.kind == "train":
            report = json.loads(Path(str(op.files["model"]) + ".report.json").read_text())
            if len(report["steps"]) != workloads.STEPS:
                problems.append(f"train: {len(report['steps'])} steps, "
                                f"expected {workloads.STEPS}")
        elif op.kind == "parse":
            problems += self._check_parse(op, info)
        elif op.kind == "eval":
            lines = op.outputs[0].read_text().splitlines()
            if len(lines) != 2 or lines[0] != metrics.CSV_HEADER:
                problems.append(f"eval: expected a header and one row, got {len(lines)} lines")
        elif op.kind == "curve":
            lines = op.outputs[0].read_text().splitlines()
            rows = [line.split(",") for line in lines[1:]]
            want = workloads.STEPS * op.files["domains"]
            if lines[:1] != [metrics.CSV_HEADER] or len(rows) != want:
                problems.append(f"curve: {len(rows)} rows, expected {want}")
            for row in rows:
                if int(row[0]) == workloads.STEPS:
                    info[row[1]] = {"span_f1": float(row[5]), "rel_f1": float(row[11])}
        return problems, info

    def _check_parse(self, op: workloads.Op, info: dict) -> list[str]:
        problems = []
        gold = self.gold(op.files["input"])
        pred = treebank.load_treebank(op.files["out"])
        if len(pred) != len(gold):
            return [f"parse: {len(pred)} trees for {len(gold)} documents"]
        for (gdoc, _), (pdoc, tree) in zip(gold.entries, pred.entries):
            if pdoc.n_edus != gdoc.n_edus:
                problems.append(f"parse: {pdoc.doc_id} has {pdoc.n_edus} EDUs, "
                                f"expected {gdoc.n_edus}")
            for violation in treebank.validate(pdoc, tree, pred.relation_inventory):
                problems.append(f"parse: {pdoc.doc_id}: {violation}")
        info["actions"] = sum(2 * doc.n_edus - 1 for doc, _ in gold.entries)
        if op.files["trace"]:
            text = Path(str(op.files["out"]) + ".trace").read_text()
            blocks = [b.splitlines() for b in text.strip().split("\n\n")]
            if len(blocks) != len(gold):
                problems.append(f"parse: trace has {len(blocks)} documents, "
                                f"expected {len(gold)}")
            for block, (doc, _) in zip(blocks, gold.entries):
                if block[0] != f"#doc {doc.doc_id}" or len(block) - 1 != 2 * doc.n_edus - 1:
                    problems.append(f"parse: trace of {doc.doc_id} has {len(block) - 1} "
                                    f"actions, expected {2 * doc.n_edus - 1}")
        return problems


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def run_setup(args) -> dict:
    inputs = Path(args.inputs)
    with contextlib.redirect_stdout(io.StringIO()):
        facts = workloads.setup(args.workload, args.seed, inputs, cli.main, treebank,
                                clocked)
    facts["digests"] = {str(Path(p).relative_to(inputs)): sha256(Path(p))
                        for p in facts.pop("outputs")}
    return facts


def run_iteration(k: int, args, tracer, reference: dict) -> dict:
    work = Path(args.work) / f"it{k}"
    # Gold treebanks are cached for one repeat only: in quickstart their
    # paths change every repeat, and a run-long cache grew the peak RSS.
    checker = Checker()
    ops = workloads.sequence(args.workload, args.seed, Path(args.inputs), work)
    records = []
    for i, op in enumerate(ops):
        ref_before = kernel()
        if tracer:
            tracer.run = f"{args.workload}/s{args.seed}/it{k}/{i}-{op.kind}"
            tracer.enabled = True
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(op.argv)
        wall = perf_counter() - t0
        if tracer:
            tracer.enabled = False
        ref_after = kernel()
        problems, info = ([f"{op.kind}: exit code {code}"], {}) if code else checker.check(op)
        if not problems:
            for path in op.outputs:
                rel = str(path.relative_to(work))
                digest = sha256(path)
                if reference.setdefault(rel, digest) != digest:
                    problems.append(f"{op.kind}: {rel} differs from the first repeat")
        records.append({"kind": op.kind, "wall_s": wall, "ref_s": [ref_before, ref_after],
                        "problems": problems, **info})
    return {"ops": records}


def train_facts(args) -> dict:
    """Train-report counts and the update rate of the sequence's (or setup's) train."""
    model, tb_path = workloads.train_source(args.workload, args.seed, Path(args.inputs),
                                            Path(args.work) / "it0")
    report = json.loads(Path(str(model) + ".report.json").read_text())
    manifest = json.loads(Path(str(model) + ".manifest.json").read_text())
    bc = manifest["config"]["boost_config"]
    train_entries, _ = boosting.split_dev(treebank.load_treebank(tb_path),
                                          bc["dev_fraction"], bc["seed"])
    states = sum(2 * doc.n_edus - 1 for doc, _ in train_entries)
    steps = report["steps"]
    epochs = sum(s["epochs_run"] for s in steps)
    useful = sum(0 if s["selection"] == "zero"
                 else 1 + int(np.argmin(s["dev_losses"])) for s in steps)
    return {
        "model": model, "treebank": tb_path, "train_entries": train_entries,
        "boosting.train_updates_per_s": epochs * states / manifest["timings_seconds"]["train"],
        "boosting.epochs_total": epochs,
        "boosting.kept_steps_frac": sum(s["selection"] != "zero" for s in steps) / len(steps),
        "boosting.useful_epoch_frac": useful / epochs,
        "boosting.model_bytes": model.stat().st_size,
    }


def run_probes(args, tracer: Tracer, train: dict) -> None:
    """Call public functions directly for layer metrics the sequence did not reach."""
    tracer.phase, tracer.run = "probe", f"{args.workload}/s{args.seed}/probe"
    probe_dir = Path(args.work) / "probe"
    probe_dir.mkdir(parents=True, exist_ok=True)

    def missing(*names: str) -> bool:
        return any(tracer.stats.get(("sequence", n), [0])[0] == 0 for n in names)

    tracer.enabled = True
    try:
        if missing("treebank.synthesize_treebank"):
            op = workloads.synth_op(args.seed, Path(args.inputs) / "synth.json", probe_dir)
            cli.main(op.argv)
        ensemble = boosting.load_model(train["model"])
        entries = train["train_entries"]
        boosting.mean_oracle_ce(ensemble, ensemble.n_steps, entries)
        if missing("weak_learner.boosted_loss_and_grad", "weak_learner.sgd_step"):
            dense_probe(ensemble, entries)
        if missing("boosting.save_model"):
            boosting.save_model(ensemble, probe_dir / "model.json")
    finally:
        tracer.enabled = False


def dense_probe(ensemble, entries) -> None:
    """The exact-L2 update that train --l2 runs, on the first oracle states."""
    first = ensemble.steps[0]
    learner = replace(first, cfg=replace(first.cfg, l2_penalty=1e-4))
    rel_index = {r: i for i, r in enumerate(ensemble.relation_inventory)}
    frozen = wl.LogitPair.zeros(len(ensemble.relation_inventory))
    done = 0
    for doc, tree in entries:
        state = transition.initial_state(doc.n_edus)
        for action in transition.oracle(tree):
            x = encoder.encode_state(state, doc, ensemble.encoder_config)
            gold_rel = (rel_index[action.relation]
                        if isinstance(action, transition.Reduce) else None)
            _, grads = wl.boosted_loss_and_grad(
                learner, x, frozen, boosting.action_to_class(action), gold_rel,
                boosting.structure_mask(state))
            learner = wl.sgd_step(learner, grads, learner.cfg.learning_rate)
            state = transition.apply(state, action)
            done += 1
            if done == DENSE_PROBE_STATES:
                return


def layer_metrics(tracer: Tracer, n_iterations: int) -> dict:
    out: dict = {}

    def per_call(name: str, unit: float = 1e-6) -> float | None:
        """Mean time per call in ``unit`` seconds; None if the function was never called."""
        _, (calls, total, _, _) = tracer.stat(name)
        return total / 1e9 / calls / unit if calls else None

    def work_rate(name: str, scale: float = 1.0) -> float | None:
        _, (_, total, _, work) = tracer.stat(name)
        return work / scale / (total / 1e9) if total else None

    mb = float(1 << 20)
    out["treebank.synth_docs_per_s"] = work_rate("treebank.synthesize_treebank")
    out["treebank.load_mb_per_s"] = work_rate("treebank.load_treebank", mb)
    out["treebank.save_mb_per_s"] = work_rate("treebank.save_treebank", mb)
    out["transition.oracle_actions_per_s"] = work_rate("transition.oracle")
    out["transition.apply_us"] = per_call("transition.apply")
    out["encoder.encode_us_per_state"] = per_call("encoder.encode_state")
    out["encoder.hash_us_per_token"] = per_call("encoder.hash_token")
    # per sequence, so that the counts repeat exactly for a seed
    for key, name in (("encoder.states", "encoder.encode_state"),
                      ("encoder.tokens_hashed", "encoder.hash_token")):
        out[key] = tracer.stats[("sequence", name)][0] // n_iterations
    out["weak_learner.forward_us"] = per_call("weak_learner.forward")
    out["weak_learner.loss_grad_us"] = per_call("weak_learner.boosted_loss_and_grad")
    out["weak_learner.sgd_step_us"] = per_call("weak_learner.sgd_step")
    out["boosting.oracle_ce_s"] = per_call("boosting.mean_oracle_ce", 1.0)
    out["boosting.predict_action_us"] = per_call("boosting.predict_action")
    out["boosting.decode_actions_per_s"] = work_rate("boosting.decode")
    phase, _ = tracer.stat("boosting.decode")
    docs_ms = [d / 1e6 for d in tracer.durations.get((phase, "boosting.decode"), [])]
    if len(docs_ms) >= 2:
        deciles = statistics.quantiles(docs_ms, n=10)
        out["boosting.decode_doc_ms_p50"] = statistics.median(docs_ms)
        out["boosting.decode_doc_ms_p90"] = deciles[8]
    out["boosting.decode_doc_samples"] = len(docs_ms)
    out["boosting.prefix_shared_action_frac"] = prefix_shared_frac(tracer)
    out["boosting.save_model_s"] = per_call("boosting.save_model", 1.0)
    out["boosting.load_model_s"] = per_call("boosting.load_model", 1.0)
    self_ns = {layer: 0 for layer in LAYERS}
    for (phase, name), (_, _, layer_self, _) in tracer.stats.items():
        if phase == "sequence":
            self_ns[name.split(".")[0]] += layer_self
    for layer in LAYERS:
        key = "cli.overhead_s" if layer == "cli" else f"{layer}.self_s"
        out[key] = self_ns[layer] / 1e9 / n_iterations
    out["metrics.score_us_per_doc"] = per_call("metrics.score")
    return out


def prefix_shared_frac(tracer: Tracer) -> float:
    """Share of prefix-m actions on the common leading path with prefix m-1."""
    shared = total = 0
    for by_m in tracer.decodes.values():
        for m, actions in by_m.items():
            prev = by_m.get(m - 1)
            if prev is None:
                continue
            common = 0
            for a, b in zip(actions, prev):
                if a != b:
                    break
                common += 1
            shared += common
            total += len(actions)
    return shared / total if total else 0.0


def run_measure(args) -> dict:
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    reference = {}
    if args.reference:
        reference = dict(json.loads(Path(args.reference).read_text())["digests"])
    iterations, peak_rss = [], []
    start = perf_counter()
    while True:
        k = len(iterations)
        iterations.append(run_iteration(k, args, tracer, reference))
        if k > 0:
            shutil.rmtree(Path(args.work) / f"it{k}", ignore_errors=True)
        gc.collect()  # so that garbage left by one repeat does not raise the next one's peak RSS
        peak_rss.append(max_rss_mb())
        elapsed = perf_counter() - start
        if len(iterations) >= args.min_iters and elapsed * (1 + 1 / len(iterations)) > args.seconds:
            break
    ops = [op for it in iterations for op in it["ops"]]
    result = {
        "iterations": iterations,
        "digests": reference,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["problems"]),
        "problems": [p for op in ops for p in op["problems"]][:MAX_PROBLEMS],
        # The peak after the warm-up and the first timed repeat, a fixed amount
        # of work.  Later repeats of this long-lived process sometimes raised
        # it by 11 MB (heap fragmentation) after a number of repeats that
        # depends on the host's speed; the whole run's peak is kept as a fact.
        "peak_rss_mb": peak_rss[min(1, len(peak_rss) - 1)],
        "facts": {**runtime_facts(), "peak_rss_mb_whole_run": max_rss_mb()},
    }
    if result["failed"] == 0 and tracer:
        train = train_facts(args)
        run_probes(args, tracer, train)
        result["layers"] = layer_metrics(tracer, len(iterations))
        result["layers"].update({k: v for k, v in train.items() if k.startswith("boosting.")})
        tracer.write(Path(args.work) / "spans.jsonl")
    return result


def main(argv=None) -> int:
    kernel()  # warm the reference kernel up before it times anything
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("phase", choices=["setup", "measure"])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", required=True, help="directory of the workload inputs")
    p.add_argument("--work", help="directory for the measured outputs")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--min-iters", type=int, default=2)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--reference", help="result JSON whose artifact digests must be matched")
    p.add_argument("--result", required=True, help="where to write the result JSON")
    args = p.parse_args(argv)
    result = run_setup(args) if args.phase == "setup" else run_measure(args)
    Path(args.result).write_text(json.dumps(result, indent=1, default=str) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
