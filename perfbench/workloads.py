"""Workload inputs and measured command sequences.

Every input is made from the workload seed.  Document lengths are pinned
and early stopping is pinned (patience equal to the epoch limit), so that
the amount of work in a run does not depend on the seed.  With the README
defaults, ``train`` took from 4.7 s to 19.8 s on six seeds on a 2-vCPU
x86-64 VM (Python 3.11, numpy 2.4), because early stopping ended a step
after 4 to 30 epochs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("quickstart", "probe-long", "train-l2")

IN_DOMAIN, OUT_DOMAIN = "news", "chat"
STEPS = 5
# The README synth settings with the document length pinned to the default
# range's mean, and a quarter of the default 200 train and 100 test docs
# per domain, so that a run repeats each command many times.
QUICK_SYNTH = {"n_train": 50, "n_test": 25, "edu_range": [6, 6]}
QUICK_TRAIN = ["--steps", str(STEPS), "--epochs-max", "4", "--patience", "4"]
# probe-long: long test documents, the same total length on every seed.
LONG_LENGTHS = (20, 30, 40, 50, 60)
LONG_DOCS_PER_LENGTH = 2
# train-l2: the dense exact-L2 path and center truncation on a small treebank.
L2_SYNTH = {"n_train": 16, "n_test": 20, "edu_range": [6, 6]}
L2_TRAIN = ["--steps", str(STEPS), "--epochs-max", "3", "--patience", "3",
            "--l2", "1e-4", "--strategy", "center"]


@dataclass
class Op:
    """One CLI command plus what its output checks need to know."""
    kind: str                 # synth | train | parse | eval | curve
    argv: list[str]
    outputs: list[Path]       # primary artifacts, byte-identical across repeats
    files: dict = field(default_factory=dict)


def synth_op(seed: int, config: Path, out: Path) -> Op:
    return Op("synth", ["--seed", str(seed), "--quiet", "synth", "--config", str(config),
                        "--out", str(out)],
              [out / f"{name}.tb" for name in
               (f"train_{IN_DOMAIN}", f"test_{IN_DOMAIN}", f"test_{OUT_DOMAIN}")])


def _train(seed: int, treebank: Path, model: Path, flags: list[str]) -> Op:
    return Op("train", ["--seed", str(seed), "--quiet", "train", str(treebank),
                        "--out", str(model), *flags],
              [model], {"treebank": treebank, "model": model})


def _parse(model: Path, treebank: Path, out: Path, prefix: int | None = None) -> Op:
    argv = ["--quiet", "parse", str(model), str(treebank), "--out", str(out)]
    argv += ["--trace"] if prefix is None else ["--prefix", str(prefix)]
    outputs = [out] if prefix is not None else [out, Path(str(out) + ".trace")]
    return Op("parse", argv, outputs,
              {"input": treebank, "out": out, "trace": prefix is None})


def _curve(model: Path, treebanks: list[Path], out: Path) -> Op:
    return Op("curve", ["--quiet", "curve", str(model), *map(str, treebanks),
                        "--out", str(out)],
              [out], {"domains": len(treebanks)})


def sequence(workload: str, seed: int, inputs: Path, out: Path) -> list[Op]:
    """The measured commands, in order; each starts after the previous one returns."""
    if workload == "quickstart":
        data, runs = out / "data", out / "runs"
        model = runs / "model.json"
        news, chat = data / f"test_{IN_DOMAIN}.tb", data / f"test_{OUT_DOMAIN}.tb"
        return [
            synth_op(seed, inputs / "synth.json", data),
            _train(seed, data / f"train_{IN_DOMAIN}.tb", model, QUICK_TRAIN),
            _parse(model, news, runs / "pred.tb"),
            _parse(model, news, runs / "pred_m1.tb", prefix=1),
            Op("eval", ["--quiet", "eval", str(news), str(runs / "pred.tb"),
                        "--csv", str(runs / "eval.csv")], [runs / "eval.csv"]),
            _curve(model, [news, chat], runs / "curve.csv"),
        ]
    if workload == "probe-long":
        model = inputs / "model.json"
        news, chat = inputs / f"long_{IN_DOMAIN}.tb", inputs / f"long_{OUT_DOMAIN}.tb"
        return [
            _parse(model, news, out / "pred.tb"),
            _curve(model, [news, chat], out / "curve.csv"),
        ]
    if workload == "train-l2":
        model = out / "model.json"
        news, chat = inputs / f"test_{IN_DOMAIN}.tb", inputs / f"test_{OUT_DOMAIN}.tb"
        return [
            _train(seed, inputs / f"train_{IN_DOMAIN}.tb", model, L2_TRAIN),
            _parse(model, news, out / "pred.tb"),
            _curve(model, [news, chat], out / "curve.csv"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def train_source(workload: str, seed: int, inputs: Path, first: Path) -> tuple[Path, Path]:
    """The model whose train report a run describes, and its training treebank."""
    for op in sequence(workload, seed, inputs, first):
        if op.kind == "train":
            return op.files["model"], op.files["treebank"]
    return inputs / "model.json", inputs / "short" / f"train_{IN_DOMAIN}.tb"


def setup(workload: str, seed: int, out: Path, cli_main, treebank, clocked) -> dict:
    """Write the workload's inputs into ``out``; return facts the run reports.

    ``cli_main`` is ``rstboost.cli.main``, ``treebank`` the
    ``rstboost.treebank`` module, and ``clocked`` is ``calibrate.clocked``.
    """
    out.mkdir(parents=True, exist_ok=True)
    facts: dict = {"outputs": []}

    def run(argv: list[str]) -> None:
        code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"setup command {argv} exited {code}")

    def write_config(name: str, config: dict) -> Path:
        path = out / name
        path.write_text(json.dumps(config), encoding="utf-8")
        return path

    if workload == "quickstart":
        write_config("synth.json", QUICK_SYNTH)
    elif workload == "probe-long":
        # The quickstart model, trained here so that its memory and time stay
        # out of the measured process.
        op = synth_op(seed, write_config("synth.json", QUICK_SYNTH), out / "short")
        run(op.argv)
        train = _train(seed, out / "short" / f"train_{IN_DOMAIN}.tb", out / "model.json",
                       QUICK_TRAIN)
        facts["train"] = clocked(lambda: run(train.argv))
        facts["outputs"] += [str(p) for p in op.outputs + train.outputs]
        entries = {IN_DOMAIN: [], OUT_DOMAIN: []}
        inventory = ()
        for i, length in enumerate(LONG_LENGTHS):
            part = out / f"len{length}"
            cfg = write_config(f"synth_len{length}.json", {
                "n_train": 1, "n_test": LONG_DOCS_PER_LENGTH, "edu_range": [length, length]})
            run(synth_op(seed * 100 + i, cfg, part).argv)
            for domain in entries:
                tb = treebank.load_treebank(part / f"test_{domain}.tb")
                inventory = tb.relation_inventory
                for k, (doc, tree) in enumerate(tb.entries):
                    doc = type(doc)(f"{domain}-len{length}-{k:02d}", doc.edus)
                    entries[domain].append((doc, tree))
        for domain, docs in entries.items():
            path = out / f"long_{domain}.tb"
            treebank.save_treebank(
                treebank.Treebank(path.stem, domain, inventory, tuple(docs)), path)
            facts["outputs"].append(str(path))
    elif workload == "train-l2":
        op = synth_op(seed, write_config("synth.json", L2_SYNTH), out)
        run(op.argv)
        facts["outputs"] += [str(p) for p in op.outputs]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return facts
