"""Command-line harness: synth / train / parse / eval / curve / compare.

Every command but ``eval`` writes a ``<artifact>.manifest.json`` next to its
primary output recording the resolved configuration, seeds, input digests, and
per-phase wall-clock timings (``compare`` times each contender's phases, as
``train_boosted-weak`` and so on); ``eval`` writes one beside its CSV, and only
with ``--csv``.  With a fixed seed and fixed inputs every primary artifact,
``compare``'s report included, is byte-identical across runs; manifests are
not, as they hold the timings.

Exit codes: 0 success, 1 usage or configuration error (``errors.UsageError``),
2 data error (``errors.DataError``, or an unreadable file), 3 any other error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from . import boosting, metrics, treebank
from .boosting import BoostConfig
from .encoder import CENTER, NUCLEUS, EncoderConfig
from .errors import (DataError, DocumentMismatch, EmptyTreebank, InvalidConfig,
                     UsageError, config_from_json)
from .treebank import SynthSettings, Treebank, _atomic_write
from .weak_learner import LearnerConfig, n_params

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); remap to exit 1
        raise UsageError(message)


def _log(args, msg: str) -> None:
    if not args.quiet:
        print(msg, file=sys.stderr)


class _Run:
    """One command's record: a digest of each input as read, the outputs, and the
    phase timings, written as ``<primary>.manifest.json``."""

    def __init__(self, args) -> None:
        self.args = args
        self.inputs: dict[str, str] = {}
        self._texts: dict[str, str] = {}
        self.outputs: list[str] = []
        self.timings: dict[str, float] = {}
        self._start = self._lap = time.perf_counter()

    def read_bytes(self, path) -> bytes:
        """The bytes of ``path``, their digest recorded at the first read, so that an
        output written over the input later does not change it.  The run keeps no copy:
        a model's bytes are freed once it is loaded, and their pages are reused for the
        ensemble's stacked arrays instead of fresh ones."""
        data = Path(path).read_bytes()
        self.inputs.setdefault(str(Path(path)), "sha256:" + hashlib.sha256(data).hexdigest())
        return data

    def read(self, path) -> str:
        """The UTF-8 text of ``path``, with ``read_text``'s newline translation, read once
        per run."""
        key = str(Path(path))
        if key not in self._texts:
            text = self.read_bytes(path).decode("utf-8")
            self._texts[key] = (text.replace("\r\n", "\n").replace("\r", "\n")
                                if "\r" in text else text)
        return self._texts[key]

    def output(self, path) -> Path:
        """Record ``path`` as an output and make its parent directory."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self.outputs.append(str(path))
        return path

    def lap(self, phase: str) -> None:
        """Time ``phase`` from the previous lap, or from the start."""
        now = time.perf_counter()
        self.timings[phase] = now - self._lap
        self._lap = now

    def write_manifest(self, primary: Path, config: dict, **extra) -> None:
        timings = {"total": time.perf_counter() - self._start, **self.timings}
        manifest = {
            "command": self.args.command,
            "toolkit_version": __version__,
            "seed": self.args.seed,
            "config": config,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "timings_seconds": {k: round(v, 6) for k, v in timings.items()},
            **extra,
        }
        _atomic_write(str(primary) + ".manifest.json", json.dumps(manifest, indent=1) + "\n")


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    run = _Run(args)
    user = {}
    if args.config:
        text = run.read(args.config)  # an undecodable file is a data error
        try:
            user = json.loads(text)
        except (ValueError, RecursionError) as exc:  # too deep, or an int too long to read
            raise InvalidConfig(f"synth config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise InvalidConfig(f"synth config {args.config} must hold a JSON object")
    cfg = config_from_json(SynthSettings, user)
    # Every treebank is built before the first write.
    tbs = [treebank.synthesize_treebank(cfg, *spec) for spec in (
        ("a", cfg.n_train, f"train_{cfg.domain_a}", args.seed),
        ("a", cfg.n_test, f"test_{cfg.domain_a}", args.seed + 1),
        ("b", cfg.n_test, f"test_{cfg.domain_b}", args.seed + 2),
    )]
    out_dir = Path(args.out)
    for tb in tbs:
        path = run.output(out_dir / f"{tb.name}.tb")
        treebank.save_treebank(tb, path)
        _log(args, f"wrote {path} ({len(tb)} docs, domain {tb.domain_tag})")
    run.lap("generate_and_write")
    run.write_manifest(out_dir / "synth", dataclasses.asdict(cfg))
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _encoder_config(args) -> EncoderConfig:
    return EncoderConfig(
        max_span_tokens=args.span_tokens,
        hash_dim=args.hash_dim,
        truncation_strategy=args.strategy,
        hash_seed=args.hash_seed,
    )


def _boost_config(args, enc_cfg: EncoderConfig, n_relations: int, hidden_dim: int,
                  n_steps: int) -> BoostConfig:
    """The training flags as a boosting config."""
    learner = LearnerConfig(
        input_dim=enc_cfg.width, n_relations=n_relations, hidden_dim=hidden_dim,
        init_scale=args.init_scale, learning_rate=args.lr, l2_penalty=args.l2,
    )
    return BoostConfig(
        learner=learner, n_steps=n_steps, epochs_max=args.epochs_max,
        patience=args.patience, dev_fraction=args.dev_fraction, seed=args.seed,
    )


def _training_treebank(run: _Run, path) -> Treebank:
    """The treebank at ``path``, refused as a data error if it declares no relations
    (an empty file declares none): a learner's relation head needs at least one."""
    tb = treebank.load_treebank(path, run.read(path))
    if not tb.relation_inventory:
        raise EmptyTreebank(f"treebank {path} declares no relations (no #relations "
                            "header and no labelled node); training needs at least one")
    return tb


def cmd_train(args) -> int:
    run = _Run(args)
    tb = _training_treebank(run, args.treebank)
    run.lap("load")
    enc_cfg = _encoder_config(args)
    boost_cfg = _boost_config(args, enc_cfg, len(tb.relation_inventory), args.hidden_dim,
                              args.steps)
    ensemble, report = boosting.train(tb, boost_cfg, enc_cfg)
    run.lap("train")

    out = run.output(args.out)
    boosting.save_model(ensemble, out)
    report_path = run.output(str(out) + ".report.json")
    _atomic_write(report_path, json.dumps(dataclasses.asdict(report), indent=1) + "\n")
    config = {"boost_config": dataclasses.asdict(boost_cfg),
              "encoder_config": dataclasses.asdict(enc_cfg)}
    run.lap("save")
    run.write_manifest(out, config)
    for s in report.steps:
        _log(args, f"step {s.step}: epochs={s.epochs_run} "
                   f"train_loss={s.final_train_loss:.4f} params={s.param_count} "
                   f"({s.seconds:.1f}s, kept={s.selection})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

def cmd_parse(args) -> int:
    run = _Run(args)
    ensemble = boosting.load_model(args.model, run.read_bytes(args.model))
    m = args.prefix if args.prefix is not None else len(ensemble.steps)

    docs, domain_tag = treebank.load_documents(args.input, run.read(args.input))
    if not docs:
        raise EmptyTreebank(f"no documents found in {args.input}")
    run.lap("load")

    entries = []
    traces = []
    for doc in docs:
        tree, actions = boosting.decode(ensemble, m, doc)
        entries.append((doc, tree))
        traces.append((doc.doc_id, actions))
    run.lap("parse")

    out = run.output(args.out)
    pred = Treebank(out.stem, domain_tag, ensemble.relation_inventory, tuple(entries))
    treebank.save_treebank(pred, out)
    if args.trace:
        blocks = ["\n".join([f"#doc {doc_id}"] + [str(a) for a in actions])
                  for doc_id, actions in traces]
        _atomic_write(run.output(str(out) + ".trace"), "\n\n".join(blocks) + "\n")
    _log(args, f"parsed {len(docs)} document(s) with prefix {m} -> {out}")
    run.write_manifest(out, {"prefix": m, "model": str(Path(args.model))})
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    run = _Run(args)
    gold = treebank.load_treebank(args.gold, run.read(args.gold))
    pred = treebank.load_treebank(args.pred, run.read(args.pred))
    if len(gold) != len(pred):
        raise DocumentMismatch(
            f"gold has {len(gold)} documents but predictions have {len(pred)}"
        )
    if len(gold) == 0:
        raise EmptyTreebank("nothing to evaluate: both files are empty")
    pairs = list(zip(gold.entries, pred.entries))
    for (gdoc, _), (pdoc, _) in pairs:  # paired by position: each pair must be one text
        if gdoc.edus != pdoc.edus:
            raise DocumentMismatch(
                f"gold document {gdoc.doc_id} ({gdoc.n_edus} EDUs) and predicted document "
                f"{pdoc.doc_id} ({pdoc.n_edus} EDUs) do not have the same EDU tokens")
    total = metrics.score_entries((gtree, ptree) for (_, gtree), (_, ptree) in pairs)

    print(f"documents:  {len(gold)}")
    for name, (p, r, f1) in total.levels().items():
        print(f"{name:<11} P={p:.4f} R={r:.4f} F1={f1:.4f}")
    if args.csv:
        csv_path = run.output(args.csv)
        row = metrics.CurveRow(0, gold.domain_tag, len(gold), total)
        _atomic_write(csv_path, metrics.CurveTable((row,), None).to_csv())
        run.write_manifest(csv_path, {})
    return EXIT_OK


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def cmd_curve(args) -> int:
    run = _Run(args)
    ensemble = boosting.load_model(args.model, run.read_bytes(args.model))
    tbs = [treebank.load_treebank(p, run.read(p)) for p in args.treebanks]
    run.lap("load")
    table = metrics.boost_curve(ensemble, tbs)
    run.lap("evaluate")
    out = run.output(args.out)
    _atomic_write(out, table.to_csv())
    _log(args, f"wrote {len(table.rows)}-row curve table -> {out}")
    extra = {}
    if table.gaps is not None:
        extra["span_f1_gaps"] = {str(m): round(g, 6) for m, g in table.gaps.items()}
        n = len(ensemble.steps)
        extra["gap_increased_with_steps"] = table.gaps[n] > table.gaps[1] if n > 1 else None
    run.write_manifest(out, {"model": str(Path(args.model)),
                             "train_domain_tag": ensemble.train_domain_tag}, **extra)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def matched_hidden_dim(target_params: int, input_dim: int, n_relations: int) -> int:
    """Closed-form hidden width whose parameter count is closest to target.

    The count is linear in the width, so widths 1 and 2 fix its slope and base.
    """
    def count(hidden_dim: int) -> int:  # unchecked: width 2 may be over the limit
        return n_params(SimpleNamespace(input_dim=input_dim, n_relations=n_relations,
                                        hidden_dim=hidden_dim))

    per_unit = count(2) - count(1)
    base = count(1) - per_unit
    return max(1, round((target_params - base) / per_unit))


def cmd_compare(args) -> int:
    run = _Run(args)
    tb = _training_treebank(run, args.treebank)
    if len(tb) < 2:
        raise EmptyTreebank("compare needs at least two documents to hold out")
    enc_cfg = _encoder_config(args)
    n_rel = len(tb.relation_inventory)

    # Seeded held-out split for the final comparison.
    train_entries, eval_entries = boosting.split_dev(tb, args.eval_fraction, args.seed)
    train_tb = dataclasses.replace(tb, entries=train_entries)
    eval_tb = dataclasses.replace(tb, entries=eval_entries, name=tb.name + "-heldout")
    eval_tbs = [eval_tb] + [treebank.load_treebank(p, run.read(p)) for p in args.eval or []]
    sources = [f"the held-out split of {args.treebank}", *(args.eval or [])]
    names = [etb.name for etb in eval_tbs]
    if clash := [f"{s} ({n})" for s, n in zip(sources, names) if names.count(n) > 1]:
        raise UsageError("evaluation treebanks share a name, by which compare keys its "
                         "scores: " + ", ".join(clash))
    for etb in eval_tbs:  # the model's inventory will be the training treebank's
        metrics.check_evaluable(etb, tb.relation_inventory)

    # Both contenders' configs are built, and so checked, before either trains.
    weak_cfg = _boost_config(args, enc_cfg, n_rel, args.hidden_dim, args.steps)
    strong_hidden = args.hidden_dim
    if args.match_params:  # every step has the weak learner's shapes
        strong_hidden = matched_hidden_dim(args.steps * n_params(weak_cfg.learner),
                                           enc_cfg.width, n_rel)
    strong_cfg = _boost_config(args, enc_cfg, n_rel, strong_hidden, 1)
    run.lap("load")

    def contender(name: str, bc: BoostConfig) -> dict:
        ensemble, report = boosting.train(train_tb, bc, enc_cfg)
        run.lap(f"train_{name}")
        scores = {
            etb.name: metrics.evaluate_treebank(ensemble, len(ensemble.steps), etb).to_dict()
            for etb in eval_tbs
        }
        run.lap(f"evaluate_{name}")
        return {
            "name": name,
            "n_steps": bc.n_steps,
            "hidden_dim": bc.learner.hidden_dim,
            "total_params": len(ensemble.steps) * n_params(bc.learner),
            "epochs_per_step": [s.epochs_run for s in report.steps],
            "scores": scores,
        }

    weak = contender("boosted-weak", weak_cfg)
    strong = contender("single-strong", strong_cfg)
    matched = None
    if args.match_params:
        delta = abs(strong["total_params"] - weak["total_params"]) / weak["total_params"]
        matched = {"target_params": weak["total_params"], "matched_hidden_dim": strong_hidden,
                   "relative_param_gap": delta, "within_5_percent": delta <= 0.05}
        if delta > 0.05:
            _log(args, f"warning: NoMatchingWidth - closest hidden_dim {strong_hidden} "
                       f"leaves a {delta:.1%} parameter gap")

    report = {
        "contenders": [weak, strong],
        "param_ratio": strong["total_params"] / weak["total_params"],
        "match_params": matched,
        "eval_documents": {etb.name: len(etb) for etb in eval_tbs},
    }
    out = run.output(args.out)
    _atomic_write(out, json.dumps(report, indent=1) + "\n")
    _log(args, f"params weak={weak['total_params']} strong={strong['total_params']} "
               f"({run.timings['train_boosted-weak']:.1f}s vs "
               f"{run.timings['train_single-strong']:.1f}s)")
    run.write_manifest(out, {"steps": args.steps, "hidden_dim": args.hidden_dim,
                             "match_params": bool(args.match_params),
                             "encoder_config": dataclasses.asdict(enc_cfg)},
                       no_matching_width_warning=bool(matched and not matched["within_5_percent"]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden-dim", type=int, default=LearnerConfig.hidden_dim)
    p.add_argument("--lr", type=float, default=LearnerConfig.learning_rate)
    p.add_argument("--l2", type=float, default=LearnerConfig.l2_penalty)
    p.add_argument("--init-scale", type=float, default=LearnerConfig.init_scale)
    p.add_argument("--epochs-max", type=int, default=BoostConfig.epochs_max)
    p.add_argument("--patience", type=int, default=BoostConfig.patience)
    p.add_argument("--dev-fraction", type=float, default=BoostConfig.dev_fraction)
    p.add_argument("--hash-dim", type=int, default=EncoderConfig.hash_dim,
                   help="hashed bag-of-words buckets per block")
    p.add_argument("--span-tokens", type=int, default=EncoderConfig.max_span_tokens,
                   help="maximum tokens kept per span representation")
    p.add_argument("--strategy", choices=[CENTER, NUCLEUS],
                   default=EncoderConfig.truncation_strategy,
                   help="span truncation strategy")
    p.add_argument("--hash-seed", type=int, default=EncoderConfig.hash_seed)


def build_parser() -> _Parser:
    parser = _Parser(prog="rstboost",
                     description="Gradient-boosted weak shift-reduce discourse parsing")
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic treebank files")
    p.add_argument("--config", help="JSON file overriding the default synth settings")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a boosted ensemble")
    p.add_argument("treebank", help="training treebank file")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--steps", type=int, default=BoostConfig.n_steps,
                   help="number of boosting steps")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("parse", help="parse documents with a trained model")
    p.add_argument("model", help="model JSON path")
    p.add_argument("input", help="treebank file or raw-EDU file")
    p.add_argument("--out", required=True, help="output treebank path")
    p.add_argument("--prefix", type=int, default=None,
                   help="use only the first m boosting steps (default: all)")
    p.add_argument("--trace", action="store_true",
                   help="also write a shift-reduce action trace")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="score predicted trees against gold trees")
    p.add_argument("gold", help="gold treebank file")
    p.add_argument("pred", help="predicted treebank file")
    p.add_argument("--csv", help="optional CSV output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("curve", help="prefix-by-domain evaluation table")
    p.add_argument("model", help="model JSON path")
    p.add_argument("treebanks", nargs="+", help="one or more evaluation treebanks")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("compare",
                       help="boosted weak ensemble vs single strong classifier")
    p.add_argument("treebank", help="treebank to train and evaluate on")
    p.add_argument("--steps", type=int, default=BoostConfig.n_steps)
    p.add_argument("--match-params", action="store_true",
                   help="width-match the single classifier to the ensemble total")
    p.add_argument("--eval", nargs="*", help="additional evaluation treebanks")
    p.add_argument("--eval-fraction", type=float, default=0.2,
                   help="held-out fraction of the input treebank")
    p.add_argument("--out", required=True, help="output report JSON path")
    _add_train_flags(p)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError, DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # any other RstBoostError, or a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
