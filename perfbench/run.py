"""rstboost benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout; it builds nothing and imports the
package from ``src/``.  A run sets the workload up several times, each in a
fresh process, then measures it in another fresh process: a closed loop
with one client that repeats the workload's command sequence through
``rstboost.cli.main`` for ``--seconds`` and checks every output.

``--trace 0`` prints the end-to-end metrics.  Their times are taken at the
reference host speed (see ``calibrate.py`` and README.md); the plain
wall-clock figures are printed with the machine facts.  ``--trace 1``
measures the sequence untraced for half the time and traced for the other
half, prints each layer's self time and the tracing overhead, writes the
spans to ``.perfbench_runs/<run>/traced/spans.jsonl``, and prints the
per-layer metrics.
The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import kernel, reference_seconds  # noqa: E402
from workloads import IN_DOMAIN, OUT_DOMAIN, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0  # every run must end within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread unless the caller chose otherwise: the client is a single
# thread, and BLAS threads that spin on a shared host measure the scheduler.
WORKER_ENV = {**os.environ, **{k: os.environ.get(k, "1") for k in BLAS_ENV}}

class Run:
    """Launches the worker processes of one run and counts their failures."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.deadline = perf_counter() + TIME_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def worker(self, phase: str, name: str, *extra: str) -> tuple[float, dict | None]:
        """Run one worker process; return its wall time and its result (None if it failed)."""
        result_path = self.work / f"{name}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), phase,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--result", str(result_path), *extra]
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            self.fail(f"{name}: timed out")
            return perf_counter() - t0, None
        wall = perf_counter() - t0
        if proc.returncode != 0 or not result_path.is_file():
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            self.fail(f"{name}: worker exited {proc.returncode}: {tail[0]}")
            return wall, None
        return wall, json.loads(result_path.read_text())

    def fail(self, problem: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)

    def add(self, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems += result["problems"]


def setup(run: Run) -> tuple[list[dict], list[dict]]:
    """Set the workload up SETUP_REPEATS times; return the clocked samples and results."""
    samples, results = [], []
    for i in range(SETUP_REPEATS):
        inputs = run.work / f"setup{i}"
        before = kernel()
        wall, result = run.worker("setup", f"setup{i}", "--inputs", str(inputs))
        sample = {"wall_s": wall, "ref_s": [before, kernel()]}
        if result is None:
            continue
        if results and result["digests"] != results[0]["digests"]:
            run.fail(f"setup{i}: inputs differ from setup0")
        else:
            run.attempted += 1
        samples.append(sample)
        results.append(result)
    return samples, results


def measure(run: Run, name: str, seconds: float, min_iters: int, trace: int,
            reference: Path | None = None) -> dict | None:
    extra = ["--inputs", str(run.work / "setup0"), "--work", str(run.work / name),
             "--seconds", str(seconds), "--min-iters", str(min_iters), "--trace", str(trace)]
    if reference is not None:
        extra += ["--reference", str(reference)]
    _, result = run.worker("measure", name, *extra)
    if result is not None:
        run.add(result)
    return result


def timed(result: dict) -> list[list[dict]]:
    """The ops of every repeat but the first, which warms caches up."""
    its = [it["ops"] for it in result["iterations"]]
    return its[1:] or its


def at_ref(result: dict, keep=lambda op: True, scale=reference_seconds) -> float | None:
    """Sum, over the sequence's commands that ``keep`` selects, of each one's
    median time over the timed repeats.

    Each time is taken at the reference host speed (see calibrate.py): the
    host's speed swings by up to half, within seconds and over whole runs,
    and the kernel run next to each command takes the same swings.
    """
    its = timed(result)
    picked = [i for i, op in enumerate(its[0]) if keep(op)]
    if not picked:
        return None
    return sum(statistics.median(scale(ops[i]) for ops in its) for i in picked)


def end_to_end(result: dict, setup_samples: list[dict], setups: list[dict],
               scale=reference_seconds) -> dict:
    def kind(name):
        return lambda op: op["kind"] == name

    first = timed(result)[0]
    actions = sum(op.get("actions", 0) for op in first if op["kind"] == "parse")
    parse_s = at_ref(result, kind("parse"), scale)
    pretrain = [scale(s["train"]) for s in setups if "train" in s]
    return {
        "setup_s": statistics.median(map(scale, setup_samples)) if setup_samples else None,
        "wall_s": at_ref(result, scale=scale),
        # probe-long trains during set-up, in its own process
        "train_s": at_ref(result, kind("train"), scale) or (
            statistics.median(pretrain) if pretrain else None),
        "parse_actions_per_s": actions / parse_s if parse_s else None,
        "curve_s": at_ref(result, kind("curve"), scale),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def curve_f1(result: dict) -> dict:
    out = {}
    for op in result["iterations"][0]["ops"]:
        if op["kind"] == "curve":
            for side, domain in (("in", IN_DOMAIN), ("out", OUT_DOMAIN)):
                if domain in op:
                    out[f"metrics.span_f1_{side}"] = op[domain]["span_f1"]
                    out[f"metrics.rel_f1_{side}"] = op[domain]["rel_f1"]
    return out


def git_rev() -> str:
    """HEAD's commit, read from ``.git`` so that nothing outside the checkout is read."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unavailable (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((line.split()[0] for line in lines if line.endswith(" " + ref)), "unknown")


def machine_facts() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rstboost").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": git_rev(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads_env": {k: WORKER_ENV[k] for k in BLAS_ENV},
        "client": "closed loop, one client process, no added parallelism",
    }


def print_layers(layers: dict) -> None:
    print("layer self time per sequence (traced):")
    for key in sorted(k for k in layers if k.endswith(".self_s") or k == "cli.overhead_s"):
        print(f"  {key.split('.')[0]:<13} {layers[key]:10.4f} s")
    print(f"tracing overhead: {layers['trace.overhead_frac']:+.1%} "
          "of the untraced sequence wall time")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="rstboost benchmark (one workload, one run)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "rstboost" / "cli.py").is_file():
        print(f"perfbench: no rstboost package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_runs" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args, work)
    facts = machine_facts()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    kernel()  # warm the reference kernel up before it times anything
    setup_samples, setups = setup(run)

    metrics: dict = {}
    if setups and not args.trace:
        result = measure(run, "measure", args.seconds, 2, 0)
        if result is not None:
            facts.update(result["facts"])
            metrics = end_to_end(result, setup_samples, setups)
            facts["wall_clock"] = {
                k: v for k, v in end_to_end(result, setup_samples, setups,
                                            scale=lambda sample: sample["wall_s"]).items()
                if k != "peak_rss_mb"}
            metrics["ok_ops_frac"] = 1 - run.failed / run.attempted
    elif setups:
        plain = measure(run, "measure", args.seconds / 2, 2, 0)
        traced = measure(run, "traced", args.seconds / 2, 2, 1,
                         reference=work / "measure.json") if plain else None
        if traced is not None and "layers" in traced:
            facts.update(traced["facts"])
            metrics = dict(traced["layers"])
            metrics.update(curve_f1(traced))
            metrics["trace.overhead_frac"] = at_ref(traced) / at_ref(plain) - 1
            print_layers(metrics)
            print(f"spans: {work.relative_to(ROOT) / 'traced' / 'spans.jsonl'}")

    for i in range(SETUP_REPEATS):
        shutil.rmtree(work / f"setup{i}", ignore_errors=True)
    for name in ("measure", "traced"):
        for sub in (work / name).glob("*"):
            if sub.is_dir():
                shutil.rmtree(sub, ignore_errors=True)

    out_metrics = {}
    for name, unit in units.items():
        if metrics.get(name) is None:
            run.problems.append(f"metric {name} was not measured")
        else:
            out_metrics[name] = {"value": metrics[name], "unit": unit}
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("facts: " + json.dumps(facts, sort_keys=True))
    summary = {"correct": not run.problems,
               "attempted": max(1, run.attempted), "failed": run.failed,
               "metrics": out_metrics}
    (work / "result.json").write_text(json.dumps({"facts": facts, **summary}, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
