"""Span tracer that wraps the public functions of the rstboost modules.

The benchmark installs it in its own measured process; the package itself
is not changed.  Functions called about once per command or document are
recorded as one span per call.  Functions called once per parser state,
action or token ("hot" functions) are aggregated per parent span instead,
so that a run with a million calls does not keep a million records.

A span's self time is its duration minus the time of the traced calls it
contains.  Time spent in an untraced helper counts as self time of the
nearest traced caller.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter_ns

LAYERS = ("treebank", "transition", "encoder", "weak_learner", "boosting", "metrics", "cli")

# One span per call.
SPAN_FUNCS = {
    "cli": ("main",),
    "treebank": ("synthesize_treebank", "load_treebank", "save_treebank"),
    "transition": ("oracle",),
    "boosting": ("train", "train_step", "split_dev", "mean_oracle_ce", "decode",
                 "save_model", "load_model"),
    "metrics": ("boost_curve", "evaluate_treebank", "score_entries"),
}
# Aggregated per (name, parent span, run).
HOT_FUNCS = {
    "treebank": ("parse_bracketed", "serialize_bracketed", "validate"),
    "transition": ("apply",),
    "encoder": ("encode_state", "hash_token"),
    "weak_learner": ("forward", "boosted_loss_and_grad", "sgd_step"),
    "boosting": ("predict_action",),
    "metrics": ("score",),
}


def _size_of(i):
    return lambda args, result: os.path.getsize(args[i])


# Work counted by a span, summed per function: docs, bytes or actions.
WORK = {
    "treebank.synthesize_treebank": lambda args, result: len(result.entries),
    "treebank.load_treebank": _size_of(0),
    "treebank.save_treebank": _size_of(1),
    "transition.oracle": lambda args, result: len(result),
    "boosting.decode": lambda args, result: len(result[1]),
    "boosting.save_model": _size_of(1),
    "boosting.load_model": _size_of(0),
}


class Tracer:
    """Records spans while ``enabled``; ``phase`` and ``run`` label them."""

    def __init__(self) -> None:
        self.enabled = False
        self.phase = "sequence"
        self.run = ""
        self.spans: list[tuple] = []   # (id, name, start_ns, end_ns, parent_id, run)
        self.hot: dict[tuple, list] = {}    # (name, parent_id, run) -> [n, total, self]
        self.stats: dict[tuple, list] = {}  # (phase, name) -> [n, total, self, work]
        self.durations: dict[tuple, list] = {}  # (phase, name) -> span durations
        self.decodes: dict[tuple, dict] = {}  # (run, id(doc)) -> {m: actions}
        self._open: list[list] = []  # per open call: [child_ns]
        self._ids = [0]              # ids of open recorded spans; 0 = none
        self._next_id = 1

    def install(self) -> None:
        """Wrap the listed functions in every rstboost module that binds them."""
        modules = [m for n, m in sys.modules.items()
                   if n == "rstboost" or n.startswith("rstboost.")]
        for table, hot in ((SPAN_FUNCS, False), (HOT_FUNCS, True)):
            for layer, names in table.items():
                module = sys.modules[f"rstboost.{layer}"]
                for fname in names:
                    orig = getattr(module, fname)
                    wrapped = self._wrap(f"{layer}.{fname}", orig, hot)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, attr, wrapped)

    def _wrap(self, name: str, fn, hot: bool):
        tracer = self
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0]
            parent = tracer._ids[-1]
            if not hot:
                span_id = tracer._next_id
                tracer._next_id += 1
                tracer._ids.append(span_id)
            tracer._open.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._open.pop()
                dur = end - start
                if tracer._open:
                    tracer._open[-1][0] += dur
                key = (tracer.phase, name)
                st = tracer.stats.get(key)
                if st is None:
                    st = tracer.stats[key] = [0, 0, 0, 0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if hot:
                    agg = tracer.hot.setdefault((name, parent, tracer.run), [0, 0, 0])
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[0]
                else:
                    tracer._ids.pop()
                    tracer.spans.append((span_id, name, start, end, parent, tracer.run))
                    tracer.durations.setdefault(key, []).append(dur)
            if work is not None:
                st[3] += work(args, result)
            if name == "boosting.decode":
                ensemble, m, doc = args[:3]
                tracer.decodes.setdefault((tracer.run, id(doc)), {})[m] = result[1]
            return result

        return traced

    def stat(self, name: str) -> tuple[str, list]:
        """(phase, [calls, total_ns, self_ns, work]) from the sequence, else the probes."""
        for phase in ("sequence", "probe"):
            st = self.stats.get((phase, name))
            if st and st[0]:
                return phase, st
        return "", [0, 0, 0, 0]

    def write(self, path) -> None:
        """Write every span and hot aggregate as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, run in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent, "run": run}) + "\n")
            for (name, parent, run), (n, total, self_ns) in self.hot.items():
                out.write(json.dumps({"name": name, "parent": parent, "run": run,
                                      "calls": n, "total_ns": total,
                                      "self_ns": self_ns}) + "\n")
