"""Staged gradient boosting of weak shift-reduce classifiers.

Step k trains a fresh weak learner against the frozen, summed logits of
steps 1..k-1; prediction with prefix m sums the logits of the first m
steps and decodes greedily under legality masking.  Earlier steps are
never modified once appended.
"""

from __future__ import annotations

import binascii
import json
import time
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import Iterator

import numpy as np

from . import weak_learner as wl
from .encoder import EncoderConfig, encode_state, row_key
from .errors import (
    DimensionMismatch,
    EmptyTreebank,
    InvalidConfig,
    InvalidPrefix,
    MalformedSyntax,
    RelationInventoryMismatch,
    check_keys,
    config_from_json,
    json_typed,
)
from .transition import (
    Action,
    ParserState,
    Reduce,
    SHIFT,
    apply,
    initial_state,
    oracle,
)
from .treebank import (NUCLEARITIES, _DOMAIN_TAG_RE, _RELATION_RE, DiscourseNode, Document,
                       Treebank, _atomic_write)
from .weak_learner import LearnerConfig, WeakLearner


def action_to_class(action: Action) -> int:
    """Structure class index: 0 = shift, 1..3 = reduce-NN/NS/SN."""
    if isinstance(action, Reduce):
        return 1 + NUCLEARITIES.index(action.nuclearity)
    return 0


def structure_mask(state: ParserState) -> np.ndarray:
    return np.array([state.can_shift] + [state.can_reduce] * 3)


def _decision(mask: np.ndarray, structure: np.ndarray,
              relation: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The greedy rule as class indices, for one state, per row or per (row, prefix):
    masked structure argmax (ties to the lowest index) and relation argmax."""
    return np.where(mask, structure, -np.inf).argmax(axis=-1), relation.argmax(axis=-1)


# The most parameters an ensemble may hold, as many as one learner may: the ensemble and
# its ``stacked`` copy then take at most 80 MB each.  The README's ``train`` holds about
# 247,500; at its width the limit is about 200 steps.
MAX_ENSEMBLE_PARAMS = wl.MAX_PARAMS


@dataclass(frozen=True)
class BoostConfig:
    learner: LearnerConfig
    n_steps: int = 5
    epochs_max: int = 30
    patience: int = 3
    dev_fraction: float = 0.1
    seed: int = 0
    shuffle_each_epoch: bool = True

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise InvalidConfig("n_steps must be >= 1")
        if self.patience < 1:
            raise InvalidConfig("patience must be >= 1")
        if not 0.0 < self.dev_fraction < 1.0:
            raise InvalidConfig("dev_fraction must lie in (0, 1)")
        if self.epochs_max < 1:
            raise InvalidConfig("epochs_max must be >= 1")
        if self.n_steps * (per_step := wl.n_params(self.learner)) > MAX_ENSEMBLE_PARAMS:
            raise InvalidConfig(
                f"{self.n_steps:,} steps of {per_step:,} parameters each exceed the "
                f"ensemble limit of {MAX_ENSEMBLE_PARAMS:,} parameters")


@dataclass(frozen=True)
class BoostedEnsemble:
    encoder_config: EncoderConfig
    relation_inventory: tuple[str, ...]
    steps: tuple[WeakLearner, ...]
    boost_config: BoostConfig
    train_domain_tag: str = ""

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @cached_property
    def stacked(self) -> WeakLearner:
        """``wl.stack_steps`` of all steps, built on first use; it dies with this ensemble,
        and an ensemble made by ``dataclasses.replace`` builds its own."""
        return wl.stack_steps(self.steps)


@dataclass
class StepReport:
    step: int
    final_train_loss: float
    dev_losses: list[float | None]  # a non-finite dev CE is None, JSON's null
    epochs_run: int
    seconds: float
    param_count: int
    selection: str  # dev | train | zero


@dataclass
class TrainReport:
    steps: list[StepReport]
    cumulative_params: list[int]
    train_states: int    # the train split's oracle states, each visited once per epoch
    skipped_states: int  # of those, the ones the SGD loop skips (``_Instances.skipped``)


def _check_prefix(ensemble: BoostedEnsemble, m: int) -> None:
    if not 1 <= m <= len(ensemble.steps):
        raise InvalidPrefix(f"prefix {m} outside 1..{len(ensemble.steps)}")


# ---------------------------------------------------------------------------
# Oracle instance set
# ---------------------------------------------------------------------------

@dataclass
class _Instances:
    """The gold oracle states of some entries, with the summed logits of the steps
    added so far: what the next step is fit against."""
    rows: wl.Rows               # one row per state, checked once by ``wl.stack_rows``
    gold_structure: np.ndarray  # (N,) int64
    gold_relation: np.ndarray   # (N,) int64; -1 for shift
    mask: np.ndarray            # (N, 4) bool
    frozen_s: np.ndarray        # (N, 4) summed structure logits
    frozen_r: np.ndarray        # (N, R) summed relation logits

    def __len__(self) -> int:
        return len(self.rows.indptr) - 1

    def add(self, step: WeakLearner) -> None:
        """Add ``step``'s logits to the frozen sums, in place."""
        out = wl.forward(step, self.rows)
        self.frozen_s += out.structure
        self.frozen_r += out.relation

    def skipped(self) -> np.ndarray:
        """The states with one legal class, a shift: their gradient is exactly 0."""
        return self.mask.sum(1) == 1

    def per_state(self) -> list[tuple | None]:
        """What an SGD update reads of each state, in index order: its row's
        ``(indices, values)`` views, its frozen structure sums with the illegal classes
        at -inf (softmax weight 0), its frozen relation sums and its two gold classes;
        ``None`` for a ``skipped`` state, whose update subtracts only zeros."""
        indptr, indices, data = self.rows
        spans = list(zip(indptr.tolist(), indptr[1:].tolist()))
        states = zip([indices[a:b] for a, b in spans], [data[a:b] for a, b in spans],
                     np.where(self.mask, self.frozen_s, -np.inf), self.frozen_r,
                     self.gold_structure.tolist(), self.gold_relation.tolist())
        return [None if skip else state for skip, state in zip(self.skipped().tolist(), states)]

    def mean_ce(self, step: WeakLearner | None = None) -> float:
        """Mean per-instance cross-entropy of the frozen sums plus ``step``'s logits
        (if given): masked structure CE + gated relation CE."""
        z_s, z_r = self.frozen_s, self.frozen_r
        if step is not None:
            out = wl.forward(step, self.rows)
            z_s, z_r = z_s + out.structure, z_r + out.relation

        def nll(z: np.ndarray, logits: np.ndarray, gold: np.ndarray) -> np.ndarray:
            mx = z.max(axis=1)
            lse = mx + np.log(np.exp(z - mx[:, None]).sum(axis=1))
            return lse - logits[np.arange(len(gold)), gold]

        ce = nll(np.where(self.mask, z_s, -np.inf), z_s, self.gold_structure)
        is_reduce = self.gold_relation >= 0
        if is_reduce.any():
            zr = z_r[is_reduce]
            ce[is_reduce] += nll(zr, zr, self.gold_relation[is_reduce])
        return float(ce.mean())


def _build_instances(entries, ensemble: BoostedEnsemble, m: int | None = None) -> _Instances:
    """The oracle instances of ``entries`` with the first m steps added (all if None)."""
    inventory = ensemble.relation_inventory
    rel_index = {rel: i for i, rel in enumerate(inventory)}
    rows, gs, gr, masks = [], [], [], []
    for doc, tree in entries:
        state = initial_state(doc.n_edus)
        bags: dict = {}
        for action in oracle(tree):
            rows.append(encode_state(state, doc, ensemble.encoder_config, bags))
            gs.append(action_to_class(action))
            if isinstance(action, Reduce):
                if action.relation not in rel_index:
                    raise RelationInventoryMismatch(
                        f"relation {action.relation!r} not in the model inventory"
                    )
                gr.append(rel_index[action.relation])
            else:
                gr.append(-1)
            masks.append(structure_mask(state))
            state = apply(state, action)
    inst = _Instances(
        rows=wl.stack_rows(ensemble.encoder_config.width, rows),
        gold_structure=np.asarray(gs, dtype=np.int64),
        gold_relation=np.asarray(gr, dtype=np.int64),
        mask=np.asarray(masks, dtype=bool),
        frozen_s=np.zeros((len(gs), wl.N_STRUCTURE)),
        frozen_r=np.zeros((len(gs), len(inventory))),
    )
    for step in ensemble.steps[:m]:
        inst.add(step)
    return inst


def mean_oracle_ce(ensemble: BoostedEnsemble, m: int, entries) -> float:
    """Mean combined cross-entropy of prefix m over the gold oracle states."""
    _check_prefix(ensemble, m)
    return _build_instances(entries, ensemble, m).mean_ce()


# ---------------------------------------------------------------------------
# SGD inner loop
# ---------------------------------------------------------------------------

# Below this running scale an epoch folds it into the input-wide arrays, so that the
# step ``lr / s`` on the stored values stays bounded.
_SCALE_FLOOR = 1e-3


def _run_epoch(learner: WeakLearner, per_state: list[tuple | None], order) -> None:
    """Per-instance SGD of ``learner``'s own arrays over ``order``, touching only each
    row's nonzero columns; ``per_state`` is ``_Instances.per_state()`` of the instance
    set, which reads its frozen sums at the time it was built.

    With ``l2_penalty`` > 0 every update first decays all parameters by
    ``decay = 1 - 2 lr l2`` and then subtracts ``lr * grad``, where the gradient is
    taken at the pre-update parameters: ``w <- w - lr (g + 2 l2 w)``.  The learner's
    ``small`` array decays eagerly, in one call.  Its input-wide ``wide`` array decays
    lazily (Bottou 2012, *Stochastic Gradient Descent Tricks*, 5.1): it holds
    ``v = w / s`` for one running scale ``s``, an update reads its row as ``x * s``,
    sets ``s *= decay`` and subtracts ``(lr / s) * grad`` from the row's columns.  The
    scale is folded into ``wide`` whenever it falls below ``_SCALE_FLOOR`` and before
    returning, so early stopping and the model file always see true parameters.  At
    ``l2_penalty`` 0 the scale stays exactly 1.0, and training is bit for bit the plain
    sparse SGD.

    Both softmaxes and the hidden layer's gradient are written into one buffer laid
    out as ``bias`` is, so a reduce state updates both heads in one step and every bias
    in another, and a shift state the structure rows in one step and ``b_structure``
    with ``b_hidden`` in another.

    A ``None`` state (one legal class) is skipped but for the decay: with finite logits
    every step of its update is +-0, which leaves every parameter's bits as they are.

    Each update makes few numpy calls, and every parameter stays bitwise equal to the
    plain loop's: a row's columns are gathered once by fancy indexing of one head's rows
    (``w[:, idx]``, F-ordered), updated in place and written back; every matrix-vector
    product is ``np.dot`` on one head, the BLAS call ``@`` makes; softmax maxima come from
    Python floats and sums from ``np.add.reduce``.  ``w.take(idx, 1)`` (a C-ordered copy,
    which BLAS sums in another order), one gather over both heads' rows then split, one
    ``np.dot`` over both heads stacked, or a Python ``sum`` would each change the bits.
    """
    cfg = learner.cfg
    lr, n_r, hidden = cfg.learning_rate, cfg.n_relations, cfg.hidden_dim > 0
    k = n_r + wl.N_STRUCTURE
    decay = 1.0 - 2.0 * lr * cfg.l2_penalty
    W, bias, w1, b1 = learner.heads, learner.bias, learner.w_hidden, learner.b_hidden
    wr, ws, br, bs = W[:n_r], W[n_r:], bias[:n_r], bias[n_r:k]
    ws_t, wr_t = ws.T, wr.T
    dz = np.empty(len(bias))  # the gradient of ``bias``, in its layout
    dz_r, dz_s, dpre = dz[:n_r], dz[n_r:k], dz[k:]
    # The rows a shift and a reduce update of ``W``, ``bias``, ``dz`` and ``dz``'s head column.
    shift_rows, reduce_rows = ((W[n_r:], bias[n_r:], dz[n_r:], dz[n_r:k, None]),
                               (W, bias, dz, dz[:k, None]))
    s = 1.0
    dot, total, exp, divide, multiply = np.dot, np.add.reduce, np.exp, np.divide, np.multiply

    for i in order.tolist():
        if (state := per_state[i]) is not None:
            idx, xv, base_s, frozen_r, gold_s, g_rel = state
            xs = xv if s == 1.0 else xv * s  # the row against the stored values
            # The heads read the hidden layer, or the row's nonzero inputs through their
            # gathered columns; ``hs`` and ``hr`` are the heads' weights over ``h``.
            if hidden:
                g1 = w1[:, idx]
                h, hs, hr = np.tanh(dot(g1, xs) + b1), ws, wr
            else:
                h, hs = xs, ws[:, idx]
            zs = base_s + dot(hs, h) + bs
            e = exp(zs - max(zs.tolist()))
            divide(e, total(e), out=dz_s)
            dz_s[gold_s] -= 1.0
            rows = shift_rows
            if g_rel >= 0:
                if not hidden:
                    hr = wr[:, idx]
                zr = frozen_r + dot(hr, h) + br
                e = exp(zr - max(zr.tolist()))
                divide(e, total(e), out=dz_r)
                dz_r[g_rel] -= 1.0
                rows = reduce_rows

            if hidden:
                dh = dot(ws_t, dz_s)
                if g_rel >= 0:
                    dh += dot(wr_t, dz_r)
                multiply(dh, 1.0 - h * h, out=dpre)
        if decay != 1.0:
            learner.small *= decay
        s *= decay
        if state is not None:
            step = lr / s  # the step on the stored input-wide values
            w_rows, b_rows, dz_rows, dz_col = rows
            b_rows -= lr * dz_rows
            if hidden:
                w_rows -= lr * (dz_col * h)
                g1 -= step * (dpre[:, None] * xv)
                w1[:, idx] = g1
            else:
                hs -= step * (dz_s[:, None] * xv)
                ws[:, idx] = hs
                if g_rel >= 0:
                    hr -= step * (dz_r[:, None] * xv)
                    wr[:, idx] = hr
        if s < _SCALE_FLOOR:
            learner.wide *= s
            s = 1.0
    learner.wide *= s


def _child_seed(seed: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed & 0xFFFFFFFF] + list(path))


def split_dev(
    treebank: Treebank, dev_fraction: float, seed: int
) -> tuple[tuple, tuple]:
    """Seeded document-level split into the (train, dev) entries.

    ``dev_fraction`` must lie in (0, 1).  Single-document treebanks train
    without a dev split; otherwise at least one document goes to each side.
    """
    if not 0.0 < dev_fraction < 1.0:  # NaN fails too
        raise InvalidConfig(f"held-out fraction must lie in (0, 1), got {dev_fraction}")
    n = len(treebank.entries)
    if n < 2:
        return treebank.entries, ()
    n_dev = min(n - 1, max(1, int(round(dev_fraction * n))))
    perm = np.random.default_rng(_child_seed(seed, 9)).permutation(n)
    dev_idx = set(perm[:n_dev].tolist())
    train = tuple(e for i, e in enumerate(treebank.entries) if i not in dev_idx)
    dev = tuple(e for i, e in enumerate(treebank.entries) if i in dev_idx)
    return train, dev


def _train_one_step(cfg: BoostConfig, step_no: int, seed: int, train_inst: _Instances,
                    dev_inst: _Instances | None) -> tuple[WeakLearner, StepReport]:
    """Train step ``step_no`` against the instance sets' frozen sums."""
    t0 = time.perf_counter()
    learner = wl.init(cfg.learner, np.random.default_rng(
        _child_seed(seed, step_no, 0)).integers(0, 2**31))
    shuffle_rng = np.random.default_rng(_child_seed(seed, step_no, 1))

    def snapshot() -> WeakLearner:
        return WeakLearner(learner.cfg, learner.wide.copy(), learner.small.copy())

    baseline_train = train_inst.mean_ce()
    per_state = train_inst.per_state()

    # (train CE, parameters) of the best-dev and of the best-train epoch; an epoch that
    # improves either is snapshot once.
    dev_pick = train_pick = (float("inf"), None)
    best_dev = float("inf")
    dev_curve: list[float | None] = []
    bad = 0
    n = len(train_inst)
    for _ in range(cfg.epochs_max):
        order = shuffle_rng.permutation(n) if cfg.shuffle_each_epoch else np.arange(n)
        _run_epoch(learner, per_state, order)
        t = train_inst.mean_ce(learner)
        d = dev_inst.mean_ce(learner) if dev_inst else t  # None or empty
        dev_curve.append(d if np.isfinite(d) else None)
        pick = (t, snapshot()) if t < train_pick[0] or d < best_dev else None
        if t < train_pick[0]:
            train_pick = pick
        if d < best_dev:
            best_dev, dev_pick, bad = d, pick, 0
        else:
            bad += 1
            if bad >= cfg.patience:
                break

    # Never append a step that degrades the combined training loss: the dev pick, else
    # the best-train epoch, else an inert all-zero learner.  A step whose dev CE was
    # never finite has no dev pick.
    selection, final_ce, chosen = next(
        ((name, ce, params) for name, (ce, params) in (("dev", dev_pick), ("train", train_pick))
         if params is not None and ce <= baseline_train),
        ("zero", baseline_train, None))

    report = StepReport(step=step_no, final_train_loss=final_ce, dev_losses=dev_curve,
                        epochs_run=len(dev_curve), seconds=time.perf_counter() - t0,
                        param_count=wl.n_params(cfg.learner), selection=selection)
    return chosen or wl.zeros(cfg.learner), report


def _check_dims(cfg: BoostConfig, enc_cfg: EncoderConfig, inventory: tuple[str, ...]) -> None:
    lc = cfg.learner
    if lc.input_dim != enc_cfg.width:
        raise DimensionMismatch(
            f"learner input_dim {lc.input_dim} != encoder width {enc_cfg.width}"
        )
    if lc.n_relations != len(inventory):
        raise DimensionMismatch(
            f"learner n_relations {lc.n_relations} != |inventory| {len(inventory)}"
        )


def _instance_sets(ensemble: BoostedEnsemble, train_entries,
                   held_out) -> tuple[_Instances, _Instances | None]:
    """The instance sets of ``train_entries`` and the dev entries ``held_out`` (None when
    there are none) that the next step of ``ensemble`` is fit and selected on, each
    holding the summed logits of all its steps."""
    if not train_entries:
        raise EmptyTreebank("cannot train on an empty treebank")
    _check_dims(ensemble.boost_config, ensemble.encoder_config, ensemble.relation_inventory)
    return (_build_instances(train_entries, ensemble),
            _build_instances(held_out, ensemble) if held_out else None)


def _append_step(ensemble: BoostedEnsemble, seed: int, train_inst: _Instances,
                 dev_inst: _Instances | None) -> tuple[BoostedEnsemble, StepReport]:
    """Fit the next step of ``ensemble`` against the instance sets' frozen sums, add its
    logits to both sets, and append it, frozen.  Logits that overflow make non-finite
    CEs, which step selection handles (a ``zero`` step at worst), so numpy's overflow
    and invalid-value warnings are not printed."""
    with np.errstate(over="ignore", invalid="ignore"):
        learner, report = _train_one_step(ensemble.boost_config, ensemble.n_steps + 1, seed,
                                          train_inst, dev_inst)
        for inst in (train_inst, dev_inst):
            if inst is not None:
                inst.add(learner)
    return replace(ensemble, steps=ensemble.steps + (learner,)), report


def train_step(ensemble: BoostedEnsemble, treebank: Treebank,
               seed: int) -> tuple[BoostedEnsemble, StepReport]:
    """Train and append one frozen step against the current ensemble sum, through the
    routine ``train`` runs for each step, on the ``split_dev`` of ``treebank`` that
    ``train`` draws with ``seed``."""
    split = split_dev(treebank, ensemble.boost_config.dev_fraction, seed)
    return _append_step(ensemble, seed, *_instance_sets(ensemble, *split))


def train(treebank: Treebank, cfg: BoostConfig,
          enc_cfg: EncoderConfig) -> tuple[BoostedEnsemble, TrainReport]:
    """Run the full staged procedure: n_steps weak learners, dev split fixed once."""
    ensemble = BoostedEnsemble(
        encoder_config=enc_cfg, relation_inventory=treebank.relation_inventory, steps=(),
        boost_config=cfg, train_domain_tag=treebank.domain_tag)
    instances = _instance_sets(ensemble, *split_dev(treebank, cfg.dev_fraction, cfg.seed))
    steps = []
    for _ in range(cfg.n_steps):
        ensemble, step_report = _append_step(ensemble, cfg.seed, *instances)
        steps.append(step_report)
    return ensemble, TrainReport(steps, list(accumulate(s.param_count for s in steps)),
                                 len(instances[0]), int(instances[0].skipped().sum()))


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

# Documents per frontier: bounds the states, bag memos and rows ``decode_batch`` holds.
DECODE_CHUNK_DOCS = 256


def predict_action(ensemble: BoostedEnsemble, groups, rows,
                   masks: np.ndarray) -> list[dict[Action, list[int]]]:
    """One step of every frontier state: the greedy action of each prefix of its group,
    the masked argmax of its logit sum (ties to the lowest index), as {action: [prefixes
    choosing it]} in ascending prefix order.  One ``wl.forward_steps`` over ``ensemble.stacked``
    gives every step's logits for ``rows``, a ``wl.Rows`` batch; ``cumsum`` sums them as
    ``_Instances.add`` does.  ``decode_batch`` checks the prefixes."""
    _, zs, zr = wl.forward_steps(ensemble.stacked, rows, max(map(max, groups)))
    cls, rel = (x.tolist() for x in _decision(masks[:, None], zs.cumsum(1), zr.cumsum(1)))
    chosen: list[dict[Action, list[int]]] = [{} for _ in groups]
    for choice, group, row_cls, row_rel in zip(chosen, groups, cls, rel):
        for m in sorted(group):
            c = row_cls[m - 1]
            action = SHIFT if c == wl.SHIFT_CLASS else Reduce(
                NUCLEARITIES[c - 1], ensemble.relation_inventory[row_rel[m - 1]])
            choice.setdefault(action, []).append(m)
    return chosen


def decode(ensemble: BoostedEnsemble, m: int,
           doc: Document) -> tuple[DiscourseNode, list[Action]]:
    """Greedy parse with prefix m and its 2n-1 actions (a binary tree has one derivation)."""
    tree = decode_batch(ensemble, [doc], [m])[0][m]
    return tree, oracle(tree)


def decode_batch(ensemble: BoostedEnsemble, docs, prefixes) -> list[dict[int, DiscourseNode]]:
    """The greedy parse tree of every m in ``prefixes``, for each of ``docs``.

    The frontier holds every unfinished (document, state, prefix group) of up to
    ``DECODE_CHUNK_DOCS`` documents, filed under the document and ``row_key``.  A key
    whose state has under two stack items can only shift, so all its prefixes shift;
    each iteration encodes one row per other key for one ``predict_action`` call, and
    makes none if there is no such key.  A group splits where its prefixes' actions
    differ; groups that split on a relation label alone reach one key again and share
    its row, and a per-document memo of token bags serves every key of its document.
    No parse depends on the other documents.
    """
    prefixes = sorted(set(prefixes))
    for m in prefixes:
        _check_prefix(ensemble, m)
    cfg = ensemble.encoder_config
    decoded: list[dict[int, DiscourseNode]] = [{} for _ in docs]
    for lo in range(0, len(docs), DECODE_CHUNK_DOCS):
        bags: dict[int, dict] = {}
        starts = [(i, initial_state(docs[i].n_edus))
                  for i in range(lo, min(lo + DECODE_CHUNK_DOCS, len(docs))) if prefixes]
        # (document, *row_key) -> entries (document, state, prefix group)
        frontier = {(i, *row_key(state, cfg)): [(i, state, prefixes)] for i, state in starts}
        while frontier:
            shared, frontier = frontier, {}
            # Every key shifts all its prefixes unless its state can reduce.
            chosen = {key: {SHIFT: [m for *_, g in es for m in g]} for key, es in shared.items()}
            scored = [(key, es[0][1]) for key, es in shared.items() if es[0][1].can_reduce]
            if scored:
                rows = [encode_state(state, docs[key[0]], cfg, bags.setdefault(key[0], {}))
                        for key, state in scored]
                chosen.update(zip([key for key, _ in scored], predict_action(
                    ensemble, [chosen[key][SHIFT] for key, _ in scored],
                    wl.stack_rows(cfg.width, rows),
                    np.array([structure_mask(state) for _, state in scored]))))
            for key, es in shared.items():
                for i, state, group in es:
                    for move, part in chosen[key].items():
                        if len(es) > 1 and not (part := [m for m in part if m in group]):
                            continue
                        after = apply(state, move)
                        if after.is_terminal:
                            decoded[i].update(dict.fromkeys(part, after.stack[0]))
                        else:
                            frontier.setdefault((i, *row_key(after, cfg)), []).append(
                                (i, after, part))
    return decoded


# ---------------------------------------------------------------------------
# Model serialization
# ---------------------------------------------------------------------------

FORMAT_VERSION = 2


def _learner_from_dict(cfg: LearnerConfig, shapes: dict, blob: dict,
                       cut: Iterator[memoryview]) -> WeakLearner:
    """A step's learner (its keys checked); an ``f64le`` of ``""`` reads ``next(cut)``."""
    params = {}
    for name, spec in blob.items():  # in document order, as ``cut`` is
        shape = shapes[name]
        if tuple(spec["shape"]) != shape:
            raise MalformedSyntax(
                f"parameter {name} has shape {spec['shape']}, expected {list(shape)}")
        try:
            encoded = next(cut) if spec["f64le"] == "" else spec["f64le"]
            raw = binascii.a2b_base64(encoded, strict_mode=True)
            params[name] = np.frombuffer(raw, "<f8").reshape(shape)
        except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise MalformedSyntax(f"parameter {name} is not base64 float64: {exc}") from exc
        if not np.isfinite(params[name]).all():
            raise MalformedSyntax(f"parameter {name} has non-finite values")
    return WeakLearner.from_params(cfg, params)


def _cut_blobs(data: bytes) -> tuple[bytes, list[memoryview]]:
    """The writer's splice undone, so that ``json.loads`` skips the base64: ``data``
    with each string after ``"f64le": "`` that holds no backslash cut to ``""``, and the
    cut strings in file order, as views of ``data`` (no copy).  The quote after ``f64le``
    is not escaped, so a match is at a key ``f64le`` or at the end of a key such as
    ``x\\"f64le``, which ``check_keys`` refuses.  The bytes are cut before any UTF-8
    decoding: a cut string is read by ``a2b_base64`` in strict mode, which refuses any
    byte outside base64, and the rest is decoded as UTF-8.  A file written otherwise
    (compact separators, a ``\\/`` escape) has nothing cut, or less, and loads the same."""
    key, view, parts, blobs, done = b'"f64le": "', memoryview(data), [], [], 0
    i = data.find(key)
    while i >= 0 and (end := data.find(b'"', i + len(key))) >= 0:
        if data.find(b"\\", i, end) < 0:
            parts.append(view[done:i + len(key)])
            blobs.append(view[i + len(key):end])
            done = end
        i = data.find(key, end)
    return b"".join([*parts, view[done:]]), blobs


def _model_chunks(ensemble: BoostedEnsemble) -> Iterator[bytes]:
    """The model file as bytes chunks, one parameter's base64 at a time.

    The base64 is spliced into a dump whose ``f64le`` values are all ``""``, so that
    ``json.dumps`` does not escape-scan it; the text ``"f64le": ""`` occurs nowhere
    else, since every quote inside a JSON string is escaped.  Base64 has no character
    to escape, so the bytes are those ``json.dumps`` writes for the whole document.  The
    dump is ASCII, as ``json.dumps`` escapes every other character."""
    doc = {
        "format_version": FORMAT_VERSION,
        "encoder_config": asdict(ensemble.encoder_config),
        "relation_inventory": list(ensemble.relation_inventory),
        "train_domain_tag": ensemble.train_domain_tag,
        "boost_config": asdict(ensemble.boost_config),
        "steps": [{name: {"shape": list(arr.shape), "f64le": ""}
                   for name, arr in step.param_items()}
                  for step in ensemble.steps],
    }
    head, *tails = json.dumps(doc, indent=1).encode().split(b'"f64le": ""')
    arrays = [arr for step in ensemble.steps for _, arr in step.param_items()]
    yield head
    for arr, tail in zip(arrays, tails, strict=True):
        yield b'"f64le": "'
        yield binascii.b2a_base64(arr.astype("<f8", copy=False).tobytes(), newline=False)
        yield b'"' + tail


def model_from_json(data: bytes) -> BoostedEnsemble:
    """Parse a model from its file's bytes.  ``_cut_blobs`` takes out the parameters'
    base64; the rest is decoded as UTF-8, and so never sniffed as UTF-16 or UTF-32 as
    ``json.loads`` would sniff bytes, and each parameter is decoded from its view of
    ``data``.  Undecodable JSON or UTF-8, a missing or unknown key at any level, a
    config that ``config_from_json`` refuses, an unsupported format, a relation
    inventory that is not a list of distinct labels in ``[a-z_-]+``, a domain tag that
    is not a string in ``[\\w.-]+`` (a treebank record's tag, so ``""`` is refused), no
    steps, undecodable or non-finite parameters, a learner config or parameter shapes
    that do not fit the encoder width and inventory, and cut strings that do not pair
    one to one with the parameters raise MalformedSyntax."""
    try:
        skeleton, blobs = _cut_blobs(data)
        doc = json.loads(skeleton.decode("utf-8"))
        if doc.get("format_version") != FORMAT_VERSION:
            raise InvalidConfig(
                f"unsupported model format_version {doc.get('format_version')!r} "
                f"(this version reads {FORMAT_VERSION}); retrain with `rstboost train`")
        # The file holds its format version and each field of the ensemble.
        check_keys("model", doc, ("format_version", *BoostedEnsemble.__dataclass_fields__), "")
        enc_cfg = config_from_json(EncoderConfig, doc["encoder_config"], "encoder_config.")
        boost_cfg = config_from_json(BoostConfig, doc["boost_config"], "boost_config.")
        lc = boost_cfg.learner
        inventory, tag = doc["relation_inventory"], doc["train_domain_tag"]
        if not json_typed(inventory, tuple[str, ...]) or len(set(inventory)) < len(inventory):
            raise MalformedSyntax("relation_inventory must be a list of distinct labels")
        if not (json_typed(tag, str) and _DOMAIN_TAG_RE.match(tag)):
            raise MalformedSyntax(f"train_domain_tag must be a string in [\\w.-]+, got {tag!r}")
        for rel in inventory:
            if not _RELATION_RE.match(rel):
                raise MalformedSyntax(f"bad relation label {rel!r} (expected [a-z_-]+)")
        _check_dims(boost_cfg, enc_cfg, inventory)
        shapes = wl.param_shapes(lc)
        for i, step in enumerate(doc["steps"]):
            check_keys("step", step, shapes, f"steps[{i}].")
            for name, spec in step.items():
                check_keys(f"parameter {name}", spec, ("shape", "f64le"), f"steps[{i}].{name}.")
        empty = sum(spec["f64le"] == "" for step in doc["steps"] for spec in step.values())
        if empty != len(blobs):  # a duplicate f64le key, for one
            raise MalformedSyntax(f"{len(blobs)} f64le strings were cut out for {empty} "
                                  "parameters: they do not pair one to one")
        cut = iter(blobs)
        steps = tuple(_learner_from_dict(lc, shapes, step, cut) for step in doc["steps"])
        if not steps:
            raise MalformedSyntax("model has no steps")
        return BoostedEnsemble(
            encoder_config=enc_cfg,
            relation_inventory=tuple(inventory),
            steps=steps,
            boost_config=boost_cfg,
            train_domain_tag=tag,
        )
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError,
            DimensionMismatch, InvalidConfig) as exc:
        raise MalformedSyntax(f"malformed model file: {type(exc).__name__}: {exc}") from exc


def save_model(ensemble: BoostedEnsemble, path: str | Path) -> None:
    """Write the model to ``path`` as JSON, streaming ``_model_chunks`` through
    ``_atomic_write``; each parameter is its shape and the base64 of its little-endian
    float64 bytes in row-major order."""
    _atomic_write(path, _model_chunks(ensemble))


def load_model(path: str | Path, data: bytes | None = None) -> BoostedEnsemble:
    """Load a model file, or its bytes ``data`` if the caller has read them already."""
    return model_from_json(Path(path).read_bytes() if data is None else data)
