"""One weak two-headed classifier with hand-derived gradients.

Architecture: an optional shared tanh hidden layer feeding two linear
heads, a 4-way structure head (shift / reduce-NN / reduce-NS / reduce-SN)
and an |R|-way relation head.  ``hidden_dim == 0`` drops the hidden layer
and wires both heads directly to the input.

The training loss is the *boosted* loss: the learner's logits are added to
a frozen logit pair contributed by earlier ensemble steps, and gradients
are taken with respect to this learner's parameters only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, IllegalGold, InvalidConfig, InvalidInput

N_STRUCTURE = 4  # shift, reduce-NN, reduce-NS, reduce-SN
SHIFT_CLASS = 0
# The most parameters one learner may have, 80 MB of float64: training holds a
# learner and up to two snapshots of it at once.  The README's defaults use about
# 49,500 per learner, and its `compare` about 247,000 in all.
MAX_PARAMS = 10_000_000


@dataclass(frozen=True)
class LearnerConfig:
    input_dim: int
    n_relations: int
    hidden_dim: int = 16
    init_scale: float = 1.0
    learning_rate: float = 0.1
    l2_penalty: float = 0.0

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise InvalidConfig("input_dim must be >= 1")
        if self.n_relations < 1:
            raise InvalidConfig("n_relations must be >= 1")
        if self.hidden_dim < 0:
            raise InvalidConfig("hidden_dim must be >= 0")
        if self.init_scale <= 0 or not math.isfinite(self.init_scale):
            raise InvalidConfig("init_scale must be positive and finite")
        if not (0 <= self.learning_rate < math.inf and 0 <= self.l2_penalty < math.inf):
            raise InvalidConfig("learning_rate and l2_penalty must be finite and >= 0")
        if 2.0 * self.learning_rate * self.l2_penalty >= 1.0:
            raise InvalidConfig(
                "2 * learning_rate * l2_penalty must be < 1: each update shrinks every "
                "parameter by 1 - 2 * learning_rate * l2_penalty, which must be positive")
        if (count := n_params(self)) > MAX_PARAMS:
            raise InvalidConfig(
                f"a learner of input_dim {self.input_dim}, hidden_dim {self.hidden_dim} "
                f"and {self.n_relations} relations has {count:,} parameters; "
                f"the limit is {MAX_PARAMS:,}")
        # ``init`` draws uniform(-a, a), a = init_scale / sqrt(fan_in); numpy needs 2a finite.
        fan_in = min(shape[1] for shape in param_shapes(self).values() if len(shape) == 2)
        if not math.isfinite(2 * (self.init_scale / math.sqrt(fan_in))):
            raise InvalidConfig(
                f"init_scale {self.init_scale} is too large: init draws weights from "
                f"uniform(-a, a), a = init_scale / sqrt({fan_in}), and 2a must be finite")


@dataclass(frozen=True, eq=False)
class LogitPair:
    structure: np.ndarray  # (4,), or (N, 4) for a batch
    relation: np.ndarray   # (n_relations,), or (N, n_relations)

    @staticmethod
    def zeros(n_relations: int) -> "LogitPair":
        return LogitPair(np.zeros(N_STRUCTURE), np.zeros(n_relations))


@dataclass(eq=False)
class WeakLearner:
    """Two float64 arrays and views of them: ``wide`` reads the input, and ``small`` holds
    the rest, flat, in the SGD loop's order (``[w_relation; w_structure]`` when there is a
    hidden layer, then ``b_relation``, ``b_structure`` and ``b_hidden``).  Only
    ``from_params`` packs them, and it copies.  A stack of learners (``stack_steps``) has a
    leading step axis on both arrays and on every view."""
    cfg: LearnerConfig
    wide: np.ndarray   # w_hidden (..., H, input_dim), or heads when H == 0
    small: np.ndarray  # heads, raveled, when H > 0; then bias
    w_hidden: np.ndarray | None = field(init=False)  # None when H == 0, as is b_hidden
    b_hidden: np.ndarray | None = field(init=False)
    w_structure: np.ndarray = field(init=False)
    b_structure: np.ndarray = field(init=False)
    w_relation: np.ndarray = field(init=False)
    b_relation: np.ndarray = field(init=False)
    heads: np.ndarray = field(init=False)  # (..., R + 4, H or input_dim): w_relation, w_structure
    bias: np.ndarray = field(init=False)   # (..., R + 4 + H): b_relation, b_structure, b_hidden

    def __post_init__(self) -> None:
        n_r, n_h, small = self.cfg.n_relations, self.cfg.hidden_dim, self.small
        k = n_r + N_STRUCTURE
        self.heads = small[..., :k * n_h].reshape(*small.shape[:-1], k, n_h) if n_h else self.wide
        self.bias = small[..., k * n_h:]
        self.w_hidden, self.b_hidden = (self.wide, self.bias[..., k:]) if n_h else (None, None)
        self.w_relation, self.w_structure = self.heads[..., :n_r, :], self.heads[..., n_r:, :]
        self.b_relation, self.b_structure = self.bias[..., :n_r], self.bias[..., n_r:k]

    @classmethod
    def from_params(cls, cfg: LearnerConfig, params: dict[str, np.ndarray]) -> "WeakLearner":
        """Pack a name -> array mapping, of ``param_shapes``' shapes, into a new learner's
        two arrays; the values are copied, so the learner shares no memory with them."""
        small = ("w_relation", "w_structure", "b_relation", "b_structure", "b_hidden")
        wide, small = (("w_hidden",), small) if cfg.hidden_dim else (small[:2], small[2:4])
        return cls(cfg, np.concatenate([params[name] for name in wide], dtype=np.float64),
                   np.concatenate([np.ravel(params[name]) for name in small], dtype=np.float64))

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in param_shapes(self.cfg)]


def param_shapes(cfg: LearnerConfig) -> dict[str, tuple[int, ...]]:
    """Each parameter's shape, in layout order: the hidden pair (only when
    ``hidden_dim > 0``), then the structure head, then the relation head.  This is the
    order of the model file and of ``init``'s draws."""
    fan_in = cfg.hidden_dim or cfg.input_dim  # the heads' input width
    hidden = ({"w_hidden": (cfg.hidden_dim, cfg.input_dim), "b_hidden": (cfg.hidden_dim,)}
              if cfg.hidden_dim else {})
    return hidden | {"w_structure": (N_STRUCTURE, fan_in), "b_structure": (N_STRUCTURE,),
                     "w_relation": (cfg.n_relations, fan_in), "b_relation": (cfg.n_relations,)}


def n_params(sizes) -> int:
    """The parameter count of a learner of ``sizes``' ``input_dim``, ``n_relations`` and
    ``hidden_dim``: a ``LearnerConfig``, or any object with the three, which may
    describe a learner over ``MAX_PARAMS``."""
    return sum(math.prod(shape) for shape in param_shapes(sizes).values())


def init(cfg: LearnerConfig, seed: int) -> WeakLearner:
    """Uniform(-a, a) weights with a = init_scale / sqrt(fan_in), drawn in layout
    order from one stream; zero biases."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(cfg).items():
        if name.startswith("w_"):  # (rows, fan_in)
            a = cfg.init_scale / math.sqrt(shape[1])
            params[name] = rng.uniform(-a, a, size=shape)
        else:
            params[name] = np.zeros(shape)
    return WeakLearner.from_params(cfg, params)


def zeros(cfg: LearnerConfig) -> WeakLearner:
    """All-zero parameters; forward output is identically zero."""
    return WeakLearner.from_params(
        cfg, {name: np.zeros(shape) for name, shape in param_shapes(cfg).items()})


class Rows(NamedTuple):
    """A checked CSR batch from ``stack_rows``: row i is at ``indptr[i]:indptr[i + 1]``."""
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def stack_rows(input_dim: int, rows) -> Rows:
    """One or more sparse rows ``(indices, values)``, as ``encode_state`` returns them, as
    one checked ``Rows`` batch.  A row that is not two 1-d sequences of one length, or an
    index that is not an integer in [0, ``input_dim``), raises DimensionMismatch."""
    try:
        lengths = [len(indices) for indices, _ in rows]
        # Empty rows stay out, as an empty list would make the indices float64.
        indices = np.concatenate([ix for ix, _ in rows if len(ix)] or [ix for ix, _ in rows])
        data = np.concatenate([values for _, values in rows], dtype=np.float64)
        # Viewed as unsigned, a negative index is out of range too.
        if (indices.ndim == 1 and data.shape == indices.shape
                and [len(values) for _, values in rows] == lengths
                and (not indices.size or indices.dtype.kind in "iu" and indices.astype(
                    np.int64, copy=False).view(np.uint64).max() < input_dim)):
            return Rows(np.add.accumulate([0] + lengths, dtype=np.int64),
                        indices.astype(np.int64, copy=False), data)
    except (TypeError, ValueError):  # not pairs of 1-d sequences
        pass
    raise DimensionMismatch(f"rows must be (indices, values) with indices in [0, {input_dim})")


def _dot_rows(weights: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
              data: np.ndarray) -> np.ndarray:
    """Each row's dot product with every row of ``weights``, (N, len(weights)), from
    products gathered C-ordered and scaled in place.  ``np.add.reduceat`` sums each row's
    products in its own order, whatever the other rows of either operand and the BLAS
    thread count; empty rows, which it would give the next row's first term, give 0."""
    full = indptr[1:] > indptr[:-1]
    out = np.zeros((full.size, len(weights)))
    products = weights.take(indices, axis=1)
    products *= data
    out[full] = np.add.reduceat(products, indptr[:-1][full], axis=1).T
    return out


def stack_steps(steps) -> WeakLearner:
    """``steps``, learners of one config, as one learner whose two arrays are theirs stacked
    on a leading step axis, for ``forward_steps``; one step's are views of its own."""
    arrays = (group[0][None] if len(steps) == 1 else np.stack(group)
              for group in zip(*((step.wide, step.small) for step in steps)))
    return WeakLearner(steps[0].cfg, *arrays)


def forward_steps(stack: WeakLearner, rows: Rows, top: int) -> tuple[np.ndarray | None, ...]:
    """Hidden activations (N, top, H), None without a hidden layer, and the structure and
    relation logits (N, top, 4) and (N, top, R) of ``stack``'s steps 1..top for ``rows``,
    from one ``_dot_rows``, one ``tanh`` and one product per head.  numpy multiplies a
    stack of matrices one at a time, one small product per state and step, so each is
    bitwise the one-step value, and no logit depends on the other rows of the batch or
    on how BLAS splits its work: outputs are the same at any BLAS thread count."""
    if not isinstance(rows, Rows):  # unchecked indices would wrap or fail inside ``take``
        raise DimensionMismatch("rows must be a Rows batch from stack_rows")
    wide = stack.wide[:top]
    z = _dot_rows(wide.reshape(-1, wide.shape[2]), *rows).reshape(-1, *wide.shape[:2])
    if stack.w_hidden is None:  # both heads read the input, relation rows first
        z += stack.bias[:top]
        return None, z[..., -N_STRUCTURE:], z[..., :-N_STRUCTURE]
    h = np.tanh(z + stack.b_hidden[:top])
    return h, *((h[:, :, None] @ w[:top].transpose(0, 2, 1))[:, :, 0] + b[:top]
                for w, b in ((stack.w_structure, stack.b_structure),
                             (stack.w_relation, stack.b_relation)))


def forward(w: WeakLearner, rows: Rows) -> LogitPair:
    """Logits of both heads for ``rows``, shaped (N, 4) and (N, R): the one-step
    ``forward_steps``.  A row's logits do not depend on its batch."""
    _, structure, relation = forward_steps(stack_steps([w]), rows, 1)
    return LogitPair(structure[:, 0], relation[:, 0])


def _masked_log_softmax(z: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (probabilities, log-probabilities); masked entries get p = 0."""
    z = np.where(mask, z, -np.inf)
    m = np.max(z)
    exp = np.exp(z - m)
    total = exp.sum()
    p = exp / total
    logp = z - m - np.log(total)
    return p, logp


def boosted_loss_and_grad(
    w: WeakLearner,
    row,
    frozen: LogitPair,
    gold_structure: int,
    gold_relation: int | None,
    legal_mask,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss of (frozen + this learner) and exact gradients w.r.t. this learner.

    ``row`` is one sparse feature row ``(indices, values)``.  The structure
    head uses a legality-masked softmax cross-entropy; the relation head
    contributes only when the gold action is a reduce.  An l2 penalty over
    all of this learner's parameters is added when ``cfg.l2_penalty > 0``.
    The frozen logits are treated as constants.
    """
    _, idx, xv = checked = stack_rows(w.cfg.input_dim, [row])
    mask = np.asarray(legal_mask, dtype=bool)
    if mask.shape != (N_STRUCTURE,):
        raise DimensionMismatch(f"legal_mask has shape {mask.shape}, expected (4,)")
    if not 0 <= gold_structure < N_STRUCTURE or not mask[gold_structure]:
        raise IllegalGold(f"gold structure class {gold_structure} is masked out")
    is_reduce = gold_structure != SHIFT_CLASS
    if is_reduce and gold_relation is None:
        raise InvalidInput("gold_relation required for a reduce gold action")
    if not is_reduce and gold_relation is not None:
        raise InvalidInput("gold_relation must be None for a shift gold action")
    if (frozen.structure.shape, frozen.relation.shape) != ((N_STRUCTURE,), (w.cfg.n_relations,)):
        raise DimensionMismatch("frozen logits do not match the learner's heads")

    h, logits_s, logits_r = (x if x is None else x[0, 0]
                             for x in forward_steps(stack_steps([w]), checked, 1))
    p_s, logp_s = _masked_log_softmax(frozen.structure + logits_s, mask)
    loss = -logp_s[gold_structure]
    dz_s = p_s.copy()
    dz_s[gold_structure] -= 1.0

    dz_r = np.zeros(w.cfg.n_relations)
    if is_reduce:
        if not 0 <= gold_relation < w.cfg.n_relations:
            raise DimensionMismatch(f"gold relation index {gold_relation} out of range")
        dz_r, logp_r = _masked_log_softmax(frozen.relation + logits_r, True)
        loss -= logp_r[gold_relation]
        dz_r[gold_relation] -= 1.0

    def outer(dz: np.ndarray, like: np.ndarray, cols, v: np.ndarray) -> np.ndarray:
        grad = np.zeros_like(like)  # outer(dz, input) on the input's columns
        np.add.at(grad, (slice(None), cols), np.outer(dz, v))
        return grad

    # The heads read the hidden layer, or the row's nonzero inputs.
    cols, hv = (idx, xv) if h is None else (slice(None), h)
    grads: dict[str, np.ndarray] = {
        "w_structure": outer(dz_s, w.w_structure, cols, hv),
        "b_structure": dz_s,
        "w_relation": outer(dz_r, w.w_relation, cols, hv),
        "b_relation": dz_r,
    }
    if h is not None:
        dh = w.w_structure.T @ dz_s + w.w_relation.T @ dz_r
        dpre = dh * (1.0 - hv * hv)
        grads["w_hidden"] = outer(dpre, w.w_hidden, idx, xv)
        grads["b_hidden"] = dpre

    l2 = w.cfg.l2_penalty
    if l2 > 0:
        for name, arr in w.param_items():
            loss += l2 * float(np.sum(arr * arr))
            grads[name] = grads[name] + 2.0 * l2 * arr
    return float(loss), grads


def sgd_step(w: WeakLearner, grads: dict[str, np.ndarray], lr: float) -> WeakLearner:
    """Return a new learner with parameters w - lr * grads."""
    updated = {}
    for name, arr in w.param_items():
        g = grads.get(name)
        if g is None or np.shape(g) != arr.shape:
            raise DimensionMismatch(f"gradient for {name} missing or wrong shape")
        updated[name] = arr - lr * g
    return WeakLearner.from_params(w.cfg, updated)
