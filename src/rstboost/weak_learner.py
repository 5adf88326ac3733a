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
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IllegalGold, InvalidConfig, InvalidInput

N_STRUCTURE = 4  # shift, reduce-NN, reduce-NS, reduce-SN
SHIFT_CLASS = 0


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


@dataclass(frozen=True, eq=False)
class LogitPair:
    structure: np.ndarray  # (4,), or (N, 4) for a batch
    relation: np.ndarray   # (n_relations,), or (N, n_relations)

    @staticmethod
    def zeros(n_relations: int) -> "LogitPair":
        return LogitPair(np.zeros(N_STRUCTURE), np.zeros(n_relations))


@dataclass(eq=False)
class WeakLearner:
    cfg: LearnerConfig
    w_hidden: np.ndarray | None   # (H, input_dim) or None when H == 0
    b_hidden: np.ndarray | None   # (H,) or None
    w_structure: np.ndarray       # (4, H or input_dim)
    b_structure: np.ndarray       # (4,)
    w_relation: np.ndarray        # (R, H or input_dim)
    b_relation: np.ndarray        # (R,)

    @classmethod
    def from_params(cls, cfg: LearnerConfig, params: dict[str, np.ndarray]) -> "WeakLearner":
        """Build from a name -> array mapping; the hidden layer is optional."""
        return cls(cfg, params.get("w_hidden"), params.get("b_hidden"),
                   params["w_structure"], params["b_structure"],
                   params["w_relation"], params["b_relation"])

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        items = []
        if self.w_hidden is not None:
            items += [("w_hidden", self.w_hidden), ("b_hidden", self.b_hidden)]
        items += [
            ("w_structure", self.w_structure), ("b_structure", self.b_structure),
            ("w_relation", self.w_relation), ("b_relation", self.b_relation),
        ]
        return items


def init(cfg: LearnerConfig, seed: int) -> WeakLearner:
    """Uniform(-a, a) weights with a = init_scale / sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(seed)

    def uniform(rows: int, fan_in: int) -> np.ndarray:
        a = cfg.init_scale / math.sqrt(fan_in)
        return rng.uniform(-a, a, size=(rows, fan_in))

    params = {}
    fan_in = cfg.input_dim
    if cfg.hidden_dim > 0:
        params["w_hidden"] = uniform(cfg.hidden_dim, fan_in)
        params["b_hidden"] = np.zeros(cfg.hidden_dim)
        fan_in = cfg.hidden_dim
    params["w_structure"] = uniform(N_STRUCTURE, fan_in)
    params["b_structure"] = np.zeros(N_STRUCTURE)
    params["w_relation"] = uniform(cfg.n_relations, fan_in)
    params["b_relation"] = np.zeros(cfg.n_relations)
    return WeakLearner.from_params(cfg, params)


def zeros(cfg: LearnerConfig) -> WeakLearner:
    """All-zero parameters; forward output is identically zero."""
    learner = init(cfg, seed=0)
    for _, arr in learner.param_items():
        arr[...] = 0.0
    return learner


def _check_input(w: WeakLearner, x: np.ndarray, batch: bool = True) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    d = w.cfg.input_dim
    if x.ndim not in ((1, 2) if batch else (1,)) or x.shape[-1] != d:
        expected = f"({d},) or (N, {d})" if batch else f"({d},)"
        raise DimensionMismatch(f"feature array has shape {x.shape}, expected {expected}")
    return x


def _forward(w: WeakLearner, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hidden activations and both heads' logits, for one state or a batch."""
    h = x if w.w_hidden is None else np.tanh(x @ w.w_hidden.T + w.b_hidden)
    return h, h @ w.w_structure.T + w.b_structure, h @ w.w_relation.T + w.b_relation


def forward(w: WeakLearner, x: np.ndarray) -> LogitPair:
    """Logits of both heads for one state ``(dim,)`` or a batch ``(N, dim)``."""
    _, structure, relation = _forward(w, _check_input(w, x))
    return LogitPair(structure, relation)


def param_count(w: WeakLearner) -> int:
    return sum(arr.size for _, arr in w.param_items())


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
    x: np.ndarray,
    frozen: LogitPair,
    gold_structure: int,
    gold_relation: int | None,
    legal_mask,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss of (frozen + this learner) and exact gradients w.r.t. this learner.

    The structure head uses a legality-masked softmax cross-entropy; the
    relation head contributes only when the gold action is a reduce.  An
    l2 penalty over all of this learner's parameters is added when
    ``cfg.l2_penalty > 0``.  The frozen logits are treated as constants.
    """
    x = _check_input(w, x, batch=False)
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
    if frozen.structure.shape != (N_STRUCTURE,) or frozen.relation.shape != (
        w.cfg.n_relations,
    ):
        raise DimensionMismatch("frozen logits do not match the learner's heads")

    h, logits_s, logits_r = _forward(w, x)
    z_s = frozen.structure + logits_s
    p_s, logp_s = _masked_log_softmax(z_s, mask)
    loss = -logp_s[gold_structure]
    dz_s = p_s.copy()
    dz_s[gold_structure] -= 1.0

    dz_r = np.zeros(w.cfg.n_relations)
    if is_reduce:
        if not 0 <= gold_relation < w.cfg.n_relations:
            raise DimensionMismatch(f"gold relation index {gold_relation} out of range")
        z_r = frozen.relation + logits_r
        m = np.max(z_r)
        exp = np.exp(z_r - m)
        total = exp.sum()
        loss += -(z_r[gold_relation] - m - np.log(total))
        dz_r = exp / total
        dz_r[gold_relation] -= 1.0

    grads: dict[str, np.ndarray] = {
        "w_structure": np.outer(dz_s, h),
        "b_structure": dz_s,
        "w_relation": np.outer(dz_r, h),
        "b_relation": dz_r,
    }
    if w.w_hidden is not None:
        dh = w.w_structure.T @ dz_s + w.w_relation.T @ dz_r
        dpre = dh * (1.0 - h * h)
        grads["w_hidden"] = np.outer(dpre, x)
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
