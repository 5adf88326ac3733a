import math

import numpy as np
import pytest

from rstboost.errors import (
    DimensionMismatch,
    IllegalGold,
    InvalidConfig,
    InvalidInput,
)
from rstboost.weak_learner import (
    LearnerConfig,
    MAX_PARAMS,
    LogitPair,
    Rows,
    WeakLearner,
    boosted_loss_and_grad,
    forward,
    forward_steps,
    init,
    n_params,
    param_shapes,
    sgd_step,
    stack_rows,
    stack_steps,
    zeros,
)

from conftest import learner_from_flat, sparse

ALL_LEGAL = (True, True, True, True)


def one_row(row, input_dim=7):
    """One sparse row ``(indices, values)`` as a checked batch of one."""
    return stack_rows(input_dim, [row])


def small_cfg(hidden_dim=3, input_dim=7, n_relations=5, l2=0.0):
    return LearnerConfig(
        input_dim=input_dim,
        n_relations=n_relations,
        hidden_dim=hidden_dim,
        learning_rate=0.1,
        l2_penalty=l2,
    )


def flatten_params(learner):
    return np.concatenate([arr.ravel() for _, arr in learner.param_items()])


def numeric_grad(learner, x, frozen, gold_s, gold_r, mask, eps=1e-5):
    theta = flatten_params(learner)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += eps
        minus[i] -= eps
        lp, _ = boosted_loss_and_grad(
            learner_from_flat(learner, plus), x, frozen, gold_s, gold_r, mask)
        lm, _ = boosted_loss_and_grad(
            learner_from_flat(learner, minus), x, frozen, gold_s, gold_r, mask)
        grad[i] = (lp - lm) / (2 * eps)
    return grad


def random_instance(rng, cfg, gold_shift=False, frozen_scale=0.0):
    x = sparse(rng.normal(size=cfg.input_dim))
    frozen = LogitPair(
        rng.normal(size=4) * frozen_scale,
        rng.normal(size=cfg.n_relations) * frozen_scale,
    )
    if gold_shift:
        return x, frozen, 0, None
    return x, frozen, int(rng.integers(1, 4)), int(rng.integers(0, cfg.n_relations))


def reference_init(cfg, seed):
    """``init`` as it was before ``param_shapes`` owned the layout: each array
    spelled out, weights drawn hidden, structure, relation."""
    rng = np.random.default_rng(seed)

    def uniform(rows, fan_in):
        a = cfg.init_scale / math.sqrt(fan_in)
        return rng.uniform(-a, a, size=(rows, fan_in))

    params = {}
    fan_in = cfg.input_dim
    if cfg.hidden_dim > 0:
        params["w_hidden"] = uniform(cfg.hidden_dim, fan_in)
        params["b_hidden"] = np.zeros(cfg.hidden_dim)
        fan_in = cfg.hidden_dim
    params["w_structure"] = uniform(4, fan_in)
    params["b_structure"] = np.zeros(4)
    params["w_relation"] = uniform(cfg.n_relations, fan_in)
    params["b_relation"] = np.zeros(cfg.n_relations)
    return params


class TestParamShapes:
    def test_layout_order(self):
        assert list(param_shapes(small_cfg(hidden_dim=3))) == [
            "w_hidden", "b_hidden", "w_structure", "b_structure", "w_relation", "b_relation"]
        assert param_shapes(small_cfg(hidden_dim=0)) == {
            "w_structure": (4, 7), "b_structure": (4,),
            "w_relation": (5, 7), "b_relation": (5,)}

    @pytest.mark.parametrize("hidden_dim", [0, 16])
    def test_init_bitwise_equals_reference(self, hidden_dim):
        cfg = LearnerConfig(input_dim=37, n_relations=6, hidden_dim=hidden_dim,
                            init_scale=0.7)
        got = init(cfg, 123).param_items()
        ref = reference_init(cfg, 123)
        assert [name for name, _ in got] == list(ref)
        for name, arr in got:
            assert arr.dtype == ref[name].dtype and np.array_equal(arr, ref[name]), name

    @pytest.mark.parametrize("hidden_dim", [0, 3])
    def test_zeros_follows_the_table_without_random_numbers(self, monkeypatch, hidden_dim):
        def no_rng(*args, **kwargs):
            raise AssertionError("zeros must not draw random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        cfg = small_cfg(hidden_dim=hidden_dim)
        learner = zeros(cfg)
        assert {name: arr.shape for name, arr in learner.param_items()} == param_shapes(cfg)
        assert not flatten_params(learner).any()


class TestLayout:
    """A learner's named parameters are views of its two arrays, which it owns."""
    @pytest.mark.parametrize("hidden_dim", [0, 3])
    def test_from_params_copies(self, hidden_dim):
        cfg = small_cfg(hidden_dim=hidden_dim)
        params = {name: arr.copy() for name, arr in init(cfg, 0).param_items()}
        learner = WeakLearner.from_params(cfg, params)
        before = flatten_params(learner)
        for arr in params.values():
            arr += 1.0
        assert bits(flatten_params(learner)) == bits(before)
        for name, arr in learner.param_items():
            assert arr.shape == params[name].shape
            assert not np.shares_memory(arr, params[name])
            assert np.shares_memory(arr, learner.wide) or np.shares_memory(arr, learner.small)


class TestInit:
    def test_deterministic(self):
        cfg = small_cfg()
        a, b = init(cfg, 42), init(cfg, 42)
        for (_, pa), (_, pb) in zip(a.param_items(), b.param_items()):
            assert np.array_equal(pa, pb)

    def test_seed_changes_weights(self):
        cfg = small_cfg()
        a, b = init(cfg, 1), init(cfg, 2)
        assert not np.array_equal(a.w_structure, b.w_structure)

    def test_linear_config_has_no_hidden(self):
        learner = init(small_cfg(hidden_dim=0), 0)
        assert learner.w_hidden is None and learner.b_hidden is None
        assert learner.w_structure.shape == (4, 7)

    def test_biases_zero_and_bounds(self):
        cfg = small_cfg(hidden_dim=8, input_dim=16)
        learner = init(cfg, 3)
        assert not learner.b_hidden.any()
        assert not learner.b_structure.any()
        assert np.abs(learner.w_hidden).max() <= 1 / np.sqrt(16)
        assert np.abs(learner.w_structure).max() <= 1 / np.sqrt(8)

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfig):
            LearnerConfig(input_dim=0, n_relations=3)
        with pytest.raises(InvalidConfig):
            LearnerConfig(input_dim=4, n_relations=0)
        with pytest.raises(InvalidConfig):
            LearnerConfig(input_dim=4, n_relations=3, hidden_dim=-1)
        with pytest.raises(InvalidConfig):
            LearnerConfig(input_dim=4, n_relations=3, learning_rate=-0.1)
        for lr, l2 in [(1.0, 0.5), (1.0, 2.0), (0.25, 2.0)]:  # shrink 1 - 2 lr l2 <= 0
            with pytest.raises(InvalidConfig, match="l2_penalty must be < 1"):
                LearnerConfig(input_dim=4, n_relations=3, learning_rate=lr, l2_penalty=l2)
        LearnerConfig(input_dim=4, n_relations=3, learning_rate=1.0, l2_penalty=0.499)

    @pytest.mark.parametrize("input_dim,hidden_dim", [(8, 1), (1, 0)])
    def test_init_scale_whose_range_overflows_is_refused(self, input_dim, hidden_dim):
        """``init`` draws uniform(-a, a), a = init_scale / sqrt(fan_in), and numpy refuses
        a range 2a that is not finite.  At a fan-in of 2, 1e308 gives a finite 2a, and at
        4 or more every finite scale does."""
        with pytest.raises(InvalidConfig, match="init_scale 1e[+]308 is too large"):
            LearnerConfig(input_dim=input_dim, n_relations=2, hidden_dim=hidden_dim,
                          init_scale=1e308)
        for hidden_dim, scale in [(2, 1e308), (4, 1.7976931348623157e308)]:
            cfg = LearnerConfig(input_dim=8, n_relations=2, hidden_dim=hidden_dim,
                                init_scale=scale)
            assert np.isfinite(init(cfg, 0).wide).all()

    def test_parameter_count_limit(self):
        """Checked on the config, so no array is built.  Without a hidden layer and with
        one relation a learner has 5 * (input_dim + 1) parameters."""
        assert MAX_PARAMS % 5 == 0
        at_limit = LearnerConfig(input_dim=MAX_PARAMS // 5 - 1, n_relations=1, hidden_dim=0)
        assert n_params(at_limit) == MAX_PARAMS
        with pytest.raises(InvalidConfig, match=f"the limit is {MAX_PARAMS:,}"):
            LearnerConfig(input_dim=MAX_PARAMS // 5, n_relations=1, hidden_dim=0)
        # The README's compare matches a single learner to five boosted steps.
        readme = LearnerConfig(input_dim=3076, n_relations=8)
        assert 240_000 < 5 * n_params(readme) < MAX_PARAMS // 40


class TestForward:
    def test_zero_learner_gives_zero_logits(self):
        learner = zeros(small_cfg())
        out = forward(learner, one_row(sparse(np.ones(7))))
        assert not out.structure.any() and not out.relation.any()

    def test_linear_identity_rows(self):
        learner = zeros(small_cfg(hidden_dim=0))
        learner.w_structure[...] = np.eye(4, 7)
        x = np.arange(7.0)
        out = forward(learner, one_row(sparse(x)))
        assert np.array_equal(out.structure[0], x[:4])

    def test_output_shapes(self):
        """Logits are always batched, a batch of one included."""
        learner = init(small_cfg(hidden_dim=5, n_relations=9), 0)
        out = forward(learner, one_row(sparse(np.zeros(7))))
        assert out.structure.shape == (1, 4) and out.relation.shape == (1, 9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            stack_rows(7, [(np.array([7]), np.array([1.0]))])


class TestSparseRows:
    """One sparse row, a CSR batch, and the checks on outside input."""

    def random_batch(self, rng, n_rows=40, dim=7):
        rows = [sparse(rng.normal(size=dim) * (rng.random(dim) < 0.5)) for _ in range(n_rows)]
        rows[3] = rows[-1] = (np.zeros(0, np.int64), np.zeros(0))  # empty rows
        return rows, stack_rows(dim, rows)

    @pytest.mark.parametrize("hidden_dim", [0, 3, 16])
    def test_batch_rows_match_single_rows_bitwise(self, hidden_dim):
        rng = np.random.default_rng(hidden_dim)
        learner = init(small_cfg(hidden_dim=hidden_dim), 4)
        learner.b_structure[...] = rng.normal(size=4)
        rows, batch = self.random_batch(rng)
        out = forward(learner, batch)
        assert out.structure.shape == (len(rows), 4) and out.relation.shape == (len(rows), 5)
        for i, row in enumerate(rows):  # each row alone, as a batch of one
            one = forward(learner, one_row(row))
            assert np.array_equal(one.structure, out.structure[i:i + 1])
            assert np.array_equal(one.relation, out.relation[i:i + 1])
        # the same rows in a smaller batch, with different neighbours
        part = forward(learner, stack_rows(7, rows[5:15]))
        assert np.array_equal(part.structure, out.structure[5:15])
        assert np.array_equal(part.relation, out.relation[5:15])

    @pytest.mark.parametrize("hidden_dim", [0, 3])
    def test_matches_dense_math(self, hidden_dim):
        rng = np.random.default_rng(5)
        learner = init(small_cfg(hidden_dim=hidden_dim), 2)
        for _ in range(10):
            x = rng.normal(size=7) * (rng.random(7) < 0.6)
            h = x if hidden_dim == 0 else np.tanh(learner.w_hidden @ x + learner.b_hidden)
            out = forward(learner, one_row(sparse(x)))
            assert np.allclose(out.structure, learner.w_structure @ h + learner.b_structure)
            assert np.allclose(out.relation, learner.w_relation @ h + learner.b_relation)

    @pytest.mark.parametrize("hidden_dim", [0, 3])
    def test_empty_row_gives_the_bias_response(self, hidden_dim):
        learner = init(small_cfg(hidden_dim=hidden_dim), 1)
        for _, arr in learner.param_items():
            if arr.ndim == 1:
                arr[...] = np.arange(arr.size) + 0.5
        h = np.tanh(learner.b_hidden) if hidden_dim else np.zeros(7)
        for empty in (([], []), (np.zeros(0, np.int64), np.zeros(0))):
            out = forward(learner, one_row(empty))
            assert out.structure.shape == (1, 4)
            assert np.allclose(out.structure, learner.w_structure @ h + learner.b_structure)
            assert np.allclose(out.relation, learner.w_relation @ h + learner.b_relation)

    @pytest.mark.parametrize("rows", [
        (np.array([7]), np.array([1.0])),            # index == input_dim
        (np.array([-1]), np.array([1.0])),           # negative index
        (np.array([1.0]), np.array([1.0])),          # non-integer index
        (np.array([1, 2]), np.array([1.0])),         # lengths differ
        (np.array([1]), np.array(["x"])),            # non-numeric value
        (np.array([0, 1]), np.array([1, 2]), np.array([1.0, 1.0])),   # indptr too short
        (np.array([0, 2, 1, 2]), np.array([1, 2]), np.array([1.0, 1.0])),  # decreasing
        (np.array([1]),),
    ])
    def test_outside_input_is_checked(self, rows):
        """A pair, or a tuple of another length, is one row for ``stack_rows`` to check; an
        ``(indptr, indices, data)`` triple made by hand never reaches ``forward``'s gather."""
        learner = init(small_cfg(), 0)
        with pytest.raises(DimensionMismatch):
            forward(learner, rows if len(rows) == 3 else one_row(rows))

    def test_each_row_is_checked(self):
        """Each row's values match its own indices, not only the batch's totals; an index
        array of two dimensions is refused even where the values match it."""
        with pytest.raises(DimensionMismatch):
            stack_rows(7, [(np.array([1, 2]), np.array([1.0])),
                           (np.array([3]), np.array([1.0, 2.0]))])
        with pytest.raises(DimensionMismatch):
            stack_rows(7, [(np.array([[1, 2]]), np.array([[1.0, 2.0]]))])
        with pytest.raises(DimensionMismatch):
            stack_rows(7, [(np.array(1), np.array(1.0))])

    def test_stack_rows_builds_one_csr_batch(self):
        rows = [(np.array([4, 1], np.int32), [0.5, 2]), (np.zeros(0, np.int8), []),
                (np.array([6]), [1.0])]
        got = stack_rows(7, rows)
        assert isinstance(got, Rows)
        assert got.indptr.tolist() == [0, 2, 2, 3] and got.indptr.dtype == np.int64
        assert got.indices.tolist() == [4, 1, 6] and got.indices.dtype == np.int64
        assert got.data.tolist() == [0.5, 2.0, 1.0] and got.data.dtype == np.float64

    def test_empty_rows_leave_the_index_type_alone(self):
        """An empty row given as Python lists, beside integer-array rows, is an empty row:
        it does not promote the batch's indices to float64, and a float index is still
        refused beside it."""
        got = stack_rows(7, [(np.array([4, 1]), [0.5, 2]), ([], []), (np.array([6]), [1.0])])
        assert got.indptr.tolist() == [0, 2, 2, 3]
        assert got.indices.tolist() == [4, 1, 6] and got.indices.dtype == np.int64
        assert stack_rows(7, [([], []), ([], [])]).indptr.tolist() == [0, 0, 0]
        with pytest.raises(DimensionMismatch):
            stack_rows(7, [([], []), (np.array([1.0]), [1.0])])

    @pytest.mark.parametrize("rows", [
        (np.array([0, 1]), np.array([2]), np.array([1.0])),  # a well-formed CSR triple
        (np.array([2]), np.array([1.0])),                    # a bare sparse row
        tuple(one_row((np.array([2]), np.array([1.0])))),    # a batch's arrays, retyped
    ])
    def test_forward_takes_only_checked_rows(self, rows):
        learner = init(small_cfg(hidden_dim=0), 0)
        with pytest.raises(DimensionMismatch, match="stack_rows"):
            forward(learner, rows)
        with pytest.raises(DimensionMismatch, match="stack_rows"):
            forward_steps(stack_steps([learner]), rows, 1)

    def test_loss_takes_one_row_only(self):
        learner = init(small_cfg(), 0)
        batch = (np.array([0, 1]), np.array([2]), np.array([1.0]))
        with pytest.raises(DimensionMismatch):
            boosted_loss_and_grad(learner, batch, LogitPair.zeros(5), 0, None, ALL_LEGAL)



def bits(a):
    """An array's shape and bytes: equal only for bit-for-bit equal values, signed
    zeros included."""
    a = np.ascontiguousarray(a)
    return a.shape, a.tobytes()


def reference_forward(w, row):
    """One learner's (structure, relation) logits for one sparse row, in the arithmetic
    of the forward that ran each step alone: an F-ordered gather of the row's columns,
    ``np.add.reduceat`` (0 for an empty row), then ``h @ W.T`` with a hidden layer."""
    indices, values = row

    def dot(weights):
        if not len(indices):
            return np.zeros(len(weights))
        return np.add.reduceat(weights[:, indices] * values, [0], axis=1)[:, 0]

    if w.w_hidden is None:
        return dot(w.w_structure) + w.b_structure, dot(w.w_relation) + w.b_relation
    h = np.tanh(dot(w.w_hidden) + w.b_hidden)
    return h @ w.w_structure.T + w.b_structure, h @ w.w_relation.T + w.b_relation


class TestForwardSteps:
    """One pass over a stack of steps against one ``forward`` per step, bit for bit."""
    # Rows of these many nonzeros; 128 is numpy's pairwise-summation block.
    NONZEROS = (0, 1, 8, 128, 129, 300)

    @pytest.mark.parametrize("n_relations", [1, 10])
    @pytest.mark.parametrize("hidden_dim", [0, 3, 16])
    def test_each_step_equals_its_own_forward(self, hidden_dim, n_relations):
        rng = np.random.default_rng(10 * hidden_dim + n_relations)
        cfg = small_cfg(hidden_dim=hidden_dim, input_dim=400, n_relations=n_relations)
        steps = [init(cfg, seed) for seed in range(5)]
        for step in steps:
            for _, arr in step.param_items():
                if arr.ndim == 1:  # nonzero biases
                    arr[...] = rng.normal(size=arr.size)
        rows = [(np.sort(rng.choice(400, n, replace=False)), rng.normal(size=n))
                for n in self.NONZEROS]
        batch = stack_rows(400, rows)
        stack = stack_steps(steps)
        for top in (1, 3, 5):
            _, zs, zr = forward_steps(stack, batch, top)
            assert zs.shape == (len(rows), top, 4) and zr.shape == (len(rows), top, n_relations)
            alone = [forward_steps(stack, one_row(row, 400), top) for row in rows]
            for k, step in enumerate(steps[:top]):
                want = forward(step, batch)
                assert bits(zs[:, k]) == bits(want.structure)
                assert bits(zr[:, k]) == bits(want.relation)
                for i, row in enumerate(rows):
                    one = forward(step, one_row(row, 400))
                    assert bits(one.structure[0]) == bits(zs[i, k]) == bits(alone[i][1][0, k])
                    assert bits(one.relation[0]) == bits(zr[i, k]) == bits(alone[i][2][0, k])
                    ref_s, ref_r = reference_forward(step, row)
                    assert bits(one.structure[0]) == bits(ref_s)
                    assert bits(one.relation[0]) == bits(ref_r)

    @pytest.mark.parametrize("hidden_dim", [0, 3])
    def test_one_step_stack_follows_in_place_updates(self, hidden_dim):
        """With a hidden layer or without, one step's stack is views of its arrays."""
        learner = init(small_cfg(hidden_dim=hidden_dim), 0)
        stack = stack_steps([learner])
        for (name, arr), (stacked_name, stacked) in zip(learner.param_items(),
                                                        stack.param_items(), strict=True):
            assert name == stacked_name and stacked.shape == (1, *arr.shape)
            assert np.shares_memory(arr, stacked)
        row = one_row(sparse(np.arange(7.0)))
        before = forward(learner, row)
        for _, arr in learner.param_items():
            arr += 1.0
        _, zs, zr = forward_steps(stack, row, 1)
        after = forward(learner, row)
        assert bits(zs[:, 0]) == bits(after.structure) and bits(zr[:, 0]) == bits(after.relation)
        assert not np.array_equal(after.structure, before.structure)

def array_size(cfg):
    """The parameters of the arrays ``init`` builds, counted without ``param_shapes``."""
    return sum(arr.size for _, arr in init(cfg, 0).param_items())


class TestParamCount:
    """``n_params`` counts from the shape table; the arrays have as many entries."""
    def test_linear_case(self):
        cfg = LearnerConfig(input_dim=3076, n_relations=8, hidden_dim=0)
        assert n_params(cfg) == array_size(cfg) == 3076 * 12 + 12 == 36924

    def test_hidden_case(self):
        # stated closed form: d*H + H + H*4 + 4 + H*R + R
        cfg = LearnerConfig(input_dim=3076, n_relations=8, hidden_dim=16)
        expected = 3076 * 16 + 16 + 16 * 4 + 4 + 16 * 8 + 8
        assert n_params(cfg) == array_size(cfg) == expected == 49436

    def test_doubling_hidden_roughly_doubles(self):
        small = n_params(small_cfg(hidden_dim=8, input_dim=100))
        big = n_params(small_cfg(hidden_dim=16, input_dim=100))
        assert abs(big - 2 * small) < small * 0.2


class TestBoostedLoss:
    def test_zero_frozen_equals_plain_cross_entropy(self):
        rng = np.random.default_rng(0)
        cfg = small_cfg()
        learner = init(cfg, 5)
        x = sparse(rng.normal(size=7))
        frozen = LogitPair.zeros(5)
        loss, _ = boosted_loss_and_grad(learner, x, frozen, 2, 1, ALL_LEGAL)
        out = forward(learner, one_row(x))
        z = out.structure[0] - out.structure.max()
        ce_s = -(z[2] - np.log(np.exp(z).sum()))
        zr = out.relation[0] - out.relation.max()
        ce_r = -(zr[1] - np.log(np.exp(zr).sum()))
        assert loss == pytest.approx(ce_s + ce_r, rel=1e-12)

    def test_saturated_frozen_kills_loss_and_grad(self):
        rng = np.random.default_rng(1)
        cfg = small_cfg()
        learner = init(cfg, 5)
        frozen = LogitPair(np.array([1000.0, 0, 0, 0]), np.zeros(5))
        loss, grads = boosted_loss_and_grad(
            learner, sparse(rng.normal(size=7)), frozen, 0, None, ALL_LEGAL)
        assert loss <= 1e-6
        assert max(np.abs(g).max() for g in grads.values()) <= 1e-6

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        for hidden in (0, 3):
            for frozen_scale in (0.0, 1.5):
                cfg = small_cfg(hidden_dim=hidden)
                learner = init(cfg, int(rng.integers(0, 1000)))
                for gold_shift in (False, True):
                    x, frozen, gs, gr = random_instance(
                        rng, cfg, gold_shift, frozen_scale)
                    _, grads = boosted_loss_and_grad(
                        learner, x, frozen, gs, gr, ALL_LEGAL)
                    analytic = np.concatenate(
                        [grads[name].ravel() for name, _ in learner.param_items()])
                    numeric = numeric_grad(learner, x, frozen, gs, gr, ALL_LEGAL)
                    denom = np.maximum(np.abs(numeric), 1e-8)
                    assert np.max(np.abs(analytic - numeric) / denom) <= 1e-4

    def test_gradients_with_l2_match_finite_differences(self):
        rng = np.random.default_rng(3)
        cfg = small_cfg(hidden_dim=2, l2=0.01)
        learner = init(cfg, 9)
        x, frozen, gs, gr = random_instance(rng, cfg, False, 1.0)
        _, grads = boosted_loss_and_grad(learner, x, frozen, gs, gr, ALL_LEGAL)
        analytic = np.concatenate(
            [grads[name].ravel() for name, _ in learner.param_items()])
        numeric = numeric_grad(learner, x, frozen, gs, gr, ALL_LEGAL)
        denom = np.maximum(np.abs(numeric), 1e-8)
        assert np.max(np.abs(analytic - numeric) / denom) <= 1e-4

    def test_masked_class_is_inert(self):
        rng = np.random.default_rng(2)
        cfg = small_cfg()
        learner = init(cfg, 4)
        x = sparse(rng.normal(size=7))
        mask = (True, True, True, False)
        frozen_a = LogitPair(np.array([0.1, 0.2, 0.3, 0.4]), np.zeros(5))
        frozen_b = LogitPair(np.array([0.1, 0.2, 0.3, 99.0]), np.zeros(5))
        loss_a, grads_a = boosted_loss_and_grad(learner, x, frozen_a, 1, 2, mask)
        loss_b, grads_b = boosted_loss_and_grad(learner, x, frozen_b, 1, 2, mask)
        assert loss_a == loss_b
        for name in grads_a:
            assert np.array_equal(grads_a[name], grads_b[name])

    def test_illegal_gold_rejected(self):
        learner = init(small_cfg(), 0)
        with pytest.raises(IllegalGold):
            boosted_loss_and_grad(
                learner, sparse(np.zeros(7)), LogitPair.zeros(5), 1, 2,
                (True, False, True, True))

    def test_gold_relation_presence_rules(self):
        learner = init(small_cfg(), 0)
        frozen = LogitPair.zeros(5)
        with pytest.raises(InvalidInput):
            boosted_loss_and_grad(learner, sparse(np.zeros(7)), frozen, 1, None, ALL_LEGAL)
        with pytest.raises(InvalidInput):
            boosted_loss_and_grad(learner, sparse(np.zeros(7)), frozen, 0, 1, ALL_LEGAL)

    def test_loss_nonnegative_without_l2(self):
        rng = np.random.default_rng(11)
        cfg = small_cfg()
        for _ in range(20):
            learner = init(cfg, int(rng.integers(0, 10_000)))
            x, frozen, gs, gr = random_instance(rng, cfg, False, 2.0)
            loss, _ = boosted_loss_and_grad(learner, x, frozen, gs, gr, ALL_LEGAL)
            assert loss >= 0.0


class TestSgdStep:
    def test_zero_lr_is_identity(self):
        learner = init(small_cfg(), 1)
        _, grads = boosted_loss_and_grad(
            learner, sparse(np.ones(7)), LogitPair.zeros(5), 0, None, ALL_LEGAL)
        stepped = sgd_step(learner, grads, 0.0)
        for (_, a), (_, b) in zip(learner.param_items(), stepped.param_items()):
            assert np.array_equal(a, b)

    def test_zero_grads_is_identity(self):
        learner = init(small_cfg(), 1)
        grads = {name: np.zeros_like(arr) for name, arr in learner.param_items()}
        stepped = sgd_step(learner, grads, 0.5)
        for (_, a), (_, b) in zip(learner.param_items(), stepped.param_items()):
            assert np.array_equal(a, b)

    def test_step_decreases_convex_loss(self):
        rng = np.random.default_rng(5)
        cfg = small_cfg(hidden_dim=0)
        learner = init(cfg, 2)
        x, frozen, gs, gr = random_instance(rng, cfg)
        loss0, grads = boosted_loss_and_grad(learner, x, frozen, gs, gr, ALL_LEGAL)
        stepped = sgd_step(learner, grads, 0.05)
        loss1, _ = boosted_loss_and_grad(stepped, x, frozen, gs, gr, ALL_LEGAL)
        assert loss1 < loss0

    def test_returns_new_learner(self):
        learner = init(small_cfg(), 1)
        grads = {name: np.ones_like(arr) for name, arr in learner.param_items()}
        stepped = sgd_step(learner, grads, 0.1)
        assert stepped is not learner
        assert not np.array_equal(stepped.w_structure, learner.w_structure)

    def test_shape_mismatch_rejected(self):
        learner = init(small_cfg(), 1)
        grads = {name: np.zeros(3) for name, _ in learner.param_items()}
        with pytest.raises(DimensionMismatch):
            sgd_step(learner, grads, 0.1)
