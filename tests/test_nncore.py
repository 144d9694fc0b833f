from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irvuln.nncore import (LstmParams, blstm_forward, gradient_check,
                           lstm_sequence_forward, lstm_step, relu, sgd_step,
                           softmax_cross_entropy)


def random_lstm(rng, input_dim, hidden_dim, scale=0.5, use_bias=True):
    w = rng.uniform(-scale, scale, size=(4 * hidden_dim,
                                         input_dim + hidden_dim))
    b = rng.uniform(-scale, scale, size=4 * hidden_dim)
    return LstmParams(w, b, hidden_dim, use_bias)


def step_oracle(params, xs):
    """Hidden states of a chain of lstm_step calls from zero state."""
    h = np.zeros(params.hidden_dim)
    c = np.zeros(params.hidden_dim)
    out = []
    for x in xs:
        h, c = lstm_step(params, x, h, c)
        out.append(h)
    return np.array(out)


class TestRelu:
    def test_elementwise(self):
        assert list(relu(np.array([-1.0, 0.0, 2.0]))) == [0.0, 0.0, 2.0]

    def test_all_negative(self):
        assert not relu(np.array([-3.0, -0.5])).any()

    def test_idempotent(self):
        x = np.linspace(-2, 2, 11)
        assert np.array_equal(relu(relu(x)), relu(x))


class TestLstmStep:
    def test_zero_parameters_zero_state(self):
        params = LstmParams(np.zeros((8, 3)), np.zeros(8), 2)
        h, c = lstm_step(params, np.array([5.0]), np.zeros(2), np.zeros(2))
        assert np.array_equal(h, np.zeros(2))
        assert np.array_equal(c, np.zeros(2))

    def test_saturated_forget_gate_hand_case(self):
        # forget bias 100 => f ~= 1; everything else zero => i = 0.5, g = 0
        params = LstmParams(np.zeros((4, 2)), np.zeros(4), 1)
        params.bias[1] = 100.0
        h, c = lstm_step(params, np.array([0.0]), np.zeros(1),
                         np.array([2.0]))
        assert c[0] == pytest.approx(2.0, abs=1e-9)
        assert h[0] == pytest.approx(1.0, abs=1e-9)

    def test_matches_scalar_reimplementation(self):
        rng = np.random.default_rng(11)
        params = random_lstm(rng, 1, 1)
        x, h_prev, c_prev = rng.standard_normal(3)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        w = params.weight
        b = params.bias
        zi = w[0, 0] * x + w[0, 1] * h_prev + b[0]
        zf = w[1, 0] * x + w[1, 1] * h_prev + b[1]
        zo = w[2, 0] * x + w[2, 1] * h_prev + b[2]
        zg = w[3, 0] * x + w[3, 1] * h_prev + b[3]
        c_ref = sig(zf) * c_prev + sig(zi) * max(zg, 0.0)
        h_ref = sig(zo) * max(c_ref, 0.0)
        h, c = lstm_step(params, np.array([x]), np.array([h_prev]),
                         np.array([c_prev]))
        assert h[0] == pytest.approx(h_ref, rel=1e-12)
        assert c[0] == pytest.approx(c_ref, rel=1e-12)


class TestLstmSequence:
    @settings(max_examples=60, deadline=None)
    @given(length=st.integers(1, 40), input_dim=st.integers(1, 9),
           hidden_dim=st.integers(1, 9), use_bias=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_step_oracle(self, length, input_dim, hidden_dim,
                                 use_bias, seed):
        rng = np.random.default_rng(seed)
        params = random_lstm(rng, input_dim, hidden_dim, use_bias=use_bias)
        xs = rng.standard_normal((length, input_dim))
        H, cache = lstm_sequence_forward(params, xs)
        np.testing.assert_allclose(H, step_oracle(params, xs),
                                   rtol=1e-12, atol=1e-12)
        assert [f.name for f in fields(cache)] == ["gates", "C", "H", "xs"]


def blstm(fwd, bwd, xs):
    out, _ = blstm_forward([(fwd, bwd)], xs)
    return out


class TestBlstm:
    def test_length_one_shared_params(self):
        rng = np.random.default_rng(0)
        params = random_lstm(rng, 3, 2)
        out = blstm(params, params, rng.standard_normal((1, 3)))
        assert np.array_equal(out.forward_states, out.backward_states)

    def test_reversal_property(self):
        rng = np.random.default_rng(1)
        fwd = random_lstm(rng, 3, 4)
        bwd = random_lstm(rng, 3, 4)
        xs = rng.standard_normal((6, 3))
        out = blstm(fwd, bwd, xs)
        flipped = blstm(bwd, fwd, xs[::-1])
        assert np.allclose(out.backward_states, flipped.forward_states[::-1])

    def test_matches_step_by_step_oracle(self):
        rng = np.random.default_rng(2)
        fwd = random_lstm(rng, 2, 3)
        bwd = random_lstm(rng, 2, 3)
        xs = rng.standard_normal((4, 2))
        out = blstm(fwd, bwd, xs)
        h = np.zeros(3)
        c = np.zeros(3)
        for t in range(4):
            h, c = lstm_step(fwd, xs[t], h, c)
            assert np.allclose(out.forward_states[t], h)
        h = np.zeros(3)
        c = np.zeros(3)
        for t in range(3, -1, -1):
            h, c = lstm_step(bwd, xs[t], h, c)
            assert np.allclose(out.backward_states[t], h)

    def test_two_layers_250_steps_match_step_oracle(self):
        rng = np.random.default_rng(6)
        layers = [(random_lstm(rng, 5, 4, 0.3), random_lstm(rng, 5, 4, 0.3)),
                  (random_lstm(rng, 8, 4, 0.3), random_lstm(rng, 8, 4, 0.3))]
        xs = rng.standard_normal((250, 5))
        out, caches = blstm_forward(layers, xs)
        assert len(caches) == 2
        seq = xs
        for fwd, bwd in layers:
            hf = step_oracle(fwd, seq)
            hb = step_oracle(bwd, seq[::-1])[::-1]
            seq = np.concatenate([hf, hb], axis=1)
        np.testing.assert_allclose(out.forward_states, hf,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.backward_states, hb,
                                   rtol=1e-12, atol=1e-12)

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(3)
        params = random_lstm(rng, 2, 2)
        with pytest.raises(ValueError):
            blstm(params, params, np.zeros((0, 2)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, dlogits = softmax_cross_entropy(np.zeros(2), 0)
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)
        assert dlogits == pytest.approx([-0.5, 0.5])

    def test_confident_correct(self):
        loss, _ = softmax_cross_entropy(np.array([10.0, -10.0]), 0)
        assert loss == pytest.approx(np.log1p(np.exp(-20.0)), rel=1e-9)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            loss, _ = softmax_cross_entropy(rng.standard_normal(2) * 5,
                                            int(rng.integers(2)))
            assert loss >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal(2)
        _, dlogits = softmax_cross_entropy(logits, 1)
        h = 1e-6
        for j in range(2):
            bumped = logits.copy()
            bumped[j] += h
            up, _ = softmax_cross_entropy(bumped, 1)
            bumped[j] -= 2 * h
            down, _ = softmax_cross_entropy(bumped, 1)
            assert dlogits[j] == pytest.approx((up - down) / (2 * h),
                                               rel=1e-6)


class TestSgd:
    def test_zero_lr_is_identity(self):
        params = {"w": np.array([1.0, 2.0])}
        sgd_step(params, {"w": np.array([3.0, 4.0])}, 0.0)
        assert list(params["w"]) == [1.0, 2.0]

    def test_scalar_arithmetic(self):
        params = {"w": np.array([1.0])}
        sgd_step(params, {"w": np.array([2.0])}, 0.1)
        assert params["w"][0] == pytest.approx(0.8)

    def test_two_steps_equal_one_double_step(self):
        g = {"w": np.array([0.3, -0.7])}
        a = {"w": np.array([1.0, 1.0])}
        b = {"w": np.array([1.0, 1.0])}
        sgd_step(a, g, 0.05)
        sgd_step(a, g, 0.05)
        sgd_step(b, g, 0.1)
        assert np.allclose(a["w"], b["w"])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, 0.1)


class TestGradientCheck:
    def test_quadratic_toy_loss(self):
        params = {"p": np.array([3.0])}
        err = gradient_check(lambda p: float(p["p"][0] ** 2),
                             lambda p: {"p": 2.0 * p["p"]}, params)
        assert err < 1e-9
        assert params["p"][0] == 3.0

    def test_detects_wrong_gradient(self):
        params = {"p": np.array([3.0])}
        err = gradient_check(lambda p: float(p["p"][0] ** 2),
                             lambda p: {"p": 3.0 * p["p"]}, params)
        assert err > 0.1
