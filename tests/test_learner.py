"""Tests for the desk-scale classifier: forward pass, the regularized loss and
its exact gradient, the step-size schedule, and round-level training."""

import numpy as np
import pytest

from airfd import learner
from airfd.learner import (
    Architecture,
    LearnerConfig,
    ModelParams,
    evaluate_accuracy,
    forward_pass,
    init_params,
    local_update,
    loss_and_grad,
    lr_schedule,
    train_round,
)
from airfd.oracles import finite_difference_gradient

ARCH = Architecture(feature_dim=8, hidden_dim=32, num_classes=3)


def random_model(rng, arch=ARCH, scale=0.5):
    return ModelParams(theta=scale * rng.standard_normal(arch.param_count), arch=arch)


def random_batch(rng, arch=ARCH, batch=12):
    features = rng.standard_normal((batch, arch.feature_dim))
    labels = rng.integers(0, arch.num_classes, batch)
    knowledge = rng.dirichlet(np.ones(arch.num_classes), size=arch.num_classes)
    return features, labels, knowledge


def loop_forward(params, features):
    """Independent single-sample recomputation with explicit loops."""
    f, h, k = params.arch.feature_dim, params.arch.hidden_dim, params.arch.num_classes
    theta = params.theta
    w1 = theta[: f * h].reshape(f, h)
    b1 = theta[f * h : f * h + h]
    w2 = theta[f * h + h : f * h + h + h * k].reshape(h, k)
    b2 = theta[f * h + h + h * k :]
    hidden = np.array(
        [np.tanh(sum(features[a] * w1[a, j] for a in range(f)) + b1[j]) for j in range(h)]
    )
    logits = np.array(
        [sum(hidden[j] * w2[j, c] for j in range(h)) + b2[c] for c in range(k)]
    )
    shift = logits - logits.max()
    return np.exp(shift) / np.exp(shift).sum()


class TestArchitectureAndParams:
    def test_param_count(self):
        assert ARCH.param_count == 9 * 32 + 33 * 3

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            ModelParams(theta=np.zeros(10), arch=ARCH)

    def test_nonfinite_rejected(self):
        theta = np.zeros(ARCH.param_count)
        theta[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ModelParams(theta=theta, arch=ARCH)

    def test_init_deterministic(self):
        a = init_params(ARCH, np.random.default_rng(3))
        b = init_params(ARCH, np.random.default_rng(3))
        assert np.array_equal(a.theta, b.theta)


class TestForward:
    def test_zero_weights_uniform(self):
        params = ModelParams(theta=np.zeros(ARCH.param_count), arch=ARCH)
        out = forward_pass(params, np.ones((1, 8))).probs[0]
        np.testing.assert_allclose(out, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_dominant_logit_saturates(self):
        theta = np.zeros(ARCH.param_count)
        theta[-3] = 50.0  # bias of class 0's logit; hidden activations are 0
        params = ModelParams(theta=theta, arch=ARCH)
        out = forward_pass(params, np.zeros((1, 8))).probs[0]
        assert abs(out[0] - 1.0) <= 1e-10
        assert out[1] <= 1e-10 and out[2] <= 1e-10

    def test_matches_loop_recomputation(self):
        rng = np.random.default_rng(7)
        params = random_model(rng)
        for _ in range(3):
            x = rng.standard_normal(8)
            np.testing.assert_allclose(
                forward_pass(params, x[None, :]).probs[0],
                loop_forward(params, x),
                rtol=1e-12,
            )

    def test_valid_probability_rows(self):
        rng = np.random.default_rng(8)
        params = random_model(rng, scale=3.0)
        out = forward_pass(params, rng.standard_normal((50, 8))).probs
        assert np.all(out > 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_dimension_mismatch(self):
        params = random_model(np.random.default_rng(9))
        with pytest.raises(ValueError, match="features"):
            forward_pass(params, np.zeros((4, 5)))
        with pytest.raises(ValueError, match="features"):
            evaluate_accuracy(params, np.zeros((4, 5)), np.zeros(4, dtype=int))


class TestLossAndGrad:
    def test_zero_weight_reduces_to_cross_entropy(self):
        rng = np.random.default_rng(10)
        params = random_model(rng)
        features, labels, _ = random_batch(rng)
        loss, grad = loss_and_grad(params, features, labels, None, 0.0)
        probs = forward_pass(params, features).probs
        expected = -np.mean(np.log(probs[np.arange(len(labels)), labels]))
        assert loss == pytest.approx(expected, rel=1e-12)
        fd = finite_difference_gradient(
            lambda th: loss_and_grad(
                ModelParams(theta=th, arch=ARCH), features, labels, None, 0.0
            )[0],
            params.theta,
        )
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(np.linalg.norm(grad), 1.0)

    def test_zero_residual_contributes_nothing(self):
        rng = np.random.default_rng(11)
        params = random_model(rng)
        x = rng.standard_normal((1, 8))
        labels = np.array([1])
        knowledge = np.tile(forward_pass(params, x).probs[0], (3, 1))
        loss_active, grad_active = loss_and_grad(params, x, labels, knowledge, 7.0)
        loss_off, grad_off = loss_and_grad(params, x, labels, knowledge, 0.0)
        assert loss_active == loss_off
        np.testing.assert_allclose(grad_active, grad_off, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for trial in range(3):
            params = random_model(rng)
            features, labels, knowledge = random_batch(rng)
            _, grad = loss_and_grad(params, features, labels, knowledge, 0.7)
            fd = finite_difference_gradient(
                lambda th: loss_and_grad(
                    ModelParams(theta=th, arch=ARCH), features, labels, knowledge, 0.7
                )[0],
                params.theta,
            )
            rel = np.linalg.norm(grad - fd) / np.linalg.norm(grad)
            assert rel <= 1e-4

    def test_missing_knowledge_rejected(self):
        rng = np.random.default_rng(13)
        params = random_model(rng)
        features, labels, knowledge = random_batch(rng)
        with pytest.raises(ValueError, match="knowledge"):
            loss_and_grad(params, features, labels, knowledge[:2], 0.5)
        bad = knowledge.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            loss_and_grad(params, features, labels, bad, 0.5)

    def test_bad_labels_rejected(self):
        rng = np.random.default_rng(14)
        params = random_model(rng)
        features, labels, knowledge = random_batch(rng)
        labels = labels.copy()
        labels[0] = 3
        with pytest.raises(ValueError, match="labels"):
            loss_and_grad(params, features, labels, knowledge, 0.5)

    def test_mismatched_cache_rejected(self):
        rng = np.random.default_rng(15)
        params = random_model(rng)
        features, labels, knowledge = random_batch(rng)
        cache = forward_pass(params, features[:-1])
        with pytest.raises(ValueError, match="cache"):
            loss_and_grad(params, features, labels, knowledge, 0.5, cache=cache)


class TestSchedule:
    CONFIG = LearnerConfig(distill_weight=0.5, init_lr=0.01, rounds=100)

    def test_first_round(self):
        assert lr_schedule(0, self.CONFIG) == pytest.approx(0.01, rel=1e-15)

    def test_fourth_round_halves(self):
        assert lr_schedule(3, self.CONFIG) == pytest.approx(0.005, rel=1e-15)

    def test_round_hundred(self):
        assert lr_schedule(99, self.CONFIG) == pytest.approx(0.001, rel=1e-15)

    def test_cap_applies(self):
        config = LearnerConfig(
            distill_weight=0.0, init_lr=0.01, rounds=10, lr_cap=0.004
        )
        assert lr_schedule(0, config) == 0.004
        assert lr_schedule(24, config) == pytest.approx(0.002, rel=1e-15)

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(-1, self.CONFIG)


class TestLocalUpdate:
    def test_zero_step_or_gradient_keeps_theta(self):
        rng = np.random.default_rng(20)
        theta = rng.standard_normal(10)
        grad = rng.standard_normal(10)
        assert np.array_equal(local_update(theta, grad, 0.0), theta)
        assert np.array_equal(local_update(theta, np.zeros(10), 0.3), theta)

    def test_matches_elementwise_loop(self):
        rng = np.random.default_rng(21)
        theta = rng.standard_normal(17)
        grad = rng.standard_normal(17)
        eta = 0.37
        updated = local_update(theta, grad, eta)
        for j in range(17):
            assert updated[j] == theta[j] - eta * grad[j]


class TestTrainRound:
    def test_full_batch_loss_non_increasing(self):
        rng = np.random.default_rng(30)
        params = random_model(rng)
        features, labels, knowledge = random_batch(rng, batch=40)
        config = LearnerConfig(distill_weight=0.5, init_lr=1e-4, rounds=10)
        losses = []
        for t in range(6):
            params, loss = train_round(
                params, features, labels, knowledge, config, t
            )
            losses.append(loss)
        final_loss, _ = loss_and_grad(params, features, labels, knowledge, 0.5)
        losses.append(final_loss)
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-12

    def test_zero_weight_trajectory_is_plain_descent(self):
        rng = np.random.default_rng(31)
        start = random_model(rng)
        features, labels, _ = random_batch(rng, batch=20)
        config = LearnerConfig(distill_weight=0.0, init_lr=0.05, rounds=5)
        params = start
        manual = start.theta
        for t in range(4):
            params, _ = train_round(params, features, labels, None, config, t)
            _, grad = loss_and_grad(
                ModelParams(theta=manual, arch=ARCH), features, labels, None, 0.0
            )
            manual = local_update(manual, grad, lr_schedule(t, config))
            assert np.array_equal(params.theta, manual)

    @pytest.mark.parametrize("distill_weight", [0.0, 0.3])
    def test_minibatch_round_skips_the_full_batch_gradient(
        self, monkeypatch, distill_weight
    ):
        rng = np.random.default_rng(35)
        params = random_model(rng)
        features, labels, knowledge = random_batch(rng, batch=30)
        config = LearnerConfig(
            distill_weight=distill_weight, init_lr=0.01, rounds=5, local_epochs=3
        )
        # Reference: the full-batch loss, then one step per minibatch of the
        # same shuffle.
        expected_loss, _ = loss_and_grad(
            params, features, labels, knowledge, distill_weight
        )
        theta = params.theta
        for chunk in np.array_split(np.random.default_rng(5).permutation(30), 3):
            _, grad = loss_and_grad(
                ModelParams(theta=theta, arch=ARCH),
                features[chunk],
                labels[chunk],
                knowledge,
                distill_weight,
            )
            theta = local_update(theta, grad, lr_schedule(2, config))

        calls = []
        plain = learner.loss_and_grad

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return plain(*args, **kwargs)

        monkeypatch.setattr(learner, "loss_and_grad", counted)
        trained, loss = train_round(
            params, features, labels, knowledge, config, 2, np.random.default_rng(5)
        )
        assert calls == [10, 10, 10]  # the minibatch steps only
        assert loss == expected_loss
        assert np.array_equal(trained.theta, theta)

    def test_minibatch_mode_deterministic_and_requires_rng(self):
        rng = np.random.default_rng(32)
        params = random_model(rng)
        features, labels, knowledge = random_batch(rng, batch=30)
        config = LearnerConfig(
            distill_weight=0.3, init_lr=0.01, rounds=5, local_epochs=3
        )
        with pytest.raises(ValueError, match="rng"):
            train_round(params, features, labels, knowledge, config, 0)
        out_a, _ = train_round(
            params, features, labels, knowledge, config, 0,
            rng=np.random.default_rng(99),
        )
        out_b, _ = train_round(
            params, features, labels, knowledge, config, 0,
            rng=np.random.default_rng(99),
        )
        assert np.array_equal(out_a.theta, out_b.theta)
        single, _ = train_round(
            params, features, labels, knowledge,
            LearnerConfig(distill_weight=0.3, init_lr=0.01, rounds=5), 0,
        )
        assert not np.array_equal(out_a.theta, single.theta)

    @pytest.mark.parametrize("local_epochs", [1, 3])
    def test_cached_forward_pass_is_bit_identical(self, local_epochs):
        rng = np.random.default_rng(33)
        config = LearnerConfig(
            distill_weight=0.4, init_lr=0.05, rounds=5, local_epochs=local_epochs
        )
        for t in range(4):
            params = random_model(rng)
            features, labels, knowledge = random_batch(rng, batch=25)
            plain, plain_loss = train_round(
                params, features, labels, knowledge, config, t,
                np.random.default_rng(t),
            )
            cached, cached_loss = train_round(
                params, features, labels, knowledge, config, t,
                np.random.default_rng(t),
                cache=forward_pass(params, features),
            )
            assert np.array_equal(cached.theta, plain.theta)
            assert cached_loss == plain_loss
        # The cache is what the full-batch loss uses: another model's pass
        # moves it (and, for a single full-batch step, the update too).
        foreign, foreign_loss = train_round(
            params, features, labels, knowledge, config, t,
            np.random.default_rng(t),
            cache=forward_pass(random_model(rng), features),
        )
        assert foreign_loss != plain_loss
        assert np.array_equal(foreign.theta, plain.theta) == (local_epochs > 1)

    def test_accuracy_is_argmax_of_softmax_outputs(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            params = random_model(rng, scale=2.0)
            features, labels, _ = random_batch(rng, batch=60)
            expected = float(
                np.mean(
                    np.argmax(forward_pass(params, features).probs, axis=1) == labels
                )
            )
            assert evaluate_accuracy(params, features, labels) == expected

    def test_accuracy_on_saturated_model(self):
        theta = np.zeros(ARCH.param_count)
        theta[-3] = 50.0
        params = ModelParams(theta=theta, arch=ARCH)
        features = np.zeros((5, 8))
        assert evaluate_accuracy(params, features, np.zeros(5, dtype=int)) == 1.0
        assert evaluate_accuracy(params, features, np.ones(5, dtype=int)) == 0.0
