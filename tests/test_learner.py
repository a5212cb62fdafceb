"""Tests for the desk-scale classifier: forward pass, the regularized loss and
its exact gradient, the step-size schedule, and round-level training of a
ragged batch of devices."""

import numpy as np
import pytest

from airfd import learner
from airfd.knowledge import knowledge_vectors
from airfd.learner import (
    Architecture,
    LearnerConfig,
    ModelParams,
    evaluate_accuracy,
    forward_pass,
    init_params,
    loss_and_grad,
    lr_schedule,
    train_round,
)
from airfd.oracles import finite_difference_gradient, local_knowledge

ARCH = Architecture(feature_dim=8, hidden_dim=32, num_classes=3)


def random_model(rng, arch=ARCH, scale=0.5):
    """One random model, as a stack of one."""
    theta = scale * rng.standard_normal((1, arch.param_count))
    return ModelParams(theta=theta, arch=arch)


def random_batch(rng, arch=ARCH, batch=12):
    features = rng.standard_normal((batch, arch.feature_dim))
    labels = rng.integers(0, arch.num_classes, batch)
    knowledge = rng.dirichlet(np.ones(arch.num_classes), size=arch.num_classes)
    return features, labels, knowledge


def loop_forward(params, features):
    """Independent single-sample recomputation with explicit loops."""
    f, h, k = params.arch.feature_dim, params.arch.hidden_dim, params.arch.num_classes
    (theta,) = params.theta
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


def device_pass(theta, arch, features, labels, knowledge, distill_weight):
    """One device's softmax outputs, mean loss and flat gradient on its own
    (B, F) samples, in plain two-dimensional numpy: the per-device
    reference of the batch learner."""
    f, h, k = arch.feature_dim, arch.hidden_dim, arch.num_classes
    w1 = theta[: f * h].reshape(f, h)
    b1 = theta[f * h : f * h + h]
    w2 = theta[f * h + h : f * h + h + h * k].reshape(h, k)
    b2 = theta[f * h + h + h * k :]
    batch, picked = len(labels), (np.arange(len(labels)), labels)
    hidden = features @ w1
    hidden += b1
    hidden = np.tanh(hidden)
    logits = hidden @ w2
    logits += b2
    logits -= logits.max(axis=1, keepdims=True)
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    probs = np.exp(log_probs)
    loss = -(np.sum(log_probs[picked]) / batch)
    d_logits = probs.copy()
    d_logits[picked] -= 1.0
    if distill_weight > 0:
        residual = probs - knowledge[labels]
        loss += distill_weight * (np.sum(np.square(residual).ravel()) / batch)
        weighted = probs * residual
        weighted -= probs * weighted.sum(axis=1, keepdims=True)
        d_logits += 2.0 * distill_weight * weighted
    d_logits /= batch
    d_hidden = (d_logits @ w2.T) * (1.0 - np.square(hidden))
    grad = np.concatenate(
        [
            (features.T @ d_hidden).ravel(),
            d_hidden.sum(axis=0),
            (hidden.T @ d_logits).ravel(),
            d_logits.sum(axis=0),
        ]
    )
    return probs, loss, grad


def reference_round(thetas, arch, features, labels, sizes, knowledge, config, t, rng):
    """Every device's outputs, knowledge, full-batch loss and trained
    parameters, one device at a time; a device with local_epochs > 1 draws
    its permutation from rng before the next device does."""
    dw, eta = config.distill_weight, lr_schedule(t, config)
    outputs, q, losses, trained = [], [], [], []
    cuts = np.cumsum(sizes)[:-1]
    for theta, x, y in zip(thetas, np.split(features, cuts), np.split(labels, cuts)):
        probs, loss, grad = device_pass(theta, arch, x, y, knowledge, dw)
        outputs.append(probs)
        q.append(
            local_knowledge(
                [probs[y == c] for c in range(arch.num_classes)],
                np.bincount(y, minlength=arch.num_classes),
            )
        )
        losses.append(loss)
        if config.local_epochs == 1:
            theta = theta - eta * grad
        else:
            for chunk in np.array_split(rng.permutation(len(y)), config.local_epochs):
                if chunk.size:
                    step = device_pass(theta, arch, x[chunk], y[chunk], knowledge, dw)
                    theta = theta - eta * step[2]
        trained.append(theta)
    return np.concatenate(outputs), np.array(q), np.array(losses), np.array(trained)


def ragged_sizes(rng, local_epochs):
    """1-12 device sizes: single-sample devices, devices smaller than
    local_epochs, and runs of consecutive equal sizes."""
    sizes = []
    for _ in range(int(rng.integers(1, 13))):
        if sizes and rng.random() < 0.3:
            sizes.append(sizes[-1])
        else:
            large = rng.integers(3, 400)
            sizes.append(int(rng.choice([1, 2, max(local_epochs - 1, 1), large])))
    return np.array(sizes)


class TestArchitectureAndParams:
    def test_param_count(self):
        assert ARCH.param_count == 9 * 32 + 33 * 3

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            ModelParams(theta=np.zeros((1, 10)), arch=ARCH)

    def test_nonfinite_rejected(self):
        theta = np.zeros((2, ARCH.param_count))
        theta[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ModelParams(theta=theta, arch=ARCH)

    @pytest.mark.parametrize(
        "shape",
        [(0, ARCH.param_count), (ARCH.param_count,), (2, 2, ARCH.param_count)],
    )
    def test_only_a_non_empty_stack_is_a_model(self, shape):
        with pytest.raises(ValueError, match=r"\(M, P\) stack of M >= 1"):
            ModelParams(theta=np.zeros(shape), arch=ARCH)

    def test_init_deterministic(self):
        a = init_params(ARCH, [np.random.default_rng(3)])
        b = init_params(ARCH, [np.random.default_rng(3)])
        assert a.theta.shape == (1, ARCH.param_count)
        assert np.array_equal(a.theta, b.theta)

    def test_init_draws_row_i_from_generator_i(self):
        stack = init_params(ARCH, [np.random.default_rng(i) for i in range(3)])
        for i, row in enumerate(stack.theta):
            rng = np.random.default_rng(i)
            w1 = rng.standard_normal((8, 32)) / np.sqrt(8)
            w2 = rng.standard_normal((32, 3)) / np.sqrt(32)
            expected = np.concatenate([w1.ravel(), np.zeros(32), w2.ravel(), np.zeros(3)])
            assert np.array_equal(row, expected)


class TestForward:
    def test_zero_weights_uniform(self):
        params = ModelParams(theta=np.zeros((1, ARCH.param_count)), arch=ARCH)
        out = forward_pass(params, np.ones((1, 8)), [1]).probs[0]
        np.testing.assert_allclose(out, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_dominant_logit_saturates(self):
        theta = np.zeros((1, ARCH.param_count))
        theta[0, -3] = 50.0  # bias of class 0's logit; hidden activations are 0
        params = ModelParams(theta=theta, arch=ARCH)
        out = forward_pass(params, np.zeros((1, 8)), [1]).probs[0]
        assert abs(out[0] - 1.0) <= 1e-10
        assert out[1] <= 1e-10 and out[2] <= 1e-10

    def test_matches_loop_recomputation(self):
        rng = np.random.default_rng(7)
        params = random_model(rng)
        for _ in range(3):
            x = rng.standard_normal(8)
            np.testing.assert_allclose(
                forward_pass(params, x[None, :], [1]).probs[0],
                loop_forward(params, x),
                rtol=1e-12,
            )

    def test_valid_probability_rows(self):
        rng = np.random.default_rng(8)
        params = random_model(rng, scale=3.0)
        fp = forward_pass(params, rng.standard_normal((50, 8)), [50])
        assert np.all(fp.probs > 0)
        np.testing.assert_allclose(fp.probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.array_equal(fp.probs, np.exp(fp.log_probs))

    def test_dimension_mismatch(self):
        params = random_model(np.random.default_rng(9))
        with pytest.raises(ValueError, match="features"):
            forward_pass(params, np.zeros((4, 5)), [4])
        with pytest.raises(ValueError, match="features"):
            evaluate_accuracy(params, np.zeros((4, 5)), np.zeros(4, dtype=int))


class TestLossAndGrad:
    def test_zero_weight_reduces_to_cross_entropy(self):
        rng = np.random.default_rng(10)
        params = random_model(rng)
        features, labels, _ = random_batch(rng)
        sizes = [len(labels)]
        loss, grad = loss_and_grad(params, features, labels, sizes, None, 0.0)
        probs = forward_pass(params, features, sizes).probs
        expected = -np.mean(np.log(probs[np.arange(len(labels)), labels]))
        assert loss[0] == pytest.approx(expected, rel=1e-12)
        fd = finite_difference_gradient(
            lambda th: loss_and_grad(
                ModelParams(theta=th[None], arch=ARCH), features, labels, sizes,
                None, 0.0,
            )[0][0],
            params.theta[0],
        )
        assert np.linalg.norm(grad[0] - fd) <= 1e-6 * max(np.linalg.norm(grad), 1.0)

    def test_zero_residual_contributes_nothing(self):
        rng = np.random.default_rng(11)
        params = random_model(rng)
        x = rng.standard_normal((1, 8))
        labels = np.array([1])
        knowledge = np.tile(forward_pass(params, x, [1]).probs[0], (3, 1))
        loss_active, grad_active = loss_and_grad(params, x, labels, [1], knowledge, 7.0)
        loss_off, grad_off = loss_and_grad(params, x, labels, [1], knowledge, 0.0)
        assert np.array_equal(loss_active, loss_off)
        np.testing.assert_allclose(grad_active, grad_off, atol=1e-15)

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -0.5])
    def test_bad_distill_weight_rejected(self, weight):
        rng = np.random.default_rng(12)
        params = random_model(rng)
        features, labels, knowledge = random_batch(rng)
        with pytest.raises(ValueError, match="distill_weight"):
            loss_and_grad(params, features, labels, [12], knowledge, weight)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for trial in range(3):
            params = random_model(rng)
            features, labels, knowledge = random_batch(rng)
            _, grad = loss_and_grad(params, features, labels, [12], knowledge, 0.7)
            fd = finite_difference_gradient(
                lambda th: loss_and_grad(
                    ModelParams(theta=th[None], arch=ARCH), features, labels, [12],
                    knowledge, 0.7,
                )[0][0],
                params.theta[0],
            )
            rel = np.linalg.norm(grad[0] - fd) / np.linalg.norm(grad)
            assert rel <= 1e-4

    def test_missing_knowledge_rejected(self):
        rng = np.random.default_rng(13)
        params = random_model(rng)
        features, labels, knowledge = random_batch(rng)
        with pytest.raises(ValueError, match="knowledge"):
            loss_and_grad(params, features, labels, [12], knowledge[:2], 0.5)
        bad = knowledge.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            loss_and_grad(params, features, labels, [12], bad, 0.5)

    def test_bad_labels_rejected(self):
        rng = np.random.default_rng(14)
        params = random_model(rng)
        features, labels, knowledge = random_batch(rng)
        labels = labels.copy()
        labels[0] = 3
        with pytest.raises(ValueError, match="labels"):
            loss_and_grad(params, features, labels, [12], knowledge, 0.5)

    def test_mismatched_cache_rejected(self):
        rng = np.random.default_rng(15)
        params = random_model(rng)
        features, labels, knowledge = random_batch(rng)
        cache = forward_pass(params, features[:-1], [11])
        with pytest.raises(ValueError, match="cache"):
            loss_and_grad(params, features, labels, [12], knowledge, 0.5, cache=cache)


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


class TestTrainRound:
    def test_full_batch_loss_non_increasing(self):
        rng = np.random.default_rng(30)
        params = random_model(rng)
        features, labels, knowledge = random_batch(rng, batch=40)
        config = LearnerConfig(distill_weight=0.5, init_lr=1e-4, rounds=10)
        losses = []
        for t in range(6):
            params, loss = train_round(
                params, features, labels, [40], knowledge, config, t
            )
            losses.append(loss[0])
        final_loss, _ = loss_and_grad(params, features, labels, [40], knowledge, 0.5)
        losses.append(final_loss[0])
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
            params, _ = train_round(params, features, labels, [20], None, config, t)
            _, grad = loss_and_grad(
                ModelParams(theta=manual, arch=ARCH), features, labels, [20], None, 0.0
            )
            manual = manual - lr_schedule(t, config) * grad
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
            params, features, labels, [30], knowledge, distill_weight
        )
        theta = params.theta
        for chunk in np.array_split(np.random.default_rng(5).permutation(30), 3):
            _, grad = loss_and_grad(
                ModelParams(theta=theta, arch=ARCH),
                features[chunk],
                labels[chunk],
                [10],
                knowledge,
                distill_weight,
            )
            theta = theta - lr_schedule(2, config) * grad

        calls = []
        plain = learner.loss_and_grad

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return plain(*args, **kwargs)

        monkeypatch.setattr(learner, "loss_and_grad", counted)
        trained, loss = train_round(
            params, features, labels, [30], knowledge, config, 2,
            np.random.default_rng(5),
        )
        assert calls == [10, 10, 10]  # the minibatch steps only
        assert np.array_equal(loss, expected_loss)
        assert np.array_equal(trained.theta, theta)

    def test_minibatch_mode_deterministic_and_requires_rng(self):
        rng = np.random.default_rng(32)
        params = random_model(rng)
        features, labels, knowledge = random_batch(rng, batch=30)
        config = LearnerConfig(
            distill_weight=0.3, init_lr=0.01, rounds=5, local_epochs=3
        )
        with pytest.raises(ValueError, match="rng"):
            train_round(params, features, labels, [30], knowledge, config, 0)
        out_a, _ = train_round(
            params, features, labels, [30], knowledge, config, 0,
            rng=np.random.default_rng(99),
        )
        out_b, _ = train_round(
            params, features, labels, [30], knowledge, config, 0,
            rng=np.random.default_rng(99),
        )
        assert np.array_equal(out_a.theta, out_b.theta)
        single, _ = train_round(
            params, features, labels, [30], knowledge,
            LearnerConfig(distill_weight=0.3, init_lr=0.01, rounds=5), 0,
        )
        assert not np.array_equal(out_a.theta, single.theta)

    @pytest.mark.parametrize("local_epochs", [1, 3])
    def test_cached_forward_pass_is_bit_identical(self, local_epochs):
        rng = np.random.default_rng(33)
        config = LearnerConfig(
            distill_weight=0.4, init_lr=0.05, rounds=5, local_epochs=local_epochs
        )
        sizes = [10, 15]
        for t in range(4):
            params = ModelParams(0.5 * rng.standard_normal((2, ARCH.param_count)), ARCH)
            features, labels, knowledge = random_batch(rng, batch=25)
            plain, plain_loss = train_round(
                params, features, labels, sizes, knowledge, config, t,
                np.random.default_rng(t),
            )
            cached, cached_loss = train_round(
                params, features, labels, sizes, knowledge, config, t,
                np.random.default_rng(t),
                cache=forward_pass(params, features, sizes),
            )
            assert np.array_equal(cached.theta, plain.theta)
            assert np.array_equal(cached_loss, plain_loss)
        # The cache is what the full-batch loss uses: another model's pass
        # moves it (and, for a single full-batch step, the update too).
        other = ModelParams(0.5 * rng.standard_normal((2, ARCH.param_count)), ARCH)
        foreign, foreign_loss = train_round(
            params, features, labels, sizes, knowledge, config, t,
            np.random.default_rng(t),
            cache=forward_pass(other, features, sizes),
        )
        assert np.all(foreign_loss != plain_loss)
        assert np.array_equal(foreign.theta, plain.theta) == (local_epochs > 1)

    def test_accuracy_is_argmax_of_softmax_outputs(self):
        """Every model of a stack, scored on the same samples."""
        rng = np.random.default_rng(34)
        for models in range(1, 21):
            thetas = 2.0 * rng.standard_normal((models, ARCH.param_count))
            params = ModelParams(thetas, ARCH)
            features, labels, _ = random_batch(rng, batch=60)
            expected = [
                np.mean(
                    np.argmax(
                        forward_pass(ModelParams(row[None], ARCH), features, [60]).probs,
                        axis=1,
                    )
                    == labels
                )
                for row in params.theta
            ]
            accuracy = evaluate_accuracy(params, features, labels)
            assert accuracy.shape == (models,)
            assert accuracy.tolist() == expected

    def test_accuracy_checks_its_labels(self):
        params = random_model(np.random.default_rng(36))
        features = np.random.default_rng(37).standard_normal((6, 8))
        labels = np.arange(6) % 3
        # A (B, 1) column would broadcast into a (B, B) comparison.
        with pytest.raises(ValueError, match="labels must be"):
            evaluate_accuracy(params, features, labels[:, None])
        for bad in (-1, 3):
            with pytest.raises(ValueError, match="labels must lie"):
                evaluate_accuracy(params, features, np.where(labels == 0, bad, labels))
        with pytest.raises(ValueError, match="at least one sample"):
            evaluate_accuracy(params, features[:0], labels[:0])
        with pytest.raises(ValueError, match="at least one sample"):
            loss_and_grad(params, features[:0], labels[:0], [0], None, 0.0)

    def test_accuracy_on_saturated_model(self):
        theta = np.zeros((2, ARCH.param_count))
        theta[:, -3] = 50.0  # class 0's logit bias
        theta[1, -1] = 100.0  # class 2's, larger
        params = ModelParams(theta=theta, arch=ARCH)
        features = np.zeros((5, 8))
        for label, expected in ((0, [1.0, 0.0]), (1, [0.0, 0.0]), (2, [0.0, 1.0])):
            labels = np.full(5, label)
            assert evaluate_accuracy(params, features, labels).tolist() == expected


def check_against_per_device_loop(rng, sizes, arch, config, seed):
    """Forward pass, knowledge, loss and one training round of a batch
    against reference_round, bit for bit."""
    samples = int(sizes.sum())
    thetas = 0.5 * rng.standard_normal((len(sizes), arch.param_count))
    features = rng.standard_normal((samples, arch.feature_dim))
    labels = rng.integers(0, arch.num_classes, samples)
    knowledge = rng.dirichlet(np.ones(arch.num_classes), size=arch.num_classes)
    outputs, q, losses, trained = reference_round(
        thetas, arch, features, labels, sizes, knowledge, config, 2,
        np.random.default_rng(seed),
    )
    params = ModelParams(thetas, arch)
    forward = forward_pass(params, features, sizes)
    assert np.array_equal(forward.probs, outputs)
    assert np.array_equal(knowledge_vectors(forward.probs, labels, sizes), q)
    loss, _ = loss_and_grad(
        params, features, labels, sizes, knowledge, config.distill_weight
    )
    assert np.array_equal(loss, losses)
    stepped, batch_losses = train_round(
        params, features, labels, sizes, knowledge, config, 2,
        np.random.default_rng(seed), cache=forward,
    )
    assert np.array_equal(batch_losses, losses)
    assert np.array_equal(stepped.theta, trained)
    assert np.all(np.isfinite(stepped.theta))


class TestStack:
    """A batch of devices against a plain per-device loop, bit for bit."""

    @pytest.mark.parametrize("models", [1, 4])
    @pytest.mark.parametrize("distill_weight", [0.0, 0.6])
    @pytest.mark.parametrize("local_epochs", [1, 3])
    def test_stack_matches_per_model_loop(self, models, distill_weight, local_epochs):
        """Three runs of `models` devices of one size each (25, 1 and 2
        samples): one stack per run when models > 1."""
        config = LearnerConfig(
            distill_weight=distill_weight,
            init_lr=0.05,
            rounds=5,
            local_epochs=local_epochs,
        )
        sizes = np.repeat([25, 1, 2], models)
        rng = np.random.default_rng(40 + models)
        check_against_per_device_loop(rng, sizes, ARCH, config, 7)

    def test_minibatches_empty_for_every_device_take_no_step(self):
        """With 3 local epochs, no device of sizes (1, 2, 1) has a third
        minibatch, and device 0 and 2 have no second one either."""
        config = LearnerConfig(
            distill_weight=0.6, init_lr=0.05, rounds=5, local_epochs=3
        )
        rng = np.random.default_rng(47)
        check_against_per_device_loop(rng, np.array([1, 2, 1]), ARCH, config, 3)

    @pytest.mark.parametrize("distill_weight", [0.0, 0.6])
    @pytest.mark.parametrize("local_epochs", [1, 3])
    def test_ragged_batch_matches_per_device_loop(self, distill_weight, local_epochs):
        config = LearnerConfig(
            distill_weight=distill_weight,
            init_lr=0.05,
            rounds=5,
            local_epochs=local_epochs,
        )
        seen = {"single": 0, "short": 0, "stacked": 0}
        for seed in range(48):
            rng = np.random.default_rng([seed, local_epochs])
            arch = Architecture(
                feature_dim=int(rng.integers(2, 9)),
                hidden_dim=int(rng.choice([5, 32])),
                num_classes=int(rng.integers(2, 11)),
            )
            sizes = ragged_sizes(rng, local_epochs)
            seen["single"] += int(np.sum(sizes == 1))
            seen["short"] += int(np.sum(sizes < local_epochs))
            seen["stacked"] += int(np.sum(np.diff(sizes) == 0))
            check_against_per_device_loop(rng, sizes, arch, config, seed)
        assert seen["single"] > 0 and seen["stacked"] > 0
        assert local_epochs == 1 or seen["short"] > 0

    def test_gradient_matches_per_device_loop(self):
        rng = np.random.default_rng(46)
        sizes = np.array([3, 3, 1, 7, 7, 7, 2])
        thetas = 0.5 * rng.standard_normal((len(sizes), ARCH.param_count))
        features, labels, knowledge = random_batch(rng, batch=int(sizes.sum()))
        _, grad = loss_and_grad(
            ModelParams(thetas, ARCH), features, labels, sizes, knowledge, 0.6
        )
        cuts = np.cumsum(sizes)[:-1]
        for theta, g, x, y in zip(
            thetas, grad, np.split(features, cuts), np.split(labels, cuts)
        ):
            assert np.array_equal(g, device_pass(theta, ARCH, x, y, knowledge, 0.6)[2])

    def test_stack_is_a_read_only_copy(self):
        rng = np.random.default_rng(44)
        thetas = rng.standard_normal((3, ARCH.param_count))
        stack = ModelParams(theta=thetas, arch=ARCH)
        assert np.array_equal(stack.theta, thetas)
        assert not np.shares_memory(stack.theta, thetas)
        assert not stack.theta.flags.writeable
        assert not stack.theta[1].flags.writeable

    def test_batch_must_match_the_stack(self):
        rng = np.random.default_rng(45)
        stack = ModelParams(theta=rng.standard_normal((3, ARCH.param_count)), arch=ARCH)
        features = rng.standard_normal((6, 8))
        with pytest.raises(ValueError, match="features"):
            forward_pass(stack, rng.standard_normal((3, 2, 8)), [2, 2, 2])
        with pytest.raises(ValueError, match="add up"):
            forward_pass(stack, features, [2, 2, 1])
        with pytest.raises(ValueError, match="at least one sample"):
            forward_pass(stack, features, [3, 3, 0])
        with pytest.raises(ValueError, match=r"\(M,\) sizes"):
            forward_pass(stack, features, [3, 3])
        with pytest.raises(ValueError, match=r"\(M,\) sizes"):
            forward_pass(stack, features, [6])
        with pytest.raises(ValueError, match="labels must be"):
            loss_and_grad(stack, features, np.zeros(5, dtype=int), [2, 2, 2], None, 0.0)
