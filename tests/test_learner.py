"""Tests for the desk-scale classifier: forward pass, the regularized loss and
its exact gradient, the step-size schedule, and round-level training of a
ragged batch of devices."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airfd import learner
from airfd.knowledge import knowledge_vectors
from airfd.learner import (
    Architecture,
    Batch,
    EvalSet,
    LearnerConfig,
    ModelParams,
    evaluate_accuracy,
    forward_pass,
    init_params,
    loss_and_grad,
    lr_schedule,
    train_round,
)
from airfd.oracles import accuracy_loop, finite_difference_gradient, local_knowledge

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


def batch_of(features, sizes, labels=None, arch=ARCH):
    """A Batch of these samples; the labels default to class 0, which a
    forward pass does not read."""
    if labels is None:
        labels = np.zeros(len(features), dtype=np.int64)
    return Batch(arch, features, labels, sizes)


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


def row_major_log_softmax(logits):
    """The log-softmax of each row with its maximum read in row-major order:
    the reference for the column-major read in learner._log_softmax."""
    logits -= logits.max(axis=-1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    return logits


# Output biases that tie with each other (zeros of both signs included) and
# reach 1e300 in size.
TIED_BIASES = [0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300, 5e-324]


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
        out = forward_pass(params, batch_of(np.ones((1, 8)), [1])).probs[0]
        np.testing.assert_allclose(out, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_dominant_logit_saturates(self):
        theta = np.zeros((1, ARCH.param_count))
        theta[0, -3] = 50.0  # bias of class 0's logit; hidden activations are 0
        params = ModelParams(theta=theta, arch=ARCH)
        out = forward_pass(params, batch_of(np.zeros((1, 8)), [1])).probs[0]
        assert abs(out[0] - 1.0) <= 1e-10
        assert out[1] <= 1e-10 and out[2] <= 1e-10

    def test_matches_loop_recomputation(self):
        rng = np.random.default_rng(7)
        params = random_model(rng)
        for _ in range(3):
            x = rng.standard_normal(8)
            np.testing.assert_allclose(
                forward_pass(params, batch_of(x[None, :], [1])).probs[0],
                loop_forward(params, x),
                rtol=1e-12,
            )

    def test_valid_probability_rows(self):
        rng = np.random.default_rng(8)
        params = random_model(rng, scale=3.0)
        fp = forward_pass(params, batch_of(rng.standard_normal((50, 8)), [50]))
        assert np.all(fp.probs > 0)
        np.testing.assert_allclose(fp.probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.array_equal(fp.probs, np.exp(fp.log_probs))

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        data=st.data(),
        classes=st.sampled_from([2, 3, 10]),
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    )
    def test_log_probs_match_a_row_major_maximum(self, data, classes, sizes):
        """Bit for bit, on logits with ties and magnitudes up to 1e300: W2
        is 0 or small, so each device's output biases, drawn from tied values
        or from [-1e300, 1e300], set its logits."""
        arch = Architecture(feature_dim=3, hidden_dim=4, num_classes=classes)
        f, h, k = arch.feature_dim, arch.hidden_dim, classes
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        theta = rng.standard_normal((len(sizes), arch.param_count))
        for i in range(len(sizes)):
            scale = data.draw(st.sampled_from([0.0, -0.0, 1e-3, 1.0]))
            theta[i, (f + 1) * h : (f + 1) * h + h * k] *= scale
            theta[i, -k:] = data.draw(
                st.lists(
                    st.one_of(
                        st.sampled_from(TIED_BIASES),
                        st.floats(-1e300, 1e300, allow_nan=False),
                    ),
                    min_size=k,
                    max_size=k,
                )
            )
        params = ModelParams(theta, arch)
        batch = batch_of(rng.standard_normal((sum(sizes), f)), sizes, arch=arch)
        forward = forward_pass(params, batch)
        with mock.patch.object(learner, "_log_softmax", row_major_log_softmax):
            reference = forward_pass(params, batch)
        for ours, theirs in zip(forward[1:], reference[1:]):  # log_probs, probs
            assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))

    def test_dimension_mismatch(self):
        params = random_model(np.random.default_rng(9))
        features, labels = np.zeros((4, 5)), np.zeros(4, dtype=int)
        with pytest.raises(ValueError, match="features"):
            Batch(ARCH, features, labels, [4])
        with pytest.raises(ValueError, match="features"):
            EvalSet(ARCH, features, labels)
        # Records of another architecture do not feed these models.
        other = Architecture(feature_dim=5, hidden_dim=32, num_classes=3)
        batch = Batch(other, features, labels, [4])
        with pytest.raises(ValueError, match="architectures"):
            forward_pass(params, batch)
        with pytest.raises(ValueError, match="architectures"):
            loss_and_grad(params, batch, None, 0.0)
        with pytest.raises(ValueError, match="architectures"):
            evaluate_accuracy(params, EvalSet(other, features, labels))


def assert_same_bits(ours, theirs):
    assert ours.shape == theirs.shape
    assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))


class TestClassSums:
    """learner._log_softmax, which reads the maximum over each row's
    classes from a column-major copy, against the row-major reference."""

    @pytest.mark.parametrize("classes", range(1, 131))
    def test_every_width(self, classes):
        """Every width from 1 to 130, on rows of mixed magnitudes, rows that
        cancel exactly, and rows of signed zeros: the column-major maximum
        gives the row-major maximum's bits."""
        rng = np.random.default_rng([51, classes])
        mixed = rng.standard_normal((60, classes)) * 10.0 ** rng.uniform(
            -300, 300, (60, classes)
        )
        cancelling = rng.standard_normal((20, classes))
        cancelling[:, -1] = -np.add.reduce(cancelling[:, :-1], axis=-1)
        zeros = rng.choice([0.0, -0.0], size=(20, classes))
        zeros[0] = -0.0
        array = np.concatenate((mixed, cancelling, zeros))
        expected = row_major_log_softmax(array.copy())
        assert_same_bits(learner._log_softmax(array), expected)


class TestLossAndGrad:
    def test_zero_weight_reduces_to_cross_entropy(self):
        rng = np.random.default_rng(10)
        params = random_model(rng)
        features, labels, _ = random_batch(rng)
        batch = Batch(ARCH, features, labels, [len(labels)])
        loss, grad = loss_and_grad(params, batch, None, 0.0)
        probs = forward_pass(params, batch).probs
        expected = -np.mean(np.log(probs[np.arange(len(labels)), labels]))
        assert loss[0] == pytest.approx(expected, rel=1e-12)
        fd = finite_difference_gradient(
            lambda th: loss_and_grad(
                ModelParams(theta=th[None], arch=ARCH), batch, None, 0.0
            )[0][0],
            params.theta[0],
        )
        assert np.linalg.norm(grad[0] - fd) <= 1e-6 * max(np.linalg.norm(grad), 1.0)

    def test_zero_residual_contributes_nothing(self):
        rng = np.random.default_rng(11)
        params = random_model(rng)
        batch = batch_of(rng.standard_normal((1, 8)), [1], np.array([1]))
        knowledge = np.tile(forward_pass(params, batch).probs[0], (3, 1))
        loss_active, grad_active = loss_and_grad(params, batch, knowledge, 7.0)
        loss_off, grad_off = loss_and_grad(params, batch, knowledge, 0.0)
        assert np.array_equal(loss_active, loss_off)
        np.testing.assert_allclose(grad_active, grad_off, atol=1e-15)

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -0.5])
    def test_bad_distill_weight_rejected(self, weight):
        rng = np.random.default_rng(12)
        params = random_model(rng)
        features, labels, knowledge = random_batch(rng)
        with pytest.raises(ValueError, match="distill_weight"):
            loss_and_grad(params, batch_of(features, [12], labels), knowledge, weight)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for trial in range(3):
            params = random_model(rng)
            features, labels, knowledge = random_batch(rng)
            batch = batch_of(features, [12], labels)
            _, grad = loss_and_grad(params, batch, knowledge, 0.7)
            fd = finite_difference_gradient(
                lambda th: loss_and_grad(
                    ModelParams(theta=th[None], arch=ARCH), batch, knowledge, 0.7
                )[0][0],
                params.theta[0],
            )
            rel = np.linalg.norm(grad[0] - fd) / np.linalg.norm(grad)
            assert rel <= 1e-4

    def test_missing_knowledge_rejected(self):
        rng = np.random.default_rng(13)
        params = random_model(rng)
        features, labels, knowledge = random_batch(rng)
        batch = batch_of(features, [12], labels)
        with pytest.raises(ValueError, match="knowledge"):
            loss_and_grad(params, batch, knowledge[:2], 0.5)
        bad = knowledge.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            loss_and_grad(params, batch, bad, 0.5)

    def test_bad_labels_rejected(self):
        rng = np.random.default_rng(14)
        features, labels, _ = random_batch(rng)
        labels = labels.copy()
        labels[0] = 3
        with pytest.raises(ValueError, match="labels"):
            Batch(ARCH, features, labels, [12])

    def test_mismatched_cache_rejected(self):
        rng = np.random.default_rng(15)
        params = random_model(rng)
        features, labels, knowledge = random_batch(rng)
        batch = batch_of(features, [12], labels)
        cache = forward_pass(params, batch_of(features[:-1], [11]))
        with pytest.raises(ValueError, match="cache"):
            loss_and_grad(params, batch, knowledge, 0.5, cache=cache)

    def test_cache_log_probs_are_checked(self):
        """A cache whose log_probs alone has the wrong shape is rejected: on
        a 4-sample, K = 3 batch, a (4, 5) log_probs of zeros would otherwise
        give a loss of 0 without complaint."""
        rng = np.random.default_rng(16)
        params = random_model(rng)
        batch = batch_of(rng.standard_normal((4, 8)), [4], np.array([0, 1, 2, 1]))
        cache = forward_pass(params, batch)._replace(log_probs=np.zeros((4, 5)))
        with pytest.raises(ValueError, match="cache"):
            loss_and_grad(params, batch, None, 0.0, cache=cache)


class TestSchedule:
    CONFIG = LearnerConfig(distill_weight=0.5, init_lr=0.01, rounds=100, local_epochs=1)

    def test_first_round(self):
        assert lr_schedule(0, self.CONFIG) == pytest.approx(0.01, rel=1e-15)

    def test_fourth_round_halves(self):
        assert lr_schedule(3, self.CONFIG) == pytest.approx(0.005, rel=1e-15)

    def test_round_hundred(self):
        assert lr_schedule(99, self.CONFIG) == pytest.approx(0.001, rel=1e-15)

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(-1, self.CONFIG)


class TestTrainRound:
    def test_full_batch_loss_non_increasing(self):
        rng = np.random.default_rng(30)
        params = random_model(rng)
        features, labels, knowledge = random_batch(rng, batch=40)
        batch = batch_of(features, [40], labels)
        config = LearnerConfig(
            distill_weight=0.5, init_lr=1e-4, rounds=10, local_epochs=1
        )
        losses = []
        for t in range(6):
            params, loss = train_round(params, batch, knowledge, config, t)
            losses.append(loss[0])
        final_loss, _ = loss_and_grad(params, batch, knowledge, 0.5)
        losses.append(final_loss[0])
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-12

    def test_zero_weight_trajectory_is_plain_descent(self):
        rng = np.random.default_rng(31)
        start = random_model(rng)
        features, labels, _ = random_batch(rng, batch=20)
        batch = batch_of(features, [20], labels)
        config = LearnerConfig(
            distill_weight=0.0, init_lr=0.05, rounds=5, local_epochs=1
        )
        params = start
        manual = start.theta
        for t in range(4):
            params, _ = train_round(params, batch, None, config, t)
            _, grad = loss_and_grad(
                ModelParams(theta=manual, arch=ARCH), batch, None, 0.0
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
        batch = batch_of(features, [30], labels)
        config = LearnerConfig(
            distill_weight=distill_weight, init_lr=0.01, rounds=5, local_epochs=3
        )
        # Reference: the full-batch loss, then one step per minibatch of the
        # same shuffle.
        expected_loss, _ = loss_and_grad(params, batch, knowledge, distill_weight)
        theta = params.theta
        for chunk in np.array_split(np.random.default_rng(5).permutation(30), 3):
            _, grad = loss_and_grad(
                ModelParams(theta=theta, arch=ARCH),
                batch_of(features[chunk], [10], labels[chunk]),
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
            params, batch, knowledge, config, 2, np.random.default_rng(5)
        )
        assert calls == [10, 10, 10]  # the minibatch steps only
        assert np.array_equal(loss, expected_loss)
        assert np.array_equal(trained.theta, theta)

    def test_minibatch_steps_are_batches_of_their_own(self, monkeypatch):
        """A step's sub-batch is a Batch with runs of its own (sizes 5, 4
        and 1 at every step here) and its own copy of the features."""
        rng = np.random.default_rng(36)
        sizes = [15, 12, 3]
        params = ModelParams(0.5 * rng.standard_normal((3, ARCH.param_count)), ARCH)
        features, labels, knowledge = random_batch(rng, batch=30)
        batch = batch_of(features, sizes, labels)
        config = LearnerConfig(
            distill_weight=0.3, init_lr=0.01, rounds=5, local_epochs=3
        )
        steps = []
        plain = learner.loss_and_grad

        def recorded(params, batch, *args, **kwargs):
            steps.append(batch)
            return plain(params, batch, *args, **kwargs)

        monkeypatch.setattr(learner, "loss_and_grad", recorded)
        train_round(params, batch, knowledge, config, 0, np.random.default_rng(3))
        assert [step.sizes.tolist() for step in steps] == [[5, 4, 1]] * 3
        for step in steps:
            assert [run.features.shape for run in step.runs] == [
                (1, 5, 8), (1, 4, 8), (1, 1, 8)
            ]
            assert not step.features.flags.writeable
            assert not np.shares_memory(step.features, batch.features)

    def test_minibatch_mode_deterministic_and_requires_rng(self):
        rng = np.random.default_rng(32)
        params = random_model(rng)
        features, labels, knowledge = random_batch(rng, batch=30)
        batch = batch_of(features, [30], labels)
        config = LearnerConfig(
            distill_weight=0.3, init_lr=0.01, rounds=5, local_epochs=3
        )
        with pytest.raises(ValueError, match="rng"):
            train_round(params, batch, knowledge, config, 0)
        out_a, _ = train_round(
            params, batch, knowledge, config, 0, rng=np.random.default_rng(99)
        )
        out_b, _ = train_round(
            params, batch, knowledge, config, 0, rng=np.random.default_rng(99)
        )
        assert np.array_equal(out_a.theta, out_b.theta)
        single, _ = train_round(
            params, batch, knowledge,
            LearnerConfig(
                distill_weight=0.3, init_lr=0.01, rounds=5, local_epochs=1
            ),
            0,
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
            batch = batch_of(features, sizes, labels)
            plain, plain_loss = train_round(
                params, batch, knowledge, config, t, np.random.default_rng(t)
            )
            cached, cached_loss = train_round(
                params, batch, knowledge, config, t, np.random.default_rng(t),
                cache=forward_pass(params, batch),
            )
            assert np.array_equal(cached.theta, plain.theta)
            assert np.array_equal(cached_loss, plain_loss)
        # The cache is what the full-batch loss uses: another model's pass
        # moves it (and, for a single full-batch step, the update too).
        other = ModelParams(0.5 * rng.standard_normal((2, ARCH.param_count)), ARCH)
        foreign, foreign_loss = train_round(
            params, batch, knowledge, config, t, np.random.default_rng(t),
            cache=forward_pass(other, batch),
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
            batch = batch_of(features, [60], labels)
            expected = [
                np.mean(
                    np.argmax(
                        forward_pass(ModelParams(row[None], ARCH), batch).probs,
                        axis=1,
                    )
                    == labels
                )
                for row in params.theta
            ]
            accuracy = evaluate_accuracy(params, EvalSet(ARCH, features, labels))
            assert accuracy.shape == (models,)
            assert accuracy.tolist() == expected

    def test_accuracy_checks_its_labels(self):
        features = np.random.default_rng(37).standard_normal((6, 8))
        labels = np.arange(6) % 3
        # A (B, 1) column would broadcast into a (B, B) comparison.
        with pytest.raises(ValueError, match="labels must be"):
            EvalSet(ARCH, features, labels[:, None])
        for bad in (-1, 3):
            with pytest.raises(ValueError, match="labels must lie"):
                EvalSet(ARCH, features, np.where(labels == 0, bad, labels))
        with pytest.raises(ValueError, match="at least one sample"):
            EvalSet(ARCH, features[:0], labels[:0])
        with pytest.raises(ValueError, match="at least one sample"):
            Batch(ARCH, features[:0], labels[:0], [0])

    @pytest.mark.parametrize(
        "labels",
        [np.array([True, False, True, True]), np.array([0.0, 1.0, 2.0, 1.0])],
        ids=["bool", "float"],
    )
    def test_non_integer_labels_rejected(self, labels):
        """Booleans would be scored as classes 0 and 1; floats cannot index.
        Both records reject them when they are built, before any round."""
        features = np.random.default_rng(38).standard_normal((4, 8))
        with pytest.raises(ValueError, match="labels must be integers"):
            EvalSet(ARCH, features, labels)
        with pytest.raises(ValueError, match="labels must be integers"):
            Batch(ARCH, features, labels, [4])

    def test_accuracy_on_saturated_model(self):
        theta = np.zeros((2, ARCH.param_count))
        theta[:, -3] = 50.0  # class 0's logit bias
        theta[1, -1] = 100.0  # class 2's, larger
        params = ModelParams(theta=theta, arch=ARCH)
        features = np.zeros((5, 8))
        for label, expected in ((0, [1.0, 0.0]), (1, [0.0, 0.0]), (2, [0.0, 1.0])):
            test = EvalSet(ARCH, features, np.full(5, label))
            assert evaluate_accuracy(params, test).tolist() == expected


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
    batch = Batch(arch, features, labels, sizes)
    forward = forward_pass(params, batch)
    assert np.array_equal(forward.probs, outputs)
    q_batch = knowledge_vectors(forward.probs, batch.bins, batch.counts)
    assert np.array_equal(q_batch, q)
    loss, _ = loss_and_grad(params, batch, knowledge, config.distill_weight)
    assert np.array_equal(loss, losses)
    stepped, batch_losses = train_round(
        params, batch, knowledge, config, 2, np.random.default_rng(seed),
        cache=forward,
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
        """Every other seed takes 8, 9, 16 or 20 classes, where numpy's
        pairwise sum over a row's classes takes its eight-accumulator loop."""
        config = LearnerConfig(
            distill_weight=distill_weight,
            init_lr=0.05,
            rounds=5,
            local_epochs=local_epochs,
        )
        seen = {"single": 0, "short": 0, "stacked": 0}
        wide = {8: 0, 9: 0, 16: 0, 20: 0}
        for seed in range(48):
            rng = np.random.default_rng([seed, local_epochs])
            classes = (8, 9, 16, 20)[seed // 2 % 4] if seed % 2 else None
            arch = Architecture(
                feature_dim=int(rng.integers(2, 9)),
                hidden_dim=int(rng.choice([5, 32])),
                num_classes=classes or int(rng.integers(2, 11)),
            )
            if arch.num_classes in wide:
                wide[arch.num_classes] += 1
            sizes = ragged_sizes(rng, local_epochs)
            seen["single"] += int(np.sum(sizes == 1))
            seen["short"] += int(np.sum(sizes < local_epochs))
            seen["stacked"] += int(np.sum(np.diff(sizes) == 0))
            check_against_per_device_loop(rng, sizes, arch, config, seed)
        assert seen["single"] > 0 and seen["stacked"] > 0
        assert local_epochs == 1 or seen["short"] > 0
        assert all(count >= 6 for count in wide.values())

    def test_gradient_matches_per_device_loop(self):
        rng = np.random.default_rng(46)
        sizes = np.array([3, 3, 1, 7, 7, 7, 2])
        thetas = 0.5 * rng.standard_normal((len(sizes), ARCH.param_count))
        features, labels, knowledge = random_batch(rng, batch=int(sizes.sum()))
        _, grad = loss_and_grad(
            ModelParams(thetas, ARCH), batch_of(features, sizes, labels), knowledge, 0.6
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
            batch_of(rng.standard_normal((3, 2, 8)), [2, 2, 2])
        with pytest.raises(ValueError, match="add up"):
            batch_of(features, [2, 2, 1])
        with pytest.raises(ValueError, match="at least one sample"):
            batch_of(features, [3, 3, 0])
        with pytest.raises(ValueError, match="at least one sample"):
            batch_of(features, [3.0, 3.0])
        with pytest.raises(ValueError, match=r"\(M,\) sizes"):
            forward_pass(stack, batch_of(features, [3, 3]))
        with pytest.raises(ValueError, match=r"\(M,\) sizes"):
            loss_and_grad(stack, batch_of(features, [6]), None, 0.0)
        with pytest.raises(ValueError, match="labels must be"):
            Batch(ARCH, features, np.zeros(5, dtype=int), [2, 2, 2])

    def test_records_are_read_only_copies(self):
        rng = np.random.default_rng(49)
        features, labels, _ = random_batch(rng, batch=6)
        batch = Batch(ARCH, features, labels, [2, 4])
        test = EvalSet(ARCH, features, labels)
        assert len(batch) == len(test) == 6
        assert np.array_equal(batch.counts, [np.bincount(labels[:2], minlength=3),
                                             np.bincount(labels[2:], minlength=3)])
        for array in (batch.features, batch.labels, batch.sizes, batch.bins,
                      batch.counts, batch.picked, test.labels, test.inputs,
                      test.inputs32, test.picked):
            assert not array.flags.writeable
        assert not np.shares_memory(batch.features, features)
        assert not np.shares_memory(batch.labels, labels)
        assert features.flags.writeable and labels.flags.writeable

    def test_runs_view_the_batch_features(self):
        """Each run holds a (G, B, F) read-only view of the record's own
        features, not a copy, with its device count G and size B."""
        rng = np.random.default_rng(50)
        sizes = np.array([3, 3, 1, 4, 2, 2, 2])
        features, labels, _ = random_batch(rng, batch=int(sizes.sum()))
        batch = Batch(ARCH, features, labels, sizes)
        assert [(run.devices, run.features.shape) for run in batch.runs] == [
            (slice(0, 2), (2, 3, 8)),
            (slice(2, 3), (1, 1, 8)),
            (slice(3, 4), (1, 4, 8)),
            (slice(4, 7), (3, 2, 8)),
        ]
        for run in batch.runs:
            assert run.features.shape == (run.count, run.size, 8)
            assert run.features.base is not None
            assert np.shares_memory(run.features, batch.features)
            assert not run.features.flags.writeable
            assert np.array_equal(run.features.reshape(-1, 8), batch.features[run.rows])


# Models in one block of evaluate_accuracy at H = 32 and 600 samples: its
# hidden layer is float32.
BLOCK = learner._EVAL_BLOCK_BYTES // (4 * 32 * 600)


def check_accuracy_against_loop(thetas, arch, features, labels):
    """evaluate_accuracy against the per-sample oracle, exactly."""
    accuracy = evaluate_accuracy(
        ModelParams(thetas, arch), EvalSet(arch, features, labels)
    )
    expected = accuracy_loop(
        thetas, features, labels, arch.hidden_dim, arch.num_classes
    )
    assert accuracy.shape == (len(thetas),)
    assert accuracy.tolist() == expected.tolist()
    return accuracy


def near_tie_stack(rng, arch, models):
    """Models with a near tie on every sample: for model i, classes c = i mod K
    and d = c + 1 mod K have logits y_d = (1 + eps_i) y_c, eps_i from 1e-9 to
    1e-6 over the stack, and every other class y_c - 5."""
    f, h, k = arch.feature_dim, arch.hidden_dim, arch.num_classes
    thetas = 2.0 * rng.standard_normal((models, arch.param_count))
    w2 = thetas[:, (f + 1) * h : (f + 1) * h + h * k].reshape(models, h, k)
    b2 = thetas[:, -k:]
    for i, eps in enumerate(np.geomspace(1e-9, 1e-6, models)):
        c, d = i % k, (i + 1) % k
        column, bias = w2[i, :, c].copy(), b2[i, c]
        w2[i] = column[:, None]
        b2[i] = bias - 5.0
        b2[i, c] = bias
        w2[i, :, d] = (1.0 + eps) * column
        b2[i, d] = (1.0 + eps) * bias
    return thetas


def float32_accuracy(thetas, arch, features, labels):
    """Each model's accuracy from logits computed in float32 alone, where
    entries beyond float32's range are inf."""
    f, h, k = arch.feature_dim, arch.hidden_dim, arch.num_classes
    accuracies = []
    with np.errstate(over="ignore", invalid="ignore"):
        x = features.astype(np.float32)
        for theta in thetas.astype(np.float32):
            w1 = theta[: f * h].reshape(f, h)
            b1 = theta[f * h : f * h + h]
            w2 = theta[f * h + h : f * h + h + h * k].reshape(h, k)
            b2 = theta[f * h + h + h * k :]
            logits = np.tanh(x @ w1 + b1) @ w2 + b2
            accuracies.append(np.mean(np.argmax(logits, axis=1) == labels))
    return np.array(accuracies)


class TestEvaluateAccuracy:
    """Scoring in blocks of models against the per-sample loop."""

    def test_block_holds_several_models(self):
        assert 1 < BLOCK < 50

    def test_zero_model_predicts_class_zero(self):
        """Every logit ties, so argmax's first index, class 0, is predicted."""
        rng = np.random.default_rng(60)
        features, labels, _ = random_batch(rng, batch=600)
        thetas = np.zeros((BLOCK + 1, ARCH.param_count))
        accuracy = check_accuracy_against_loop(thetas, ARCH, features, labels)
        assert np.all(accuracy == np.mean(labels == 0))

    def test_two_way_tie_goes_to_the_lower_class(self):
        """W2 = 0 and b2 = (1, 5, 5): classes 1 and 2 tie on every sample,
        in a block whose other models have no tie."""
        rng = np.random.default_rng(61)
        features, labels, _ = random_batch(rng, batch=600)
        thetas = rng.standard_normal((3, ARCH.param_count))
        thetas[1, -(32 * 3 + 3) :] = 0.0
        thetas[1, -3:] = (1.0, 5.0, 5.0)
        accuracy = check_accuracy_against_loop(thetas, ARCH, features, labels)
        assert accuracy[1] == np.mean(labels == 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, value):
        rng = np.random.default_rng(66)
        features, labels, _ = random_batch(rng, batch=4)
        features[2, 3] = value
        with pytest.raises(ValueError, match="finite"):
            Batch(ARCH, features, labels, [4])
        with pytest.raises(ValueError, match="finite"):
            EvalSet(ARCH, features, labels)

    def test_float32_tanh_stays_within_the_allowance(self):
        """The margin allows numpy's float32 tanh an absolute error of
        learner._TANH32 = 8 * 2^-24: checked on a dense grid over [-20, 20],
        every 4099th float32 up to the largest and every 97th subnormal, of
        both signs."""
        grid = np.linspace(-20.0, 20.0, 1_000_001).astype(np.float32)
        spread = np.arange(1, 0x7F800000, 4099, dtype=np.uint32).view(np.float32)
        subnormal = np.arange(1, 0x00800000, 97, dtype=np.uint32).view(np.float32)
        x = np.concatenate((grid, spread, -spread, subnormal, -subnormal))
        got = np.tanh(x)
        error = np.abs(got.astype(np.float64) - np.tanh(x.astype(np.float64)))
        assert error.max() <= learner._TANH32
        assert np.abs(got).max() <= 1.0

    @pytest.mark.parametrize("classes, models", [(3, BLOCK + 1), (10, 2 * BLOCK + 3)])
    def test_near_ties_are_rescored(self, classes, models):
        """Float32 logits alone get some of these stacks' accuracies wrong,
        so matching the loop exactly needs the float64 re-score."""
        arch = Architecture(feature_dim=8, hidden_dim=32, num_classes=classes)
        rng = np.random.default_rng([67, classes])
        features, labels, _ = random_batch(rng, arch, batch=600)
        thetas = near_tie_stack(rng, arch, models)
        accuracy = check_accuracy_against_loop(thetas, arch, features, labels)
        assert np.any(float32_accuracy(thetas, arch, features, labels) != accuracy)

    def test_only_unsure_models_are_rescored(self):
        """A block of models whose logits are at least 4 apart on every
        sample, but for one with a near tie on every sample: only that model
        goes to the float64 re-score, and every model's hits equal the
        loop's."""
        f, h = ARCH.feature_dim, ARCH.hidden_dim
        rng = np.random.default_rng(70)
        features, labels, _ = random_batch(rng, batch=600)
        thetas = 2.0 * rng.standard_normal((BLOCK, ARCH.param_count))
        thetas[:, (f + 1) * h : -3] *= 0.01  # W2: logits within 1 of b2
        thetas[:, -3:] = [rng.permutation([0.0, 6.0, 12.0]) for _ in range(BLOCK)]
        thetas[5] = near_tie_stack(rng, ARCH, 1)[0]
        rescored = []
        original = learner._float64_predictions

        def recording(theta, arch, inputs):
            rescored.append((theta.copy(), inputs.shape[1]))
            return original(theta, arch, inputs)

        with mock.patch.object(learner, "_float64_predictions", recording):
            check_accuracy_against_loop(thetas, ARCH, features, labels)
        ((theta, columns),) = rescored
        assert np.array_equal(theta, thetas[5:6])
        assert columns > 0

    def test_float32_overflow_is_rescored(self):
        """Entries of about 1e39 are finite in float64 but overflow float32;
        their models are scored in float64. In model BLOCK, which opens the
        second block, W1 = 0 and b1 = (1e-10, 20, 0, ...) give hidden units
        (1e-10, 1, 0, ...), and W2 = 1e39 from unit 0 to class 0 and 1e30
        from unit 1 to class 1 give logits (1e29, 1e30, 0), so class 1; in
        float32 class 0's logit is inf, and only the model's inf margin
        sends its samples to the float64 re-score."""
        f, h = ARCH.feature_dim, ARCH.hidden_dim
        rng = np.random.default_rng(68)
        features, labels, _ = random_batch(rng, batch=600)
        thetas = 2.0 * rng.standard_normal((BLOCK + 2, ARCH.param_count))
        thetas[0] *= 1e39  # every layer
        thetas[1, -(h * 3 + 3) :] *= 1e39  # W2 and b2 only
        thetas[BLOCK] = 0.0
        thetas[BLOCK, f * h : f * h + 2] = (1e-10, 20.0)
        w2 = thetas[BLOCK, (f + 1) * h : (f + 1) * h + 3 * h].reshape(h, 3)
        w2[0, 0], w2[1, 1] = 1e39, 1e30
        accuracy = check_accuracy_against_loop(thetas, ARCH, features, labels)
        assert accuracy[BLOCK] == np.mean(labels == 1)
        wrong = float32_accuracy(thetas[BLOCK : BLOCK + 1], ARCH, features, labels)
        assert wrong[0] == np.mean(labels == 0)

    def test_float64_overflow_follows_argmax(self):
        """Entries of 1e308 overflow float64 too. With W1 at 1e308 and b1 at
        0, a sample of twos has hidden units tanh(inf) = 1, one of minus twos
        -1 and one of zeros 0; W2's columns 1 and 2 at 1e308 and column 0 at
        1 then give logits (32, inf, inf), (-32, -inf, -inf) and b2 =
        (0, 1, 2), whatever the order of the sums: predictions 1 (the first
        of two infs), 0 and 2."""
        f, h = ARCH.feature_dim, ARCH.hidden_dim
        theta = np.zeros((1, ARCH.param_count))
        theta[0, : f * h] = 1e308
        w2 = theta[0, (f + 1) * h : (f + 1) * h + 3 * h].reshape(h, 3)
        w2[:, 0] = 1.0
        w2[:, 1:] = 1e308
        theta[0, -3:] = (0.0, 1.0, 2.0)
        rng = np.random.default_rng(69)
        pick = rng.integers(0, 3, size=600)
        features = np.array([2.0, -2.0, 0.0])[pick, None] * np.ones(f)
        labels = rng.integers(0, 3, size=600)
        thetas = np.vstack((2.0 * rng.standard_normal((1, ARCH.param_count)), theta))
        with np.errstate(over="ignore"):
            accuracy = check_accuracy_against_loop(thetas, ARCH, features, labels)
        assert accuracy[1] == np.mean(labels == np.array([1, 0, 2])[pick])

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        exponent=st.floats(-3.0, 3.0),
        classes=st.sampled_from([2, 3, 10]),
        models=st.integers(1, BLOCK + 2),
    )
    def test_matches_loop_at_every_scale(self, seed, exponent, classes, models):
        """theta scaled by 1e-3 to 1e3: tiny logits, saturated hidden layers,
        and margins from far below to far above the logits' spread."""
        arch = Architecture(feature_dim=8, hidden_dim=32, num_classes=classes)
        rng = np.random.default_rng(seed)
        features, labels, _ = random_batch(rng, arch, batch=600)
        thetas = 10.0**exponent * rng.standard_normal((models, arch.param_count))
        check_accuracy_against_loop(thetas, arch, features, labels)

    @pytest.mark.parametrize(
        "models",
        [1, BLOCK // 2 - 1, BLOCK // 2, BLOCK // 2 + 1]
        + [BLOCK - 1, BLOCK, BLOCK + 1, 50],
    )
    def test_stacks_across_block_boundaries(self, models):
        rng = np.random.default_rng([62, models])
        features, labels, _ = random_batch(rng, batch=600)
        thetas = 2.0 * rng.standard_normal((models, ARCH.param_count))
        check_accuracy_against_loop(thetas, ARCH, features, labels)

    @pytest.mark.parametrize("classes", [2, 3, 10])
    def test_class_counts(self, classes):
        arch = Architecture(feature_dim=16, hidden_dim=32, num_classes=classes)
        rng = np.random.default_rng([63, classes])
        features, labels, _ = random_batch(rng, arch, batch=600)
        thetas = 2.0 * rng.standard_normal((BLOCK + 2, arch.param_count))
        check_accuracy_against_loop(thetas, arch, features, labels)

    def test_verify_stack_matches_loop(self):
        """The shape of `airfd verify`'s accuracy_matches_loop: a block and
        one more model of five features and three classes on 600 samples."""
        arch = Architecture(feature_dim=5, hidden_dim=32, num_classes=3)
        rng = np.random.default_rng(64)
        thetas = 2.0 * rng.standard_normal((BLOCK + 1, arch.param_count))
        features = rng.standard_normal((600, 5))
        labels = rng.integers(0, 3, size=600)
        check_accuracy_against_loop(thetas, arch, features, labels)

    def test_memory_peak_stays_within_the_block_budget(self):
        """50 fleet-shaped models: a (50, 32, 600) hidden layer would take
        7.7 MB; the blocks stay within 2.5 MB."""
        arch = Architecture(feature_dim=16, hidden_dim=32, num_classes=10)
        rng = np.random.default_rng(65)
        params = ModelParams(rng.standard_normal((50, arch.param_count)), arch)
        features, labels, _ = random_batch(rng, arch, batch=600)
        test = EvalSet(arch, features, labels)
        evaluate_accuracy(params, test)
        tracemalloc.start()
        try:
            evaluate_accuracy(params, test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6
