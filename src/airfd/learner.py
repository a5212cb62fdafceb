"""Desk-scale classifier and its training rule: a one-hidden-layer softmax
network trained per device on a cross-entropy loss plus a distillation
regularizer that pulls each sample's output toward the shared per-class
knowledge vector, under a diminishing step-size schedule.

Models are held one way only: the M devices' models are the rows of one
(M, P) stack, ModelParams.theta, from init_params to evaluate_accuracy, and
a single model is a stack of one. The forward pass, the loss and gradient,
and a training round take every device at once, as one ragged batch: that
stack, the devices' samples concatenated in device order as (S, F) features
and (S,) labels, and the (M,) device sizes. Element-wise work (tanh, the
log-softmax, the softmax, the distillation residual, 1 - h**2) runs once
over all S rows. Only the matrix products, the bias adds and the per-device
reductions (loss means, distillation sums, bias gradients) loop, over runs of
consecutive devices with the same size, as stacked matmuls on (G, B, ...)
views. numpy's stacked matmul makes the same BLAS call on each slice, and
each reduction runs per device in the same order, so every device gets the
bits it would get alone. evaluate_accuracy scores every model of a stack on
the same test set, computing one model at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Architecture",
    "ModelParams",
    "LearnerConfig",
    "ForwardPass",
    "init_params",
    "forward_pass",
    "loss_and_grad",
    "lr_schedule",
    "train_round",
    "evaluate_accuracy",
]


@dataclass(frozen=True)
class Architecture:
    """Layer sizes: feature_dim -> hidden_dim (tanh) -> num_classes (softmax)."""

    feature_dim: int
    hidden_dim: int
    num_classes: int

    def __post_init__(self) -> None:
        for name in ("feature_dim", "hidden_dim", "num_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def param_count(self) -> int:
        """Flat dimension: both weight matrices plus both bias vectors."""
        return (self.feature_dim + 1) * self.hidden_dim + (
            self.hidden_dim + 1
        ) * self.num_classes


@dataclass(frozen=True)
class ModelParams:
    """The flat real parameter vectors of M >= 1 devices' models as the rows
    of a (M, P) stack, together with their layer sizes."""

    theta: np.ndarray
    arch: Architecture

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.ndim != 2 or len(theta) == 0:
            raise ValueError("theta must be a (M, P) stack of M >= 1 models")
        if theta.shape[1] != self.arch.param_count:
            raise ValueError(
                f"theta has {theta.shape[1]} entries; architecture needs "
                f"{self.arch.param_count}"
            )
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta entries must be finite")
        theta = theta.copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True)
class LearnerConfig:
    """Training hyperparameters shared by every device.

    Attributes:
        distill_weight: Regularizer weight on the squared distance between a
            sample's output and its class's shared knowledge vector (>= 0).
        init_lr: Step size of the first round (> 0).
        rounds: Total training rounds T (>= 1).
        local_epochs: Gradient steps per round; 1 = one full-batch step,
            E > 1 = one pass over the local data split into E minibatches.
        lr_cap: Upper clip on every step size (> 0; defaults to no clipping).
    """

    distill_weight: float
    init_lr: float
    rounds: int
    local_epochs: int = 1
    lr_cap: float = float("inf")

    def __post_init__(self) -> None:
        # Each test is written so that NaN fails it.
        if not 0.0 <= self.distill_weight < np.inf:
            raise ValueError("distill_weight must be finite and nonnegative")
        if not 0.0 < self.init_lr < np.inf:
            raise ValueError("init_lr must be finite and positive")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if not self.lr_cap > 0.0:
            raise ValueError("lr_cap must be positive")


def _unpack(theta: np.ndarray, arch: Architecture):
    """Split each row of a (M, P) stack into (W1, b1, W2, b2), as views."""
    f, h, k = arch.feature_dim, arch.hidden_dim, arch.num_classes
    pos = 0
    w1 = theta[:, pos : pos + f * h].reshape(-1, f, h)
    pos += f * h
    b1 = theta[:, pos : pos + h]
    pos += h
    w2 = theta[:, pos : pos + h * k].reshape(-1, h, k)
    pos += h * k
    b2 = theta[:, pos : pos + k]
    return w1, b1, w2, b2


def init_params(
    arch: Architecture, rngs: Sequence[np.random.Generator]
) -> ModelParams:
    """One model per generator, row i drawn from rngs[i]: Gaussian weights
    scaled by 1/sqrt(fan-in), biases at 0."""
    f, h, k = arch.feature_dim, arch.hidden_dim, arch.num_classes
    theta = np.zeros((len(rngs), arch.param_count))
    w1, _, w2, _ = _unpack(theta, arch)
    for i, rng in enumerate(rngs):
        w1[i] = rng.standard_normal((f, h)) / np.sqrt(f)
        w2[i] = rng.standard_normal((h, k)) / np.sqrt(h)
    return ModelParams(theta=theta, arch=arch)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """The log-softmax of each row, computed in the logits' buffer."""
    logits -= logits.max(axis=-1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    return logits


class ForwardPass(NamedTuple):
    """The outputs of a batch's forward pass, kept so that one pass serves
    knowledge extraction and the training loss.

    Attributes:
        hidden: (S, H) tanh activations of the hidden layer.
        log_probs: (S, K) log-softmax outputs.
        probs: (S, K) softmax outputs, exp(log_probs).
    """

    hidden: np.ndarray
    log_probs: np.ndarray
    probs: np.ndarray


class _Run(NamedTuple):
    """Consecutive devices that hold the same number of samples."""

    devices: slice  # rows of theta
    rows: slice  # rows of the (S, ...) sample arrays
    count: int  # G
    size: int  # B


def _runs(sizes: np.ndarray) -> list[_Run]:
    """The runs of a batch's (M,) sizes, in device order."""
    firsts = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist()]
    ends = [*firsts[1:], len(sizes)]
    runs, row = [], 0
    for first, end, size in zip(firsts, ends, sizes[firsts].tolist()):
        count = end - first
        rows = slice(row, row + count * size)
        runs.append(_Run(slice(first, end), rows, count, size))
        row += count * size
    return runs


def _stacked(array: np.ndarray, run: _Run) -> np.ndarray:
    """The run's rows of an (S, ...) array as a (G, B, ...) view."""
    return array[run.rows].reshape(run.count, run.size, *array.shape[1:])


def _checked_features(arch: Architecture, features: np.ndarray) -> np.ndarray:
    """The samples' features as a (S, F) float64 array."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != arch.feature_dim:
        raise ValueError(
            f"features must be (S, {arch.feature_dim}), got {features.shape}"
        )
    return features


def _checked_labels(
    arch: Architecture, labels: np.ndarray, samples: int
) -> np.ndarray:
    """One label in [0, K) per sample of a non-empty batch."""
    labels = np.asarray(labels)
    if labels.shape != (samples,):
        raise ValueError("labels must be (S,), one per sample")
    if samples == 0:
        raise ValueError("the batch must hold at least one sample")
    if labels.min() < 0 or labels.max() >= arch.num_classes:
        raise ValueError("labels must lie in [0, K)")
    return labels


def _checked_runs(params: ModelParams, sizes: np.ndarray, samples: int) -> list[_Run]:
    """The runs of a (M, P) stack whose M devices hold sizes[i] >= 1 of the
    batch's samples each, in order."""
    sizes = np.asarray(sizes)
    if sizes.shape != params.theta.shape[:1]:
        raise ValueError("a batch of M models needs (M,) sizes")
    if not np.issubdtype(sizes.dtype, np.integer) or np.any(sizes < 1):
        raise ValueError("every device must hold at least one sample")
    if sizes.sum() != samples:
        raise ValueError("the sizes must add up to the batch's samples")
    return _runs(sizes)


def forward_pass(
    params: ModelParams, features: np.ndarray, sizes: np.ndarray
) -> ForwardPass:
    """Hidden activations, log-softmax and softmax outputs of a batch: the
    (M, P) models of M devices, their (S, F) samples in device order and
    their (M,) sizes. The softmax rows are positive and sum to 1 within
    1e-12 for finite parameters."""
    arch = params.arch
    features = _checked_features(arch, features)
    runs = _checked_runs(params, sizes, len(features))
    w1, b1, w2, b2 = _unpack(params.theta, arch)
    hidden = np.empty((len(features), arch.hidden_dim))
    logits = np.empty((len(features), arch.num_classes))
    for run in runs:
        out = _stacked(hidden, run)
        np.matmul(_stacked(features, run), w1[run.devices], out=out)
        out += b1[run.devices, None, :]
    np.tanh(hidden, out=hidden)
    for run in runs:
        out = _stacked(logits, run)
        np.matmul(_stacked(hidden, run), w2[run.devices], out=out)
        out += b2[run.devices, None, :]
    log_probs = _log_softmax(logits)
    return ForwardPass(hidden, log_probs, np.exp(log_probs))


class _Loss(NamedTuple):
    """The per-device mean losses of a checked batch and what its gradient
    reuses."""

    value: np.ndarray  # (M,)
    features: np.ndarray
    runs: list[_Run]
    picked: tuple[np.ndarray, np.ndarray]  # each sample's (row, label) entry
    hidden: np.ndarray
    probs: np.ndarray  # (S, K), in the forward pass's own buffer
    residual: np.ndarray | None  # probs - knowledge[labels]; None if unused


def _loss(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    sizes: np.ndarray,
    knowledge: np.ndarray,
    distill_weight: float,
    cache: ForwardPass | None,
) -> _Loss:
    """Check the batch and compute each device's mean loss (see
    loss_and_grad)."""
    arch = params.arch
    features = _checked_features(arch, features)
    samples = len(features)
    labels = _checked_labels(arch, labels, samples)
    runs = _checked_runs(params, sizes, samples)
    if not 0.0 <= distill_weight < np.inf:  # written so that a NaN fails it
        raise ValueError("distill_weight must be finite and nonnegative")
    if distill_weight > 0:
        knowledge = np.asarray(knowledge, dtype=np.float64)
        if knowledge.shape != (arch.num_classes, arch.num_classes):
            raise ValueError(
                f"knowledge must be ({arch.num_classes}, {arch.num_classes}); "
                "every label needs a target row"
            )
        if not np.all(np.isfinite(knowledge)):
            raise ValueError("knowledge rows must be finite")

    if cache is None:
        cache = forward_pass(params, features, sizes)
    elif (cache.hidden.shape, cache.probs.shape) != (
        (samples, arch.hidden_dim),
        (samples, arch.num_classes),
    ):
        raise ValueError("cache does not match the batch and the architecture")
    picked = (np.arange(samples), labels)
    log_likelihood = cache.log_probs[picked]
    residual = None
    if distill_weight > 0:
        residual = knowledge[labels]
        np.subtract(cache.probs, residual, out=residual)  # (S, K)
    # Each device's sums run over its own contiguous entries, as they would
    # for its samples alone; a mean is that sum over the count.
    sizes = np.asarray(sizes)
    log_likelihoods = np.empty(sizes.shape)
    for run in runs:
        log_likelihoods[run.devices] = np.add.reduce(
            _stacked(log_likelihood, run), axis=-1
        )
    loss = -(log_likelihoods / sizes)
    if residual is not None:
        squares = np.square(residual)
        distances = np.empty(sizes.shape)
        for run in runs:
            distances[run.devices] = np.add.reduce(
                _stacked(squares, run).reshape(run.count, -1), axis=-1
            )
        loss += distill_weight * (distances / sizes)
    return _Loss(loss, features, runs, picked, cache.hidden, cache.probs, residual)


def loss_and_grad(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    sizes: np.ndarray,
    knowledge: np.ndarray,
    distill_weight: float,
    *,
    cache: ForwardPass | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each device's mean per-sample loss and its exact gradient in that
    device's flat parameters.

    Per sample with label v and output p:
        cross_entropy(p, v) + distill_weight * ||p - knowledge[v]||_2^2,
    averaged over the device's samples. With distill_weight == 0 the
    regularizer path is skipped entirely, so the result is bit-identical to
    plain cross-entropy.

    Args:
        params: The (M, P) models of M devices.
        features: (S, F) sample features, device 0's first.
        labels: (S,) integer labels in [0, K) of the same samples.
        sizes: (M,) sample counts (>= 1) of the devices, in order.
        knowledge: (K, K) real matrix; row v is the shared soft-prediction
            target for class v. Ignored when distill_weight == 0 (may be None).
        distill_weight: Nonnegative regularizer weight.
        cache: The forward pass of these models on these features, reused
            instead of being recomputed (the result is bit-identical either
            way). Its buffers hold the gradient's intermediates afterwards,
            so it is spent.

    Returns:
        (loss, gradient): a (M,) array and a (M, P) array.
    """
    loss = _loss(params, features, labels, sizes, knowledge, distill_weight, cache)
    arch, probs, hidden = params.arch, loss.probs, loss.hidden

    if loss.residual is not None:
        # Jacobian of softmax applied to the residual:
        # (diag(p) - p p^T) r = p*r - p (p.r)
        weighted = np.multiply(probs, loss.residual, out=loss.residual)
        weighted -= probs * weighted.sum(axis=-1, keepdims=True)
        weighted *= 2.0 * distill_weight
    d_logits = probs  # the softmax outputs are not read again
    d_logits[loss.picked] -= 1.0
    if loss.residual is not None:
        d_logits += weighted

    w2 = _unpack(params.theta, arch)[2]
    grad = np.empty(params.theta.shape)
    grad_w1, grad_b1, grad_w2, grad_b2 = _unpack(grad, arch)
    d_hidden = np.empty(hidden.shape)
    for run in loss.runs:
        run_d_logits = _stacked(d_logits, run)
        run_d_logits /= run.size
        np.matmul(
            _stacked(hidden, run).swapaxes(-1, -2),
            run_d_logits,
            out=grad_w2[run.devices],
        )
        grad_b2[run.devices] = np.add.reduce(run_d_logits, axis=-2)
        np.matmul(
            run_d_logits,
            w2[run.devices].swapaxes(-1, -2),
            out=_stacked(d_hidden, run),
        )
    # 1 - hidden**2, in the hidden activations' buffer once grad_w2 has them.
    np.square(hidden, out=hidden)
    np.subtract(1.0, hidden, out=hidden)
    d_hidden *= hidden
    for run in loss.runs:
        run_d_hidden = _stacked(d_hidden, run)
        np.matmul(
            _stacked(loss.features, run).swapaxes(-1, -2),
            run_d_hidden,
            out=grad_w1[run.devices],
        )
        grad_b1[run.devices] = np.add.reduce(run_d_hidden, axis=-2)
    return loss.value, grad


def lr_schedule(t: int, config: LearnerConfig) -> float:
    """Diminishing step size eta_t = init_lr / sqrt(t + 1), clipped to lr_cap.

    The +1 shift makes the first round's step exactly init_lr while keeping
    the square-root decay.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(min(config.init_lr / np.sqrt(t + 1.0), config.lr_cap))


def train_round(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    sizes: np.ndarray,
    knowledge: np.ndarray,
    config: LearnerConfig,
    round_index: int,
    rng: np.random.Generator | None = None,
    *,
    cache: ForwardPass | None = None,
) -> tuple[ModelParams, np.ndarray]:
    """One round of local training of every device of a batch (see
    loss_and_grad); returns the updated (M, P) models and each device's
    full-batch loss measured before the update.

    A step is theta - eta * grad at this round's step size eta =
    lr_schedule(round_index, config). With local_epochs == 1 each device
    takes a single full-batch step. With local_epochs E > 1 each device
    shuffles its samples once, drawing its permutation from rng (required)
    in device order, and splits them into E near-equal minibatches
    (np.array_split's), each consuming one step; a device with fewer than E
    samples takes no step for its empty minibatches. The full-batch loss
    then needs no gradient. `cache`, the forward pass of `params` on
    `features`, serves the full-batch loss (and, for a single step, its
    gradient) in place of a second forward pass; it is spent.
    """
    eta = lr_schedule(round_index, config)
    if config.local_epochs == 1:
        loss, grad = loss_and_grad(
            params, features, labels, sizes, knowledge, config.distill_weight,
            cache=cache,
        )
        theta = params.theta - eta * grad
        return ModelParams(theta=theta, arch=params.arch), loss

    loss = _loss(
        params, features, labels, sizes, knowledge, config.distill_weight, cache
    ).value
    if rng is None:
        raise ValueError("minibatch training (local_epochs > 1) requires rng")
    features, labels = np.asarray(features), np.asarray(labels)
    sizes = np.asarray(sizes)
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    # Every device's shuffle as rows of the batch, and each row's place in it.
    shuffled = np.concatenate([rng.permutation(size) for size in sizes]) + starts
    place = np.arange(len(shuffled)) - starts
    # Minibatch e of a device holds the places [cut_e, cut_e+1) of its shuffle.
    whole, extra = np.divmod(sizes, config.local_epochs)
    cuts = [
        e * whole + np.minimum(e, extra) for e in range(config.local_epochs + 1)
    ]
    theta = params.theta.copy()
    for low, high in zip(cuts, cuts[1:]):
        chunk = high - low
        stepping = chunk > 0
        if not stepping.any():
            break
        take = shuffled[
            (place >= np.repeat(low, sizes)) & (place < np.repeat(high, sizes))
        ]
        _, grad = loss_and_grad(
            ModelParams(theta=theta[stepping], arch=params.arch),
            features[take],
            labels[take],
            chunk[stepping],
            knowledge,
            config.distill_weight,
        )
        theta[stepping] = theta[stepping] - eta * grad
    return ModelParams(theta=theta, arch=params.arch), loss


def evaluate_accuracy(
    params: ModelParams, features: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Each of the (M, P) models' fraction of the same (B, F) samples whose
    argmax output matches the label, as a (M,) array.

    Softmax is monotone, so the prediction is the argmax of the logits. The
    models are computed one at a time, so that one (B, H) hidden layer is
    held at once rather than a (M, B, H) one.
    """
    features = _checked_features(params.arch, features)
    labels = _checked_labels(params.arch, labels, len(features))
    w1, b1, w2, b2 = _unpack(params.theta, params.arch)
    accuracy = np.empty(len(params.theta))
    for i in range(len(accuracy)):
        hidden = features @ w1[i]
        hidden += b1[i]
        np.tanh(hidden, out=hidden)
        logits = hidden @ w2[i]
        logits += b2[i]
        accuracy[i] = np.mean(np.argmax(logits, axis=-1) == labels)
    return accuracy
