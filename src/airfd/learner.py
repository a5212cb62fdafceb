"""Desk-scale classifier and its training rule: a one-hidden-layer softmax
network trained per device on a cross-entropy loss plus a distillation
regularizer that pulls each sample's output toward the shared per-class
knowledge vector, under a diminishing step-size schedule.

Models are held one way only: the M devices' models are the rows of one
(M, P) stack, ModelParams.theta, from init_params to evaluate_accuracy, and
a single model is a stack of one. Data are held as checked read-only
records, built once per trial: a Batch is the training set of every device,
the devices' samples concatenated in device order as (S, F) features and
(S,) labels with the (M,) device sizes, and an EvalSet is a test set laid
out for evaluate_accuracy. Each record checks its arrays once, when it is
built, and holds what every round would otherwise derive again from them,
so a round's call checks only what can change between calls: the models
against the record's architecture, the target and the cache.

The forward pass, the loss and gradient, and a training round take every
device at once, as one ragged batch. Element-wise work (tanh, the
log-softmax, the softmax, the distillation residual, 1 - h**2) runs once
over all S rows, and so do numpy's sums over each row's K classes. Only
the matrix products, the bias adds and the per-device reductions (loss
means, distillation sums, bias gradients) loop, over runs of consecutive
devices with the same size, as stacked matmuls on (G, B, ...) views. Each
run's (G, B, F) view of the features is laid out once, with the Batch;
the round's other arrays are reshaped by the run's count G and size B.
numpy's stacked matmul makes the same BLAS call on each slice, and each
reduction runs per device in the same order, so every device gets the bits
it would get alone.
evaluate_accuracy scores every model of a stack on the same test set in
blocks of models, with the samples as columns: a float32 screen settles
each sample whose lead is above a certified margin, and only the other
samples are scored again in float64, so the hit counts are the float64
argmax's (see its docstring).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .knowledge import _class_bins

__all__ = [
    "Architecture",
    "ModelParams",
    "LearnerConfig",
    "Batch",
    "EvalSet",
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
    """The log-softmax of each row, computed in the logits' buffer.

    The row maximum is taken from a column-major copy, along whose rows
    numpy reduces a narrow (S, K) array several times faster. A maximum is
    exact in any order, and a tie of +0 and -0 gives the same log-softmax
    whichever it returns, so the bits do not change. The sum is numpy's,
    along the rows."""
    logits -= np.asfortranarray(logits).max(axis=-1, keepdims=True)
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
    """Consecutive devices that hold the same number of samples, with the
    view of the features that a pass over the batch reads for them."""

    devices: slice  # rows of theta
    rows: slice  # rows of the (S, ...) sample arrays
    count: int  # G
    size: int  # B
    features: np.ndarray  # (G, B, F) read-only view of the batch's features


def _runs(features: np.ndarray, sizes: np.ndarray) -> tuple[_Run, ...]:
    """The runs of a batch's (M,) sizes, in device order, laid out over its
    (S, F) features."""
    firsts = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist()]
    ends = [*firsts[1:], len(sizes)]
    runs, row = [], 0
    for first, end, size in zip(firsts, ends, sizes[firsts].tolist()):
        count = end - first
        rows = slice(row, row + count * size)
        view = features[rows].reshape(count, size, -1)
        runs.append(_Run(slice(first, end), rows, count, size, view))
        row += count * size
    return tuple(runs)


def _checked_features(arch: Architecture, features: np.ndarray) -> np.ndarray:
    """A read-only copy of the samples' features as a finite (S, F) float64
    array."""
    features = np.array(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != arch.feature_dim:
        raise ValueError(
            f"features must be (S, {arch.feature_dim}), got {features.shape}"
        )
    if not np.isfinite(features).all():
        raise ValueError("features must be finite")
    features.setflags(write=False)
    return features


def _checked_labels(
    arch: Architecture, labels: np.ndarray, samples: int
) -> np.ndarray:
    """A read-only copy of one integer label in [0, K) per sample of a
    non-empty set."""
    labels = np.array(labels)
    if labels.shape != (samples,):
        raise ValueError("labels must be (S,), one per sample")
    if samples == 0:
        raise ValueError("the set must hold at least one sample")
    # Booleans are not integers here: they would be scored as classes 0, 1.
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got {labels.dtype}")
    if labels.min() < 0 or labels.max() >= arch.num_classes:
        raise ValueError("labels must lie in [0, K)")
    labels.setflags(write=False)
    return labels


@dataclass(frozen=True, eq=False)
class Batch:
    """The training set of M devices as one checked, read-only ragged batch:
    their samples concatenated in device order, and what every round reads
    of them, derived once.

    Attributes:
        arch: The architecture of the models the batch feeds.
        features: (S, F) finite float64 features, device 0's first.
        labels: (S,) integer labels in [0, K) of the same samples.
        sizes: (M,) sample counts (>= 1) of the devices, in order, adding
            up to S.
        runs: The runs of consecutive devices with the same size, each with
            its count G, size B and (G, B, F) view of the features.
        picked: (S,) each sample's label entry in a flattened (S, K) array.
        bins: (S K,) the knowledge bin of each entry of a flattened (S, K)
            output array, and
        counts: (M, K) each device's sample count per class. A `Batch`'s
            bins and counts are what knowledge.knowledge_vectors averages
            over, and its counts give the uplink weights B_i^k / B^k
            (DatasetPartition).
    """

    arch: Architecture
    features: np.ndarray
    labels: np.ndarray
    sizes: np.ndarray
    runs: tuple[_Run, ...] = field(init=False)
    picked: np.ndarray = field(init=False)
    bins: np.ndarray = field(init=False)
    counts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        features = _checked_features(self.arch, self.features)
        labels = _checked_labels(self.arch, self.labels, len(features))
        sizes = np.array(self.sizes)
        if (
            sizes.ndim != 1
            or not np.issubdtype(sizes.dtype, np.integer)
            or np.any(sizes < 1)
            or sizes.sum() != len(labels)
        ):
            raise ValueError(
                "every device must hold at least one sample, and the (M,) "
                "integer sizes must add up to the samples"
            )
        bins, counts = _class_bins(labels, sizes, self.arch.num_classes)
        picked = np.arange(len(labels)) * self.arch.num_classes + labels
        for array in (sizes, picked, bins, counts):
            array.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "runs", _runs(features, sizes))
        object.__setattr__(self, "picked", picked)
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        """The number of samples, S."""
        return len(self.labels)


def _check_models(params: ModelParams, batch: Batch) -> None:
    """Check that the (M, P) models are M devices of the batch's
    architecture."""
    if params.arch != batch.arch:
        raise ValueError("the models and the batch have different architectures")
    if len(params.theta) != len(batch.sizes):
        raise ValueError("a batch of M models needs (M,) sizes")


def forward_pass(params: ModelParams, batch: Batch) -> ForwardPass:
    """Hidden activations, log-softmax and softmax outputs of the (M, P)
    models of M devices on their batch. The softmax rows are positive and
    sum to 1 within 1e-12 for finite parameters."""
    _check_models(params, batch)
    arch, samples = params.arch, len(batch)
    w1, b1, w2, b2 = _unpack(params.theta, arch)
    hidden = np.empty((samples, arch.hidden_dim))
    logits = np.empty((samples, arch.num_classes))
    for run in batch.runs:
        out = hidden[run.rows].reshape(run.count, run.size, -1)
        np.matmul(run.features, w1[run.devices], out=out)
        out += b1[run.devices, None, :]
    np.tanh(hidden, out=hidden)
    for run in batch.runs:
        layer = hidden[run.rows].reshape(run.count, run.size, -1)
        out = logits[run.rows].reshape(run.count, run.size, -1)
        np.matmul(layer, w2[run.devices], out=out)
        out += b2[run.devices, None, :]
    log_probs = _log_softmax(logits)
    return ForwardPass(hidden, log_probs, np.exp(log_probs))


class _Loss(NamedTuple):
    """The per-device mean losses of a batch and what its gradient reuses."""

    value: np.ndarray  # (M,)
    hidden: np.ndarray
    probs: np.ndarray  # (S, K), in the forward pass's own buffer
    residual: np.ndarray | None  # probs - knowledge[labels]; None if unused


def _loss(
    params: ModelParams,
    batch: Batch,
    knowledge: np.ndarray,
    distill_weight: float,
    cache: ForwardPass | None,
) -> _Loss:
    """Check the models, the target and the cache against the batch and
    compute each device's mean loss (see loss_and_grad)."""
    _check_models(params, batch)
    arch, samples = params.arch, len(batch)
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
        cache = forward_pass(params, batch)
    elif (cache.hidden.shape, cache.log_probs.shape, cache.probs.shape) != (
        (samples, arch.hidden_dim),
        (samples, arch.num_classes),
        (samples, arch.num_classes),
    ):
        raise ValueError("cache does not match the batch and the architecture")
    log_likelihood = cache.log_probs.reshape(-1)[batch.picked]
    residual = None
    if distill_weight > 0:
        residual = knowledge[batch.labels]
        np.subtract(cache.probs, residual, out=residual)  # (S, K)
    # Each device's sums run over its own contiguous entries, as they would
    # for its samples alone; a mean is that sum over the count.
    sizes = batch.sizes
    log_likelihoods = np.empty(sizes.shape)
    for run in batch.runs:
        np.add.reduce(
            log_likelihood[run.rows].reshape(run.count, -1),
            axis=-1,
            out=log_likelihoods[run.devices],
        )
    loss = -(log_likelihoods / sizes)
    if residual is not None:
        squares = np.square(residual)
        distances = np.empty(sizes.shape)
        for run in batch.runs:
            np.add.reduce(
                squares[run.rows].reshape(run.count, -1),
                axis=-1,
                out=distances[run.devices],
            )
        loss += distill_weight * (distances / sizes)
    return _Loss(loss, cache.hidden, cache.probs, residual)


def loss_and_grad(
    params: ModelParams,
    batch: Batch,
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
        batch: The M devices' samples.
        knowledge: (K, K) real matrix; row v is the shared soft-prediction
            target for class v. Ignored when distill_weight == 0 (may be None).
        distill_weight: Nonnegative regularizer weight.
        cache: The forward pass of these models on this batch, reused
            instead of being recomputed (the result is bit-identical either
            way). Its buffers hold the gradient's intermediates afterwards,
            so it is spent.

    Returns:
        (loss, gradient): a (M,) array and a (M, P) array.
    """
    loss = _loss(params, batch, knowledge, distill_weight, cache)
    arch, probs, hidden = params.arch, loss.probs, loss.hidden

    if loss.residual is not None:
        # Jacobian of softmax applied to the residual:
        # (diag(p) - p p^T) r = p*r - p (p.r)
        weighted = np.multiply(probs, loss.residual, out=loss.residual)
        weighted -= probs * weighted.sum(axis=-1, keepdims=True)
        weighted *= 2.0 * distill_weight
    d_logits = probs  # the softmax outputs are not read again
    d_logits.reshape(-1)[batch.picked] -= 1.0
    if loss.residual is not None:
        d_logits += weighted

    w2 = _unpack(params.theta, arch)[2]
    grad = np.empty(params.theta.shape)
    grad_w1, grad_b1, grad_w2, grad_b2 = _unpack(grad, arch)
    d_hidden = np.empty(hidden.shape)
    for run in batch.runs:
        run_d_logits = d_logits[run.rows].reshape(run.count, run.size, -1)
        run_d_logits /= run.size
        run_hidden = hidden[run.rows].reshape(run.count, run.size, -1)
        np.matmul(
            run_hidden.swapaxes(-1, -2), run_d_logits, out=grad_w2[run.devices]
        )
        np.add.reduce(run_d_logits, axis=-2, out=grad_b2[run.devices])
        np.matmul(
            run_d_logits,
            w2[run.devices].swapaxes(-1, -2),
            out=d_hidden[run.rows].reshape(run.count, run.size, -1),
        )
    # 1 - hidden**2, in the hidden activations' buffer once grad_w2 has them.
    np.square(hidden, out=hidden)
    np.subtract(1.0, hidden, out=hidden)
    d_hidden *= hidden
    for run in batch.runs:
        run_d_hidden = d_hidden[run.rows].reshape(run.count, run.size, -1)
        features_t = run.features.swapaxes(-1, -2)
        np.matmul(features_t, run_d_hidden, out=grad_w1[run.devices])
        np.add.reduce(run_d_hidden, axis=-2, out=grad_b1[run.devices])
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
    batch: Batch,
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
    samples takes no step for its empty minibatches; each step's
    minibatches are a Batch of their own, gathered from `batch`. The
    full-batch loss then needs no gradient. `cache`, the forward pass of
    `params` on `batch`, serves the full-batch loss (and, for a single
    step, its gradient) in place of a second forward pass; it is spent.
    """
    eta = lr_schedule(round_index, config)
    if config.local_epochs == 1:
        loss, grad = loss_and_grad(
            params, batch, knowledge, config.distill_weight, cache=cache
        )
        theta = params.theta - eta * grad
        return ModelParams(theta=theta, arch=params.arch), loss

    loss = _loss(params, batch, knowledge, config.distill_weight, cache).value
    if rng is None:
        raise ValueError("minibatch training (local_epochs > 1) requires rng")
    sizes = batch.sizes
    splits = [
        np.array_split(rng.permutation(size) + start, config.local_epochs)
        for size, start in zip(sizes, np.cumsum(sizes) - sizes)
    ]
    theta = params.theta.copy()
    for step in zip(*splits):
        chunk = np.array([len(rows) for rows in step])
        stepping = chunk > 0
        if not stepping.any():
            break
        take = np.concatenate(step)
        _, grad = loss_and_grad(
            ModelParams(theta=theta[stepping], arch=params.arch),
            Batch(
                params.arch,
                batch.features[take],
                batch.labels[take],
                chunk[stepping],
            ),
            knowledge,
            config.distill_weight,
        )
        theta[stepping] = theta[stepping] - eta * grad
    return ModelParams(theta=theta, arch=params.arch), loss


# The bytes of one block's (g, H, B) float32 hidden layer in
# evaluate_accuracy: 16 models at H = 32 and B = 600 test samples. The
# float64 re-score of a block's unsure columns holds a float64 hidden layer
# of those columns only.
_EVAL_BLOCK_BYTES = 1_228_800

# The constants of evaluate_accuracy's margin: float32's unit roundoff u, the
# absolute error lambda that one float32 rounding may add near underflow
# (2^-126, the smallest normal, covers gradual underflow and flush-to-zero),
# the absolute error tau allowed to numpy's float32 tanh (a test pins it),
# and the safety factor.
_U32 = 2.0**-24
_TINY32 = 2.0**-126
_TANH32 = 8 * _U32
_SCREEN_SAFETY = 2.0


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u) at float32's unit roundoff."""
    return n * _U32 / (1.0 - n * _U32)


def _screen_margins(theta: np.ndarray, arch: Architecture, xi: float) -> np.ndarray:
    """Each model's margin for the float32 lead, given the test set's xi
    (see evaluate_accuracy)."""
    n1, n2, h = arch.feature_dim + 1, arch.hidden_dim + 1, arch.hidden_dim
    magnitudes = np.abs(theta)
    w1, b1, w2, b2 = _unpack(magnitudes, arch)
    a = np.maximum(w1.max(axis=1), b1)  # (M, H): max_f |[W1 | b1]_fh|
    dz = _gamma(n1 + 2) * a * xi + 4 * _TINY32 * (n1 * a + xi + 2 * n1)
    gamma2 = _gamma(n2 + 1) * (1 + _TANH32)
    e = np.matmul((dz + _TANH32 + gamma2)[:, None, :], w2)[:, 0]  # (M, K)
    e += gamma2 * b2 + 8 * _TINY32 * n2
    margins = 2.0 * (1.0 + 2.0**-23) * _SCREEN_SAFETY * e.max(axis=1)
    # Past these sizes a float32 sum might overflow. Written so that a NaN
    # fails it.
    fits = (np.maximum(a.max(axis=1), 1.0) * xi < 2.0**100) & (
        np.maximum(magnitudes[:, n1 * h :].max(axis=1), 1.0) * n2 < 2.0**100
    )
    margins[~fits] = np.inf
    return margins


def _float64_predictions(
    theta: np.ndarray, arch: Architecture, inputs: np.ndarray
) -> np.ndarray:
    """np.argmax of the float64 logits of a (g, P) block of models on the
    columns of (F + 1, c) transposed features with a row of ones: (g, c)."""
    w1, b1, w2, b2 = _unpack(theta, arch)
    weights = np.concatenate((w1.swapaxes(-1, -2), b1[:, :, None]), axis=2)
    layer = np.matmul(weights, inputs)
    np.tanh(layer, out=layer)
    logits = np.matmul(w2.swapaxes(-1, -2), layer)
    logits += b2[:, :, None]
    return np.argmax(logits, axis=1)


@dataclass(frozen=True, eq=False)
class EvalSet:
    """A test set as one checked, read-only record, laid out once for
    evaluate_accuracy.

    Attributes:
        arch: The architecture of the models it scores.
        labels: (B,) integer labels in [0, K).
        inputs: (F + 1, B) float64: the finite features transposed, with a
            row of ones appended, so that a sample is a column.
        inputs32: inputs cast to float32; a feature beyond float32's range
            is inf there.
        xi: max_b ||(x_b, 1)||_1, the largest column sum of |inputs|.
        picked: (B,) each sample's label entry in a flattened (K, B) block
            of logits.
    """

    arch: Architecture
    features: InitVar[np.ndarray]
    labels: np.ndarray
    inputs: np.ndarray = field(init=False)
    inputs32: np.ndarray = field(init=False)
    xi: float = field(init=False)
    picked: np.ndarray = field(init=False)

    def __post_init__(self, features: np.ndarray) -> None:
        features = _checked_features(self.arch, features)
        samples = len(features)
        labels = _checked_labels(self.arch, self.labels, samples)
        inputs = np.empty((self.arch.feature_dim + 1, samples))
        inputs[:-1] = features.T
        inputs[-1] = 1.0
        # A feature beyond float32's range casts to inf, and xi may overflow
        # to inf; either leaves the samples to the float64 re-score (see
        # evaluate_accuracy).
        with np.errstate(over="ignore"):
            inputs32 = inputs.astype(np.float32)
            xi = float(np.abs(inputs).sum(axis=0).max())
        picked = labels * samples + np.arange(samples)
        for array in (inputs, inputs32, picked):
            array.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "inputs32", inputs32)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "picked", picked)

    def __len__(self) -> int:
        """The number of samples, B."""
        return len(self.labels)


def evaluate_accuracy(params: ModelParams, test: EvalSet) -> np.ndarray:
    """Each of the (M, P) models' fraction of the test set's B samples whose
    argmax output matches the label, as a (M,) array.

    Softmax is monotone, so the prediction is the first index of the largest
    logit, as np.argmax picks it from the float64 logits. The models are
    scored in blocks of g, as many as a float32 hidden layer of
    _EVAL_BLOCK_BYTES holds, feature-major: a sample is a column. The
    test set holds its features transposed, with a row of ones appended
    (EvalSet.inputs), so a block's
    (g, H, B) hidden layer is one stacked product of its models' [W1^T | b1]
    rows with them, and its (g, K, B) logits one stacked product with W2^T,
    plus b2 as a column. One hidden and one logits buffer serve every block.

    These products and tanh run in float32, as a screen. A sample's lead is
    its label's float32 logit minus the largest other one. Where |lead| is
    above the model's margin, the sample is a hit exactly when lead > 0, and
    that is the float64 argmax's answer. Every other sample (a tie, a near
    tie, a model whose margin is inf) is unsure, and the block's unsure
    columns are scored again in float64, with np.argmax, so ties keep its
    first-index rule, for the models unsure in at least one of them.

    The margin bounds the gap between the float32 and the float64 leads.
    Write u = 2^-24 and gamma_n = n u / (1 - n u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, section 3.1); lambda
    = 2^-126, the absolute error one float32 rounding may add near
    underflow; tau = 8u, the absolute error allowed to float32 tanh; and,
    for one model, a_h = max_f |[W1 | b1]_fh|, the largest weight into
    hidden unit h, and xi = max_b ||(x_b, 1)||_1.

    - A pre-activation is an (F + 1)-term sum of products of float32
      roundings of the weights and the inputs. The two casts and the sum's
      gamma_{F+1} give gamma_{F+3} relative to sum_f |w_fh| |x_f| <= a_h xi.
      Each rounding's lambda, scaled by what it multiplies and carried
      through the later roundings, adds at most
      4 lambda ((F + 1) a_h + xi + 2 (F + 1)). Call the sum dz_h.
    - tanh is 1-Lipschitz, so activation h errs by at most dz_h + tau, and
      it is at most 1 + tau in size.
    - Logit k is an (H + 1)-term sum: the product with W2, then b2. The
      activations' errors add sum_h |W2_hk| (dz_h + tau). The cast of W2
      and b2 and the sum's gamma_{H+1} give gamma_{H+2} relative to
      sum_h |W2_hk| (1 + tau) + |b2_k|, and the lambdas add
      8 lambda (H + 1). Call the largest total over k e.
    - The float64 route errs by the same bound with u = 2^-53 and its tanh
      within 8 of its ulps, and casts nothing: below 2^-28 e.

    The two leads, each a logit minus the largest of the others, are thus
    within 2 (1 + 2^-28) e of each other, and rounding the float32 lead
    scales it by at most 1 + u. The margin is 2 (1 + 2^-23) e times a
    safety factor of 2. If max(max_h a_h, 1) xi or
    max(max |[W2 | b2]|, 1) (H + 1) reaches 2^100, float32 could overflow
    and break these bounds; that model's margin is inf, so all its samples
    are unsure. Every comparison is written so that a NaN fails it.
    """
    arch = params.arch
    if arch != test.arch:
        raise ValueError("the models and the test set have different architectures")
    samples, picked = len(test), test.picked
    f, h, k = arch.feature_dim, arch.hidden_dim, arch.num_classes
    models = len(params.theta)
    block = min(models, max(1, _EVAL_BLOCK_BYTES // (4 * h * samples)))

    # A finite float64 beyond float32's range casts to inf; such a model's
    # margin is inf.
    with np.errstate(over="ignore", invalid="ignore"):
        w1, b1, w2, b2 = _unpack(params.theta.astype(np.float32), arch)
        margins = _screen_margins(params.theta, arch, test.xi)
    weights = np.empty((block, h, f + 1), dtype=np.float32)
    hidden = np.empty((block, h, samples), dtype=np.float32)
    logits = np.empty((block, k, samples), dtype=np.float32)
    hits = np.empty(models, dtype=np.int64)
    for first in range(0, models, block):
        end = min(first + block, models)
        g = end - first
        weights[:g, :, :f] = w1[first:end].swapaxes(-1, -2)
        weights[:g, :, f] = b1[first:end]
        with np.errstate(over="ignore", invalid="ignore"):
            layer = np.matmul(weights[:g], test.inputs32, out=hidden[:g])
            np.tanh(layer, out=layer)
            out = np.matmul(w2[first:end].swapaxes(-1, -2), layer, out=logits[:g])
            out += b2[first:end, :, None]
            flat = out.reshape(g, k * samples)
            lead = np.take(flat, picked, axis=1)
            flat[:, picked] = -np.inf
            lead -= out.max(axis=1)
            sure = np.abs(lead) > margins[first:end, None]
        hit = lead > 0
        unsure = np.flatnonzero(~sure.all(axis=0))
        if unsure.size:
            # Only the models unsure somewhere in these columns; a model's
            # slice of the stacked products does not depend on the others.
            rescored = np.flatnonzero(~sure[:, unsure].all(axis=1))
            predicted = _float64_predictions(
                params.theta[first + rescored], arch, test.inputs[:, unsure]
            )
            hit[rescored[:, None], unsure] = predicted == test.labels[unsure]
        hits[first:end] = np.count_nonzero(hit, axis=1)
    return hits / samples
