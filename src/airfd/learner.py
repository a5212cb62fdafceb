"""Desk-scale classifier and its training rule: a one-hidden-layer softmax
network trained per device on a cross-entropy loss plus a distillation
regularizer that pulls each sample's output toward the shared per-class
knowledge vector, under a diminishing step-size schedule.

The forward pass, the loss and gradient, and a training round also take a
stack of G models with an optional leading axis: theta (G, P), features
(G, B, F) and labels (G, B), one batch of the same size per model. numpy's
stacked matmul makes the same BLAS call on each slice, so every model of a
stack gets the bits it would get alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    "local_update",
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
    """A flat real parameter vector, or a (G, P) stack of G of them, together
    with their layer sizes."""

    theta: np.ndarray
    arch: Architecture

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.ndim not in (1, 2):
            raise ValueError("theta must be a flat vector or a (G, P) stack")
        if theta.shape[-1] != self.arch.param_count:
            raise ValueError(
                f"theta has {theta.shape[-1]} entries; architecture needs "
                f"{self.arch.param_count}"
            )
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta entries must be finite")
        theta = theta.copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @property
    def dim(self) -> int:
        return self.theta.shape[-1]

    def unstack(self) -> list[ModelParams]:
        """The models of a (G, P) stack, one by one ([self] for one model).
        Each holds a row of this checked, read-only stack as it is: no copy
        and no second check."""
        if self.theta.ndim == 1:
            return [self]
        models = []
        for row in self.theta:
            model = object.__new__(ModelParams)
            object.__setattr__(model, "theta", row)
            object.__setattr__(model, "arch", self.arch)
            models.append(model)
        return models


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
    """Split the flat vector, or each row of a stack, into (W1, b1, W2, b2)."""
    f, h, k = arch.feature_dim, arch.hidden_dim, arch.num_classes
    lead = theta.shape[:-1]
    pos = 0
    w1 = theta[..., pos : pos + f * h].reshape(*lead, f, h)
    pos += f * h
    b1 = theta[..., pos : pos + h]
    pos += h
    w2 = theta[..., pos : pos + h * k].reshape(*lead, h, k)
    pos += h * k
    b2 = theta[..., pos : pos + k]
    return w1, b1, w2, b2


def init_params(arch: Architecture, rng: np.random.Generator) -> ModelParams:
    """Gaussian initialization scaled by 1/sqrt(fan-in); biases start at 0."""
    f, h, k = arch.feature_dim, arch.hidden_dim, arch.num_classes
    w1 = rng.standard_normal((f, h)) / np.sqrt(f)
    w2 = rng.standard_normal((h, k)) / np.sqrt(h)
    theta = np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(k)])
    return ModelParams(theta=theta, arch=arch)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """The log-softmax of each row, computed in the logits' buffer."""
    logits -= logits.max(axis=-1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    return logits


class ForwardPass(NamedTuple):
    """One model's outputs on a (B, F) batch, or a stack's on a (G, B, F)
    batch, kept so that the same forward pass can serve knowledge extraction
    and the training loss.

    Attributes:
        hidden: (B, H) tanh activations of the hidden layer.
        log_probs: (B, K) log-softmax outputs.
    """

    hidden: np.ndarray
    log_probs: np.ndarray

    @property
    def probs(self) -> np.ndarray:
        """(B, K) softmax outputs."""
        return np.exp(self.log_probs)


def _checked_features(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """The batch as float64, (B, F) for one model or (G, B, F) for a stack."""
    features = np.asarray(features, dtype=np.float64)
    lead = params.theta.shape[:-1]
    if (
        features.ndim != len(lead) + 2
        or features.shape[:-2] != lead
        or features.shape[-1] != params.arch.feature_dim
    ):
        shape = ", ".join(map(str, (*lead, "B", params.arch.feature_dim)))
        raise ValueError(f"features must be ({shape}), got {features.shape}")
    return features


def _checked_labels(
    params: ModelParams, features: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """One label in [0, K) per sample of a non-empty batch."""
    labels = np.asarray(labels)
    if labels.shape != features.shape[:-1]:
        raise ValueError("labels must be (B,), one per sample of each model")
    if labels.shape[-1] == 0:
        raise ValueError("the batch must hold at least one sample")
    if labels.min() < 0 or labels.max() >= params.arch.num_classes:
        raise ValueError("labels must lie in [0, K)")
    return labels


def _hidden_and_logits(
    params: ModelParams, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations (B, H) and logits (B, K) of a checked batch."""
    w1, b1, w2, b2 = _unpack(params.theta, params.arch)
    hidden = features @ w1
    hidden += b1[..., None, :]
    np.tanh(hidden, out=hidden)
    logits = hidden @ w2
    logits += b2[..., None, :]
    return hidden, logits


def forward_pass(params: ModelParams, features: np.ndarray) -> ForwardPass:
    """Hidden activations and log-softmax outputs for a (B, F) batch; the
    softmax rows (`probs`) are positive and sum to 1 within 1e-12 for finite
    parameters."""
    hidden, logits = _hidden_and_logits(
        params, _checked_features(params, features)
    )
    return ForwardPass(hidden=hidden, log_probs=_log_softmax(logits))


class _Loss(NamedTuple):
    """The mean loss of a checked batch and what its gradient reuses."""

    value: float | np.ndarray  # (G,) for a stack
    features: np.ndarray
    picked: tuple[np.ndarray, np.ndarray]  # each sample's (row, label) entry
    hidden: np.ndarray
    probs: np.ndarray  # (..., B, K), in the forward pass's own buffer
    residual: np.ndarray | None  # probs - knowledge[labels]; None if unused


def _loss(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    knowledge: np.ndarray,
    distill_weight: float,
    cache: ForwardPass | None,
) -> _Loss:
    """Check the batch and compute its mean loss (see loss_and_grad). The
    softmax outputs overwrite the log-softmax ones in place."""
    arch = params.arch
    features = _checked_features(params, features)
    labels = _checked_labels(params, features, labels)
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
        cache = forward_pass(params, features)
    elif (cache.hidden.shape, cache.log_probs.shape) != (
        (*labels.shape, arch.hidden_dim),
        (*labels.shape, arch.num_classes),
    ):
        raise ValueError("cache does not match the batch and the architecture")
    batch = labels.shape[-1]
    # Samples of every model as rows of one (G * B, K) view.
    probs = np.ascontiguousarray(cache.log_probs)
    picked = (np.arange(labels.size), labels.reshape(-1))
    log_likelihood = probs.reshape(-1, arch.num_classes)[picked]
    loss = -log_likelihood.reshape(labels.shape).mean(axis=-1)
    np.exp(probs, out=probs)
    residual = None
    if distill_weight > 0:
        residual = knowledge[labels]
        np.subtract(probs, residual, out=residual)  # (..., B, K)
        squares = np.square(residual).reshape(*labels.shape[:-1], -1)
        loss += distill_weight * (squares.sum(axis=-1) / batch)
    return _Loss(loss, features, picked, cache.hidden, probs, residual)


def loss_and_grad(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    knowledge: np.ndarray,
    distill_weight: float,
    *,
    cache: ForwardPass | None = None,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean per-sample loss and its exact gradient in the flat parameters.

    Per sample with label v and output p:
        cross_entropy(p, v) + distill_weight * ||p - knowledge[v]||_2^2,
    averaged over the batch. With distill_weight == 0 the regularizer path is
    skipped entirely, so the result is bit-identical to plain cross-entropy.

    Args:
        params: Model parameters, one model or a (G, P) stack.
        features: (B, F) sample features; (G, B, F) for a stack.
        labels: (B,) integer labels in [0, K); (G, B) for a stack.
        knowledge: (K, K) real matrix; row v is the shared soft-prediction
            target for class v. Ignored when distill_weight == 0 (may be None).
        distill_weight: Nonnegative regularizer weight.
        cache: This model's forward pass on these features, reused instead of
            being recomputed (the result is bit-identical either way). Its
            buffers hold the gradient's intermediates afterwards, so it is
            spent.

    Returns:
        (loss, gradient): a float and a flat gradient of the parameter
        dimension, or for a stack a (G,) array and a (G, P) array.
    """
    loss = _loss(params, features, labels, knowledge, distill_weight, cache)
    probs, hidden = loss.probs, loss.hidden
    batch = probs.shape[-2]
    w2 = _unpack(params.theta, params.arch)[2]

    if loss.residual is not None:
        # Jacobian of softmax applied to the residual:
        # (diag(p) - p p^T) r = p*r - p (p.r)
        weighted = np.multiply(probs, loss.residual, out=loss.residual)
        weighted -= probs * weighted.sum(axis=-1, keepdims=True)
        weighted *= 2.0 * distill_weight
    d_logits = probs  # the softmax outputs are not read again
    d_logits.reshape(-1, params.arch.num_classes)[loss.picked] -= 1.0
    if loss.residual is not None:
        d_logits += weighted

    d_logits /= batch
    grad_w2 = hidden.swapaxes(-1, -2) @ d_logits
    grad_b2 = d_logits.sum(axis=-2)
    d_hidden = d_logits @ w2.swapaxes(-1, -2)
    # 1 - hidden**2, in the hidden activations' buffer once grad_w2 has them.
    np.square(hidden, out=hidden)
    np.subtract(1.0, hidden, out=hidden)
    d_hidden *= hidden
    grad_w1 = loss.features.swapaxes(-1, -2) @ d_hidden
    grad_b1 = d_hidden.sum(axis=-2)
    lead = params.theta.shape[:-1]
    grad = np.concatenate(
        [
            grad_w1.reshape(*lead, -1),
            grad_b1,
            grad_w2.reshape(*lead, -1),
            grad_b2,
        ],
        axis=-1,
    )
    return loss.value, grad


def lr_schedule(t: int, config: LearnerConfig) -> float:
    """Diminishing step size eta_t = init_lr / sqrt(t + 1), clipped to lr_cap.

    The +1 shift makes the first round's step exactly init_lr while keeping
    the square-root decay.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(min(config.init_lr / np.sqrt(t + 1.0), config.lr_cap))


def local_update(theta: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    """One plain gradient step theta - eta * grad."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if theta.shape != grad.shape:
        raise ValueError("theta and grad must have the same shape")
    return theta - eta * grad


def train_round(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    knowledge: np.ndarray,
    config: LearnerConfig,
    round_index: int,
    rng: np.random.Generator | None = None,
    *,
    cache: ForwardPass | None = None,
) -> tuple[ModelParams, float | np.ndarray]:
    """One round of local training; returns updated params and the full-batch
    loss measured before the update ((G,) losses for a stack).

    With local_epochs == 1 this is a single full-batch step. With
    local_epochs E > 1 the samples are shuffled once (requires rng) and split
    into E near-equal minibatches, each consuming one step at this round's
    step size; the full-batch loss then needs no gradient. A stack draws one
    shuffle per model from rng, in stack order. `cache`, the forward pass of
    `params` on `features`, serves the full-batch loss (and, for a single
    step, its gradient) in place of a second forward pass; it is spent.
    """
    eta = lr_schedule(round_index, config)
    if config.local_epochs == 1:
        loss, grad = loss_and_grad(
            params, features, labels, knowledge, config.distill_weight, cache=cache
        )
        theta = local_update(params.theta, grad, eta)
        return ModelParams(theta=theta, arch=params.arch), loss

    loss = _loss(
        params, features, labels, knowledge, config.distill_weight, cache
    ).value
    if rng is None:
        raise ValueError("minibatch training (local_epochs > 1) requires rng")
    features = np.asarray(features)
    lead, batch = features.shape[:-2], features.shape[-2]
    # Every model's shuffle as rows into its samples in the (G * B, F) view.
    shuffles = [rng.permutation(batch) for _ in range(math.prod(lead))]
    order = np.reshape(shuffles, (*lead, batch))
    order += np.arange(order.size, step=batch).reshape(*lead, 1)
    samples = features.reshape(-1, features.shape[-1])
    sample_labels = np.asarray(labels).reshape(-1)
    theta = params.theta
    for chunk in np.array_split(order, config.local_epochs, axis=-1):
        if chunk.size == 0:
            continue
        _, grad = loss_and_grad(
            ModelParams(theta=theta, arch=params.arch),
            samples[chunk],
            sample_labels[chunk],
            knowledge,
            config.distill_weight,
        )
        theta = local_update(theta, grad, eta)
    return ModelParams(theta=theta, arch=params.arch), loss


def evaluate_accuracy(
    params: ModelParams, features: np.ndarray, labels: np.ndarray
) -> float:
    """Fraction of one model's samples whose argmax output matches the label.

    Softmax is monotone, so the prediction is the argmax of the logits.
    """
    features = _checked_features(params, features)
    labels = _checked_labels(params, features, labels)
    _, logits = _hidden_and_logits(params, features)
    return float(np.mean(np.argmax(logits, axis=-1) == labels))
