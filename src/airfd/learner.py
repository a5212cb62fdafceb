"""Desk-scale classifier and its training rule: a one-hidden-layer softmax
network trained per device on a cross-entropy loss plus a distillation
regularizer that pulls each sample's output toward the shared per-class
knowledge vector, under a diminishing step-size schedule.
"""

from __future__ import annotations

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
    """A flat real parameter vector together with its layer sizes."""

    theta: np.ndarray
    arch: Architecture

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.ndim != 1:
            raise ValueError("theta must be a flat vector")
        if theta.shape[0] != self.arch.param_count:
            raise ValueError(
                f"theta has {theta.shape[0]} entries; architecture needs "
                f"{self.arch.param_count}"
            )
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta entries must be finite")
        theta = theta.copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


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
    """Split the flat vector into (W1, b1, W2, b2)."""
    f, h, k = arch.feature_dim, arch.hidden_dim, arch.num_classes
    pos = 0
    w1 = theta[pos : pos + f * h].reshape(f, h)
    pos += f * h
    b1 = theta[pos : pos + h]
    pos += h
    w2 = theta[pos : pos + h * k].reshape(h, k)
    pos += h * k
    b2 = theta[pos : pos + k]
    return w1, b1, w2, b2


def init_params(arch: Architecture, rng: np.random.Generator) -> ModelParams:
    """Gaussian initialization scaled by 1/sqrt(fan-in); biases start at 0."""
    f, h, k = arch.feature_dim, arch.hidden_dim, arch.num_classes
    w1 = rng.standard_normal((f, h)) / np.sqrt(f)
    w2 = rng.standard_normal((h, k)) / np.sqrt(h)
    theta = np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(k)])
    return ModelParams(theta=theta, arch=arch)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class ForwardPass(NamedTuple):
    """One model's outputs on a (B, F) batch, kept so that the same forward
    pass can serve knowledge extraction and the training loss.

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


def _hidden_and_logits(
    params: ModelParams, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations (B, H) and logits (B, K) for a (B, F) batch."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.arch.feature_dim:
        raise ValueError(
            f"features must be (B, {params.arch.feature_dim}), got {features.shape}"
        )
    w1, b1, w2, b2 = _unpack(params.theta, params.arch)
    hidden = np.tanh(features @ w1 + b1)
    return hidden, hidden @ w2 + b2


def forward_pass(params: ModelParams, features: np.ndarray) -> ForwardPass:
    """Hidden activations and log-softmax outputs for a (B, F) batch; the
    softmax rows (`probs`) are positive and sum to 1 within 1e-12 for finite
    parameters."""
    hidden, logits = _hidden_and_logits(params, features)
    return ForwardPass(hidden=hidden, log_probs=_log_softmax(logits))


class _Loss(NamedTuple):
    """The mean loss of a checked batch and what its gradient reuses."""

    value: float
    features: np.ndarray
    labels: np.ndarray
    hidden: np.ndarray
    probs: np.ndarray
    residual: np.ndarray | None  # probs - knowledge[labels]; None if unused


def _loss(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    knowledge: np.ndarray,
    distill_weight: float,
    cache: ForwardPass | None,
) -> _Loss:
    """Check the batch and compute its mean loss (see loss_and_grad)."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    arch = params.arch
    if features.ndim != 2 or features.shape[1] != arch.feature_dim:
        raise ValueError(f"features must be (B, {arch.feature_dim})")
    batch = features.shape[0]
    if labels.shape != (batch,):
        raise ValueError("labels must be (B,)")
    if np.any(labels < 0) or np.any(labels >= arch.num_classes):
        raise ValueError("labels must lie in [0, K)")
    if distill_weight < 0:
        raise ValueError("distill_weight must be nonnegative")
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
        (batch, arch.hidden_dim),
        (batch, arch.num_classes),
    ):
        raise ValueError("cache does not match the batch and the architecture")
    probs = cache.probs

    loss = float(-cache.log_probs[np.arange(batch), labels].mean())
    residual = None
    if distill_weight > 0:
        residual = probs - knowledge[labels]  # (B, K)
        loss += distill_weight * float(np.sum(residual**2) / batch)
    return _Loss(loss, features, labels, cache.hidden, probs, residual)


def loss_and_grad(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    knowledge: np.ndarray,
    distill_weight: float,
    *,
    cache: ForwardPass | None = None,
) -> tuple[float, np.ndarray]:
    """Mean per-sample loss and its exact gradient in the flat parameters.

    Per sample with label v and output p:
        cross_entropy(p, v) + distill_weight * ||p - knowledge[v]||_2^2,
    averaged over the batch. With distill_weight == 0 the regularizer path is
    skipped entirely, so the result is bit-identical to plain cross-entropy.

    Args:
        params: Model parameters.
        features: (B, F) sample features.
        labels: (B,) integer labels in [0, K).
        knowledge: (K, K) real matrix; row v is the shared soft-prediction
            target for class v. Ignored when distill_weight == 0 (may be None).
        distill_weight: Nonnegative regularizer weight.
        cache: This model's forward pass on these features, reused instead of
            being recomputed (the result is bit-identical either way).

    Returns:
        (loss, gradient) with gradient flat of the parameter dimension.
    """
    loss = _loss(params, features, labels, knowledge, distill_weight, cache)
    probs, hidden = loss.probs, loss.hidden
    batch = probs.shape[0]
    w2 = _unpack(params.theta, params.arch)[2]

    d_logits = probs.copy()
    d_logits[np.arange(batch), loss.labels] -= 1.0
    if loss.residual is not None:
        # Jacobian of softmax applied to the residual:
        # (diag(p) - p p^T) r = p*r - p (p.r)
        weighted = probs * loss.residual
        d_logits += 2.0 * distill_weight * (
            weighted - probs * weighted.sum(axis=1, keepdims=True)
        )

    d_logits /= batch
    grad_w2 = hidden.T @ d_logits
    grad_b2 = d_logits.sum(axis=0)
    d_hidden = (d_logits @ w2.T) * (1.0 - hidden**2)
    grad_w1 = loss.features.T @ d_hidden
    grad_b1 = d_hidden.sum(axis=0)
    grad = np.concatenate(
        [grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2]
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
) -> tuple[ModelParams, float]:
    """One round of local training; returns updated params and the full-batch
    loss measured before the update.

    With local_epochs == 1 this is a single full-batch step. With
    local_epochs E > 1 the samples are shuffled once (requires rng) and split
    into E near-equal minibatches, each consuming one step at this round's
    step size; the full-batch loss then needs no gradient. `cache`, the
    forward pass of `params` on `features`, serves the full-batch loss (and,
    for a single step, its gradient) in place of a second forward pass.
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
    order = rng.permutation(features.shape[0])
    theta = params.theta
    for chunk in np.array_split(order, config.local_epochs):
        if chunk.size == 0:
            continue
        _, grad = loss_and_grad(
            ModelParams(theta=theta, arch=params.arch),
            features[chunk],
            np.asarray(labels)[chunk],
            knowledge,
            config.distill_weight,
        )
        theta = local_update(theta, grad, eta)
    return ModelParams(theta=theta, arch=params.arch), loss


def evaluate_accuracy(
    params: ModelParams, features: np.ndarray, labels: np.ndarray
) -> float:
    """Fraction of samples whose argmax output matches the label.

    Softmax is monotone, so the prediction is the argmax of the logits.
    """
    _, logits = _hidden_and_logits(params, features)
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions == np.asarray(labels)))
