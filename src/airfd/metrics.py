"""Per-round error functionals and reporting: the misalignment and noise-error
measures of the aggregation, the beamformer-selection objectives, and the
fixed CSV row format every experiment emits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelState
from .knowledge import DatasetPartition, KnowledgeSet, transmit_active_mask
from .learner import LearnerConfig
from .transceiver import TransceiverPlan, optimal_postprocessing

__all__ = [
    "CSV_COLUMNS",
    "BoundConfig",
    "RoundMetrics",
    "a2_coefficient",
    "misalignment_vectors",
    "phi1",
    "phi2_sq_all",
    "phi2_sq_monte_carlo",
    "p2_objective",
    "csv_header",
]


@dataclass(frozen=True)
class BoundConfig:
    """Constants of the convergence bound that weight the reported p2
    objective; reporting-only inputs, never consumed by the transceiver
    design.

    Attributes:
        l1: Smoothness constant of the per-device loss gradients.
        l2: Lipschitz constant of the model's soft-prediction mapping.
    """

    l1: float = 1.0
    l2: float = 1.0

    def __post_init__(self) -> None:
        for name in ("l1", "l2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def a2_coefficient(bound: BoundConfig, config: LearnerConfig) -> float:
    """Weight of the squared-error terms: 6 eta0 gamma^2 L2^2 L1."""
    return (
        6.0
        * config.init_lr
        * config.distill_weight**2
        * bound.l2**2
        * bound.l1
    )


def misalignment_vectors(
    plan: TransceiverPlan,
    channel: ChannelState,
    knowledge: KnowledgeSet,
    partition: DatasetPartition,
) -> np.ndarray:
    """Per-class misalignment of the noiseless aggregation, shape (K, K).

    Row k is the difference between the denormalized signal component the
    estimator recovers and the ideal weighted knowledge:

        sum_j (g_j^k - B_j^k/B^k) q_j^k + sum_j (a_j^k - g_j^k) q_bar_j^k 1,

    with effective gains g_j^k = w^H h_j P_j^k / (lambda^k q_hat_j^k) for
    transmitting devices and 0 for silent ones. Evaluated on the channel given
    here — pass the true channel to measure what the aggregation actually
    commits, regardless of which estimate the plan was optimized on.
    """
    if knowledge.num_wds != partition.num_wds:
        raise ValueError("knowledge and partition disagree on the device count")
    if channel.num_wds != partition.num_wds:
        raise ValueError("channel and partition disagree on the device count")
    combined = channel.coefficients @ np.conj(plan.receive.beamformer)  # (M,)
    active = transmit_active_mask(partition, knowledge.stds)
    denom = np.where(
        active, plan.receive.denormalizers[None, :] * knowledge.stds, 1.0
    )
    gains = np.where(
        active,
        combined[:, None] * plan.transmit.equalizers / denom,
        0.0 + 0.0j,
    )  # (M, K)
    weights = partition.class_weights()  # (M, K)
    signal_term = np.einsum("jk,jkd->kd", gains - weights, knowledge.q)
    offset_coef = np.sum(
        (plan.receive.offsets - gains) * knowledge.means, axis=0
    )  # (K,)
    return signal_term + offset_coef[:, None]


def phi1(
    plan: TransceiverPlan,
    channel: ChannelState,
    knowledge: KnowledgeSet,
    partition: DatasetPartition,
) -> np.ndarray:
    """Per-device misalignment error, shape (M,): the per-class misalignment
    norms weighted by each device's class mix B_i^k / B_i."""
    vectors = misalignment_vectors(plan, channel, knowledge, partition)
    norms = np.linalg.norm(vectors, axis=1)  # (K,)
    mix = partition.counts / partition.per_wd_totals[:, None]  # (M, K)
    return mix @ norms


def phi2_sq_all(
    denormalizers: np.ndarray,
    partition: DatasetPartition,
    noise_variance: float,
) -> np.ndarray:
    """Expected squared noise error of every device's aggregation view,
    shape (M,):

        sum_k (B_i^k / B_i) K sigma_n^2 / (lambda^k)^2,

    the expectation of the denormalized combined-noise norm under a unit-norm
    beamformer (each of the K slots of a class block contributes sigma_n^2).
    """
    lams = np.asarray(denormalizers, dtype=np.float64)
    mix = partition.counts / partition.per_wd_totals[:, None]
    return (mix * partition.num_classes * noise_variance / lams[None, :] ** 2).sum(
        axis=1
    )


def phi2_sq_monte_carlo(
    beamformer: np.ndarray,
    denormalizers: np.ndarray,
    counts_row: np.ndarray,
    noise_variance: float,
    rng: np.random.Generator,
    draws: int = 100_000,
    chunk: int = 1000,
) -> float:
    """Monte-Carlo estimate of the squared noise error: simulates receiver
    noise through the combining vector and the denormalizers.

    Draw noise with fresh sub-streams, never the streams driving a learning
    run, so the estimate stays independent of the simulation it checks.
    """
    w = np.asarray(beamformer, dtype=np.complex128)
    lams = np.asarray(denormalizers, dtype=np.float64)
    counts_row = np.asarray(counts_row, dtype=np.float64)
    k = lams.shape[0]
    n = w.shape[0]
    if draws < 1:
        raise ValueError("draws must be >= 1")
    mix = counts_row / counts_row.sum()
    total = 0.0
    done = 0
    scale = np.sqrt(noise_variance * 0.5)
    while done < draws:
        batch = min(chunk, draws - done)
        parts = rng.standard_normal((batch, k, k, n, 2)) * scale
        noise = parts[..., 0] + 1j * parts[..., 1]
        combined = noise @ np.conj(w)  # (batch, K, K)
        block_norms_sq = np.sum(
            combined.real**2 + combined.imag**2, axis=2
        )  # (batch, K)
        total += float(np.sum(block_norms_sq @ (mix / lams**2)))
        done += batch
    return total / draws


def p2_objective(
    beamformer: np.ndarray,
    channel: ChannelState,
    knowledge_stds: np.ndarray,
    partition: DatasetPartition,
    peak_powers: np.ndarray,
    noise_variance: float,
    a2: float,
    rounds: int,
) -> float:
    """Noise-penalty objective of a beamformer completed by the closed-form
    scalars:

        (A2 K sigma_n^2 / sqrt(T)) * sum_i sum_k (B_i^k / B_i) / lambda^k(w),

    where lambda^k(w) is the bottleneck minimum the beamformer supports. Used
    to compare combining vectors across plans and antenna counts.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    post = optimal_postprocessing(
        beamformer, channel, knowledge_stds, partition, peak_powers
    )
    mix = partition.counts / partition.per_wd_totals[:, None]  # (M, K)
    k = partition.num_classes
    return float(
        a2
        * k
        * noise_variance
        / np.sqrt(rounds)
        * np.sum(mix / post.denormalizers[None, :])
    )


CSV_COLUMNS = (
    "trial",
    "round",
    "method",
    "N",
    "M",
    "K",
    "zeta",
    "phi1_max",
    "phi1_mean",
    "phi2_sq_mean",
    "p2_obj",
    "p4_obj",
    "eig1",
    "eig2",
    "train_loss_mean",
    "test_acc_mean",
    "wall_ms",
)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


@dataclass(frozen=True)
class RoundMetrics:
    """Everything one (trial, round, method) row reports.

    The wall_ms column is pinned at 0.0 in emitted rows so outputs stay
    byte-reproducible; measured timing is reported in the run summary instead.
    """

    trial: int
    round_index: int
    method: str
    num_antennas: int
    num_wds: int
    num_classes: int
    zeta: float
    phi1_max: float
    phi1_mean: float
    phi2_sq_mean: float
    p2_objective: float
    p4_objective: float
    eig1: float
    eig2: float
    train_loss_mean: float
    test_acc_mean: float
    wall_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.phi1_max < 0 or self.phi1_mean < 0 or self.phi2_sq_mean < 0:
            raise ValueError("error measures must be nonnegative")
        if self.eig1 < self.eig2 - 1e-12:
            raise ValueError("eig1 must be the larger eigenvalue")

    def to_csv_row(self) -> str:
        """One comma-separated line in the fixed column order; floats are
        rendered with repr so rows round-trip exactly."""
        values = (
            str(int(self.trial)),
            str(int(self.round_index)),
            self.method,
            str(int(self.num_antennas)),
            str(int(self.num_wds)),
            str(int(self.num_classes)),
            repr(float(self.zeta)),
            repr(float(self.phi1_max)),
            repr(float(self.phi1_mean)),
            repr(float(self.phi2_sq_mean)),
            repr(float(self.p2_objective)),
            repr(float(self.p4_objective)),
            repr(float(self.eig1)),
            repr(float(self.eig2)),
            repr(float(self.train_loss_mean)),
            repr(float(self.test_acc_mean)),
            repr(float(self.wall_ms)),
        )
        return ",".join(values)
