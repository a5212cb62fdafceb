"""Per-round error functionals and reporting: the misalignment and noise-error
measures of the aggregation, the beamformer-selection objectives, and the
CSV row format every experiment emits: one column per RoundMetrics field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .channel import ChannelState
from .knowledge import DatasetPartition, KnowledgeSet, transmit_active_mask
from .learner import LearnerConfig
from .transceiver import TransceiverPlan, optimal_postprocessing

__all__ = [
    "CSV_COLUMNS",
    "RoundMetrics",
    "a2_coefficient",
    "misalignment_vectors",
    "phi1",
    "phi2_sq_all",
    "phi2_sq_monte_carlo",
    "p2_objective",
    "csv_header",
]

_NOISE_DRAWS_PER_BATCH = 1000  # per pass of phi2_sq_monte_carlo; bounds memory


def a2_coefficient(config: LearnerConfig) -> float:
    """Weight of the squared-error terms: 6 eta0 gamma^2."""
    return 6.0 * config.init_lr * config.distill_weight**2


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
    transmitting devices and 0 for silent ones, and the estimator's
    mean-offset weights a_j^k = B_j^k / B^k. Evaluated on the channel given
    here — pass the true channel to measure what the aggregation actually
    commits, regardless of which estimate the plan was optimized on.
    """
    if knowledge.num_wds != partition.num_wds:
        raise ValueError("knowledge and partition disagree on the device count")
    if channel.num_wds != partition.num_wds:
        raise ValueError("channel and partition disagree on the device count")
    combined = channel.coefficients @ np.conj(plan.beamformer)  # (M,)
    active = transmit_active_mask(partition, knowledge.stds)
    denom = np.where(active, plan.denormalizers[None, :] * knowledge.stds, 1.0)
    gains = np.where(
        active,
        combined[:, None] * plan.transmit.equalizers / denom,
        0.0 + 0.0j,
    )  # (M, K)
    weights = partition.class_weights()  # (M, K)
    signal_term = np.einsum("jk,jkd->kd", gains - weights, knowledge.q)
    offset_coef = np.sum((weights - gains) * knowledge.means, axis=0)  # (K,)
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
    return partition.class_mix() @ norms


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
    k = partition.num_classes
    if lams.shape != (k,) or not np.all(np.isfinite(lams) & (lams > 0)):
        raise ValueError(f"denormalizers must be ({k},) finite positive scalars")
    mix = partition.class_mix()
    return (mix * k * noise_variance / lams[None, :] ** 2).sum(axis=1)


def phi2_sq_monte_carlo(
    beamformer: np.ndarray,
    denormalizers: np.ndarray,
    counts_row: np.ndarray,
    noise_variance: float,
    rng: np.random.Generator,
    draws: int = 100_000,
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
        batch = min(_NOISE_DRAWS_PER_BATCH, draws - done)
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
    mix = partition.class_mix()
    k = partition.num_classes
    return float(
        a2
        * k
        * noise_variance
        / np.sqrt(rounds)
        * np.sum(mix / post.denormalizers[None, :])
    )


@dataclass(frozen=True)
class RoundMetrics:
    """Everything one (trial, round, method) row reports.

    The wall_ms column is pinned at 0.0 in emitted rows so outputs stay
    byte-reproducible; measured timing is reported in the run summary instead.
    """

    trial: int
    round: int
    method: str
    N: int
    M: int
    K: int
    zeta: float
    phi1_max: float
    phi1_mean: float
    phi2_sq_mean: float
    p2_obj: float
    p4_obj: float
    eig1: float
    eig2: float
    train_loss_mean: float
    test_acc_mean: float
    wall_ms: float = 0.0

    def __post_init__(self) -> None:
        # Each test is written so that a NaN fails it.
        if not all(v >= 0 for v in (self.phi1_max, self.phi1_mean, self.phi2_sq_mean)):
            raise ValueError("error measures must be nonnegative")
        if not 0.0 <= self.p2_obj < np.inf:
            raise ValueError("p2_obj must be finite and nonnegative")
        if not np.isfinite(self.p4_obj):
            raise ValueError("p4_obj must be finite")
        if not 0.0 <= self.train_loss_mean < np.inf:
            raise ValueError("train_loss_mean must be finite and nonnegative")
        if not 0.0 <= self.test_acc_mean <= 1.0:
            raise ValueError("test_acc_mean must lie in [0, 1]")
        if not np.isfinite(self.eig2):
            raise ValueError("eig2 must be finite")
        if not self.eig1 >= self.eig2 - 1e-12:
            raise ValueError("eig1 must be the larger eigenvalue")

    def to_csv_row(self) -> str:
        """One comma-separated line, a column per field; float fields are
        rendered with repr so rows round-trip exactly, the others with str."""
        return ",".join(
            repr(float(getattr(self, f.name))) if f.type == "float"
            else str(getattr(self, f.name))
            for f in fields(self)
        )


CSV_COLUMNS = tuple(f.name for f in fields(RoundMetrics))


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)
