"""Per-round error functionals and reporting: the misalignment error phi1 (the
class-mix-weighted error of the noiseless superposed estimate on the true
channel, read off the uplink itself), the noise error, the
beamformer-selection objectives, and the CSV row format every experiment
emits: one column per RoundMetrics field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .airagg import aggregate_over_air
from .channel import ChannelState
from .knowledge import DatasetPartition, KnowledgeSet, global_target
from .learner import LearnerConfig
from .transceiver import TransceiverPlan, optimal_postprocessing

__all__ = [
    "RoundMetrics",
    "a2_coefficient",
    "phi1",
    "phi2_sq_all",
    "p2_objective",
    "csv_header",
]


def a2_coefficient(config: LearnerConfig) -> float:
    """Weight of the squared-error terms: 6 eta0 gamma^2."""
    return 6.0 * config.init_lr * config.distill_weight**2


def phi1(
    plan: TransceiverPlan,
    channel: ChannelState,
    knowledge: KnowledgeSet,
    partition: DatasetPartition,
) -> np.ndarray:
    """Per-device misalignment error, shape (M,): the error of the noiseless
    superposed estimate (aggregate_over_air with zero noise) against the
    global target, one norm per class, weighted by each device's class mix
    B_i^k / B_i. Pass the true channel to measure what the aggregation
    actually commits, whichever estimate the plan was optimized on."""
    k = partition.num_classes
    noise = np.zeros((k * k, channel.num_antennas), dtype=np.complex128)
    error = aggregate_over_air(
        knowledge, partition, plan, channel, noise
    ) - global_target(knowledge, partition)
    return partition.class_mix() @ np.linalg.norm(error, axis=1)


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


def csv_header() -> str:
    return ",".join(f.name for f in fields(RoundMetrics))
