"""Per-device soft-prediction knowledge: the devices' sample counts, per-class
averages, their normalization statistics and normalized transmit blocks, and
the ideal error-free global target. The transmit equalizers that scale the
blocks are part of the uplink plan (see transceiver).

Every "knowledge vector" is a length-K probability vector: the average of
softmax outputs over one device's samples of one class. Before transmission it
is normalized to zero mean and unit population second moment so that a complex
equalizer scaling sets the per-block transmit power exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Q_HAT_FLOOR",
    "DatasetPartition",
    "KnowledgeSet",
    "transmit_active_mask",
    "knowledge_vectors",
    "global_target",
]

# Below this population std a knowledge vector is treated as degenerate
# (numerically constant): its normalized signal is exactly zero and its content
# is fully carried by the mean offset, so the pipeline skips the block instead
# of dividing by ~0. The floor value itself is valid.
Q_HAT_FLOOR = 1e-8


@dataclass(frozen=True)
class DatasetPartition:
    """Sample counts of M devices over K classes.

    Attributes:
        counts: (M, K) nonnegative ints; counts[i, k] = B_i^k.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 2:
            raise ValueError(f"counts must be (M, K), got shape {counts.shape}")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValueError("counts must be integers")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        counts = counts.astype(np.int64).copy()
        if np.any(counts.sum(axis=0) <= 0):
            raise ValueError("every class must have at least one sample overall")
        if np.any(counts.sum(axis=1) <= 0):
            raise ValueError("every device must hold at least one sample")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def num_wds(self) -> int:
        return self.counts.shape[0]

    @property
    def num_classes(self) -> int:
        return self.counts.shape[1]

    @property
    def class_totals(self) -> np.ndarray:
        """B^k = sum_i B_i^k, shape (K,)."""
        return self.counts.sum(axis=0)

    @property
    def per_wd_totals(self) -> np.ndarray:
        """B_i = sum_k B_i^k, shape (M,)."""
        return self.counts.sum(axis=1)

    @property
    def active_mask(self) -> np.ndarray:
        """(M, K) bool: device i participates in class k iff B_i^k > 0."""
        return self.counts > 0

    def class_weights(self) -> np.ndarray:
        """(M, K) aggregation weights B_i^k / B^k (rows of zero where inactive)."""
        return self.counts / self.class_totals[None, :]

    def class_mix(self) -> np.ndarray:
        """(M, K) class mix B_i^k / B_i of each device (rows sum to one)."""
        return self.counts / self.per_wd_totals[:, None]


@dataclass(frozen=True)
class KnowledgeSet:
    """All devices' per-class knowledge with its normalization statistics.

    Attributes:
        q: (M, K, K) array; q[i, k] is device i's class-k knowledge vector.
        means: (M, K) per-vector means q_bar = (1/K) sum_d q[d], derived
            from q.
        stds: (M, K) per-vector population stds
            q_hat = sqrt((1/K) sum_d (q[d] - q_bar)**2), derived from q.
    """

    q: np.ndarray
    means: np.ndarray = field(init=False)
    stds: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        # A copy, so that freezing it leaves the caller's array writeable.
        q = np.array(self.q, dtype=np.float64)
        if q.ndim != 3 or q.shape[1] != q.shape[2]:
            raise ValueError(f"q must be (M, K, K), got shape {q.shape}")
        # Written so that a NaN entry fails the test.
        if not (
            np.all(q >= -1e-12) and np.all(np.abs(q.sum(axis=2) - 1.0) <= 1e-10)
        ):
            raise ValueError("each knowledge vector must be a probability vector")
        means = q.mean(axis=2)
        stds = np.sqrt(np.mean((q - means[:, :, None]) ** 2, axis=2))
        for arr in (q, means, stds):
            arr.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)

    @property
    def num_wds(self) -> int:
        return self.q.shape[0]

    @property
    def num_classes(self) -> int:
        return self.q.shape[1]

    def normalized_blocks(self, partition: DatasetPartition) -> np.ndarray:
        """(M, K, K) normalized blocks x_i^k = (q_i^k - q_bar_i^k) / q_hat_i^k,
        zero mean and unit second moment, and exactly zero where device i
        sends no class-k block (see transmit_active_mask)."""
        mask = transmit_active_mask(partition, self.stds)
        blocks = np.zeros_like(self.q)
        np.divide(
            self.q - self.means[:, :, None],
            self.stds[:, :, None],
            out=blocks,
            where=mask[:, :, None],
        )
        return blocks


def transmit_active_mask(
    partition: DatasetPartition, knowledge_stds: np.ndarray
) -> np.ndarray:
    """(M, K) bool: device i transmits a class-k block iff it holds class-k
    samples AND its knowledge vector is non-degenerate.

    A degenerate vector (std below the usable floor) equals its own mean to
    within the floor, so its entire content is carried by the mean-offset term
    and its normalized signal is omitted; the device still contributes its
    mean weight a_i^k.
    """
    stds = np.asarray(knowledge_stds, dtype=np.float64)
    if stds.shape != partition.counts.shape:
        raise ValueError("knowledge_stds must have the partition's (M, K) shape")
    return partition.active_mask & (stds >= Q_HAT_FLOOR)


def knowledge_vectors(
    outputs_by_wd: list[np.ndarray], labels_by_wd: list[np.ndarray]
) -> np.ndarray:
    """Average soft predictions per device and class.

    Args:
        outputs_by_wd: Length-M list; entry i is the (B_i, K) softmax outputs
            of device i's samples.
        labels_by_wd: Length-M list; entry i is the B_i labels, in [0, K), of
            the same samples in the same order.

    Returns:
        (M, K, K) array whose [i, k] row is device i's class-k knowledge
        vector, summed in sample order and divided by B_i^k (the same bits
        as the mean of those rows). Classes a device holds no samples of get
        the uniform vector (they are excluded from aggregation by their zero
        weight).
    """
    outputs = [np.asarray(out, dtype=np.float64) for out in outputs_by_wd]
    num_wds, num_classes = len(outputs), outputs[0].shape[-1]
    if len(labels_by_wd) != num_wds or any(
        out.shape != (len(lab), num_classes)
        for out, lab in zip(outputs, labels_by_wd)
    ):
        raise ValueError("each device needs one K-wide output row per label")
    labels = np.concatenate(labels_by_wd)
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ValueError("labels must lie in [0, K)")
    # Cell i * K + k holds device i's class-k samples; bincount adds each
    # cell's entries in sample order, starting from 0.0. There is one
    # bincount per output entry: a single one over (cell, entry) bins would
    # need a B*K index array, which made it slower.
    owner = np.repeat(np.arange(num_wds), [len(lab) for lab in labels_by_wd])
    cells = owner * num_classes + labels
    counts = np.bincount(cells, minlength=num_wds * num_classes)
    sums = np.stack(
        [
            np.bincount(cells, weights=entry, minlength=counts.size)
            for entry in np.concatenate(outputs).T
        ],
        axis=1,
    )
    result = np.full((counts.size, num_classes), 1.0 / num_classes)
    held = counts > 0
    result[held] = sums[held] / counts[held][:, None]
    return result.reshape(num_wds, num_classes, num_classes)


def global_target(knowledge: KnowledgeSet, partition: DatasetPartition) -> np.ndarray:
    """Ideal aggregation target: q^k = sum_i (B_i^k / B^k) q_i^k.

    Returns:
        (K, K) array whose row k is the global class-k soft-prediction vector —
        a convex combination of the devices' knowledge, hence a probability
        vector. Invariant under permuting device order.
    """
    if knowledge.num_wds != partition.num_wds:
        raise ValueError("knowledge and partition disagree on the device count")
    if knowledge.num_classes != partition.num_classes:
        raise ValueError("knowledge and partition disagree on the class count")
    weights = partition.class_weights()  # (M, K)
    # target[k, d] = sum_i weights[i, k] * q[i, k, d]
    return np.einsum("ik,ikd->kd", weights, knowledge.q)
