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
        entries = q.shape[2]
        means = q.sum(axis=2) / entries
        stds = np.sqrt(((q - means[:, :, None]) ** 2).sum(axis=2) / entries)
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


def _class_bins(
    labels: np.ndarray, sizes: np.ndarray, num_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """The knowledge bin of each output entry of every sample, and each
    (device, class) cell's sample count. The inputs are not checked: the
    caller (learner.Batch) has checked them.

    Args:
        labels: (S,) integer labels in [0, K) of every device's samples,
            device 0's first.
        sizes: (M,) nonnegative integer sample counts of the devices, in
            order, adding up to S.
        num_classes: K.

    Returns:
        (bins, counts): the (S K,) bins (i K + k) K + d of entry d of the
        output rows of device i's class-k samples, in the order of a
        flattened (S, K) array, and the (M, K) counts B_i^k.
    """
    labels, sizes = np.asarray(labels), np.asarray(sizes)
    cells = np.repeat(np.arange(sizes.size) * num_classes, sizes) + labels
    counts = np.bincount(cells, minlength=sizes.size * num_classes)
    bins = (cells[:, None] * num_classes + np.arange(num_classes)).reshape(-1)
    return bins, counts.reshape(sizes.size, num_classes)


def knowledge_vectors(
    outputs: np.ndarray, bins: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Average soft predictions per device and class.

    Args:
        outputs: (S, K) softmax outputs of every device's samples, device 0's
            first.
        bins, counts: a `Batch`'s bins and counts (learner.Batch), of the
            same samples.

    Returns:
        (M, K, K) array whose [i, k] row is device i's class-k knowledge
        vector, summed in sample order and divided by B_i^k (the same bits
        as the mean of those rows). Classes a device holds no samples of get
        the uniform vector (they are excluded from aggregation by their zero
        weight).
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    num_wds, num_classes = counts.shape
    if outputs.shape != (bins.size // num_classes, num_classes):
        raise ValueError("each sample's bins need one K-wide output row")
    # Bin (i K + k) K + d holds entry d of device i's class-k samples, and
    # bincount adds each bin's entries in sample order, starting from 0.0:
    # the order of a per-entry sum. The S K bins are built once per batch
    # (_class_bins), so one bincount does the work of K.
    counts = counts.reshape(-1)
    sums = np.bincount(
        bins, weights=outputs.reshape(-1), minlength=counts.size * num_classes
    ).reshape(counts.size, num_classes)
    result = np.full((counts.size, num_classes), 1.0 / num_classes)
    np.divide(sums, counts[:, None], out=result, where=counts[:, None] > 0)
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
