"""Analog multiple-access aggregation: one superposed uplink round. Devices
send their equalized, normalized knowledge blocks at once over the fading
uplink; the server combines antennas with a unit-norm beamformer and
denormalizes the combined signal into an estimate of the global knowledge.
The plan it runs under (equalizers, beamformer, denormalizers) is made by
transceiver.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelState
from .knowledge import DatasetPartition, KnowledgeSet

__all__ = [
    "superpose_and_combine",
    "aggregate_over_air",
]


def superpose_and_combine(
    signals: np.ndarray,
    channel: ChannelState,
    beamformer: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """Receive the superposed transmissions and combine across antennas.

    For each time slot d: y_hat[d] = sum_i w^H h_i * signals[i, d] + w^H n[d].

    Args:
        signals: (M, K**2) complex; row i is device i's transmit signal.
        channel: Block-fading state with (M, N) coefficients.
        beamformer: Length-N unit-norm combining vector w.
        noise: (K**2, N) complex receiver noise, one vector per time slot.

    Returns:
        Length-K**2 complex combined signal y_hat.
    """
    signals = np.asarray(signals, dtype=np.complex128)
    w = np.asarray(beamformer, dtype=np.complex128)
    noise = np.asarray(noise, dtype=np.complex128)
    coef = channel.coefficients
    if signals.ndim != 2 or signals.shape[0] != coef.shape[0]:
        raise ValueError("signals must be (M, D) matching the channel's M")
    if w.shape != (coef.shape[1],):
        raise ValueError("beamformer length must match the antenna count")
    if abs(np.linalg.norm(w) - 1.0) > 1e-10:
        raise ValueError("beamformer must have unit 2-norm")
    if noise.shape != (signals.shape[1], coef.shape[1]):
        raise ValueError("noise must be (D, N): one length-N vector per slot")
    effective_gains = coef @ np.conj(w)  # w^H h_i for every device
    return signals.T @ effective_gains + noise @ np.conj(w)


def aggregate_over_air(
    knowledge: KnowledgeSet,
    partition: DatasetPartition,
    plan,
    channel: ChannelState,
    noise: np.ndarray,
) -> np.ndarray:
    """One superposed uplink round under a transceiver plan.

    Device i sends P_i^k x_i^k for every class k, its normalized blocks
    scaled by its equalizers, all devices in the same K**2 channel uses; the
    server combines antennas (superpose_and_combine) and estimates

        r_hat^k = y_hat^k / lambda^k + sum_i a_i^k q_bar_i^k 1,

    whose mean-offset weights are the aggregation weights a_i^k = B_i^k / B^k.
    Blocks below the usable-variance floor stay silent and contribute through
    their mean offsets alone.

    Args:
        knowledge: All devices' knowledge vectors and statistics.
        partition: Sample counts (which blocks are sent, and the offset
            weights).
        plan: Transceiver plan supplying the (M, K) transmit equalizers
            (`plan.transmit.equalizers`), the beamformer and the
            denormalizers.
        channel: The channel the transmissions go through.
        noise: (K**2, N) complex receiver noise, one vector per channel use.

    Returns:
        (K, K) complex array; row k estimates the global class-k knowledge.
        The signal component is real; the imaginary part is noise.
    """
    m, k = partition.counts.shape
    equalizers = plan.transmit.equalizers
    if equalizers.shape != (m, k):
        raise ValueError("plan and partition disagree on (M, K)")
    signals = equalizers[:, :, None] * knowledge.normalized_blocks(partition)
    combined = superpose_and_combine(
        signals.reshape(m, k * k), channel, plan.beamformer, noise
    )
    offset_per_class = np.sum(
        partition.class_weights() * knowledge.means, axis=0
    )  # (K,)
    return (
        combined.reshape(k, k) / plan.denormalizers[:, None]
        + offset_per_class[:, None]
    )
