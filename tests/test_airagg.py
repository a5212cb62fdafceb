"""Analog superposition, receive combining, and the linear estimator."""

import numpy as np
import pytest

from airfd.airagg import aggregate_over_air, superpose_and_combine
from airfd.channel import ChannelState
from airfd.knowledge import DatasetPartition, KnowledgeSet
from airfd.rng import substream
from airfd.transceiver import PlanDiagnostics, TransceiverPlan, TransmitPlan


def random_unit_vector(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def make_plan(equalizers, beamformer, denormalizers):
    """A hand-made transceiver plan (peak powers just cover the equalizers)."""
    equalizers = np.asarray(equalizers, dtype=complex)
    m, k = equalizers.shape
    return TransceiverPlan(
        transmit=TransmitPlan(
            equalizers=equalizers,
            peak_powers=np.maximum(np.max(np.abs(equalizers), axis=1) ** 2, 1.0),
        ),
        beamformer=beamformer,
        denormalizers=denormalizers,
        diagnostics=PlanDiagnostics(1.0, 0.0, 0.0, 0),
    )


class TestSuperposeAndCombine:
    def test_all_zero_inputs_give_zero_output(self):
        channel = ChannelState(coefficients=np.ones((2, 3), dtype=complex))
        w = np.array([1.0, 0.0, 0.0], dtype=complex)
        out = superpose_and_combine(
            np.zeros((2, 4), dtype=complex), channel, w, np.zeros((4, 3), dtype=complex)
        )
        assert np.all(out == 0)

    def test_identity_channel_passes_signal_through(self):
        channel = ChannelState(coefficients=np.ones((1, 1), dtype=complex))
        w = np.array([1.0], dtype=complex)
        signal = np.array([[1.0 + 2.0j, -0.5, 0.25j, 3.0]])
        out = superpose_and_combine(signal, channel, w, np.zeros((4, 1), dtype=complex))
        assert np.allclose(out, signal[0], atol=1e-15)

    def test_matches_naive_triple_loop_oracle(self):
        rng = substream(21, "agg-oracle")
        m, n, d = 3, 2, 8
        channel = ChannelState(coefficients=random_complex(rng, (m, n)))
        w = random_unit_vector(rng, n)
        signals = random_complex(rng, (m, d))
        noise = random_complex(rng, (d, n))
        out = superpose_and_combine(signals, channel, w, noise)
        # Independent evaluation with explicit loops over slots, devices, antennas.
        expected = np.zeros(d, dtype=complex)
        for slot in range(d):
            acc = 0.0 + 0.0j
            for i in range(m):
                gain = 0.0 + 0.0j
                for a in range(n):
                    gain += np.conj(w[a]) * channel.coefficients[i, a]
                acc += gain * signals[i, slot]
            for a in range(n):
                acc += np.conj(w[a]) * noise[slot, a]
            expected[slot] = acc
        assert np.allclose(out, expected, atol=1e-12)

    def test_linearity_in_signals(self):
        rng = substream(22, "agg-linear")
        m, n, d = 4, 3, 6
        channel = ChannelState(coefficients=random_complex(rng, (m, n)))
        w = random_unit_vector(rng, n)
        s1 = random_complex(rng, (m, d))
        s2 = random_complex(rng, (m, d))
        alpha, beta = 1.7 - 0.3j, -0.8 + 2.1j
        zero_noise = np.zeros((d, n), dtype=complex)
        combined = superpose_and_combine(alpha * s1 + beta * s2, channel, w, zero_noise)
        separate = alpha * superpose_and_combine(
            s1, channel, w, zero_noise
        ) + beta * superpose_and_combine(s2, channel, w, zero_noise)
        assert np.allclose(combined, separate, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        channel = ChannelState(coefficients=np.ones((2, 3), dtype=complex))
        w = np.array([1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            superpose_and_combine(
                np.zeros((3, 4), dtype=complex), channel, w,
                np.zeros((4, 3), dtype=complex),
            )
        with pytest.raises(ValueError):
            superpose_and_combine(
                np.zeros((2, 4), dtype=complex), channel, w,
                np.zeros((5, 3), dtype=complex),
            )
        with pytest.raises(ValueError):
            superpose_and_combine(
                np.zeros((2, 4), dtype=complex), channel, 2.0 * w,
                np.zeros((4, 3), dtype=complex),
            )

    @pytest.mark.parametrize("n", [2, 4])
    def test_beamformer_of_another_length_rejected(self, n):
        channel = ChannelState(coefficients=np.ones((2, 3), dtype=complex))
        w = np.zeros(n, dtype=complex)
        w[0] = 1.0
        with pytest.raises(ValueError, match="beamformer length"):
            superpose_and_combine(
                np.zeros((2, 4), dtype=complex), channel, w,
                np.zeros((4, 3), dtype=complex),
            )


class TestEstimateGlobal:
    """The global-knowledge estimate of aggregate_over_air."""

    def test_offset_only_when_blocks_zero(self):
        m, k = 3, 2
        rng = substream(23, "est")
        w = random_unit_vector(rng, 4)
        counts = rng.integers(1, 10, size=(m, k))
        weights = counts / counts.sum(axis=0)
        knowledge = KnowledgeSet(q=rng.dirichlet(np.ones(k), size=(m, k)))
        plan = make_plan(np.zeros((m, k)), w, np.array([2.0, 3.0]))
        est = aggregate_over_air(
            knowledge,
            DatasetPartition(counts=counts),
            plan,
            ChannelState(coefficients=random_complex(rng, (m, 4))),
            np.zeros((k * k, 4), dtype=complex),
        )
        expected_offsets = (weights * knowledge.means).sum(axis=0)
        for kk in range(k):
            assert np.allclose(est[kk], expected_offsets[kk])

    def test_matches_hand_expansion_two_by_two(self):
        # M=2, K=2, one antenna, expanded by hand:
        # r_hat^k[d] = (sum_i h_i P_i^k x_i^k[d] + n[kK + d]) / lam^k
        #              + a_1^k q_bar_1^k + a_2^k q_bar_2^k.
        # Every knowledge row sums to 1 over K=2 entries, so every mean is
        # 0.5; the normalized rows are +-[1, -1].
        q = np.array(
            [
                [[0.7, 0.3], [0.1, 0.9]],  # x = [1, -1], [-1, 1]
                [[0.2, 0.8], [0.6, 0.4]],  # x = [-1, 1], [1, -1]
            ]
        )
        h = np.array([1.0 + 1.0j, 2.0])
        eq = np.array([[0.5, 1.0j], [0.25, -0.5]])
        noise = np.array([0.1, -0.2j, 0.3, 0.05 + 0.05j])
        lam = np.array([2.0, 4.0])
        # Offset weights a_i^k = B_i^k / B^k: [[0.25, 0.5], [0.75, 0.5]].
        est = aggregate_over_air(
            KnowledgeSet(q=q),
            DatasetPartition(counts=np.array([[1, 2], [3, 2]])),
            make_plan(eq, np.array([1.0 + 0j]), lam),
            ChannelState(coefficients=h[:, None]),
            noise[:, None],
        )
        hand = np.array(
            [
                [
                    (h[0] * 0.5 * 1 + h[1] * 0.25 * -1 + 0.1) / 2.0
                    + 0.25 * 0.5 + 0.75 * 0.5,
                    (h[0] * 0.5 * -1 + h[1] * 0.25 * 1 - 0.2j) / 2.0
                    + 0.25 * 0.5 + 0.75 * 0.5,
                ],
                [
                    (h[0] * 1.0j * -1 + h[1] * -0.5 * 1 + 0.3) / 4.0
                    + 0.5 * 0.5 + 0.5 * 0.5,
                    (h[0] * 1.0j * 1 + h[1] * -0.5 * -1 + 0.05 + 0.05j) / 4.0
                    + 0.5 * 0.5 + 0.5 * 0.5,
                ],
            ]
        )
        assert np.allclose(est, hand, rtol=0.0, atol=1e-12)

    def test_matches_per_device_assembly_bit_for_bit(self):
        rng = substream(24, "est-loop")
        m, k, n = 5, 3, 4
        knowledge = KnowledgeSet(q=rng.dirichlet(np.ones(k), size=(m, k)))
        counts = rng.integers(0, 6, size=(m, k))
        counts[:, 0] += 1
        counts[0] += 1
        part = DatasetPartition(counts=counts)
        channel = ChannelState(coefficients=random_complex(rng, (m, n)))
        plan = make_plan(
            0.3 * random_complex(rng, (m, k)),
            random_unit_vector(rng, n),
            rng.uniform(0.5, 2.0, k),
        )
        noise = 0.01 * random_complex(rng, (k * k, n))
        est = aggregate_over_air(knowledge, part, plan, channel, noise)
        # One device at a time: normalize, equalize, concatenate the blocks.
        signals = []
        for i in range(m):
            blocks = np.zeros((k, k))
            for kk in range(k):
                if counts[i, kk] > 0:
                    blocks[kk] = (
                        knowledge.q[i, kk] - knowledge.means[i, kk]
                    ) / knowledge.stds[i, kk]
            signals.append((plan.transmit.equalizers[i][:, None] * blocks).reshape(-1))
        combined = superpose_and_combine(
            np.stack(signals), channel, plan.beamformer, noise
        )
        offset = np.sum(part.class_weights() * knowledge.means, axis=0)
        expected = (
            combined.reshape(k, k) / plan.denormalizers[:, None]
            + offset[:, None]
        )
        assert np.array_equal(est, expected)

    def test_plan_of_other_shape_rejected(self):
        rng = substream(25, "est-shape")
        knowledge = KnowledgeSet(q=rng.dirichlet(np.ones(2), size=(2, 2)))
        plan = make_plan(np.zeros((3, 2)), np.ones(1), np.ones(2))
        with pytest.raises(ValueError, match="disagree"):
            aggregate_over_air(
                knowledge,
                DatasetPartition(counts=np.ones((2, 2), dtype=int)),
                plan,
                ChannelState(coefficients=np.ones((2, 1))),
                np.zeros((4, 1)),
            )
