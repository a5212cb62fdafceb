"""Knowledge generation, normalization statistics, and transmit assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airfd.airagg import aggregate_over_air
from airfd.channel import ChannelState
from airfd.knowledge import (
    Q_HAT_FLOOR,
    DatasetPartition,
    KnowledgeSet,
    global_target,
    knowledge_vectors,
    transmit_active_mask,
)
from airfd.oracles import local_knowledge
from airfd.rng import substream
from airfd.sdp_solver import SdpProblem
from airfd.transceiver import PlanDiagnostics, TransceiverPlan, TransmitPlan


def random_probability_vectors(rng, count, k):
    raw = rng.dirichlet(np.ones(k), size=count)
    return raw


def make_knowledge_set(rng, m, k):
    return KnowledgeSet(q=rng.dirichlet(np.ones(k), size=(m, k)))


def full_partition(m, k):
    return DatasetPartition(counts=np.ones((m, k), dtype=np.int64))


def transmit_signal(q, equalizers):
    """The transmit signal aggregate_over_air builds for one device, read
    through a pass-through uplink (one antenna, unit gain and denormalizers,
    zero noise) and returned as its (K, K) class blocks: the mean offsets the
    estimate adds back, the device's own means, are subtracted."""
    k = q.shape[0]
    knowledge = KnowledgeSet(q=q[None])
    plan = TransceiverPlan(
        transmit=TransmitPlan(
            equalizers=np.asarray(equalizers)[None, :],
            peak_powers=np.array([max(np.max(np.abs(equalizers)) ** 2, 1.0)]),
        ),
        beamformer=np.ones(1),
        denormalizers=np.ones(k),
        diagnostics=PlanDiagnostics(1.0, 0.0, 0.0, 0),
    )
    estimate = aggregate_over_air(
        knowledge,
        full_partition(1, k),
        plan,
        ChannelState(coefficients=np.ones((1, 1))),
        np.zeros((k * k, 1)),
    )
    return estimate - knowledge.means[0][:, None]


class TestLocalKnowledge:
    """The per-class loop in oracles, the reference for knowledge_vectors."""

    def test_single_sample_is_identity(self):
        rng = substream(1, "lk")
        p = rng.dirichlet(np.ones(4))
        outputs = [p[None, :] for _ in range(4)]
        result = local_knowledge(outputs, np.ones(4, dtype=int))
        for k in range(4):
            assert np.allclose(result[k], p)

    def test_mean_of_identical_outputs_is_idempotent(self):
        p = np.array([0.2, 0.5, 0.3])
        outputs = [np.stack([p, p])] * 3
        result = local_knowledge(outputs, np.full(3, 2))
        for k in range(3):
            assert np.allclose(result[k], p)

    def test_matches_independent_elementwise_mean(self):
        rng = substream(2, "lk-oracle")
        outputs = [random_probability_vectors(rng, 10, 3) for _ in range(3)]
        result = local_knowledge(outputs, np.full(3, 10))
        for k in range(3):
            expected = np.zeros(3)
            for row in outputs[k]:
                expected += row
            expected /= 10
            assert np.allclose(result[k], expected, atol=1e-12)
            assert result[k].sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_class_group_with_positive_count_errors(self):
        outputs = [np.empty((0, 2)), np.array([[0.5, 0.5]])]
        with pytest.raises(ValueError):
            local_knowledge(outputs, np.array([3, 1]))

    def test_zero_count_class_gets_uniform_placeholder(self):
        outputs = [np.empty((0, 2)), np.array([[0.7, 0.3]])]
        result = local_knowledge(outputs, np.array([0, 1]))
        assert np.allclose(result[0], [0.5, 0.5])
        assert np.allclose(result[1], [0.7, 0.3])


def ragged_devices(rng, num_wds, num_classes, concentration=0.1):
    """Labels and softmax-like outputs of devices with Dirichlet class shares:
    many (device, class) cells are empty, and device 0 holds exactly one
    sample of class 0."""
    labels_by_wd, outputs_by_wd = [], []
    for i in range(num_wds):
        shares = rng.dirichlet(np.full(num_classes, concentration))
        counts = rng.multinomial(int(rng.integers(1, 40)), shares)
        if i == 0:
            counts[0] = 1
        labels = rng.permutation(np.repeat(np.arange(num_classes), counts))
        labels_by_wd.append(labels)
        outputs_by_wd.append(rng.dirichlet(np.ones(num_classes), size=labels.size))
    return labels_by_wd, outputs_by_wd


def vectors(outputs_by_wd, labels_by_wd):
    """knowledge_vectors of devices given as per-device lists."""
    return knowledge_vectors(
        np.concatenate(outputs_by_wd),
        np.concatenate(labels_by_wd),
        [len(labels) for labels in labels_by_wd],
    )


@st.composite
def labelled_outputs(draw):
    """1-8 devices with 1-30 labels each over 2-10 classes, in any order (so
    with empty cells), and Dirichlet softmax-like outputs."""
    num_classes = draw(st.integers(2, 10))
    labels_by_wd = draw(
        st.lists(
            st.lists(st.integers(0, num_classes - 1), min_size=1, max_size=30),
            min_size=1,
            max_size=8,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    outputs_by_wd = [
        rng.dirichlet(np.ones(num_classes), size=len(labels))
        for labels in labels_by_wd
    ]
    return [np.array(labels) for labels in labels_by_wd], outputs_by_wd


class TestKnowledgeVectors:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(labelled_outputs())
    def test_property_matches_oracle_bit_for_bit(self, drawn):
        labels_by_wd, outputs_by_wd = drawn
        num_classes = outputs_by_wd[0].shape[1]
        result = vectors(outputs_by_wd, labels_by_wd)
        assert result.shape == (len(labels_by_wd), num_classes, num_classes)
        for i, (labels, outputs) in enumerate(zip(labels_by_wd, outputs_by_wd)):
            expected = local_knowledge(
                [outputs[labels == k] for k in range(num_classes)],
                np.bincount(labels, minlength=num_classes),
            )
            assert np.array_equal(result[i], expected)

    def test_matches_oracle_loop_bit_for_bit(self):
        empty_cells = single_cells = 0
        for seed in range(30):
            rng = substream(seed, "kv")
            num_classes = int(rng.integers(2, 11))
            labels_by_wd, outputs_by_wd = ragged_devices(rng, 12, num_classes)
            result = vectors(outputs_by_wd, labels_by_wd)
            for i, (labels, outputs) in enumerate(zip(labels_by_wd, outputs_by_wd)):
                counts_row = np.bincount(labels, minlength=num_classes)
                expected = local_knowledge(
                    [outputs[labels == k] for k in range(num_classes)], counts_row
                )
                assert np.array_equal(result[i], expected)
                empty_cells += int(np.sum(counts_row == 0))
                single_cells += int(np.sum(counts_row == 1))
        assert empty_cells > 0 and single_cells > 0

    def test_empty_cells_keep_the_uniform_placeholder(self):
        labels_by_wd = [np.array([1, 1]), np.array([0])]
        outputs_by_wd = [np.array([[0.2, 0.8], [0.4, 0.6]]), np.array([[0.9, 0.1]])]
        result = vectors(outputs_by_wd, labels_by_wd)
        assert np.array_equal(result[0, 0], [0.5, 0.5])
        assert np.allclose(result[0, 1], [0.3, 0.7], atol=1e-15)
        assert np.array_equal(result[1, 0], [0.9, 0.1])
        assert np.array_equal(result[1, 1], [0.5, 0.5])

    def test_mismatched_outputs_rejected(self):
        outputs, labels = np.full((3, 2), 0.5), np.array([0, 1, 1])
        with pytest.raises(ValueError, match="per label"):
            knowledge_vectors(outputs[:2], labels, [2, 1])
        with pytest.raises(ValueError, match="per label"):
            knowledge_vectors(outputs[None], labels, [2, 1])
        with pytest.raises(ValueError, match="add up"):
            knowledge_vectors(outputs, labels, [2, 2])
        with pytest.raises(ValueError, match="add up"):
            knowledge_vectors(outputs, labels, [4, -1])

    def test_devices_without_samples_keep_the_uniform_placeholder(self):
        outputs = np.array([[0.9, 0.1], [0.2, 0.8]])
        result = knowledge_vectors(outputs, np.array([0, 1]), [0, 2, 0])
        assert np.array_equal(result[[0, 2]], np.full((2, 2, 2), 0.5))
        assert np.array_equal(result[1], outputs)

    def test_out_of_range_labels_rejected(self):
        outputs = np.full((3, 3), 1.0 / 3)
        # Label K of device 0 would otherwise land in device 1's class-0 cell.
        for labels in (np.array([0, 3]), np.array([-1, 0])):
            with pytest.raises(ValueError, match="labels"):
                knowledge_vectors(outputs, np.append(labels, 1), [2, 1])


class TestKnowledgeStats:
    """The statistics KnowledgeSet derives from q."""

    def test_uniform_vector(self):
        k = 5
        ks = KnowledgeSet(q=np.full((1, k, k), 1.0 / k))
        assert np.allclose(ks.means, 1.0 / k, rtol=0.0, atol=1e-15)
        assert np.all(ks.stds == 0.0)

    def test_two_point_vector(self):
        ks = KnowledgeSet(q=np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        assert np.allclose(ks.means, 0.5, rtol=0.0, atol=1e-15)
        assert np.allclose(ks.stds, 0.5, rtol=0.0, atol=1e-15)

    def test_matches_two_pass_oracle(self):
        rng = substream(3, "stats-oracle")
        ks = make_knowledge_set(rng, 3, 10)
        for i in range(3):
            for k in range(10):
                # Independent two-pass computation with explicit loops.
                vec = ks.q[i, k]
                total = 0.0
                for value in vec:
                    total += value
                oracle_mean = total / len(vec)
                accum = 0.0
                for value in vec:
                    accum += (value - oracle_mean) ** 2
                oracle_std = (accum / len(vec)) ** 0.5
                assert ks.means[i, k] == pytest.approx(oracle_mean, rel=1e-14)
                assert ks.stds[i, k] == pytest.approx(oracle_std, rel=1e-14)

    def test_statistics_are_not_inputs(self):
        q = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        with pytest.raises(TypeError):
            KnowledgeSet(q=q, means=np.zeros((1, 2)), stds=np.ones((1, 2)))
        ks = KnowledgeSet(q=q)
        assert not ks.means.flags.writeable and not ks.stds.flags.writeable


class TestNormalizeKnowledge:
    """KnowledgeSet.normalized_blocks, the blocks both uplinks send."""

    def test_two_entry_forced_values(self):
        ks = KnowledgeSet(q=np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        x = ks.normalized_blocks(full_partition(1, 2))
        assert np.allclose(x, [[[1.0, -1.0], [-1.0, 1.0]]], atol=1e-12)

    def test_zero_mean_unit_second_moment(self):
        rng = substream(4, "norm")
        ks = make_knowledge_set(rng, 2, 10)
        x = ks.normalized_blocks(full_partition(2, 10))
        assert np.max(np.abs(x.mean(axis=2))) <= 1e-10
        assert np.allclose(np.mean(x**2, axis=2), 1.0, rtol=0.0, atol=1e-10)

    def test_matches_elementwise_recomputation(self):
        rng = substream(5, "norm-oracle")
        ks = make_knowledge_set(rng, 2, 10)
        x = ks.normalized_blocks(full_partition(2, 10))
        for i in range(2):
            for k in range(10):
                mean, std = ks.means[i, k], ks.stds[i, k]
                expected = np.array([(v - mean) / std for v in ks.q[i, k]])
                assert np.array_equal(x[i, k], expected)

    def test_floor_transmits_and_blocks_below_it_are_zero(self):
        # Device 0: class 0 is constant (std 0), class 1 has std ~5e-9, below
        # the floor. Device 1: class 0 has std ~2e-8, above it; it holds no
        # class-1 samples.
        q = np.array(
            [
                [[0.5, 0.5], [0.5 + 5e-9, 0.5 - 5e-9]],
                [[0.5 + 2e-8, 0.5 - 2e-8], [1.0, 0.0]],
            ]
        )
        part = DatasetPartition(counts=np.array([[1, 1], [1, 0]]))
        x = KnowledgeSet(q=q).normalized_blocks(part)
        assert np.all(x[0] == 0.0) and np.all(x[1, 1] == 0.0)
        assert np.allclose(x[1, 0], [1.0, -1.0], atol=1e-6)
        # The floor value itself transmits.
        stds = np.array([[Q_HAT_FLOOR, np.nextafter(Q_HAT_FLOOR, 0.0)], [1.0, 1.0]])
        assert transmit_active_mask(part, stds).tolist() == [
            [True, False],
            [True, False],
        ]


class TestAssembleTransmitSignal:
    """The transmit signal of aggregate_over_air: each class block is the
    normalized knowledge scaled by that class's equalizer."""

    def test_zero_equalizers_give_zero_signal(self):
        rng = substream(6, "assemble-zero")
        signal = transmit_signal(
            rng.dirichlet(np.ones(3), size=3), np.zeros(3, dtype=complex)
        )
        assert np.all(signal == 0)
        assert signal.shape == (3, 3)

    def test_direct_concatenation(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0]])  # normalized: [1, -1], [-1, 1]
        signal = transmit_signal(q, np.array([2.0 + 0j, 3.0 + 0j]))
        assert np.allclose(signal, [[2.0, -2.0], [-3.0, 3.0]])

    def test_per_block_power(self):
        rng = substream(6, "assemble")
        k = 4
        eq = rng.normal(size=k) + 1j * rng.normal(size=k)
        signal = transmit_signal(rng.dirichlet(np.ones(k), size=k), eq)
        for block_index in range(k):
            empirical = np.mean(np.abs(signal[block_index]) ** 2)
            assert empirical == pytest.approx(abs(eq[block_index]) ** 2, abs=1e-10)


class TestGlobalTarget:
    def test_single_wd_identity(self):
        rng = substream(7, "gt")
        ks = make_knowledge_set(rng, 1, 3)
        partition = DatasetPartition(counts=np.array([[5, 2, 9]]))
        target = global_target(ks, partition)
        assert np.allclose(target, ks.q[0])

    def test_symmetric_average(self):
        q = np.zeros((2, 2, 2))
        q[0] = np.array([[1.0, 0.0], [1.0, 0.0]])
        q[1] = np.array([[0.0, 1.0], [0.0, 1.0]])
        ks = KnowledgeSet(q=q)
        partition = DatasetPartition(counts=np.array([[4, 4], [4, 4]]))
        target = global_target(ks, partition)
        assert np.allclose(target, 0.5)

    def test_matches_weighted_mean_oracle(self):
        rng = substream(8, "gt-oracle")
        m, k = 5, 4
        ks = make_knowledge_set(rng, m, k)
        counts = rng.integers(1, 30, size=(m, k))
        partition = DatasetPartition(counts=counts)
        target = global_target(ks, partition)
        class_totals = counts.sum(axis=0)
        for kk in range(k):
            expected = np.zeros(k)
            for i in range(m):
                expected += counts[i, kk] / class_totals[kk] * ks.q[i, kk]
            assert np.allclose(target[kk], expected, atol=1e-12)
            assert target[kk].sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(target[kk] >= 0)

    def test_invariant_under_wd_permutation(self):
        rng = substream(9, "gt-perm")
        m, k = 6, 3
        ks = make_knowledge_set(rng, m, k)
        counts = rng.integers(1, 10, size=(m, k))
        perm = rng.permutation(m)
        ks_perm = KnowledgeSet(q=ks.q[perm])
        target = global_target(ks, DatasetPartition(counts=counts))
        target_perm = global_target(ks_perm, DatasetPartition(counts=counts[perm]))
        assert np.allclose(target, target_perm, atol=1e-12)


class TestPartitionAndPlanTypes:
    def test_partition_totals_consistency(self):
        counts = np.array([[3, 0, 2], [1, 4, 0]])
        partition = DatasetPartition(counts=counts)
        assert np.array_equal(partition.class_totals, [4, 4, 2])
        assert np.array_equal(partition.per_wd_totals, [5, 5])
        assert np.array_equal(partition.active_mask, counts > 0)
        weights = partition.class_weights()
        assert np.allclose(weights.sum(axis=0), 1.0)
        assert np.array_equal(partition.class_mix(), counts / [[5], [5]])

    def test_partition_rejects_empty_class_or_device(self):
        with pytest.raises(ValueError):
            DatasetPartition(counts=np.array([[1, 0], [2, 0]]))
        with pytest.raises(ValueError):
            DatasetPartition(counts=np.array([[0, 0], [2, 3]]))
        with pytest.raises(ValueError):
            DatasetPartition(counts=np.array([[1, -1], [2, 3]]))

    def test_transmit_plan_power_validation(self):
        eq = np.array([[0.5 + 0.5j, 0.1], [0.0, 1.0]])
        plan = TransmitPlan(equalizers=eq, peak_powers=np.array([1.0, 1.0]))
        # The budgets are checked, not stored.
        assert not hasattr(plan, "peak_powers")
        for equalizers, peaks in [
            (np.array([[1.1 + 0j]]), np.array([1.0])),  # over budget
            (eq, np.array([1.0])),  # wrong shape
            (eq, np.array([1.0, 0.0])),  # not positive
            (np.array([[np.nan + 0j]]), np.array([1.0])),  # NaN equalizer
            (eq, np.array([1.0, np.nan])),  # NaN budget
        ]:
            with pytest.raises(ValueError):
                TransmitPlan(equalizers=equalizers, peak_powers=peaks)

    # Every array a frozen record stores, with a valid input of the dtype the
    # record keeps (so that converting it would not copy it).
    FROZEN_INPUTS = {
        KnowledgeSet: lambda: dict(q=np.full((2, 3, 3), 1.0 / 3.0)),
        TransmitPlan: lambda: dict(
            equalizers=np.full((2, 3), 0.5 + 0.5j), peak_powers=np.ones(2)
        ),
        TransceiverPlan: lambda: dict(
            transmit=TransmitPlan(
                equalizers=np.full((2, 3), 0.5 + 0.5j), peak_powers=np.ones(2)
            ),
            beamformer=np.array([1.0 + 0.0j, 0.0 + 0.0j]),
            denormalizers=np.ones(3),
            diagnostics=PlanDiagnostics(1.0, 0.0, 0.0, 0),
        ),
        SdpProblem: lambda: dict(
            dim=2,
            class_weights=np.ones(3),
            constraint_vectors=np.ones((3, 2, 2), dtype=np.complex128),
            active_mask=np.ones((3, 2), dtype=bool),
        ),
    }

    @pytest.mark.parametrize(
        "record, name",
        [
            (KnowledgeSet, "q"),
            (TransmitPlan, "equalizers"),
            (TransceiverPlan, "beamformer"),
            (TransceiverPlan, "denormalizers"),
            (SdpProblem, "class_weights"),
            (SdpProblem, "constraint_vectors"),
            (SdpProblem, "active_mask"),
        ],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_record_leaves_the_callers_array_writeable(self, record, name):
        inputs = self.FROZEN_INPUTS[record]()
        given = inputs[name]
        before = given.copy()
        stored = getattr(record(**inputs), name)
        assert given.flags.writeable
        assert np.array_equal(given, before)
        assert not stored.flags.writeable
        given[...] = 0
        assert np.array_equal(stored, before)

    def test_knowledge_set_validates_probability_vectors(self):
        for row in (
            [0.9, 0.2],  # sums to 1.1
            [np.nan, np.nan],
            [np.nan, 1.0],
        ):
            q = np.full((1, 2, 2), 0.5)
            q[0, 0] = row
            with pytest.raises(ValueError):
                KnowledgeSet(q=q)
