"""Tests for per-round uplink planning: closed-form scalars, equalizers, the
optimized round plan, and the uniform/orthogonal baselines."""

import numpy as np
import pytest

from airfd import transceiver
from airfd.airagg import aggregate_over_air
from airfd.channel import ChannelConfig, ChannelState, sample_channel
from airfd.knowledge import (
    Q_HAT_FLOOR,
    DatasetPartition,
    KnowledgeSet,
    global_target,
    transmit_active_mask,
)
from airfd.metrics import p2_objective
from airfd.rng import substream
from airfd.sdp_solver import canonical_phase, extract_principal_eigenpair, solve
from airfd.transceiver import (
    PlanDegeneracyError,
    PlanDiagnostics,
    TransceiverPlan,
    TransmitPlan,
    build_relaxation,
    optimal_postprocessing,
    optimize_round,
    orthogonal_receive,
    relaxation_objective,
    uniform_baseline,
)


def random_channel(rng, m, n, scale=1.0):
    parts = rng.standard_normal((m, n, 2)) * np.sqrt(0.5)
    return ChannelState(coefficients=scale * (parts[..., 0] + 1j * parts[..., 1]))


def random_partition(rng, m, k, low=5, high=40):
    return DatasetPartition(counts=rng.integers(low, high, size=(m, k)))


def random_knowledge(rng, m, k):
    return KnowledgeSet(q=rng.dirichlet(np.ones(k), size=(m, k)))


def random_beamformer(rng, n):
    parts = rng.standard_normal((n, 2))
    w = parts[:, 0] + 1j * parts[:, 1]
    return w / np.linalg.norm(w)


def field_instance(seed, tag, index):
    """A field-scale round (M=50, K=10, N=5, m=500), drawn like the rank-one
    acceptance claim: counts 100-300 with the farthest device holding 100
    times more, stds U(0.05, 0.3)."""
    config = ChannelConfig(
        num_wds=50,
        num_antennas=5,
        noise_variance=1e-8,
        carrier_freq=915e6,
        pathloss_exponent=4.0,
        antenna_gain_ps=1.0,
        antenna_gain_wd=1.0,
        distance_range=(100.0, 500.0),
        csi_quality=1.0,
    )
    rng = substream(seed, tag, index)
    distances = rng.uniform(*config.distance_range, size=50)
    channel = sample_channel(config, distances, rng)
    counts = rng.integers(100, 301, size=(50, 10))
    counts[np.argmax(distances)] *= 100
    stds = rng.uniform(0.05, 0.3, size=(50, 10))
    return channel, stds, DatasetPartition(counts=counts), np.full(50, 1e-3)


def desk_round(seed):
    """A desk-shaped round: 2-8 devices, 2-4 classes and 2-4 antennas, and
    the generator that drew it."""
    rng = np.random.default_rng(seed)
    m, k, n = rng.integers(2, 9), rng.integers(2, 5), rng.integers(2, 5)
    parts = rng.standard_normal((m, n, 2))
    channel = ChannelState(coefficients=parts[..., 0] + 1j * parts[..., 1])
    partition = DatasetPartition(counts=rng.integers(5, 40, size=(m, k)))
    stds = KnowledgeSet(q=rng.dirichlet(np.ones(k), size=(m, k))).stds
    return rng, channel, stds, partition, rng.uniform(0.5, 2.0, m)


def drifted_start(seed, drift):
    """The plan's beamformer of desk round `seed`, and the relaxation of the
    same round after every channel coefficient moves by a relative `drift`:
    a last round's plan as the start for this one."""
    rng, channel, stds, partition, peaks = desk_round(seed)
    w = optimize_round(channel, stds, partition, peaks).beamformer
    step = rng.standard_normal(channel.coefficients.shape + (2,))
    moved = channel.coefficients * (1.0 + drift * (step[..., 0] + 1j * step[..., 1]))
    problem = build_relaxation(ChannelState(coefficients=moved), stds, partition, peaks)
    return w, problem


def bottleneck_scan(w, channel, stds, partition, peaks):
    """Linear-scan oracle for the per-class denormalizer minimum."""
    m, k = partition.counts.shape
    gains = np.abs(channel.coefficients @ np.conj(w))
    best_val = np.full(k, np.inf)
    best_idx = np.full(k, -1)
    for kk in range(k):
        for i in range(m):
            if partition.counts[i, kk] == 0 or stds[i, kk] < 1e-8:
                continue
            val = (
                partition.class_totals[kk]
                * gains[i]
                * np.sqrt(peaks[i])
                / (partition.counts[i, kk] * stds[i, kk])
            )
            if val < best_val[kk]:
                best_val[kk] = val
                best_idx[kk] = i
    return best_val, best_idx


def completion_score(w, channel, stds, partition, peaks):
    """Aggregation-noise figure of a beamformer completed by the closed forms:
    sum over devices and classes of (B_i^k / B_i) / lambda^k(w)^2."""
    post = optimal_postprocessing(w, channel, stds, partition, peaks)
    weights = partition.counts / partition.per_wd_totals[:, None]
    return float(np.sum(weights / post.denormalizers[None, :] ** 2))


def straggler_instance(rng, m, k, n, ratio=100.0):
    """Instance whose weakest device holds a dominant share of every class."""
    channel = random_channel(rng, m, n)
    coef = channel.coefficients.copy()
    coef[0] *= 0.05  # device 0 is the common bottleneck
    channel = ChannelState(coefficients=coef)
    counts = rng.integers(10, 30, size=(m, k))
    counts[0] = counts[0] * int(ratio)
    partition = DatasetPartition(counts=counts)
    knowledge = random_knowledge(rng, m, k)
    peaks = np.full(m, 1e-3)
    return channel, knowledge, partition, peaks


class TestTransmitActiveMask:
    def test_counts_and_degeneracy_combine(self):
        partition = DatasetPartition(counts=np.array([[3, 0], [2, 5]]))
        stds = np.array([[0.1, 0.2], [1e-12, 0.3]])
        mask = transmit_active_mask(partition, stds)
        assert mask.tolist() == [[True, False], [False, True]]

    def test_shape_mismatch_rejected(self):
        partition = DatasetPartition(counts=np.array([[3, 1], [2, 5]]))
        with pytest.raises(ValueError, match="shape"):
            transmit_active_mask(partition, np.ones((3, 2)))


class TestBuildRelaxation:
    def test_constraint_vectors_match_loop(self):
        rng = np.random.default_rng(11)
        m, k, n = 4, 3, 2
        channel = random_channel(rng, m, n)
        partition = random_partition(rng, m, k)
        knowledge = random_knowledge(rng, m, k)
        peaks = rng.uniform(0.5, 2.0, m)
        problem = build_relaxation(channel, knowledge.stds, partition, peaks)
        for kk in range(k):
            for i in range(m):
                v = (
                    np.sqrt(peaks[i])
                    / (partition.counts[i, kk] * knowledge.stds[i, kk])
                ) * channel.coefficients[i]
                np.testing.assert_allclose(
                    problem.constraint_vectors[kk, i],
                    v,
                    rtol=1e-12,
                    atol=1e-15,
                )
        expected_weights = np.array(
            [
                sum(
                    partition.counts[i, kk] / partition.per_wd_totals[i]
                    for i in range(m)
                )
                / partition.class_totals[kk]
                for kk in range(k)
            ]
        )
        np.testing.assert_allclose(problem.class_weights, expected_weights, rtol=1e-12)

    def test_inactive_entries_masked_and_zero(self):
        rng = np.random.default_rng(12)
        counts = np.array([[5, 0], [4, 6], [3, 2]])
        partition = DatasetPartition(counts=counts)
        channel = random_channel(rng, 3, 2)
        knowledge = random_knowledge(rng, 3, 2)
        peaks = np.ones(3)
        problem = build_relaxation(channel, knowledge.stds, partition, peaks)
        assert not problem.active_mask[1, 0]
        assert np.all(problem.constraint_vectors[1, 0] == 0)

    def test_objective_matches_loop(self):
        rng = np.random.default_rng(13)
        channel = random_channel(rng, 4, 3)
        partition = random_partition(rng, 4, 2)
        knowledge = random_knowledge(rng, 4, 2)
        peaks = np.ones(4)
        problem = build_relaxation(channel, knowledge.stds, partition, peaks)
        w = random_beamformer(rng, 3)
        expected = 0.0
        for kk in range(problem.num_classes):
            worst = min(
                float(np.real(np.conj(w) @ np.outer(v, np.conj(v)) @ w))
                for v, active in zip(
                    problem.constraint_vectors[kk], problem.active_mask[kk]
                )
                if active
            )
            expected += problem.class_weights[kk] * (-worst)
        assert relaxation_objective(w, problem) == pytest.approx(expected, rel=1e-12)

    def test_objective_is_the_weighted_squared_bottleneck_denormalizers(self):
        """The relaxation maximizes sum_k c_k (lambda^k / B^k)^2, with
        lambda^k the denormalizers that optimal_postprocessing completes the
        beamformer with: the planners' beamformers and random ones, on desk
        and field rounds."""
        rounds = [desk_round(seed)[1:] for seed in range(6)]
        rounds += [field_instance(2, "objective", index) for index in range(2)]
        rng = np.random.default_rng(14)
        for channel, stds, partition, peaks in rounds:
            problem = build_relaxation(channel, stds, partition, peaks)
            beamformers = [
                optimize_round(channel, stds, partition, peaks).beamformer,
                uniform_baseline(channel, stds, partition, peaks).beamformer,
            ]
            beamformers += [
                random_beamformer(rng, channel.num_antennas) for _ in range(3)
            ]
            for w in beamformers:
                post = optimal_postprocessing(w, channel, stds, partition, peaks)
                ratios = post.denormalizers / partition.class_totals
                expected = -(problem.class_weights @ ratios**2)
                assert relaxation_objective(w, problem) == pytest.approx(
                    expected, rel=1e-12
                )


class TestOptimalPostprocessing:
    def test_single_wd(self):
        rng = np.random.default_rng(21)
        channel = random_channel(rng, 1, 3)
        partition = DatasetPartition(counts=np.array([[7, 11]]))
        knowledge = random_knowledge(rng, 1, 2)
        peaks = np.array([2.5])
        w = random_beamformer(rng, 3)
        post = optimal_postprocessing(w, channel, knowledge.stds, partition, peaks)
        gain = abs(np.conj(w) @ channel.coefficients[0])
        expected = gain * np.sqrt(peaks[0]) / knowledge.stds[0]
        np.testing.assert_allclose(post.denormalizers, expected, rtol=1e-12)
        power = np.abs(post.equalizers[0]) ** 2
        np.testing.assert_allclose(power, peaks[0], rtol=1e-12)

    def test_two_identical_wds(self):
        rng = np.random.default_rng(22)
        h = random_channel(rng, 1, 2).coefficients[0]
        channel = ChannelState(coefficients=np.stack([h, h]))
        partition = DatasetPartition(counts=np.array([[6, 4], [6, 4]]))
        q = rng.dirichlet(np.ones(2), size=(1, 2))
        knowledge = KnowledgeSet(q=np.concatenate([q, q]))
        peaks = np.array([1.0, 1.0])
        w = random_beamformer(rng, 2)
        post = optimal_postprocessing(w, channel, knowledge.stds, partition, peaks)
        gain = abs(np.conj(w) @ h)
        expected = (
            partition.class_totals
            * gain
            * 1.0
            / (partition.counts[0] * knowledge.stds[0])
        )
        np.testing.assert_allclose(post.denormalizers, expected, rtol=1e-12)
        # Both devices are tied bottlenecks, so both sit at their budgets.
        power = np.abs(post.equalizers) ** 2
        np.testing.assert_allclose(power, np.ones((2, 2)), rtol=1e-12)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(23)
        for trial in range(5):
            channel = random_channel(rng, 5, 3)
            partition = random_partition(rng, 5, 3)
            knowledge = random_knowledge(rng, 5, 3)
            peaks = rng.uniform(0.2, 3.0, 5)
            w = random_beamformer(rng, 3)
            post = optimal_postprocessing(
                w, channel, knowledge.stds, partition, peaks
            )
            vals, idx = bottleneck_scan(
                w, channel, knowledge.stds, partition, peaks
            )
            np.testing.assert_allclose(post.denormalizers, vals, rtol=1e-12)
            power = np.abs(post.equalizers[idx, np.arange(3)]) ** 2
            np.testing.assert_allclose(power, peaks[idx], rtol=1e-12)

    def test_nulled_device_raises(self):
        rng = np.random.default_rng(24)
        channel = random_channel(rng, 3, 2)
        h0 = channel.coefficients[0]
        v = np.array([np.conj(h0[1]), -np.conj(h0[0])])
        w = v / np.linalg.norm(v)
        assert abs(np.conj(w) @ h0) < 1e-15
        partition = random_partition(rng, 3, 2)
        knowledge = random_knowledge(rng, 3, 2)
        with pytest.raises(PlanDegeneracyError, match=r"\[0\]"):
            optimal_postprocessing(
                w, channel, knowledge.stds, partition, np.ones(3)
            )

    def test_silent_device_may_be_nulled(self):
        # Device 0 sends nothing (every std below the floor), so a beamformer
        # orthogonal to its channel nulls no transmitting device.
        rng = np.random.default_rng(25)
        coefficients = random_channel(rng, 3, 2).coefficients.copy()
        coefficients[0] = [1.0, 0.0]
        channel = ChannelState(coefficients=coefficients)
        w = np.array([0.0, 1.0 + 0.0j])
        partition = random_partition(rng, 3, 2)
        stds = random_knowledge(rng, 3, 2).stds.copy()
        stds[0] = 0.5 * Q_HAT_FLOOR
        post = optimal_postprocessing(w, channel, stds, partition, np.ones(3))
        assert np.all(post.equalizers[0] == 0.0)
        assert np.all(np.abs(post.equalizers[1:]) > 0.0)


class TestOptimalEqualizers:
    def plan_parts(self, rng, m=6, k=4, n=3):
        channel = random_channel(rng, m, n)
        partition = random_partition(rng, m, k)
        knowledge = random_knowledge(rng, m, k)
        peaks = rng.uniform(0.5, 2.0, m)
        w = random_beamformer(rng, n)
        post = optimal_postprocessing(w, channel, knowledge.stds, partition, peaks)
        return channel, partition, knowledge, peaks, w, post, post.equalizers

    def test_straggler_saturation_and_strict_interior(self):
        rng = np.random.default_rng(31)
        channel, partition, knowledge, peaks, w, post, eq = self.plan_parts(rng)
        power = eq.real**2 + eq.imag**2
        _, stragglers = bottleneck_scan(w, channel, knowledge.stds, partition, peaks)
        for kk in range(partition.num_classes):
            s = stragglers[kk]
            assert power[s, kk] == pytest.approx(peaks[s], rel=1e-12)
            for i in range(partition.num_wds):
                if i != s:
                    assert power[i, kk] < peaks[i]

    def test_scalar_case(self):
        channel = ChannelState(coefficients=np.array([[0.3 + 0.0j]]))
        partition = DatasetPartition(counts=np.array([[9]]))
        stds = np.array([[0.12]])
        peaks = np.array([4.0])
        w = np.array([1.0 + 0.0j])
        post = optimal_postprocessing(w, channel, stds, partition, peaks)
        eq = post.equalizers
        assert eq[0, 0] == pytest.approx(post.denormalizers[0] * 0.12 / 0.3, rel=1e-12)
        assert abs(eq[0, 0]) == pytest.approx(2.0, rel=1e-12)  # saturates sqrt(P)

    def test_effective_gain_identity(self):
        rng = np.random.default_rng(32)
        channel, partition, knowledge, peaks, w, post, eq = self.plan_parts(
            rng, m=5, k=3
        )
        combined = channel.coefficients @ np.conj(w)
        gains = (
            combined[:, None]
            * eq
            / (post.denormalizers[None, :] * knowledge.stds)
        )
        target = partition.counts / partition.class_totals[None, :]
        assert np.max(np.abs(gains - target)) <= 1e-10

    def test_inactive_entries_zero(self):
        rng = np.random.default_rng(33)
        counts = np.array([[5, 0], [4, 6]])
        partition = DatasetPartition(counts=counts)
        channel = random_channel(rng, 2, 2)
        knowledge = random_knowledge(rng, 2, 2)
        peaks = np.ones(2)
        w = random_beamformer(rng, 2)
        post = optimal_postprocessing(w, channel, knowledge.stds, partition, peaks)
        assert post.equalizers[0, 1] == 0.0 + 0.0j


class TestOptimizeRound:
    def test_single_wd_matched_filter(self):
        rng = np.random.default_rng(41)
        channel = random_channel(rng, 1, 3)
        partition = DatasetPartition(counts=np.array([[8, 5]]))
        knowledge = random_knowledge(rng, 1, 2)
        plan = optimize_round(channel, knowledge.stds, partition, np.array([1.0]))
        h = channel.coefficients[0]
        alignment = abs(np.conj(plan.beamformer) @ h) / np.linalg.norm(h)
        assert alignment >= 1.0 - 1e-6
        assert plan.diagnostics.eig1 >= 0.999

    def test_single_antenna_trivial_combining(self):
        rng = np.random.default_rng(42)
        channel = random_channel(rng, 3, 1)
        partition = random_partition(rng, 3, 2)
        knowledge = random_knowledge(rng, 3, 2)
        peaks = np.ones(3)
        plan = optimize_round(channel, knowledge.stds, partition, peaks)
        assert plan.beamformer.shape == (1,)
        assert plan.beamformer[0] == pytest.approx(1.0 + 0.0j, abs=1e-9)
        post = optimal_postprocessing(
            np.array([1.0 + 0.0j]), channel, knowledge.stds, partition, peaks
        )
        np.testing.assert_allclose(
            plan.denormalizers, post.denormalizers, rtol=1e-8
        )

    def test_dominates_random_search(self):
        rng = np.random.default_rng(43)
        channel, knowledge, partition, peaks = straggler_instance(rng, 3, 2, 2)
        plan = optimize_round(channel, knowledge.stds, partition, peaks)
        own = completion_score(
            plan.beamformer, channel, knowledge.stds, partition, peaks
        )
        best_random = np.inf
        for _ in range(10_000):
            w = random_beamformer(rng, 2)
            best_random = min(
                best_random,
                completion_score(w, channel, knowledge.stds, partition, peaks),
            )
        assert own <= best_random * (1.0 + 1e-6)

    def test_relaxation_lower_bounds_any_fixed_beamformer(self):
        rng = np.random.default_rng(44)
        channel = random_channel(rng, 5, 3)
        partition = random_partition(rng, 5, 3)
        knowledge = random_knowledge(rng, 5, 3)
        peaks = np.ones(5)
        plan = optimize_round(channel, knowledge.stds, partition, peaks)
        problem = build_relaxation(channel, knowledge.stds, partition, peaks)
        for _ in range(20):
            w = random_beamformer(rng, 3)
            assert plan.diagnostics.relaxation_objective <= relaxation_objective(
                w, problem
            ) + 1e-9 * abs(plan.diagnostics.relaxation_objective)

    def test_deterministic(self):
        rng = np.random.default_rng(45)
        channel = random_channel(rng, 4, 2)
        partition = random_partition(rng, 4, 2)
        knowledge = random_knowledge(rng, 4, 2)
        peaks = np.ones(4)
        plan_a = optimize_round(channel, knowledge.stds, partition, peaks)
        plan_b = optimize_round(channel, knowledge.stds, partition, peaks)
        assert np.array_equal(plan_a.beamformer, plan_b.beamformer)
        assert np.array_equal(plan_a.transmit.equalizers, plan_b.transmit.equalizers)
        assert np.array_equal(
            plan_a.denormalizers, plan_b.denormalizers
        )
        assert plan_a.diagnostics == plan_b.diagnostics

    def test_per_device_phase_invariance(self):
        rng = np.random.default_rng(46)
        channel = random_channel(rng, 4, 3)
        partition = random_partition(rng, 4, 2)
        knowledge = random_knowledge(rng, 4, 2)
        peaks = rng.uniform(0.5, 2.0, 4)
        plan = optimize_round(channel, knowledge.stds, partition, peaks)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        rotated = ChannelState(coefficients=channel.coefficients * phases[:, None])
        plan_rot = optimize_round(rotated, knowledge.stds, partition, peaks)
        np.testing.assert_allclose(
            plan_rot.denormalizers,
            plan.denormalizers,
            rtol=1e-8,
        )
        np.testing.assert_allclose(
            np.abs(plan_rot.transmit.equalizers),
            np.abs(plan.transmit.equalizers),
            rtol=1e-8,
            atol=1e-15,
        )
        assert plan_rot.diagnostics.relaxation_objective == pytest.approx(
            plan.diagnostics.relaxation_objective, rel=1e-8
        )

    def test_tight_instance_reaches_exact_optimum(self):
        # Device 1 is the bottleneck of both classes, so the max-min optimum
        # is its matched filter. The interior-point eigenvector stops about
        # sqrt(tol) short of it; the polish must land on it to roundoff.
        rng = np.random.default_rng(46)
        channel = random_channel(rng, 4, 3)
        partition = random_partition(rng, 4, 2)
        knowledge = random_knowledge(rng, 4, 2)
        peaks = rng.uniform(0.5, 2.0, 4)
        plan = optimize_round(channel, knowledge.stds, partition, peaks)
        power = np.abs(plan.transmit.equalizers[1]) ** 2
        np.testing.assert_allclose(power, peaks[1], rtol=1e-12)
        np.testing.assert_allclose(
            plan.beamformer, canonical_phase(channel.coefficients[1]), rtol=0, atol=1e-12
        )

    def test_non_tight_instance_keeps_eigenvector(self):
        rng = np.random.default_rng(72)
        channel = random_channel(rng, 6, 4)
        partition = random_partition(rng, 6, 3)
        knowledge = random_knowledge(rng, 6, 3)
        peaks = rng.uniform(0.5, 2.0, 6)
        plan = optimize_round(channel, knowledge.stds, partition, peaks)
        problem = build_relaxation(channel, knowledge.stds, partition, peaks)
        eigenvector = extract_principal_eigenpair(solve(problem).W).vector
        assert plan.diagnostics.eig2 > 0.1
        np.testing.assert_array_equal(plan.beamformer, eigenvector)

    def test_plan_never_worse_than_eigenvector(self):
        polished = 0
        for seed in range(60, 80):
            rng = np.random.default_rng(seed)
            channel = random_channel(rng, 6, 4)
            partition = random_partition(rng, 6, 3)
            knowledge = random_knowledge(rng, 6, 3)
            peaks = rng.uniform(0.5, 2.0, 6)
            plan = optimize_round(channel, knowledge.stds, partition, peaks)
            problem = build_relaxation(channel, knowledge.stds, partition, peaks)
            eigenvector = extract_principal_eigenpair(solve(problem).W).vector
            achieved = relaxation_objective(plan.beamformer, problem)
            assert achieved <= relaxation_objective(eigenvector, problem)
            polished += not np.array_equal(plan.beamformer, eigenvector)
        assert polished >= 15

    def test_field_instances_attain_the_relaxation_bound(self):
        # Tight field-scale rounds: the polished beamformer attains the
        # solver's objective to its relative gap tolerance, 1e-8. Besides
        # rounds of the rank-one acceptance claim, three rounds of the
        # field_plan benchmark stream at seed 1 that ended in a numerical
        # breakdown while the solver's dual residual kept an anti-Hermitian
        # roundoff part.
        draws = [(0, "rank-one", r) for r in range(10)]
        draws += [(1, "field_plan", i) for i in (497, 548, 659)]
        for seed, tag, index in draws:
            channel, stds, partition, peaks = field_instance(seed, tag, index)
            plan = optimize_round(channel, stds, partition, peaks)
            problem = build_relaxation(channel, stds, partition, peaks)
            assert plan.diagnostics.eig2 <= 1e-3
            bound = plan.diagnostics.relaxation_objective
            achieved = relaxation_objective(plan.beamformer, problem)
            assert abs(achieved - bound) <= 1e-8 * abs(bound)

    def test_field_solves_fit_the_iteration_budget(self):
        # The interior-point method starts at each instance's own scale: on
        # rounds 0-19 of the rank-one acceptance claim it takes 8.3
        # iterations per solve, against 17.6 from a start with unit slack
        # and dual margins. A start that loses its scale fails here.
        plans = [optimize_round(*field_instance(0, "rank-one", r)) for r in range(20)]
        assert np.mean([p.diagnostics.solver_iterations for p in plans]) <= 11

    def test_bottleneck_regime_rank_one(self):
        rng = np.random.default_rng(47)
        channel, knowledge, partition, peaks = straggler_instance(rng, 8, 3, 4)
        plan = optimize_round(channel, knowledge.stds, partition, peaks)
        assert plan.diagnostics.eig1 >= 0.99
        assert plan.diagnostics.eig2 <= 1e-3
        assert plan.diagnostics.solver_iterations < 200


class TestPolishAcceptance:
    """The polish keeps its start when the KKT point its Newton steps reach
    fails an acceptance check. Each start below converges and fails that one
    check alone, so dropping the check changes the result."""

    def test_negative_multiplier_keeps_the_start(self):
        # Two constraints of one class are held tied, and the KKT point that
        # ties them needs a multiplier of -0.14 on one of them.
        w, problem = drifted_start(30404, 1e-3)
        assert transceiver._polish_beamformer(w, problem) is w

    def test_constraint_below_its_class_level_keeps_the_start(self):
        # A constraint left out of the active set ends 14% below its class
        # level, while the held objective improves.
        w, problem = drifted_start(133, 1e-4)
        assert transceiver._polish_beamformer(w, problem) is w

    def test_worse_objective_keeps_the_start(self):
        # From device 3's matched filter the polish reaches a KKT point whose
        # objective is 0.27% worse.
        _, channel, stds, partition, peaks = desk_round(28)
        problem = build_relaxation(channel, stds, partition, peaks)
        h = channel.coefficients[3]
        w = canonical_phase(h / np.linalg.norm(h))
        assert transceiver._polish_beamformer(w, problem) is w


class TestUniformBaseline:
    def test_single_antenna_same_combining_as_optimal(self):
        rng = np.random.default_rng(51)
        channel = random_channel(rng, 3, 1)
        partition = random_partition(rng, 3, 2)
        knowledge = random_knowledge(rng, 3, 2)
        peaks = np.ones(3)
        uni = uniform_baseline(channel, knowledge.stds, partition, peaks)
        opt = optimize_round(channel, knowledge.stds, partition, peaks)
        np.testing.assert_allclose(uni.beamformer, opt.beamformer, atol=1e-9)

    def test_symmetric_instance_effective_gains_are_weights(self):
        rng = np.random.default_rng(52)
        h = random_channel(rng, 1, 2).coefficients[0]
        channel = ChannelState(coefficients=np.stack([h, h]))
        partition = DatasetPartition(counts=np.array([[6, 4], [6, 4]]))
        q = rng.dirichlet(np.ones(2), size=(1, 2))
        knowledge = KnowledgeSet(q=np.concatenate([q, q]))
        plan = uniform_baseline(channel, knowledge.stds, partition, np.ones(2))
        combined = channel.coefficients @ np.conj(plan.beamformer)
        gains = (
            combined[:, None]
            * plan.transmit.equalizers
            / (plan.denormalizers[None, :] * knowledge.stds)
        )
        np.testing.assert_allclose(gains, np.full((2, 2), 0.5), rtol=1e-12)

    def test_peak_power_uploads(self):
        rng = np.random.default_rng(53)
        channel = random_channel(rng, 5, 3)
        partition = random_partition(rng, 5, 3)
        knowledge = random_knowledge(rng, 5, 3)
        peaks = rng.uniform(0.5, 2.0, 5)
        plan = uniform_baseline(channel, knowledge.stds, partition, peaks)
        power = plan.transmit.equalizers.real**2 + plan.transmit.equalizers.imag**2
        np.testing.assert_allclose(power, np.broadcast_to(peaks[:, None], power.shape), rtol=1e-12)

    def test_optimized_beamformer_dominates_uniform(self):
        rng = np.random.default_rng(54)
        for trial in range(10):
            channel = random_channel(rng, 5, 3)
            partition = random_partition(rng, 5, 3)
            knowledge = random_knowledge(rng, 5, 3)
            peaks = np.full(5, 1.0)
            plan = optimize_round(channel, knowledge.stds, partition, peaks)
            own = completion_score(
                plan.beamformer, channel, knowledge.stds, partition, peaks
            )
            w_uni = np.full(3, 1.0 / np.sqrt(3.0), dtype=np.complex128)
            uni = completion_score(
                w_uni, channel, knowledge.stds, partition, peaks
            )
            assert own <= uni * (1.0 + 1e-9)


    def test_denormalizer_is_the_mean_over_transmitting_devices(self):
        # Device 0 holds no class-1 samples: class 1's denormalizer is the
        # mean of the other two devices' bottleneck expressions.
        rng = np.random.default_rng(55)
        channel = random_channel(rng, 3, 2)
        partition = DatasetPartition(counts=np.array([[5, 0], [4, 6], [3, 2]]))
        knowledge = random_knowledge(rng, 3, 2)
        peaks = rng.uniform(0.5, 2.0, 3)
        plan = uniform_baseline(channel, knowledge.stds, partition, peaks)
        gains = np.abs(channel.coefficients @ np.conj(plan.beamformer))
        for kk in range(2):
            holders = np.flatnonzero(partition.counts[:, kk])
            expressions = (
                partition.class_totals[kk]
                * gains[holders]
                * np.sqrt(peaks[holders])
                / (partition.counts[holders, kk] * knowledge.stds[holders, kk])
            )
            assert plan.denormalizers[kk] == pytest.approx(
                expressions.mean(), rel=1e-12
            )

    @staticmethod
    def relaxation_route(channel, stds, partition, peaks):
        """Reference: the uniform plan's denormalizers and objective through
        the relaxation, from its constraint vectors and relaxation_objective."""
        problem = build_relaxation(channel, stds, partition, peaks)
        n = channel.num_antennas
        w = np.full(n, 1.0 / np.sqrt(n), dtype=np.complex128)
        active = transmit_active_mask(partition, stds)
        expr = partition.class_totals[:, None] * np.abs(
            problem.constraint_vectors @ np.conj(w)
        )
        finite = np.where(active, expr.T, 0.0)
        denormalizers = finite.sum(axis=0) / active.sum(axis=0)
        return denormalizers, relaxation_objective(w, problem)

    @pytest.mark.parametrize("shape", ["desk", "field"])
    def test_matches_the_relaxation_route(self, shape):
        # Devices without samples of a class, and one std below the floor
        # in a class that keeps another transmitting device.
        for seed in range(30 if shape == "desk" else 3):
            if shape == "desk":
                rng, channel, stds, partition, peaks = desk_round(seed)
            else:
                channel, stds, partition, peaks = field_instance(5, "uniform", seed)
                rng = np.random.default_rng(seed)
            m, k = partition.counts.shape
            counts = partition.counts * (rng.random((m, k)) < 0.7)
            counts[np.arange(m), np.arange(m) % k] += 1
            counts[np.arange(k) % m, np.arange(k)] += 1
            partition = DatasetPartition(counts=counts)
            stds = stds.copy()
            active = transmit_active_mask(partition, stds)
            spare = np.argwhere(active & (active.sum(axis=0) > 1))
            stds[tuple(spare[rng.integers(len(spare))])] = 0.5 * Q_HAT_FLOOR
            assert not transmit_active_mask(partition, stds).all()
            plan = uniform_baseline(channel, stds, partition, peaks)
            denormalizers, objective = self.relaxation_route(
                channel, stds, partition, peaks
            )
            assert np.array_equal(plan.denormalizers, denormalizers)
            assert plan.diagnostics.relaxation_objective == objective

    @staticmethod
    def call(function, channel, stds, partition, peaks):
        if function is optimal_postprocessing:
            w = random_beamformer(np.random.default_rng(0), channel.num_antennas)
            return optimal_postprocessing(w, channel, stds, partition, peaks)
        return function(channel, stds, partition, peaks)

    @pytest.mark.parametrize(
        "function", [build_relaxation, optimal_postprocessing, uniform_baseline]
    )
    def test_class_without_transmitting_device_rejected(self, function):
        # Class 1 is held by every device, but every one of its stds lies
        # below the floor, so no device transmits it.
        rng = np.random.default_rng(56)
        channel = random_channel(rng, 3, 2)
        partition = random_partition(rng, 3, 2)
        stds = random_knowledge(rng, 3, 2).stds.copy()
        stds[:, 1] = 0.5 * Q_HAT_FLOOR
        with pytest.raises(ValueError, match="infeasible mask"):
            self.call(function, channel, stds, partition, np.ones(3))

    @pytest.mark.parametrize(
        "function", [build_relaxation, optimal_postprocessing, uniform_baseline]
    )
    def test_overflowing_scaled_channel_rejected(self, function):
        # Finite inputs whose scaled vectors overflow: device 0's
        # sqrt(P_0) |h_0| / (B_0^k q_hat_0^k) is about 1e150 * 1e200 / 1e-8.
        rng = np.random.default_rng(57)
        coefficients = random_channel(rng, 3, 2).coefficients * 1e200
        channel = ChannelState(coefficients=coefficients)
        partition = random_partition(rng, 3, 2)
        stds = random_knowledge(rng, 3, 2).stds.copy()
        stds[0] = Q_HAT_FLOOR
        peaks = np.array([1e300, 1.0, 1.0])
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="active constraint vectors must be finite"
        ):
            self.call(function, channel, stds, partition, peaks)


class TestOrthogonalBaseline:
    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(61)
        m, k, n = 4, 3, 2
        channel = random_channel(rng, m, n)
        partition = random_partition(rng, m, k)
        knowledge = random_knowledge(rng, m, k)
        peaks = np.full(m, 1e-3)
        est = orthogonal_receive(
            channel, knowledge, partition, peaks, np.zeros((m, k, k, n))
        )
        target = global_target(knowledge, partition)
        assert np.max(np.abs(est.real - target)) <= 1e-12
        assert np.max(np.abs(est.imag)) <= 1e-12

    def test_single_wd_matches_superposed_path(self):
        rng = np.random.default_rng(62)
        m, k, n = 1, 3, 2
        channel = random_channel(rng, m, n)
        partition = DatasetPartition(counts=rng.integers(5, 20, size=(1, k)))
        knowledge = random_knowledge(rng, m, k)
        peaks = np.array([2.0])
        h = channel.coefficients[0]
        w = h / np.linalg.norm(h)
        post = optimal_postprocessing(w, channel, knowledge.stds, partition, peaks)
        noise = rng.standard_normal((k * k, n)) + 1j * rng.standard_normal((k * k, n))
        plan = TransceiverPlan(
            transmit=TransmitPlan(equalizers=post.equalizers, peak_powers=peaks),
            beamformer=w,
            denormalizers=post.denormalizers,
            diagnostics=PlanDiagnostics(1.0, 0.0, 0.0, 0),
        )
        est_air = aggregate_over_air(knowledge, partition, plan, channel, noise)
        est_orth = orthogonal_receive(
            channel, knowledge, partition, peaks, noise.reshape(m, k, k, n)
        )
        scale = np.max(np.abs(est_air))
        assert np.max(np.abs(est_air - est_orth)) <= 1e-9 * scale

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(63)
        m, k, n = 4, 3, 2
        channel = random_channel(rng, m, n)
        partition = random_partition(rng, m, k)
        knowledge = random_knowledge(rng, m, k)
        peaks = rng.uniform(0.5, 2.0, m)
        noise = rng.standard_normal((m, k, k, n)) + 1j * rng.standard_normal(
            (m, k, k, n)
        )
        est = orthogonal_receive(channel, knowledge, partition, peaks, noise)
        expected = np.zeros((k, k), dtype=np.complex128)
        for kk in range(k):
            for i in range(m):
                h = channel.coefficients[i]
                w_i = h / np.linalg.norm(h)
                x = (
                    knowledge.q[i, kk] - knowledge.means[i, kk]
                ) / knowledge.stds[i, kk]
                amplitude = np.linalg.norm(h) * np.sqrt(peaks[i])
                y = amplitude * x + noise[i, kk] @ np.conj(w_i)
                q_tilde = knowledge.stds[i, kk] * (y / amplitude) + knowledge.means[
                    i, kk
                ]
                expected[kk] += (
                    partition.counts[i, kk] / partition.class_totals[kk]
                ) * q_tilde
        np.testing.assert_allclose(est, expected, rtol=1e-10)

    def test_degenerate_knowledge_carried_by_mean(self):
        rng = np.random.default_rng(64)
        m, k, n = 2, 2, 2
        channel = random_channel(rng, m, n)
        partition = DatasetPartition(counts=np.array([[5, 5], [5, 5]]))
        q = rng.dirichlet(np.ones(k), size=(m, k))
        q[0, 0] = np.full(k, 1.0 / k)  # exactly constant -> zero std
        knowledge = KnowledgeSet(q=q)
        assert knowledge.stds[0, 0] == 0.0
        est = orthogonal_receive(
            channel, knowledge, partition, np.ones(m), np.zeros((m, k, k, n))
        )
        target = global_target(knowledge, partition)
        assert np.max(np.abs(est.real - target)) <= 1e-12

    def inputs(self):
        rng = np.random.default_rng(65)
        m, k, n = 4, 3, 2
        channel = random_channel(rng, m, n)
        partition = random_partition(rng, m, k)
        knowledge = random_knowledge(rng, m, k)
        return channel, knowledge, partition, np.ones(m), np.zeros((m, k, k, n))

    @pytest.mark.parametrize("m, k", [(3, 3), (4, 2)])
    def test_knowledge_of_another_shape_rejected(self, m, k):
        channel, _, partition, peaks, noise = self.inputs()
        knowledge = random_knowledge(np.random.default_rng(66), m, k)
        with pytest.raises(ValueError, match=r"disagree on \(M, K\)"):
            orthogonal_receive(channel, knowledge, partition, peaks, noise)

    @pytest.mark.parametrize("shape", [(4, 3, 3, 3), (4, 3, 9, 2), (36, 2)])
    def test_noise_of_another_shape_rejected(self, shape):
        channel, knowledge, partition, peaks, _ = self.inputs()
        with pytest.raises(ValueError, match="noise must have shape"):
            orthogonal_receive(channel, knowledge, partition, peaks, np.zeros(shape))

    def test_zero_channel_row_rejected(self):
        channel, knowledge, partition, peaks, noise = self.inputs()
        coefficients = channel.coefficients.copy()
        coefficients[2] = 0.0
        with pytest.raises(ValueError, match="identically zero"):
            orthogonal_receive(
                ChannelState(coefficients=coefficients), knowledge, partition, peaks, noise
            )


class TestBeamformerLengthCheck:
    @pytest.mark.parametrize("n", [2, 4])
    def test_beamformer_of_another_length_rejected(self, n):
        rng = np.random.default_rng(67)
        channel = random_channel(rng, 4, 3)
        partition = random_partition(rng, 4, 3)
        knowledge = random_knowledge(rng, 4, 3)
        peaks = np.ones(4)
        w = random_beamformer(rng, n)
        with pytest.raises(ValueError, match="beamformer length"):
            optimal_postprocessing(w, channel, knowledge.stds, partition, peaks)
        problem = build_relaxation(channel, knowledge.stds, partition, peaks)
        with pytest.raises(ValueError, match=r"beamformer must have shape \(3,\)"):
            relaxation_objective(w, problem)


class TestPlanTypeAndDump:
    def build_plan(self):
        rng = np.random.default_rng(71)
        channel = random_channel(rng, 3, 2)
        partition = random_partition(rng, 3, 2)
        knowledge = random_knowledge(rng, 3, 2)
        return optimize_round(channel, knowledge.stds, partition, np.ones(3))

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("denormalizers", np.array([0.0, 1.0]), "denormalizers"),
            ("denormalizers", np.ones(3), "denormalizers"),
            ("beamformer", np.array([0.7 + 0j, 0.0]), "unit"),
            ("beamformer", np.eye(2, dtype=complex), "vector"),
            ("denormalizers", np.array([-1.0, 1.0]), "denormalizers"),
            ("denormalizers", np.ones((1, 2)), "denormalizers"),
            ("beamformer", np.array([2.0 + 0j, 0.0]), "unit"),
            ("denormalizers", np.array([np.nan, 1.0]), "denormalizers"),
            ("denormalizers", np.array([1.0, np.inf]), "denormalizers"),
            ("beamformer", np.array([np.nan + 0j, 0.0]), "unit"),
        ],
    )
    def test_bad_fields_rejected(self, field, value, match):
        plan = self.build_plan()
        fields = dict(
            transmit=plan.transmit,
            beamformer=plan.beamformer,
            denormalizers=plan.denormalizers,
            diagnostics=plan.diagnostics,
        )
        fields[field] = value
        with pytest.raises(ValueError, match=match):
            TransceiverPlan(**fields)


class TestPeakPowerChecks:
    @staticmethod
    def call(function, channel, knowledge, partition, peaks):
        m, k = partition.counts.shape
        if function is orthogonal_receive:
            noise = np.zeros((m, k, k, channel.num_antennas))
            return orthogonal_receive(channel, knowledge, partition, peaks, noise)
        if function is optimal_postprocessing:
            w = random_beamformer(np.random.default_rng(0), channel.num_antennas)
            return optimal_postprocessing(
                w, channel, knowledge.stds, partition, peaks
            )
        if function is p2_objective:
            w = random_beamformer(np.random.default_rng(0), channel.num_antennas)
            return p2_objective(
                w, channel, knowledge.stds, partition, peaks, 1e-3, 1.0, 10
            )
        return function(channel, knowledge.stds, partition, peaks)

    @pytest.mark.parametrize(
        "function",
        [build_relaxation, optimal_postprocessing, uniform_baseline, orthogonal_receive],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1e-3])
    def test_non_finite_or_non_positive_peak_rejected(self, function, bad):
        rng = np.random.default_rng(81)
        channel = random_channel(rng, 4, 3)
        partition = random_partition(rng, 4, 3)
        knowledge = random_knowledge(rng, 4, 3)
        peaks = np.full(4, 1e-3)
        self.call(function, channel, knowledge, partition, peaks)  # accepted
        peaks[2] = bad
        with pytest.raises(ValueError, match=r"peak_powers must be \(M,\) positive"):
            self.call(function, channel, knowledge, partition, peaks)
        with pytest.raises(ValueError, match=r"peak_powers must be \(M,\) positive"):
            self.call(function, channel, knowledge, partition, peaks[:3])


class TestDeviceCountCheck:
    @pytest.mark.parametrize(
        "function",
        [
            build_relaxation,
            optimal_postprocessing,
            uniform_baseline,
            optimize_round,
            orthogonal_receive,
            p2_objective,
        ],
    )
    @pytest.mark.parametrize("channel_wds", [1, 3])
    def test_channel_of_another_device_count_rejected(self, function, channel_wds):
        rng = np.random.default_rng(82)
        partition = random_partition(rng, 4, 3)
        knowledge = random_knowledge(rng, 4, 3)
        peaks = np.full(4, 1e-3)
        call = TestPeakPowerChecks.call
        call(function, random_channel(rng, 4, 3), knowledge, partition, peaks)
        channel = random_channel(rng, channel_wds, 3)
        with pytest.raises(ValueError, match="channel and partition disagree"):
            call(function, channel, knowledge, partition, peaks)
