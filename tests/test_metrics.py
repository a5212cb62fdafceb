"""Tests for the per-round error functionals, objectives, and the CSV row
format."""

import numpy as np
import pytest

from airfd.channel import ChannelState, perturb_csi
from airfd.knowledge import DatasetPartition, KnowledgeSet
from airfd.learner import LearnerConfig
from airfd.metrics import (
    RoundMetrics,
    a2_coefficient,
    csv_header,
    p2_objective,
    phi1,
    phi2_sq_all,
)
from airfd.oracles import phi2_sq_monte_carlo
from airfd.transceiver import (
    PlanDiagnostics,
    TransceiverPlan,
    TransmitPlan,
    optimal_postprocessing,
    optimize_round,
    uniform_baseline,
)


def random_channel(rng, m, n, scale=1.0):
    parts = rng.standard_normal((m, n, 2)) * np.sqrt(0.5)
    return ChannelState(coefficients=scale * (parts[..., 0] + 1j * parts[..., 1]))


def random_partition(rng, m, k, low=5, high=40):
    return DatasetPartition(counts=rng.integers(low, high, size=(m, k)))


def random_knowledge(rng, m, k):
    return KnowledgeSet(q=rng.dirichlet(np.ones(k), size=(m, k)))


def random_instance(rng, m=4, k=3, n=2):
    return (
        random_channel(rng, m, n),
        random_knowledge(rng, m, k),
        random_partition(rng, m, k),
        np.full(m, 1.0),
    )


def custom_plan(rng, channel, knowledge, partition, peaks):
    """An arbitrary (non-optimized) plan for oracle comparisons."""
    n = channel.num_antennas
    parts = rng.standard_normal((n, 2))
    w = (parts[:, 0] + 1j * parts[:, 1]) / np.linalg.norm(parts[:, 0] + 1j * parts[:, 1])
    m, k = partition.counts.shape
    eq = 0.1 * (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k)))
    lams = rng.uniform(0.5, 2.0, k)
    return TransceiverPlan(
        transmit=TransmitPlan(equalizers=eq, peak_powers=peaks),
        beamformer=w,
        denormalizers=lams,
        diagnostics=PlanDiagnostics(
            eig1=1.0,
            eig2=0.0,
            relaxation_objective=0.0,
            solver_iterations=0,
        ),
    )


def phi1_loop_oracle(plan, channel, knowledge, partition):
    """Scalar-by-scalar evaluation of the misalignment error."""
    m, k = partition.counts.shape
    w = plan.beamformer
    result = np.zeros(m)
    for kk in range(k):
        vec = np.zeros(k, dtype=np.complex128)
        for j in range(m):
            weight = partition.counts[j, kk] / partition.class_totals[kk]
            if partition.counts[j, kk] > 0 and knowledge.stds[j, kk] >= 1e-8:
                g = (
                    (np.conj(w) @ channel.coefficients[j])
                    * plan.transmit.equalizers[j, kk]
                    / (plan.denormalizers[kk] * knowledge.stds[j, kk])
                )
            else:
                g = 0.0
            vec += (g - weight) * knowledge.q[j, kk]
            vec += (weight - g) * knowledge.means[j, kk] * np.ones(k)
        norm = np.linalg.norm(vec)
        for i in range(m):
            result[i] += partition.counts[i, kk] / partition.per_wd_totals[i] * norm
    return result


class TestBoundCoefficients:
    def test_formulas(self):
        config = LearnerConfig(distill_weight=0.5, init_lr=0.01, rounds=10)
        assert a2_coefficient(config) == pytest.approx(6.0 * 0.01 * 0.25, rel=1e-15)


class TestPhi1:
    def test_optimal_plan_perfect_estimates_zero(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            channel, knowledge, partition, peaks = random_instance(rng)
            plan = optimize_round(channel, knowledge.stds, partition, peaks)
            assert np.max(phi1(plan, channel, knowledge, partition)) <= 1e-9

    def test_matches_loop_oracle_on_arbitrary_plan(self):
        rng = np.random.default_rng(102)
        channel, knowledge, partition, peaks = random_instance(rng, m=3, k=2)
        plan = custom_plan(rng, channel, knowledge, partition, peaks)
        np.testing.assert_allclose(
            phi1(plan, channel, knowledge, partition),
            phi1_loop_oracle(plan, channel, knowledge, partition),
            rtol=1e-10,
        )

    def test_inputs_of_another_device_count_rejected(self):
        """The uplink that phi1 reads checks the device counts."""
        rng = np.random.default_rng(105)
        channel, knowledge, partition, peaks = random_instance(rng)
        plan = uniform_baseline(channel, knowledge.stds, partition, peaks)
        for wds in (3, 5):
            with pytest.raises(ValueError, match="matching the channel's M"):
                phi1(plan, random_channel(rng, wds, 2), knowledge, partition)
            with pytest.raises(ValueError, match="partition's \\(M, K\\) shape"):
                phi1(plan, channel, random_knowledge(rng, wds, 3), partition)

    def test_uniform_plan_positive_and_above_optimal(self):
        rng = np.random.default_rng(103)
        channel, knowledge, partition, peaks = random_instance(rng)
        optimal = optimize_round(channel, knowledge.stds, partition, peaks)
        uniform = uniform_baseline(channel, knowledge.stds, partition, peaks)
        val_uniform = phi1(uniform, channel, knowledge, partition)
        val_optimal = phi1(optimal, channel, knowledge, partition)
        assert np.all(val_uniform > 0)
        assert np.all(val_uniform > val_optimal)

    def test_imperfect_estimates_leave_residual(self):
        rng = np.random.default_rng(104)
        truth = random_channel(rng, 4, 2)
        knowledge = random_knowledge(rng, 4, 3)
        partition = random_partition(rng, 4, 3)
        peaks = np.full(4, 1.0)
        perceived = perturb_csi(truth, 0.8, rng)
        plan = optimize_round(perceived, knowledge.stds, partition, peaks)
        residual = phi1(plan, truth, knowledge, partition)
        assert np.all(residual > 1e-6)


class TestPhi2:
    def test_zero_noise(self):
        partition = DatasetPartition(counts=np.array([[3, 5]]))
        assert phi2_sq_all(np.array([1.0, 2.0]), partition, 0.0)[0] == 0.0

    def test_single_class_unit_values(self):
        partition = DatasetPartition(counts=np.array([[7]]))
        assert phi2_sq_all(np.array([1.0]), partition, 0.25)[0] == pytest.approx(
            0.25, rel=1e-15
        )

    def test_matches_manual_sum(self):
        lams = np.array([2.0, 0.5, 1.0])
        counts = np.array([2, 3, 5])
        sigma = 0.1
        expected = sum(
            counts[kk] / 10.0 * 3 * sigma / lams[kk] ** 2 for kk in range(3)
        )
        partition = DatasetPartition(counts=counts[None, :])
        assert phi2_sq_all(lams, partition, sigma)[0] == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize(
        "lams",
        [
            [2.0],
            [1.0, 2.0, 0.5, 1.0],
            [1.0, np.nan, 2.0],
            [1.0, np.inf, 2.0],
            [1.0, 0.0, 2.0],
            [1.0, -1.0, 2.0],
        ],
    )
    def test_bad_denormalizers_rejected(self, lams):
        partition = DatasetPartition(counts=np.array([[2, 3, 5], [1, 4, 4]]))
        with pytest.raises(ValueError, match=r"denormalizers must be \(3,\) finite"):
            phi2_sq_all(np.array(lams), partition, 0.1)

    def test_monte_carlo_matches_analytic(self):
        rng = np.random.default_rng(111)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = w / np.linalg.norm(w)
        lams = np.array([0.8, 1.7, 1.2])
        counts = np.array([4, 9, 6])
        sigma = 0.5
        estimate = phi2_sq_monte_carlo(
            w, lams, counts, sigma, np.random.default_rng(2024), draws=20_000
        )
        target = phi2_sq_all(lams, DatasetPartition(counts=counts[None, :]), sigma)[0]
        assert abs(estimate - target) <= 0.02 * target

    def test_monte_carlo_batch_size_is_not_an_argument(self):
        # A caller-chosen batch size of 0 made the draw loop spin forever.
        w, lams, counts = np.ones(1), np.ones(1), np.ones(1)
        rng = np.random.default_rng(0)
        with pytest.raises(TypeError):
            phi2_sq_monte_carlo(w, lams, counts, 1.0, rng, chunk=0)
        with pytest.raises(ValueError, match="draws"):
            phi2_sq_monte_carlo(w, lams, counts, 1.0, rng, draws=0)


class TestP2Objective:
    def test_single_wd_closed_form(self):
        rng = np.random.default_rng(120)
        channel = random_channel(rng, 1, 3)
        knowledge = random_knowledge(rng, 1, 2)
        partition = DatasetPartition(counts=np.array([[6, 14]]))
        peaks = np.array([2.0])
        parts = rng.standard_normal((3, 2))
        w = parts[:, 0] + 1j * parts[:, 1]
        w = w / np.linalg.norm(w)
        a2, rounds, sigma = 0.3, 50, 1e-2
        gain = abs(np.conj(w) @ channel.coefficients[0])
        mix = partition.counts[0] / 20.0
        expected = (
            a2
            * 2
            * sigma
            / np.sqrt(rounds)
            * np.sum(mix * knowledge.stds[0] / (gain * np.sqrt(peaks[0])))
        )
        value = p2_objective(
            w, channel, knowledge.stds, partition, peaks, sigma, a2, rounds
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(121)
        channel, knowledge, partition, peaks = random_instance(rng, m=4, k=3, n=2)
        parts = rng.standard_normal((2, 2))
        w = parts[:, 0] + 1j * parts[:, 1]
        w = w / np.linalg.norm(w)
        a2, rounds, sigma = 0.7, 30, 5e-3
        post = optimal_postprocessing(w, channel, knowledge.stds, partition, peaks)
        expected = 0.0
        for i in range(4):
            for kk in range(3):
                expected += (
                    a2
                    * 3
                    * sigma
                    / np.sqrt(rounds)
                    * partition.counts[i, kk]
                    / partition.per_wd_totals[i]
                    / post.denormalizers[kk]
                )
        value = p2_objective(
            w, channel, knowledge.stds, partition, peaks, sigma, a2, rounds
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_optimized_plan_dominates_random_search(self):
        rng = np.random.default_rng(122)
        m, k, n = 3, 2, 2
        channel = random_channel(rng, m, n)
        coef = channel.coefficients.copy()
        coef[0] *= 0.05
        channel = ChannelState(coefficients=coef)
        counts = rng.integers(10, 30, size=(m, k))
        counts[0] *= 100
        partition = DatasetPartition(counts=counts)
        knowledge = random_knowledge(rng, m, k)
        peaks = np.full(m, 1e-3)
        plan = optimize_round(channel, knowledge.stds, partition, peaks)
        args = (channel, knowledge.stds, partition, peaks, 1e-8, 0.5, 100)
        own = p2_objective(plan.beamformer, *args)
        for _ in range(10_000):
            parts = rng.standard_normal((n, 2))
            w = parts[:, 0] + 1j * parts[:, 1]
            w = w / np.linalg.norm(w)
            assert own <= p2_objective(w, *args) * (1.0 + 1e-9)


class TestCsvFormat:
    def make_metrics(self, **overrides):
        base = dict(
            trial=2,
            round=17,
            method="proposed",
            N=5,
            M=10,
            K=3,
            zeta=0.8,
            phi1_max=1.5e-9,
            phi1_mean=0.5e-9,
            phi2_sq_mean=2.25e-4,
            p2_obj=0.125,
            p4_obj=-3.5e-7,
            eig1=0.9999,
            eig2=1e-6,
            train_loss_mean=0.42,
            test_acc_mean=0.91,
        )
        base.update(overrides)
        return RoundMetrics(**base)

    def test_header_is_pinned(self):
        assert csv_header() == (
            "trial,round,method,N,M,K,zeta,phi1_max,phi1_mean,phi2_sq_mean,"
            "p2_obj,p4_obj,eig1,eig2,train_loss_mean,test_acc_mean,wall_ms"
        )

    def test_row_round_trips(self):
        row = self.make_metrics().to_csv_row()
        fields = row.split(",")
        assert len(fields) == len(csv_header().split(","))
        assert fields[0] == "2" and fields[1] == "17" and fields[2] == "proposed"
        assert float(fields[6]) == 0.8
        assert float(fields[10]) == 0.125
        assert fields[-1] == "0.0"

    def test_row_deterministic(self):
        a = self.make_metrics().to_csv_row()
        b = self.make_metrics().to_csv_row()
        assert a == b

    def test_invalid_measures_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            self.make_metrics(phi1_max=-1.0)
        with pytest.raises(ValueError, match="eig1"):
            self.make_metrics(eig1=0.1, eig2=0.9)
        for field, value in (
            ("p2_obj", np.inf),
            ("p2_obj", -1.0),
            ("p4_obj", -np.inf),
            ("train_loss_mean", np.inf),
            ("train_loss_mean", -1.0),
            ("test_acc_mean", 2.0),
            ("test_acc_mean", -0.5),
            ("eig2", -np.inf),
        ):
            with pytest.raises(ValueError, match=field):
                self.make_metrics(**{field: value})

    @pytest.mark.parametrize(
        "field, match",
        [
            ("phi1_max", "nonnegative"),
            ("phi1_mean", "nonnegative"),
            ("phi2_sq_mean", "nonnegative"),
            ("eig1", "eig1"),
            ("eig2", "eig2 must be finite"),
            ("p2_obj", "p2_obj"),
            ("p4_obj", "p4_obj"),
            ("train_loss_mean", "train_loss_mean"),
            ("test_acc_mean", "test_acc_mean"),
        ],
    )
    def test_nan_measures_rejected(self, field, match):
        with pytest.raises(ValueError, match=match):
            self.make_metrics(**{field: float("nan")})
