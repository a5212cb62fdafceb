"""Acceptance suite: one test per criterion, at the stated tolerances and
time budgets. Each test is independently runnable and deterministic."""

import time
from dataclasses import replace

import numpy as np

from airfd import expcli
from airfd.channel import (
    ChannelConfig,
    ChannelState,
    path_loss,
    perturb_csi,
    sample_channel,
    sample_noise,
)
from airfd.knowledge import DatasetPartition, KnowledgeSet, global_target
from airfd.learner import Architecture, init_params, loss_and_grad
from airfd.metrics import (
    misalignment_vectors,
    p2_objective,
    phi2_sq_all,
    phi2_sq_monte_carlo,
)
from airfd.oracles import beamformer_grid_search, finite_difference_gradient
from airfd.rng import substream
from airfd.transceiver import build_relaxation, optimize_round
from airfd.expcli import (
    config_from_parser,
    default_parser,
    run_experiment,
    synthesize_dataset,
)

FIELD_CONFIG = ChannelConfig(
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


def random_instance(rng, num_wds, num_classes, num_antennas):
    """A random optimization instance: channel, knowledge, counts, budgets."""
    config = replace(
        FIELD_CONFIG, num_wds=num_wds, num_antennas=num_antennas
    )
    distances = rng.uniform(*config.distance_range, size=num_wds)
    channel = sample_channel(config, distances, rng)
    counts = rng.integers(5, 50, size=(num_wds, num_classes))
    part = DatasetPartition(counts=counts)
    knowledge = KnowledgeSet(
        q=rng.dirichlet(np.full(num_classes, 0.5), size=(num_wds, num_classes))
    )
    peaks = np.full(num_wds, 1e-3)
    return channel, knowledge, part, peaks


def test_c01_relaxation_solution_is_rank_one():
    """Over 120 random rounds at M=50, N=5, K=10 with field-scale channel
    parameters, the relaxed solution has eig1 >= 0.99 and eig2 <= 1e-3 in at
    least 99% of rounds, within 2 minutes."""
    start = time.perf_counter()
    rounds, hits = 120, 0
    for r in range(rounds):
        rng = substream(0, "rank-one", r)
        distances = rng.uniform(*FIELD_CONFIG.distance_range, size=50)
        channel = sample_channel(FIELD_CONFIG, distances, rng)
        counts = rng.integers(100, 301, size=(50, 10))
        counts[np.argmax(distances)] *= 100
        part = DatasetPartition(counts=counts)
        stds = rng.uniform(0.05, 0.3, size=(50, 10))
        peaks = np.full(50, 1e-3)
        plan = optimize_round(channel, stds, part, peaks)
        if plan.diagnostics.eig1 >= 0.99 and plan.diagnostics.eig2 <= 1e-3:
            hits += 1
    assert hits >= int(np.ceil(0.99 * rounds))
    assert time.perf_counter() - start < 120.0


def test_c02_optimal_plan_has_zero_misalignment():
    """With perfect channel knowledge the optimized plan leaves every
    per-class misalignment component at most 1e-9, on 1000 random instances,
    within 30 seconds."""
    start = time.perf_counter()
    worst = 0.0
    for index in range(1000):
        rng = substream(0, "misalignment", index)
        channel, knowledge, part, peaks = random_instance(
            rng,
            num_wds=int(rng.integers(2, 7)),
            num_classes=int(rng.integers(2, 5)),
            num_antennas=int(rng.integers(2, 6)),
        )
        plan = optimize_round(channel, knowledge.stds, part, peaks)
        vectors = misalignment_vectors(plan, channel, knowledge, part)
        worst = max(worst, float(np.linalg.norm(vectors, axis=1).max()))
    assert worst <= 1e-9
    assert time.perf_counter() - start < 30.0


def test_c03_solver_matches_exhaustive_beamformer_grid():
    """At N=2 the solver's relaxation objective matches a phase-quotiented
    exhaustive unit-sphere search (10^6 coarse points, refined) within 1e-3
    relative, on 50 random instances, within 5 minutes."""
    start = time.perf_counter()
    for index in range(50):
        rng = substream(0, "grid-check", index)
        channel, knowledge, part, peaks = random_instance(
            rng,
            num_wds=int(rng.integers(2, 6)),
            num_classes=int(rng.integers(2, 4)),
            num_antennas=2,
        )
        plan = optimize_round(channel, knowledge.stds, part, peaks)
        problem = build_relaxation(channel, knowledge.stds, part, peaks)
        grid_value = beamformer_grid_search(problem)
        solver_value = plan.diagnostics.relaxation_objective
        gap = abs(grid_value - solver_value) / max(abs(solver_value), 1e-300)
        assert gap <= 1e-3
    assert time.perf_counter() - start < 300.0


def test_c04_per_class_bottleneck_saturates_its_power_budget():
    """For every class, every device whose effective-gain expression lies
    within 1e-12 relative of the class minimum transmits at its power budget
    (1e-9 relative), no device exceeds its own budget (1e-9 relative), and
    every device whose expression exceeds the class minimum by more than 1e-9
    relative stays strictly below its budget, within 10 seconds.

    At the exact optimum a class's bottleneck can be tied between devices
    whose expressions agree to roundoff; each of them then sits at its budget
    to roundoff, so only a device clearly off the minimum must stay strictly
    below."""
    start = time.perf_counter()
    for index in range(100):
        rng = substream(0, "saturation", index)
        channel, knowledge, part, peaks = random_instance(
            rng,
            num_wds=int(rng.integers(3, 9)),
            num_classes=int(rng.integers(2, 6)),
            num_antennas=int(rng.integers(2, 5)),
        )
        plan = optimize_round(channel, knowledge.stds, part, peaks)
        powers = np.abs(plan.transmit.equalizers) ** 2
        gains = np.abs(np.conj(plan.beamformer) @ channel.coefficients.T)
        class_totals = part.counts.sum(axis=0)
        for k in range(part.num_classes):
            expressions = (
                class_totals[k]
                * gains
                * np.sqrt(peaks)
                / (part.counts[:, k] * knowledge.stds[:, k])
            )
            lowest = expressions.min()
            tied = expressions <= lowest * (1.0 + 1e-12)
            budgets = peaks[tied]
            assert np.all(np.abs(powers[tied, k] - budgets) <= 1e-9 * budgets)
            assert np.all(powers[:, k] <= peaks * (1.0 + 1e-9))
            clear = expressions > lowest * (1.0 + 1e-9)
            assert np.all(powers[clear, k] < peaks[clear])
    assert time.perf_counter() - start < 10.0


def test_c05_noise_error_formula_matches_monte_carlo():
    """The analytic squared noise error matches a 1e5-draw Monte-Carlo
    simulation within 2% on 20 random instances, within 1 minute."""
    start = time.perf_counter()
    noise_variance = 1e-2
    for index in range(20):
        rng = substream(0, "noise-check", index)
        channel, knowledge, part, peaks = random_instance(
            rng,
            num_wds=int(rng.integers(2, 6)),
            num_classes=int(rng.integers(2, 5)),
            num_antennas=int(rng.integers(2, 5)),
        )
        plan = optimize_round(channel, knowledge.stds, part, peaks)
        analytic = phi2_sq_all(plan.denormalizers, part, noise_variance)[0]
        simulated = phi2_sq_monte_carlo(
            plan.beamformer,
            plan.denormalizers,
            part.counts[0],
            noise_variance,
            substream(0, "noise-check-draws", index),
            draws=100_000,
        )
        assert abs(simulated - analytic) <= 0.02 * analytic
    assert time.perf_counter() - start < 60.0


def test_c06_noiseless_round_recovers_targets_exactly():
    """With zero receiver noise and the optimal plan, the estimated global
    knowledge equals the exact aggregation target to 1e-9 in the max norm,
    on 200 random instances, within 10 seconds."""
    start = time.perf_counter()
    for index in range(200):
        rng = substream(0, "noiseless", index)
        num_classes = int(rng.integers(2, 5))
        num_antennas = int(rng.integers(2, 5))
        channel, knowledge, part, peaks = random_instance(
            rng,
            num_wds=int(rng.integers(2, 6)),
            num_classes=num_classes,
            num_antennas=num_antennas,
        )
        plan = optimize_round(channel, knowledge.stds, part, peaks)
        silent = sample_noise(
            num_antennas, num_classes * num_classes, 0.0, rng
        )
        estimate = expcli.aggregate_over_air(
            knowledge, part, plan, channel, silent
        )
        target = global_target(knowledge, part)
        assert float(np.max(np.abs(estimate - target))) <= 1e-9
    assert time.perf_counter() - start < 10.0


def test_c07_analytic_gradient_matches_finite_differences():
    """The training loss gradient matches central finite differences within
    1e-4 relative on 20 random small models, within 30 seconds."""
    start = time.perf_counter()
    for index in range(20):
        rng = substream(0, "gradient", index)
        arch = Architecture(
            feature_dim=int(rng.integers(3, 11)),
            hidden_dim=int(rng.integers(4, 13)),
            num_classes=int(rng.integers(2, 6)),
        )
        assert arch.param_count <= 500
        params = init_params(arch, [rng])
        batch = int(rng.integers(8, 21))
        features = rng.standard_normal((batch, arch.feature_dim))
        labels = rng.integers(0, arch.num_classes, size=batch)
        knowledge = rng.dirichlet(
            np.ones(arch.num_classes), size=arch.num_classes
        )
        gamma = float(rng.uniform(0.0, 2.0))

        def device_loss_and_grad(theta):  # one device holding the batch
            model = replace(params, theta=theta[None])
            value, grad = loss_and_grad(
                model, features, labels, [batch], knowledge, gamma
            )
            return value[0], grad[0]

        analytic = device_loss_and_grad(params.theta[0])[1]

        def loss_only(theta):
            return device_loss_and_grad(theta)[0]

        numeric = finite_difference_gradient(loss_only, params.theta[0])
        gap = np.linalg.norm(analytic - numeric)
        gap /= max(np.linalg.norm(numeric), 1e-12)
        assert gap <= 1e-4
    assert time.perf_counter() - start < 30.0


def test_c08_more_antennas_shrink_noise_penalty_and_csi_gap():
    """The mean noise-penalty objective over 100 channel draws is
    non-increasing in the antenna count for perfect and imperfect channel
    knowledge, and the imperfect-knowledge gap shrinks, within 5 minutes."""
    start = time.perf_counter()
    num_wds, num_classes = 4, 3
    antenna_counts = (2, 4, 6, 8)
    setup = substream(0, "antenna-trend", "instance")
    counts = setup.integers(50, 70, size=(num_wds, num_classes))
    part = DatasetPartition(counts=counts)
    stds = setup.uniform(0.10, 0.20, size=(num_wds, num_classes))
    peaks = np.full(num_wds, 1e-3)
    noise_variance = 1e-8
    coefficient, rounds = 6.0, 200
    config = replace(FIELD_CONFIG, num_wds=num_wds)
    distances = substream(0, "antenna-trend", "distance").uniform(
        140.0, 160.0, size=num_wds
    )
    amplitudes = np.sqrt([path_loss(d, config) for d in distances])

    curves = {}
    for zeta in (1.0, 0.8):
        means = []
        for n in antenna_counts:
            values = []
            for draw in range(100):
                fading_rng = substream(0, "antenna-trend", "fading", draw)
                fading = (
                    fading_rng.standard_normal((num_wds, 8))
                    + 1j * fading_rng.standard_normal((num_wds, 8))
                ) / np.sqrt(2.0)
                csi_rng = substream(0, "antenna-trend", "csi", draw)
                estimate_noise = (
                    csi_rng.standard_normal((num_wds, 8))
                    + 1j * csi_rng.standard_normal((num_wds, 8))
                ) / np.sqrt(2.0)
                truth = fading[:, :n]
                if zeta == 1.0:
                    perceived = truth
                else:
                    perceived = (
                        np.sqrt(zeta) * truth
                        + np.sqrt(1.0 - zeta) * estimate_noise[:, :n]
                    )
                true_state = ChannelState(
                    coefficients=truth * amplitudes[:, None]
                )
                seen_state = ChannelState(
                    coefficients=perceived * amplitudes[:, None]
                )
                plan = optimize_round(seen_state, stds, part, peaks)
                values.append(
                    p2_objective(
                        plan.beamformer,
                        true_state,
                        stds,
                        part,
                        peaks,
                        noise_variance,
                        coefficient,
                        rounds,
                    )
                )
            means.append(float(np.mean(values)))
        curves[zeta] = means

    for zeta in (1.0, 0.8):
        for i in range(len(antenna_counts) - 1):
            assert curves[zeta][i + 1] <= curves[zeta][i]
    gaps = [curves[0.8][i] - curves[1.0][i] for i in range(len(antenna_counts))]
    for i in range(len(gaps) - 1):
        assert gaps[i + 1] <= gaps[i]
    assert time.perf_counter() - start < 300.0


def test_c09_learning_ordering_error_free_proposed_uniform(tmp_path):
    """On the default desk-scale task (M=10, K=3, T=200, 5 trials) the mean
    final test accuracies order error_free >= proposed >= uniform, with the
    optimized uplink within 2 points of the error-free bound and at least
    1 point above the non-adaptive uplink, within 10 minutes."""
    start = time.perf_counter()
    parser = default_parser()
    parser["experiment"]["output_dir"] = str(tmp_path)
    result = run_experiment(config_from_parser(parser))
    assert not result.aborts
    mean_acc = {
        m: float(np.mean(result.final_accuracies[m]))
        for m in ("error_free", "proposed", "uniform")
    }
    assert mean_acc["error_free"] >= mean_acc["proposed"] >= mean_acc["uniform"]
    assert mean_acc["error_free"] - mean_acc["proposed"] <= 0.02
    assert mean_acc["proposed"] - mean_acc["uniform"] >= 0.01
    assert time.perf_counter() - start < 600.0


def test_c10_distillation_weight_sweet_spot(tmp_path):
    """Sweeping the distillation weight over zero, small, moderate, and very
    large values at desk scale: the final distillation loss is non-increasing
    in the weight, and the best intermediate weight beats both extremes on
    final accuracy, within 15 minutes."""
    start = time.perf_counter()
    weights = (0.0, 1.0, 3.0, 100.0)
    accuracies, distill_losses = [], []
    for weight in weights:
        parser = default_parser()
        parser["experiment"]["methods"] = "error_free"
        parser["experiment"]["output_dir"] = str(tmp_path / f"w{weight}")
        parser["experiment"]["eval_every"] = "200"
        parser["dataset"]["num_samples"] = "600"
        parser["partition"]["dirichlet_param"] = "0.3"
        parser["learner"]["init_lr"] = "0.02"
        parser["learner"]["distill_weight"] = repr(weight)
        config = config_from_parser(parser)
        result = run_experiment(config)
        assert not result.aborts
        accuracies.append(
            float(np.mean(result.final_accuracies["error_free"]))
        )
        distill_losses.append(_final_distillation_loss(config, result))
    for i in range(len(weights) - 1):
        assert distill_losses[i + 1] <= distill_losses[i]
    best_inner = max(accuracies[1:-1])
    assert best_inner > accuracies[0]
    assert best_inner > accuracies[-1]
    assert time.perf_counter() - start < 900.0


def _final_distillation_loss(config, result) -> float:
    """Mean squared distance between final local outputs and the final
    aggregation targets for their labels, averaged over devices and trials."""
    per_trial = []
    for j, trial in enumerate(result.completed_trials):
        models = result.final_params["error_free"][j]
        train = synthesize_dataset(
            config.dataset, substream(config.seed, "data", trial)
        )
        part, order = expcli.partition(
            train,
            config.partition_mode,
            config.channel.num_wds,
            config.dirichlet_param,
            substream(config.seed, "partition", trial),
        )
        feats, labs = train.features[order], train.labels[order]
        sizes = part.per_wd_totals
        knowledge, forward = expcli.generate_knowledge(models, feats, labs, sizes)
        target = global_target(knowledge, part)
        squares = np.sum((forward.probs - target[labs]) ** 2, axis=1)
        per_wd = [
            float(np.mean(device))
            for device in np.split(squares, np.cumsum(sizes)[:-1])
        ]
        per_trial.append(float(np.mean(per_wd)))
    return float(np.mean(per_trial))


def test_c11_reruns_are_byte_identical(tmp_path):
    """Rerunning an experiment with an identical configuration and seed
    writes byte-identical data files."""
    paths = []
    for label in ("first", "second"):
        parser = default_parser()
        parser["experiment"]["methods"] = (
            "proposed,uniform,orthogonal,error_free"
        )
        parser["experiment"]["trials"] = "2"
        parser["experiment"]["output_dir"] = str(tmp_path / label)
        parser["dataset"]["num_samples"] = "60"
        parser["dataset"]["test_samples"] = "40"
        parser["channel"]["num_wds"] = "5"
        parser["channel"]["csi_quality"] = "0.8"
        parser["channel"]["noise_variance"] = "1e-12"
        parser["learner"]["rounds"] = "5"
        parser["learner"]["hidden_dim"] = "8"
        result = run_experiment(config_from_parser(parser))
        assert not result.aborts
        paths.append(result.csv_paths)
    for method in paths[0]:
        with open(paths[0][method], "rb") as handle:
            first = handle.read()
        with open(paths[1][method], "rb") as handle:
            second = handle.read()
        assert first == second
