"""Tests for dataset synthesis, partitioning, configuration, accounting,
the experiment loop, and the command-line interface."""

import configparser
import inspect
import os
from dataclasses import replace

import numpy as np
import pytest

import airfd
from airfd import expcli
from airfd.expcli import (
    DatasetSpec,
    class_means,
    communication_accounting,
    config_from_parser,
    config_to_parser,
    default_parser,
    dump_config,
    load_config_file,
    main,
    partition,
    run_experiment,
    synthesize_dataset,
)
from airfd.channel import ChannelState
from airfd.knowledge import DatasetPartition, KnowledgeSet, global_target
from airfd.learner import (
    Architecture,
    Batch,
    EvalSet,
    LearnerConfig,
    ModelParams,
    evaluate_accuracy,
    forward_pass,
    init_params,
    train_round,
)
from airfd.oracles import local_knowledge
from airfd.rng import substream


def make_spec(**overrides) -> DatasetSpec:
    base = dict(
        num_samples=120,
        feature_dim=8,
        num_classes=3,
        separation=2.5,
        test_samples=60,
    )
    base.update(overrides)
    return DatasetSpec(**base)


def device_indices(sizes, order):
    """The dataset indices of each device, from a partition's device order
    and sizes."""
    return np.split(order, np.cumsum(sizes)[:-1])


def device_counts(labels, order, sizes, num_classes):
    """Each device's (M, K) sample count per class, from the labels in
    device order split by the sizes."""
    return np.array(
        [
            np.bincount(labels[idx], minlength=num_classes)
            for idx in device_indices(sizes, order)
        ]
    )


def small_parser(**section_overrides) -> configparser.ConfigParser:
    """Default configuration shrunk to seconds-scale experiments."""
    parser = default_parser()
    small = {
        "experiment": {"trials": "1", "eval_every": "1"},
        "dataset": {"num_samples": "48", "test_samples": "40"},
        "channel": {"num_wds": "4", "num_antennas": "3"},
        "learner": {"rounds": "3", "hidden_dim": "8"},
    }
    for section, values in small.items():
        for key, value in values.items():
            parser[section][key] = value
    for section, values in section_overrides.items():
        for key, value in values.items():
            parser[section][key] = value
    return parser


# ---------------------------------------------------------------------------
# Dataset synthesis
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("num_classes,feature_dim", [(2, 1), (3, 8), (5, 4)])
def test_class_means_pairwise_distances(num_classes, feature_dim):
    spec = make_spec(
        num_classes=num_classes, feature_dim=feature_dim, separation=3.7
    )
    means = class_means(spec)
    assert means.shape == (num_classes, feature_dim)
    for a in range(num_classes):
        for b in range(a + 1, num_classes):
            gap = np.linalg.norm(means[a] - means[b])
            assert abs(gap - 3.7) < 1e-12
    # The simplex only needs K - 1 coordinates; the rest stay zero.
    assert np.all(means[:, num_classes - 1 :] == 0.0)


def helmert_loop_means(num_classes, feature_dim, separation):
    """The simplex means from a Helmert basis written out row by row."""
    k = num_classes
    basis = np.zeros((k - 1, k))
    for j in range(1, k):
        basis[j - 1, :j] = 1.0
        basis[j - 1, j] = -float(j)
        basis[j - 1] /= np.sqrt(j * (j + 1.0))
    means = np.zeros((k, feature_dim))
    means[:, : k - 1] = (separation / np.sqrt(2.0)) * basis.T
    return means


@pytest.mark.parametrize("separation", [0.0, 0.37, 2.5, 1e3])
def test_class_means_match_a_helmert_loop_bit_for_bit(separation):
    for k in range(2, 41):
        for f in (k - 1, k + 5):
            spec = make_spec(
                num_classes=k, feature_dim=f, separation=separation,
                num_samples=k, test_samples=k,
            )
            ours = class_means(spec)
            theirs = helmert_loop_means(k, f, separation)
            assert ours.shape == theirs.shape
            assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))


def test_class_means_zero_separation():
    means = class_means(make_spec(separation=0.0))
    assert np.all(means == 0.0)


def test_dataset_spec_rejects_low_feature_dim():
    with pytest.raises(ValueError):
        make_spec(feature_dim=1, num_classes=3)


def test_dataset_spec_rejects_fewer_samples_than_classes():
    with pytest.raises(ValueError, match="at least one sample per class"):
        make_spec(num_samples=2, num_classes=3)


def test_synthesize_deterministic():
    spec = make_spec()
    first = synthesize_dataset(spec, substream(11, "data", 0))
    second = synthesize_dataset(spec, substream(11, "data", 0))
    assert np.array_equal(first.features, second.features)
    assert np.array_equal(first.labels, second.labels)


def test_synthesize_shapes_and_label_sizes():
    spec = make_spec(num_samples=10, num_classes=3)
    data = synthesize_dataset(spec, substream(0, "data", 0))
    assert data.features.shape == (10, 8)
    assert data.labels.shape == (10,)
    # 10 = 4 + 3 + 3, surplus goes to the lowest class indices, sorted labels.
    assert np.array_equal(np.bincount(data.labels), [4, 3, 3])
    assert np.array_equal(data.labels, np.sort(data.labels))


def test_zero_separation_accuracy_is_chance_level():
    """With identical class distributions any fixed model hits 1/K."""
    spec = make_spec(num_samples=6000, separation=0.0)
    data = synthesize_dataset(spec, substream(5, "data", 0))
    arch = Architecture(feature_dim=8, hidden_dim=16, num_classes=3)
    model = init_params(arch, [substream(5, "init", 0)])
    (accuracy,) = evaluate_accuracy(model, EvalSet(arch, *data))
    assert abs(accuracy - 1.0 / 3.0) < 0.03


def test_large_separation_centralized_model_learns():
    spec = make_spec(num_samples=300, separation=10.0, test_samples=300)
    train = synthesize_dataset(spec, substream(3, "data", 0))
    test = synthesize_dataset(
        make_spec(num_samples=300, separation=10.0), substream(3, "testdata", 0)
    )
    arch = Architecture(feature_dim=8, hidden_dim=16, num_classes=3)
    config = LearnerConfig(distill_weight=0.0, init_lr=0.2, rounds=100)
    params = init_params(arch, [substream(3, "init", 0)])
    unused = np.full((3, 3), 1.0 / 3.0)
    batch = Batch(arch, train.features, train.labels, [300])
    for t in range(config.rounds):
        params, _ = train_round(params, batch, unused, config, t)
    (accuracy,) = evaluate_accuracy(params, EvalSet(arch, *test))
    assert accuracy > 0.95


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def test_partition_iid_equal_totals_when_divisible():
    spec = make_spec(num_samples=180)
    data = synthesize_dataset(spec, substream(1, "data", 0))
    order, sizes = partition(data.labels, "iid", 6, 0.0, substream(1, "p", 0))
    # 60 per class over 6 devices
    assert np.all(device_counts(data.labels, order, sizes, 3) == 10)
    assert np.all(sizes == 30)
    assert np.array_equal(np.sort(order), np.arange(180))


def test_partition_counts_match_assignment():
    spec = make_spec(num_samples=100)
    data = synthesize_dataset(spec, substream(2, "data", 0))
    order, sizes = partition(
        data.labels, "dirichlet", 5, 0.5, substream(2, "p", 0)
    )
    assert sizes.shape == (5,) and int(sizes.sum()) == 100
    counts = device_counts(data.labels, order, sizes, 3)
    # Class columns add up to the class sizes of the dataset.
    assert np.array_equal(counts.sum(axis=0), np.bincount(data.labels))
    # The order is a permutation of the sample indices, device by device,
    # ascending within each device.
    assert np.array_equal(np.sort(order), np.arange(100))
    for idx in device_indices(sizes, order):
        assert np.array_equal(idx, np.sort(idx))


def test_generate_knowledge_matches_oracle_and_returns_forward_passes():
    spec = make_spec(num_samples=90)
    data = synthesize_dataset(spec, substream(3, "data", 0))
    order, sizes = partition(
        data.labels, "dirichlet", 6, 0.1, substream(3, "p", 0)
    )
    arch = Architecture(feature_dim=8, hidden_dim=5, num_classes=3)
    batch = Batch(arch, data.features[order], data.labels[order], sizes)
    params = init_params(arch, [substream(3, "init", 0, i) for i in range(6)])
    knowledge, forward = expcli.generate_knowledge(params, batch)
    counts = device_counts(data.labels, order, sizes, 3)
    assert np.any(counts == 0)
    assert np.array_equal(forward.probs, forward_pass(params, batch).probs)
    for i, idx in enumerate(device_indices(sizes, order)):
        model = ModelParams(params.theta[i : i + 1], arch)
        device = Batch(arch, data.features[idx], data.labels[idx], [idx.size])
        probs = forward_pass(model, device).probs
        expected = local_knowledge(
            [probs[data.labels[idx] == k] for k in range(3)], counts[i]
        )
        assert np.array_equal(knowledge.q[i], expected)
    with pytest.raises(ValueError, match=r"\(M,\) sizes"):
        expcli.generate_knowledge(ModelParams(params.theta[:5], arch), batch)


def test_generate_knowledge_rejects_outputs_that_are_not_probabilities(
    monkeypatch,
):
    """The knowledge set checks its rows where it is made: softmax rows
    scaled by 2 average to vectors that sum to 2."""
    data = synthesize_dataset(make_spec(num_samples=30), substream(3, "data", 1))
    arch = Architecture(feature_dim=8, hidden_dim=5, num_classes=3)
    batch = Batch(arch, data.features, data.labels, [10, 20])
    params = init_params(arch, [substream(3, "init", 1, i) for i in range(2)])
    plain = expcli.forward_pass

    def doubled(params, batch):
        forward = plain(params, batch)
        return forward._replace(probs=2.0 * forward.probs)

    monkeypatch.setattr(expcli, "forward_pass", doubled)
    with pytest.raises(ValueError, match="probability"):
        expcli.generate_knowledge(params, batch)


def test_partition_huge_concentration_is_near_uniform():
    spec = make_spec(num_samples=10_000, test_samples=10)
    data = synthesize_dataset(spec, substream(4, "data", 0))
    _, sizes = partition(data.labels, "dirichlet", 10, 1e6, substream(4, "p", 0))
    shares = sizes / 10_000.0
    assert np.all(np.abs(shares - 0.1) < 0.001)


def test_partition_dirichlet_mean_share_is_one_over_m():
    spec = make_spec(num_samples=600)
    data = synthesize_dataset(spec, substream(6, "data", 0))
    draws = 2500
    shares = np.empty(draws)
    for j in range(draws):
        _, sizes = partition(
            data.labels, "dirichlet", 10, 0.5, substream(6, "p", j)
        )
        shares[j] = sizes[0] / 600.0
    assert abs(shares.mean() - 0.1) < 0.01


def test_partition_extreme_skew_leaves_no_empty_device():
    spec = make_spec(num_samples=64, num_classes=4, test_samples=10)
    data = synthesize_dataset(spec, substream(8, "data", 0))
    for j in range(50):
        order, sizes = partition(
            data.labels, "dirichlet", 8, 0.01, substream(8, "p", j)
        )
        assert np.all(sizes >= 1)
        assert np.array_equal(np.sort(order), np.arange(64))


def reference_partition(labels, mode, num_wds, concentration, rng):
    """The partition rule as plain loops: per-device member lists, a sorted
    merge, and a repair that rescans every device size after each move.

    Returns (assignment, counts, number of repair moves)."""
    num_classes = int(labels.max()) + 1
    members = [[] for _ in range(num_wds)]
    pointer = 0
    for k in range(num_classes):
        idx = rng.permutation(np.flatnonzero(labels == k))
        if mode == "iid":
            for j, sample in enumerate(idx):
                members[(pointer + j) % num_wds].append(int(sample))
            pointer = (pointer + idx.size) % num_wds
        else:
            proportions = rng.dirichlet(np.full(num_wds, concentration))
            alloc = expcli._largest_remainder(proportions, idx.size)
            start = 0
            for i in range(num_wds):
                members[i].extend(int(x) for x in idx[start : start + alloc[i]])
                start += alloc[i]
    members = [sorted(m) for m in members]
    moves = 0
    while True:
        sizes = [len(m) for m in members]
        if min(sizes) > 0:
            break
        donor = sizes.index(max(sizes))
        members[sizes.index(0)].append(members[donor].pop())
        moves += 1
    counts = np.zeros((num_wds, num_classes), dtype=np.int64)
    for i, m in enumerate(members):
        for sample in m:
            counts[i, labels[sample]] += 1
    return [np.array(m, dtype=np.int64) for m in members], counts, moves


def test_partition_matches_reference_loops():
    repaired = multiple = 0
    for case in range(240):
        rng = substream(10, "cases", case)
        mode = ("iid", "dirichlet")[case % 2]
        k = int(rng.integers(2, 7))
        m = int(rng.integers(1, 25))
        size = int(rng.integers(max(m, k), 121))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size - k)])
        if case % 4 < 2:
            labels = np.sort(labels)  # class-sorted, as synthesize_dataset draws
        concentration = float(10.0 ** rng.uniform(-2.0, 0.5))
        order, sizes = partition(
            labels, mode, m, concentration, substream(10, "p", case)
        )
        expected, counts, moves = reference_partition(
            labels, mode, m, concentration, substream(10, "p", case)
        )
        assert np.array_equal(device_counts(labels, order, sizes, k), counts)
        got = device_indices(sizes, order)
        assert len(got) == m
        for mine, want in zip(got, expected):
            assert np.array_equal(mine, want)
        repaired += moves >= 1
        multiple += moves >= 2
    assert repaired >= 60 and multiple >= 50


def test_partition_repair_moves_donors_highest_index():
    labels = np.repeat(np.arange(3), 4)
    order, sizes = partition(
        labels, "dirichlet", 5, 0.1, substream(5, "repair", 3)
    )
    # The deal is [0..3], [8..11], [4..7], [], []. Devices 0-2 tie at four
    # samples, so device 0 gives device 3 its highest index, 3; device 1 is
    # then the largest and gives device 4 its highest index, 11.
    assert [a.tolist() for a in device_indices(sizes, order)] == [
        [0, 1, 2],
        [8, 9, 10],
        [4, 5, 6, 7],
        [3],
        [11],
    ]
    assert device_counts(labels, order, sizes, 3).tolist() == [
        [3, 0, 0],
        [0, 0, 3],
        [0, 4, 0],
        [1, 0, 0],
        [0, 0, 1],
    ]


@pytest.mark.parametrize(
    "proportions, total, expected",
    [
        ([0.5, 0.3, 0.2], 7, [4, 2, 1]),  # remainder to the largest part 0.5
        ([0.375, 0.125, 0.5], 6, [2, 1, 3]),  # 0.75 beats 0.25 at index 0
        ([0.125, 0.375, 0.5], 4, [1, 1, 2]),  # 0.5 ties 0.5: lowest index
        ([0.25, 0.25, 0.25, 0.25], 2, [1, 1, 0, 0]),
        ([1 / 3, 1 / 3, 1 / 3], 5, [2, 2, 1]),
        ([0.0, 1.0], 3, [0, 3]),
    ],
)
def test_largest_remainder_rule(proportions, total, expected):
    alloc = expcli._largest_remainder(np.array(proportions), total)
    assert alloc.dtype == np.int64 and alloc.tolist() == expected


def test_largest_remainder_sum_is_exact():
    rng = np.random.default_rng(13)
    for _ in range(200):
        proportions = rng.dirichlet(np.full(int(rng.integers(1, 30)), 0.3))
        total = int(rng.integers(0, 500))
        alloc = expcli._largest_remainder(proportions, total)
        assert int(alloc.sum()) == total and np.all(alloc >= 0)


def test_partition_rejections():
    spec = make_spec(num_samples=4, test_samples=4)
    data = synthesize_dataset(spec, substream(9, "data", 0))
    with pytest.raises(ValueError):
        partition(data.labels, "dirichlet", 6, 0.5, substream(9, "p", 0))
    with pytest.raises(ValueError):
        partition(data.labels, "striped", 2, 0.5, substream(9, "p", 0))


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------


def test_config_roundtrip_through_parser():
    config = config_from_parser(default_parser())
    again = config_from_parser(config_to_parser(config))
    assert again == config


def test_dump_config_roundtrip():
    config = config_from_parser(small_parser())
    parser = configparser.ConfigParser()
    parser.read_string(dump_config(config))
    assert config_from_parser(parser) == config


# A valid value other than the default for every key, written the way a dump
# writes it (floats by repr).
NON_DEFAULT_CONFIG = {
    "experiment": {
        "seed": "11",
        "trials": "2",
        "methods": "orthogonal,proposed",
        "output_dir": "elsewhere",
        "eval_every": "4",
    },
    "dataset": {
        "num_samples": "1200",
        "feature_dim": "6",
        "num_classes": "4",
        "separation": "1.75",
        "test_samples": "250",
    },
    "partition": {"mode": "iid", "dirichlet_param": "0.25"},
    "channel": {
        "num_wds": "7",
        "num_antennas": "3",
        "noise_variance": "3e-15",
        "carrier_freq": "2400000000.0",
        "pathloss_exponent": "3.5",
        "antenna_gain_ps": "2.0",
        "antenna_gain_wd": "0.5",
        "distance_min": "50.0",
        "distance_max": "150.0",
        "csi_quality": "0.9",
        "peak_power": "0.002",
    },
    "learner": {
        "hidden_dim": "16",
        "distill_weight": "1.5",
        "init_lr": "0.05",
        "rounds": "20",
        "local_epochs": "2",
        "lr_cap": "0.25",
    },
}


def test_every_config_key_round_trips_at_a_non_default_value():
    parser = default_parser()
    assert {name: set(parser[name]) for name in parser.sections()} == {
        name: set(values) for name, values in NON_DEFAULT_CONFIG.items()
    }
    for section, values in NON_DEFAULT_CONFIG.items():
        for key, value in values.items():
            assert parser[section][key] != value, (section, key)
            parser[section][key] = value
    config = config_from_parser(parser)
    dumped = configparser.ConfigParser()
    dumped.read_string(dump_config(config))
    for section, values in NON_DEFAULT_CONFIG.items():
        assert dict(dumped[section]) == values, section
    assert config_from_parser(dumped) == config


def test_config_file_overlay(tmp_path):
    path = tmp_path / "overlay.ini"
    path.write_text("[learner]\nrounds = 7\n", encoding="utf-8")
    config = config_from_parser(load_config_file(str(path)))
    assert config.learner.rounds == 7
    # Untouched keys keep their defaults.
    assert config.channel.num_wds == 10


def test_config_file_unknown_keys_are_ignored(tmp_path):
    # Configs written for older versions may still set retired [bound] keys.
    path = tmp_path / "old.ini"
    path.write_text("[bound]\nl1 = 2.0\nretired = 5.0\n", encoding="utf-8")
    config = config_from_parser(load_config_file(str(path)))
    assert config == config_from_parser(default_parser())
    dumped = dump_config(config)
    assert "l1" not in dumped and "retired" not in dumped


@pytest.mark.parametrize(
    "text, section, key",
    [
        ("[channel]\nnum_wd = 50\n", "channel", "num_wd"),
        ("[bound]\nl1 = 2.0\n\n[learner]\nround = 7\n", "learner", "round"),
    ],
)
def test_config_file_misspelled_key_is_a_usage_error(
    tmp_path, capsys, text, section, key
):
    path = tmp_path / "typo.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as stop:
        main(["run", "--config", str(path), "--dump-effective-config"])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"section [{section}] has no key '{key}'" in captured.err


def test_config_file_with_known_keys_runs(tmp_path, capsys):
    path = tmp_path / "known.ini"
    path.write_text("[bound]\nl1 = 2.0\n\n[channel]\nnum_wds = 7\n", encoding="utf-8")
    assert main(["run", "--config", str(path), "--dump-effective-config"]) == 0
    assert "num_wds = 7\n" in capsys.readouterr().out


def test_summary_config_reloads_with_a_percent_in_the_output_dir(tmp_path):
    """The configuration that summary.txt records reloads, through
    --config, to the configuration of the run."""
    parser = small_parser(
        experiment={"methods": "error_free", "output_dir": str(tmp_path / "out%x")},
        learner={"rounds": "1"},
    )
    config = config_from_parser(parser)
    result = run_experiment(config)
    assert not result.aborts
    assert os.path.exists(tmp_path / "out%x" / "error_free.csv")
    with open(result.summary_path, "r", encoding="utf-8") as handle:
        summary = handle.read()
    recorded = summary.split("===========\n\n", 1)[1]
    recorded = recorded.split("\n\nmodel parameters per device", 1)[0]
    path = tmp_path / "recorded.ini"
    path.write_text(recorded, encoding="utf-8")
    assert config_from_parser(load_config_file(str(path))) == config


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("experiment", "methods", "proposed,teleport"),
        ("experiment", "methods", "proposed,proposed"),
        ("experiment", "trials", "0"),
        ("experiment", "eval_every", "0"),
        ("partition", "dirichlet_param", "0.0"),
        ("dataset", "num_classes", "1"),
        ("dataset", "test_samples", "2"),
        ("learner", "distill_weight", "nan"),
        ("learner", "lr_cap", "nan"),
        ("partition", "dirichlet_param", "nan"),
        ("learner", "init_lr", "nan"),
        ("channel", "peak_power", "nan"),
        ("channel", "noise_variance", "nan"),
        ("dataset", "separation", "nan"),
        ("channel", "pathloss_exponent", "nan"),
        ("learner", "init_lr", "inf"),
        ("channel", "carrier_freq", "inf"),
        ("channel", "antenna_gain_ps", "0"),
        ("channel", "antenna_gain_wd", "-1"),
        ("learner", "distill_weight", "inf"),
        ("partition", "dirichlet_param", "inf"),
        ("channel", "peak_power", "inf"),
        ("channel", "noise_variance", "inf"),
        ("dataset", "separation", "inf"),
        ("channel", "pathloss_exponent", "-1"),
        ("channel", "antenna_gain_ps", "inf"),
        ("channel", "distance_max", "inf"),
        ("partition", "mode", "random"),
        ("experiment", "methods", ""),
        ("experiment", "seed", "-1"),
        ("learner", "hidden_dim", "0"),
        ("learner", "rounds", "0"),
        ("learner", "local_epochs", "0"),
        ("channel", "num_antennas", "0"),
        ("dataset", "num_samples", "2"),
    ],
)
def test_config_validation_rejects(section, key, value):
    parser = small_parser()
    parser[section][key] = value
    with pytest.raises(ValueError):
        config_from_parser(parser)


@pytest.mark.parametrize("output_dir", ["", "   ", "\t\n"])
def test_empty_output_dir_rejected_before_any_trial_runs(output_dir):
    parser = small_parser()
    parser["experiment"]["output_dir"] = output_dir
    with pytest.raises(ValueError, match="output_dir"):
        config_from_parser(parser)
    config = config_from_parser(small_parser())
    with pytest.raises(ValueError, match="output_dir"):
        replace(config, output_dir=output_dir)


# ---------------------------------------------------------------------------
# Communication accounting
# ---------------------------------------------------------------------------


def test_accounting_superposed_uses_grow_with_classes_only():
    cost = communication_accounting("proposed", 50, 10, 10**6, 400)
    assert cost.channel_uses_per_round == 100
    assert cost.scalars_per_round == 100 + 3 * 50 * 10
    assert cost.total_scalars == cost.scalars_per_round * 400
    same = communication_accounting("uniform", 50, 10, 10**6, 400)
    assert same == cost


def test_accounting_parameter_upload_reference():
    cost = communication_accounting("fl", 50, 10, 11_178_378, 1)
    assert cost.channel_uses_per_round == 558_918_900
    assert cost.scalars_per_round == 558_918_900
    assert isinstance(cost.scalars_per_round, int)


def test_accounting_orthogonal_and_error_free():
    orth = communication_accounting("orthogonal", 10, 5, 100, 2)
    assert orth.channel_uses_per_round == 250
    assert orth.total_scalars == 800
    # The side scalars (statistics and signalling) are the superposed ones.
    superposed = communication_accounting("proposed", 10, 5, 100, 2)
    assert (
        orth.scalars_per_round - orth.channel_uses_per_round
        == superposed.scalars_per_round - superposed.channel_uses_per_round
    )
    free = communication_accounting("error_free", 10, 5, 100, 2)
    assert free == (0, 0, 0)
    with pytest.raises(ValueError):
        communication_accounting("smoke-signals", 10, 5, 100, 2)


# ---------------------------------------------------------------------------
# Experiment loop
# ---------------------------------------------------------------------------


def full_small_parser(out_dir: str) -> configparser.ConfigParser:
    return small_parser(
        experiment={
            "methods": "proposed,uniform,orthogonal,error_free",
            "trials": "2",
            "output_dir": out_dir,
        },
        channel={"csi_quality": "0.8", "noise_variance": "1e-10"},
        learner={"local_epochs": "2"},
    )


def test_run_experiment_rerun_is_byte_identical(tmp_path):
    first = run_experiment(
        config_from_parser(full_small_parser(str(tmp_path / "a")))
    )
    second = run_experiment(
        config_from_parser(full_small_parser(str(tmp_path / "b")))
    )
    assert not first.aborts and not second.aborts
    for method in first.csv_paths:
        with open(first.csv_paths[method], "rb") as handle:
            bytes_a = handle.read()
        with open(second.csv_paths[method], "rb") as handle:
            bytes_b = handle.read()
        assert bytes_a == bytes_b
        assert bytes_a.count(b"\n") == 1 + 2 * 3  # header + trials * rounds


def test_a_trial_run_alone_matches_the_same_trial_of_a_run(tmp_path):
    """No state outlives a trial: trial 1 of a two-trial run equals that
    trial run alone, bit for bit, in its rows and its final models."""
    config = config_from_parser(full_small_parser(str(tmp_path)))
    result = run_experiment(config)
    assert result.completed_trials == [0, 1]
    arch = Architecture(
        feature_dim=config.dataset.feature_dim,
        hidden_dim=config.hidden_dim,
        num_classes=config.dataset.num_classes,
    )
    peaks = np.full(config.channel.num_wds, config.peak_power)
    rows, _, finals, _, _ = expcli._run_trial(
        config, arch, peaks, expcli.a2_coefficient(config.learner), 1
    )
    for method in config.methods:
        in_run = [row for row in result.rows[method] if row.trial == 1]
        assert [row.to_csv_row() for row in in_run] == [
            row.to_csv_row() for row in rows[method]
        ]
        assert np.array_equal(
            result.final_params[method][1].theta.view(np.uint64),
            finals[method].theta.view(np.uint64),
        )


def test_benchmark_rebinding_points_are_called_by_name(tmp_path, monkeypatch):
    """The benchmark (perfbench/) times and counts a run by rebinding these
    names on airfd.expcli while run_experiment runs. Each must stay a module
    global that the driver calls, the expected number of times, so that a
    refactor cannot silently detach it."""
    trials, rounds, wds = 2, 3, 4
    method_rounds = trials * rounds  # rounds run by one method
    expected = {
        "substream": trials * (4 + wds)  # data, test data, partition, distance, init
        + 4 * method_rounds  # batch: one stateful generator per method
        + 4 * method_rounds,  # fading, csi, noise, orthnoise: once per round
        "sample_distances": trials,
        "path_loss": trials * wds,
        # Every round's channel and noise are drawn once, for all methods.
        "sample_channel": method_rounds,
        "scale_coefficients": 2 * method_rounds,  # true + perceived
        "perturb_csi": method_rounds,
        "sample_noise": 2 * method_rounds,  # superposed + orthogonal
        "generate_knowledge": 4 * method_rounds,
        "global_target": method_rounds,
        "optimize_round": method_rounds,
        "uniform_baseline": method_rounds,
        "orthogonal_receive": method_rounds,
        "aggregate_over_air": 2 * method_rounds,
        # One batch of every device per (method, round).
        "train_round": 4 * method_rounds,
        # Every model of a method is scored in one call per evaluated round.
        "evaluate_accuracy": 4 * method_rounds,
        "a2_coefficient": 1,
        "phi1": 2 * method_rounds,
        "phi2_sq_all": 2 * method_rounds,
        "p2_objective": 2 * method_rounds,
        "RoundMetrics": 4 * method_rounds,
    }
    calls = dict.fromkeys(expected, 0)
    # perfbench counts a round's trained samples as the len() of
    # train_round's second positional argument.
    trained_samples = []
    train = expcli.train_round

    def recording_train(params, batch, *args, **kwargs):
        trained_samples.append(len(batch))
        return train(params, batch, *args, **kwargs)

    monkeypatch.setattr(expcli, "train_round", recording_train)

    def counting(name, target):
        def pass_through(*args, **kwargs):
            calls[name] += 1
            return target(*args, **kwargs)

        return pass_through

    for name in expected:
        monkeypatch.setattr(expcli, name, counting(name, getattr(expcli, name)))
    parser = full_small_parser(str(tmp_path))
    parser["dataset"]["num_samples"] = "50"
    parser["partition"]["mode"] = "iid"
    result = run_experiment(config_from_parser(parser))
    assert not result.aborts
    assert calls == expected
    assert trained_samples == [50] * expected["train_round"]


def test_round_measures_read_the_uplink_channel_and_configured_noise(
    tmp_path, monkeypatch
):
    """Every superposed row is filled from the round's uplink: phi1 and
    p2_objective run on the channel the uplink went through (not the
    estimate the plan was made on), phi2_sq_all and p2_objective get the
    configured noise variance, and the row holds phi1's max and mean,
    phi2_sq_all's mean and p2_objective's value."""
    records = {name: [] for name in (
        "optimize_round", "uniform_baseline", "aggregate_over_air", "phi1",
        "phi2_sq_all", "p2_objective",
    )}

    def recording(name, target):
        def record(*args, **kwargs):
            value = target(*args, **kwargs)
            bound = inspect.signature(target).bind(*args, **kwargs).arguments
            records[name].append((bound, value))
            return value

        return record

    for name in records:
        monkeypatch.setattr(expcli, name, recording(name, getattr(expcli, name)))
    parser = small_parser(
        experiment={"methods": "proposed,uniform", "output_dir": str(tmp_path)},
        channel={"csi_quality": "0.8", "noise_variance": "1e-10"},
    )
    config = config_from_parser(parser)
    result = run_experiment(config)
    assert not result.aborts
    noise_var = config.channel.noise_variance
    rows = [row for pair in zip(*result.rows.values()) for row in pair]
    plans = [
        plan for pair in zip(records["optimize_round"], records["uniform_baseline"])
        for plan in pair
    ]
    assert len(rows) == len(plans) == 2 * config.learner.rounds
    for name in ("aggregate_over_air", "phi1", "phi2_sq_all", "p2_objective"):
        assert len(records[name]) == len(rows), name
    for row, (planned, plan), uplink, phi1_call, phi2_call, p2_call in zip(
        rows,
        plans,
        records["aggregate_over_air"],
        records["phi1"],
        records["phi2_sq_all"],
        records["p2_objective"],
    ):
        channel = uplink[0]["channel"]
        assert uplink[0]["plan"] is plan
        assert planned["channel"] is not channel  # an estimate at zeta 0.8
        assert phi1_call[0]["plan"] is plan
        assert phi1_call[0]["channel"] is channel
        assert p2_call[0]["beamformer"] is plan.beamformer
        assert p2_call[0]["channel"] is channel
        assert phi2_call[0]["denormalizers"] is plan.denormalizers
        assert phi2_call[0]["noise_variance"] == noise_var
        assert p2_call[0]["noise_variance"] == noise_var
        phi1_values = phi1_call[1]
        assert phi1_values.max() > phi1_values.mean()
        assert row.phi1_max == phi1_values.max()
        assert row.phi1_mean == phi1_values.mean()
        assert row.phi2_sq_mean == phi2_call[1].mean() > 0.0
        assert row.p2_obj == p2_call[1]


@pytest.mark.parametrize("planner", ["optimize_round", "uniform_baseline"])
def test_benchmark_reads_of_a_plan_resolve(planner):
    """The benchmark reads these fields of the plans the driver makes: the
    equalizers and the beamformer (plan digests, the peak-power gate) and
    the top two eigenvalues (the rank-one share)."""
    rng = substream(3, "plan-fields")
    m, k, n = 4, 3, 2
    parts = rng.standard_normal((m, n, 2))
    plan = getattr(expcli, planner)(
        ChannelState(coefficients=parts[..., 0] + 1j * parts[..., 1]),
        rng.uniform(0.05, 0.3, size=(m, k)),
        DatasetPartition(counts=rng.integers(5, 40, size=(m, k))),
        np.ones(m),
    )
    assert plan.transmit.equalizers.shape == (m, k)
    assert plan.transmit.equalizers.dtype == np.complex128
    assert plan.beamformer.shape == (n,)
    assert plan.beamformer.dtype == np.complex128
    assert isinstance(plan.diagnostics.eig1, float)
    assert isinstance(plan.diagnostics.eig2, float)


def test_each_methods_rows_do_not_depend_on_the_other_methods(tmp_path):
    """All methods share each round's fading, estimate and noise: a method
    run beside the other three writes the same CSV as that method alone."""
    together = run_experiment(
        config_from_parser(full_small_parser(str(tmp_path / "all")))
    )
    assert not together.aborts
    for method in together.csv_paths:
        parser = full_small_parser(str(tmp_path / method))
        parser["experiment"]["methods"] = method
        alone = run_experiment(config_from_parser(parser))
        assert not alone.aborts
        with open(together.csv_paths[method], "rb") as handle:
            expected = handle.read()
        with open(alone.csv_paths[method], "rb") as handle:
            assert handle.read() == expected


def test_error_free_matches_direct_reimplementation(tmp_path):
    """The driver trains every device as one batch; a plain loop over single
    devices must reach the same final models, bit for bit. The second run
    splits 50 samples over 4 devices (13, 13, 12, 12: runs of equal sizes)
    and shuffles each device's minibatches from the shared stream."""
    runs = [
        small_parser(learner={"rounds": "4", "local_epochs": "2"}),
        small_parser(
            dataset={"num_samples": "50"},
            partition={"mode": "iid"},
            learner={"rounds": "4", "local_epochs": "3"},
        ),
    ]
    for n, parser in enumerate(runs):
        parser["experiment"]["methods"] = "error_free"
        parser["experiment"]["output_dir"] = str(tmp_path / str(n))
        config = config_from_parser(parser)
        result = run_experiment(config)
        assert not result.aborts
        reference, sizes = reference_error_free_params(config)
        finals = result.final_params["error_free"][0]
        assert finals.theta.shape[0] == len(reference) == 4
        for mine, theirs in zip(reference, finals.theta):
            assert np.array_equal(mine, theirs)
    assert sizes == [13, 13, 12, 12]


def reference_error_free_params(config):
    """Final error_free models of trial 0, one device at a time, and the
    devices' sample counts."""
    seed, lrn = config.seed, config.learner
    train = synthesize_dataset(config.dataset, substream(seed, "data", 0))
    order, sizes = partition(
        train.labels,
        config.partition_mode,
        config.channel.num_wds,
        config.dirichlet_param,
        substream(seed, "partition", 0),
    )
    part = DatasetPartition(
        counts=device_counts(
            train.labels, order, sizes, config.dataset.num_classes
        )
    )
    indices = device_indices(sizes, order)
    feats = [train.features[idx] for idx in indices]
    labs = [train.labels[idx] for idx in indices]
    arch = Architecture(
        feature_dim=config.dataset.feature_dim,
        hidden_dim=config.hidden_dim,
        num_classes=config.dataset.num_classes,
    )
    params = [
        init_params(arch, [substream(seed, "init", 0, i)])
        for i in range(config.channel.num_wds)
    ]
    batches = [Batch(arch, x, y, [len(y)]) for x, y in zip(feats, labs)]
    for t in range(lrn.rounds):
        q = np.concatenate(
            [
                expcli.generate_knowledge(model, batch)[0].q
                for model, batch in zip(params, batches)
            ]
        )
        target = global_target(KnowledgeSet(q=q), part)
        batch_rng = substream(seed, "batch", 0, t)
        for i in range(config.channel.num_wds):
            params[i], _ = train_round(
                params[i], batches[i], target, lrn, t, batch_rng
            )
    return [model.theta[0] for model in params], [len(idx) for idx in indices]


def test_noiseless_perfect_csi_superposition_matches_error_free(tmp_path):
    parser = small_parser(
        experiment={
            "methods": "proposed,error_free",
            "output_dir": str(tmp_path),
        },
        channel={"noise_variance": "0.0", "csi_quality": "1.0", "num_wds": "3"},
        dataset={"num_samples": "36"},
        learner={"rounds": "5"},
    )
    result = run_experiment(config_from_parser(parser))
    assert not result.aborts
    proposed = result.final_params["proposed"][0]
    reference = result.final_params["error_free"][0]
    assert len(proposed.theta) == len(reference.theta) == 3
    assert float(np.max(np.abs(proposed.theta - reference.theta))) <= 1e-7


def test_aborted_trials_are_recorded_and_skipped(tmp_path, monkeypatch):
    """A failure inside a trial aborts that trial alone: it is recorded with
    its message, its rows are dropped and the next trial runs. The config
    rejects what would fail every trial, so the failure is injected into
    the second trial's partition."""
    split = expcli.partition
    calls = []

    def failing_second(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise ValueError("injected partition failure")
        return split(*args, **kwargs)

    monkeypatch.setattr(expcli, "partition", failing_second)
    parser = small_parser(
        experiment={"methods": "error_free", "output_dir": str(tmp_path)},
    )
    parser["experiment"]["trials"] = "3"
    result = run_experiment(config_from_parser(parser))
    assert result.aborts == [
        expcli.TrialAbort(1, "ValueError: injected partition failure")
    ]
    assert result.completed_trials == [0, 2]
    with open(result.csv_paths["error_free"], "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert len(lines) == 1 + 2 * 3  # header and trials 0 and 2
    assert [line.split(",")[0] for line in lines[1:]] == ["0"] * 3 + ["2"] * 3
    with open(result.summary_path, "r", encoding="utf-8") as handle:
        assert "injected partition failure" in handle.read()


def test_summary_reports_the_plans_mean_solver_iterations(tmp_path, monkeypatch):
    iterations = []
    plan_round = expcli.optimize_round

    def recording(*args, **kwargs):
        plan = plan_round(*args, **kwargs)
        iterations.append(plan.diagnostics.solver_iterations)
        return plan

    monkeypatch.setattr(expcli, "optimize_round", recording)
    parser = small_parser(
        experiment={"methods": "proposed,uniform", "output_dir": str(tmp_path)}
    )
    parser["experiment"]["trials"] = "2"
    result = run_experiment(config_from_parser(parser))
    assert not result.aborts
    assert len(iterations) == 2 * 3 and min(iterations) > 0
    with open(result.summary_path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    proposed = next(
        i for i, line in enumerate(lines) if line.startswith("method=proposed")
    )
    assert lines[proposed + 2].startswith("  mean plan construction time: ")
    assert lines[proposed + 3] == (
        f"  mean IPM iterations per solve: {np.mean(iterations):.2f}"
    )
    # Only the optimized plans solve the relaxation.
    assert sum("IPM iterations" in line for line in lines) == 1


@pytest.mark.parametrize("numpy_first", [False, True])
def test_summary_records_the_blas_thread_settings(tmp_path, monkeypatch, numpy_first):
    """Plan bits can depend on the BLAS thread count, so the summary says
    what the thread variables were when airfd was imported, and whether
    numpy was loaded first (then the one-thread default did not apply)."""
    assert expcli.BLAS_THREADS_AT_IMPORT is airfd.BLAS_THREADS_AT_IMPORT
    monkeypatch.setattr(
        expcli,
        "BLAS_THREADS_AT_IMPORT",
        {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "4"},
    )
    monkeypatch.setattr(expcli, "NUMPY_LOADED_FIRST", numpy_first)
    parser = small_parser(
        experiment={"methods": "error_free", "output_dir": str(tmp_path)},
        learner={"rounds": "1"},
    )
    result = run_experiment(config_from_parser(parser))
    with open(result.summary_path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    (line,) = [line for line in lines if line.startswith("BLAS threads")]
    found = "OPENBLAS_NUM_THREADS=unset, OMP_NUM_THREADS=4"
    if numpy_first:
        assert line == (
            f"BLAS threads at airfd import: {found}; numpy was loaded first, "
            "so the one-thread default did not apply"
        )
    else:
        assert line == (
            f"BLAS threads at airfd import: {found}; unset ones took the "
            "one-thread default"
        )


def test_csv_rows_structure_and_eval_cadence(tmp_path):
    parser = small_parser(
        experiment={
            "methods": "error_free",
            "output_dir": str(tmp_path),
            "eval_every": "3",
        },
        learner={"rounds": "6"},
    )
    config = config_from_parser(parser)
    result = run_experiment(config)
    with open(result.csv_paths["error_free"], "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert len(lines) == 7
    header = lines[0].split(",")
    assert len(header) == 17
    assert header[2] == "method"
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        assert len(row) == 17
        assert row[2] == "error_free"
        assert row[-1] == "0.0"  # wall-clock never lands in data files
        assert row[12] == "1.0" and row[13] == "0.0"  # eig columns off-plan
    accs = [row[15] for row in rows]
    # Accuracy refreshes at rounds 0, 3, and the final round only.
    assert accs[0] == accs[1] == accs[2]
    assert accs[3] == accs[4]
    # Round 5 is off the cadence, yet its row scores the final models.
    spec = config.dataset
    test = synthesize_dataset(
        replace(spec, num_samples=spec.test_samples),
        substream(config.seed, "testdata", 0),
    )
    finals = result.final_params["error_free"][0]
    final = evaluate_accuracy(finals, EvalSet(finals.arch, *test))
    assert float(accs[5]) == float(np.mean(final))


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------


def test_cli_dump_effective_config(capsys):
    code = main(["run", "--dump-effective-config", "--gamma", "9.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "distill_weight = 9.0" in out
    assert "[channel]" in out


def test_cli_run_with_overrides(tmp_path, capsys):
    ini = tmp_path / "tiny.ini"
    ini.write_text(
        "[dataset]\nnum_samples = 48\ntest_samples = 40\n"
        "[channel]\nnum_wds = 4\nnum_antennas = 3\n"
        "[learner]\nrounds = 2\nhidden_dim = 8\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    code = main(
        [
            "run",
            "--config",
            str(ini),
            "--methods",
            "error_free",
            "--trials",
            "1",
            "--seed",
            "3",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "error_free: 1 trials" in printed
    assert (out_dir / "error_free.csv").exists()
    assert (out_dir / "summary.txt").exists()


def test_cli_takes_a_percent_in_the_output_dir(tmp_path, capsys):
    """Config values are read literally: a '%' is an ordinary character,
    whether a file sets it or a flag does."""
    ini = tmp_path / "percent.ini"
    ini.write_text("[experiment]\noutput_dir = f%x\n", encoding="utf-8")
    assert main(["run", "--config", str(ini), "--dump-effective-config"]) == 0
    assert "output_dir = f%x\n" in capsys.readouterr().out
    assert main(["run", "--out", "dir%1", "--dump-effective-config"]) == 0
    assert "output_dir = dir%1\n" in capsys.readouterr().out


def test_cli_run_reports_aborts_with_nonzero_exit(tmp_path, capsys, monkeypatch):
    """A trial that fails inside the run is printed and makes the exit code
    1. The config rejects what would fail every trial, so the failure is
    injected into the trial's partition."""

    def failing(*args, **kwargs):
        raise ValueError("injected partition failure")

    monkeypatch.setattr(expcli, "partition", failing)
    ini = tmp_path / "small.ini"
    ini.write_text(
        "[dataset]\nnum_samples = 48\ntest_samples = 40\n"
        "[channel]\nnum_wds = 4\nnum_antennas = 3\n"
        "[learner]\nrounds = 2\nhidden_dim = 8\n",
        encoding="utf-8",
    )
    code = main(
        [
            "run",
            "--config",
            str(ini),
            "--methods",
            "error_free",
            "--trials",
            "1",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert (
        "ABORTED trial 0: ValueError: injected partition failure"
        in capsys.readouterr().out
    )


def test_cli_verify_passes(capsys):
    code = main(["verify", "--trials", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("trials", [0, -2])
def test_cli_verify_rejects_fewer_than_one_trial(trials, capsys):
    with pytest.raises(SystemExit) as stop:
        main(["verify", "--trials", str(trials)])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert "all checks passed" not in captured.out
    assert "error: verify needs at least one trial" in captured.err
    with pytest.raises(ValueError, match="at least one trial"):
        expcli.run_verify(0, trials)


def test_cli_verify_rejects_a_negative_seed(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["verify", "--seed", "-1"])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "airfd: error: seed must be nonnegative"
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        expcli.run_verify(-1, 1)


def test_cli_run_rejects_an_output_path_that_is_a_file(
    tmp_path, monkeypatch, capsys
):
    """An output path that names a regular file is a usage error, reported
    before any trial runs."""
    taken = tmp_path / "afile"
    taken.write_text("not a directory\n", encoding="utf-8")

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(expcli, "_run_trial", no_trial)
    with pytest.raises(SystemExit) as stop:
        main(["run", "--trials", "1", "--out", str(taken)])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("airfd: error: ")
    assert "File exists" in captured.err
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--trials", "0"], "trials must be >= 1"),
        (["--methods", "bogus"], "unknown methods"),
        (["--zeta", "1.5"], "csi_quality must be in [0, 1]"),
        (["--config", "missing.ini"], "No such file or directory"),
        (["--config", "headerless.ini"], "no section headers"),
        (["--config", "not-an-int.ini"], "invalid literal for int()"),
        (["--config", "crowded.ini"], "cannot spread 900 samples over 1000"),
    ],
    ids=[
        "trials", "methods", "zeta", "missing", "headerless", "not-an-int",
        "more-devices-than-samples",
    ],
)
def test_cli_run_reports_invalid_input_as_a_usage_error(
    tmp_path, monkeypatch, capsys, args, message
):
    """An invalid option or config file ends in one usage line and exit code
    2, not a traceback, and nothing runs."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "headerless.ini").write_text("rounds = 2\n", encoding="utf-8")
    (tmp_path / "not-an-int.ini").write_text(
        "[channel]\nnum_wds = many\n", encoding="utf-8"
    )
    (tmp_path / "crowded.ini").write_text(
        "[channel]\nnum_wds = 1000\n", encoding="utf-8"
    )
    with pytest.raises(SystemExit) as stop:
        main(["run", *args, "--out", str(tmp_path / "out")])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: airfd")
    assert message in captured.err
    assert not (tmp_path / "out").exists()
