"""The benchmark's three workloads and the inputs each one draws from a seed.

Each workload is a closed loop with one client: the next trial or plan starts
when the previous one has returned. See README.md in this directory for why
each workload was chosen, which layer metric should move which end-to-end
metric, the probe numbers that sized the work, and what is left out.

- ``desk``: ``run_experiment`` on the built-in default configuration (M=10,
  K=3, N=5, 200 rounds, methods proposed, uniform and error_free, 1 trial).
  The paper's headline experiment; mixed load, about half SDP.
- ``field_plan``: a stream of independent planning instances through
  ``transceiver.optimize_round`` at M=50, K=10, N=5, drawn like the rank-one
  acceptance claim. No learning; almost all of it is the SDP at m~500.
- ``fleet``: ``run_experiment`` at M=50, K=10, 16 features, 5000 samples,
  100 rounds, methods uniform, orthogonal and error_free. Never solves the
  SDP; mostly learner and knowledge work over 50 devices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from airfd import expcli
from airfd.channel import ChannelConfig
from airfd.knowledge import DatasetPartition

# Overrides of the built-in default configuration, as (section, key) -> value.
# Every experiment workload runs one trial; the seed comes from the command.
EXPERIMENTS = {
    "desk": {},
    "fleet": {
        ("channel", "num_wds"): "50",
        ("dataset", "num_classes"): "10",
        ("dataset", "feature_dim"): "16",
        ("dataset", "num_samples"): "5000",
        # IID: every device holds every class, so each uniform plan builds
        # the full m = 500 relaxation whatever the seed.
        ("partition", "mode"): "iid",
        ("learner", "rounds"): "100",
        ("experiment", "methods"): "uniform,orthogonal,error_free",
    },
}

# Smoke-test sizes: a few devices, a few rounds, small field instances.
TINY_EXPERIMENTS = {
    "desk": {
        ("channel", "num_wds"): "3",
        ("channel", "num_antennas"): "2",
        ("dataset", "num_samples"): "60",
        ("dataset", "test_samples"): "30",
        ("learner", "rounds"): "3",
    },
    "fleet": {
        ("channel", "num_wds"): "4",
        ("dataset", "num_samples"): "80",
        ("dataset", "test_samples"): "30",
        ("partition", "mode"): "iid",
        ("learner", "rounds"): "3",
        ("experiment", "methods"): "uniform,orthogonal,error_free",
    },
}

# The field channel of the rank-one acceptance claim (c01).
FIELD_CHANNEL = ChannelConfig(
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
FIELD_CLASSES = 10
TINY_FIELD_CHANNEL = ChannelConfig(num_wds=5, num_antennas=3)
TINY_FIELD_CLASSES = 3
FIELD_PEAK_POWER = 1e-3

NAMES = ("desk", "field_plan", "fleet")


def experiment_config(name: str, seed: int, repeat: int, output_dir: str, tiny: bool):
    """The ExperimentConfig of the `repeat`-th trial of experiment workload
    `name` in a run with `seed`."""
    parser = expcli.default_parser()
    overrides = (TINY_EXPERIMENTS if tiny else EXPERIMENTS)[name]
    for (section, key), value in overrides.items():
        parser[section][key] = value
    parser["experiment"]["trials"] = "1"
    parser["experiment"]["seed"] = str(trial_seed(seed, repeat))
    parser["experiment"]["output_dir"] = output_dir
    return expcli.config_from_parser(parser)


def trial_seed(seed: int, repeat: int) -> int:
    """Experiment seed of the `repeat`-th trial of a run: trials 0 and 1
    share one, every later trial gets its own. Runs with different seeds
    never share a trial seed."""
    return seed * 1000 + max(repeat - 1, 0)


@dataclass(frozen=True)
class FieldInstance:
    """One planning round: channel, knowledge spreads, counts and budgets."""

    channel: object
    stds: np.ndarray
    partition: DatasetPartition
    peaks: np.ndarray


def field_instance(
    seed: int, index: int, tiny: bool, substream, sample_channel
) -> FieldInstance:
    """Instance `index` of the field stream, drawn like the c01 claim: counts
    100-300 with the farthest device holding 100 times more, stds U(0.05, 0.3).

    `substream` and `sample_channel` are passed in so that a traced run can
    hand over its timed wrappers of the rng and channel layers.
    """
    config = TINY_FIELD_CHANNEL if tiny else FIELD_CHANNEL
    classes = TINY_FIELD_CLASSES if tiny else FIELD_CLASSES
    m = config.num_wds
    rng = substream(seed, "field_plan", index)
    distances = rng.uniform(*config.distance_range, size=m)
    channel = sample_channel(config, distances, rng)
    counts = rng.integers(100, 301, size=(m, classes))
    counts[np.argmax(distances)] *= 100
    stds = rng.uniform(0.05, 0.3, size=(m, classes))
    return FieldInstance(
        channel=channel,
        stds=stds,
        partition=DatasetPartition(counts=counts),
        peaks=np.full(m, FIELD_PEAK_POWER),
    )
