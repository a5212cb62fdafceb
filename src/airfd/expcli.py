"""Experiment driver: dataset synthesis and partitioning, configuration
handling, the full multi-round distillation loop for every method, and CSV
emission.

The driver compares four ways of sharing knowledge each round:

- ``proposed``   — superposed uplink with the optimized receive plan,
- ``uniform``    — superposed uplink with the non-adaptive baseline plan,
- ``orthogonal`` — per-device uplink slots with matched-filter reception,
- ``error_free`` — the exact aggregation target, bypassing the channel.

Rounds are the outer loop of a trial: each round draws its fading, channel
estimate and receiver noise once, and every method is judged on them. All
randomness is drawn from named substreams of one experiment seed, so a rerun
with the same configuration produces byte-identical CSV files, all methods
within a trial see the same data, fading, noise, and initial models, and a
method's rows do not depend on which other methods run beside it.
"""

from __future__ import annotations

import argparse
import configparser
import io
import os
import time
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import BLAS_THREADS_AT_IMPORT, NUMPY_LOADED_FIRST
from .airagg import aggregate_over_air, superpose_and_combine
from .channel import (
    ChannelConfig,
    ChannelState,
    path_loss,
    perturb_csi,
    sample_channel,
    sample_distances,
    sample_noise,
    scale_coefficients,
)
from .knowledge import (
    DatasetPartition,
    KnowledgeSet,
    global_target,
    knowledge_vectors,
)
from .learner import (
    Architecture,
    Batch,
    EvalSet,
    ForwardPass,
    LearnerConfig,
    ModelParams,
    evaluate_accuracy,
    forward_pass,
    init_params,
    loss_and_grad,
    train_round,
)
from .metrics import (
    RoundMetrics,
    a2_coefficient,
    csv_header,
    p2_objective,
    phi1,
    phi2_sq_all,
)
from .oracles import (
    accuracy_loop,
    beamformer_grid_search,
    finite_difference_gradient,
    naive_aggregate,
    phi2_sq_monte_carlo,
)
from .rng import substream
from .transceiver import (
    build_relaxation,
    optimize_round,
    orthogonal_receive,
    relaxation_objective,
    uniform_baseline,
)

# After the package's modules (sdp_solver loads scipy.linalg): ahead of them,
# it slowed perfbench's desk set-up probe by about 10% (2-core Xeon VM).
from scipy.linalg import helmert

METHODS = ("proposed", "uniform", "orthogonal", "error_free")
# The methods whose knowledge is superposed over the air through a plan.
_SUPERPOSED = ("proposed", "uniform")

# Airtime of one transmitted scalar, used only for reporting in the summary.
AIRTIME_PER_SCALAR_S = 3.6e-6


# ---------------------------------------------------------------------------
# Dataset synthesis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetSpec:
    """Synthetic Gaussian-mixture dataset parameters.

    Attributes:
        num_samples: Training samples to draw (labels balanced globally).
        feature_dim: Feature dimension F.
        num_classes: Class count K (>= 2).
        separation: Pairwise distance between any two class means; 0 makes
            the classes statistically indistinguishable.
        test_samples: Size of the held-out evaluation set.
    """

    num_samples: int
    feature_dim: int
    num_classes: int
    separation: float
    test_samples: int

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.num_samples < self.num_classes:
            raise ValueError("need at least one sample per class")
        # The test set is drawn like the training set, balanced over classes.
        if self.test_samples < self.num_classes:
            raise ValueError(
                f"test_samples must be >= num_classes = {self.num_classes}, "
                f"got {self.test_samples}"
            )
        if not 0.0 <= self.separation < np.inf:
            raise ValueError("separation must be finite and nonnegative")
        if self.feature_dim < self.num_classes - 1:
            raise ValueError(
                "feature_dim must be >= num_classes - 1 so that equidistant "
                "class means exist"
            )


class Dataset(NamedTuple):
    features: np.ndarray  # (S, F) float64
    labels: np.ndarray  # (S,) int64


def class_means(spec: DatasetSpec) -> np.ndarray:
    """K points in R^F with every pairwise distance exactly `separation`.

    The vertices of a regular simplex are built in the zero-sum subspace of
    R^K through the orthonormal Helmert basis of `scipy.linalg.helmert`,
    scaled, and zero-padded to F dimensions. Requires F >= K - 1.
    """
    k, f = spec.num_classes, spec.feature_dim
    # Column c of the (K-1, K) basis holds the coordinates of vertex c;
    # vertices of the embedded standard simplex are sqrt(2) apart.
    means = np.zeros((k, f))
    means[:, : k - 1] = (spec.separation / np.sqrt(2.0)) * helmert(k).T
    return means


def synthesize_dataset(spec: DatasetSpec, rng: np.random.Generator) -> Dataset:
    """Draw a balanced labeled sample: class k is N(mu_k, I).

    The label sequence is deterministic (class-sorted, sizes as equal as the
    total allows); only the features consume randomness.
    """
    k = spec.num_classes
    base, extra = divmod(spec.num_samples, k)
    sizes = np.full(k, base, dtype=np.int64)
    sizes[:extra] += 1
    labels = np.repeat(np.arange(k, dtype=np.int64), sizes)
    means = class_means(spec)
    features = means[labels] + rng.standard_normal(
        (spec.num_samples, spec.feature_dim)
    )
    return Dataset(features=features, labels=labels)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation of `total` items matching `proportions`; the sum is
    exact, remainders go to the largest fractional parts (ties: lowest index).
    """
    scaled = proportions * total
    alloc = np.floor(scaled).astype(np.int64)
    remainder = total - int(alloc.sum())
    order = np.argsort(-(scaled - alloc), kind="stable")
    alloc[order[:remainder]] += 1
    return alloc


def partition(
    labels: np.ndarray,
    mode: str,
    num_wds: int,
    concentration: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Assign the samples of the (S,) integer labels to `num_wds` devices.

    Modes:
        "iid"       — per class, shuffled samples are dealt round-robin with a
                      rotating start, giving near-equal device totals and
                      class mixes (exactly equal whenever the counts divide).
        "dirichlet" — per class, device proportions are drawn from
                      Dir(concentration * 1_M) and realized by largest-
                      remainder rounding, producing label skew.

    A device that ends up with zero samples is repaired by moving it the last
    sample, the highest dataset index, of the currently largest device (ties:
    lowest device index), so every device can take part in training. On a
    class-sorted dataset such as synthesize_dataset draws, that sample has
    the highest label the donor holds, whichever class it holds most.

    Returns:
        (order, sizes): the dataset indices in device order, ascending
        within each device, of which device i holds the next sizes[i].
        learner.Batch counts each device's classes from this layout.
    """
    if mode not in ("iid", "dirichlet"):
        raise ValueError(f"unknown partition mode: {mode!r}")
    num_classes = int(labels.max()) + 1
    if labels.shape[0] < num_wds:
        raise ValueError(
            f"cannot spread {labels.shape[0]} samples over {num_wds} devices"
        )
    owner = np.full(labels.shape[0], -1, dtype=np.int64)  # each sample's device
    pointer = 0
    for k in range(num_classes):
        idx = rng.permutation(np.flatnonzero(labels == k))
        if mode == "iid":
            owner[idx] = (pointer + np.arange(idx.size)) % num_wds
            pointer = (pointer + idx.size) % num_wds
        else:
            proportions = rng.dirichlet(np.full(num_wds, concentration))
            alloc = _largest_remainder(proportions, idx.size)
            owner[idx] = np.repeat(np.arange(num_wds), alloc)

    # Repair empty devices so every one of them can train and transmit. The
    # donor keeps a sample: an empty device exists and S >= M samples remain.
    sizes = np.bincount(owner, minlength=num_wds)
    for empty in np.flatnonzero(sizes == 0):
        donor = int(np.argmax(sizes))
        owner[np.flatnonzero(owner == donor)[-1]] = empty
        sizes[donor] -= 1
        sizes[empty] = 1
    return np.argsort(owner, kind="stable"), sizes


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs.

    Attributes:
        channel: Uplink parameters (device count M lives here).
        learner: Per-device training hyperparameters (round count T included).
        dataset: Synthetic dataset parameters.
        partition_mode: "iid" or "dirichlet".
        dirichlet_param: Concentration of the label-skew draw.
        methods: Non-empty subset of METHODS, evaluated per trial.
        trials: Independent repetitions (fresh data/placement per trial).
        seed: Root seed; every random draw is a named substream of it.
        output_dir: Where CSVs and the summary are written.
        hidden_dim: Hidden width of every device model.
        peak_power: Per-device transmit power budget P_i (same for all).
        eval_every: Test-accuracy cadence in rounds (the last round is always
            evaluated; rows between evaluations repeat the latest value).
    """

    channel: ChannelConfig
    learner: LearnerConfig
    dataset: DatasetSpec
    partition_mode: str
    dirichlet_param: float
    methods: tuple[str, ...]
    trials: int
    seed: int
    output_dir: str
    hidden_dim: int
    peak_power: float
    eval_every: int

    def __post_init__(self) -> None:
        if self.partition_mode not in ("iid", "dirichlet"):
            raise ValueError(f"unknown partition mode: {self.partition_mode!r}")
        # The float tests are written so that NaN fails them.
        if not 0.0 < self.dirichlet_param < np.inf:
            raise ValueError("dirichlet_param must be finite and positive")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("methods must not repeat")
        if self.dataset.num_samples < self.channel.num_wds:
            raise ValueError(
                f"cannot spread {self.dataset.num_samples} samples over "
                f"{self.channel.num_wds} devices"
            )
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if not 0.0 < self.peak_power < np.inf:
            raise ValueError("peak_power must be finite and positive")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if not self.output_dir.strip():
            raise ValueError("output_dir must name a directory")


# The defaults of a run. config_from_parser reads every field of a run's
# records from these keys, so no default of a record applies to a run.
DEFAULT_CONFIG = """\
[experiment]
seed = 7
trials = 5
methods = proposed,uniform,error_free
output_dir = results
eval_every = 1

[dataset]
num_samples = 900
feature_dim = 8
num_classes = 3
separation = 2.5
test_samples = 600

[partition]
mode = dirichlet
dirichlet_param = 0.5

[channel]
num_wds = 10
num_antennas = 5
noise_variance = 2e-16
carrier_freq = 915e6
pathloss_exponent = 4.0
antenna_gain_ps = 1.0
antenna_gain_wd = 1.0
distance_min = 100.0
distance_max = 200.0
csi_quality = 1.0
peak_power = 1e-3

[learner]
hidden_dim = 32
distill_weight = 3.0
init_lr = 0.15
rounds = 200
local_epochs = 1
"""

def default_parser() -> configparser.ConfigParser:
    """The built-in defaults as a mutable key-value structure. Values are
    read literally: a '%' is a character, not an interpolation."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(DEFAULT_CONFIG)
    return parser


def load_config_file(path: str | None) -> configparser.ConfigParser:
    """Defaults overlaid with the file at `path` (if given). A key that a
    section of the defaults does not declare is an error; a section they do
    not declare is ignored."""
    parser = default_parser()
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
        defaults = default_parser()
        for section in defaults.sections():
            unknown = sorted(set(parser[section]) - set(defaults[section]))
            if unknown:
                raise ValueError(
                    f"{path}: section [{section}] has no key {unknown[0]!r}"
                )
    return parser


def _read_fields(cls, section: configparser.SectionProxy, **given):
    """The record `cls` with each field not in `given` read from the key of
    the same name, as the field's annotated type (float, else int)."""
    values = dict(given)
    for f in fields(cls):
        if f.name not in given:
            read = section.getfloat if f.type == "float" else section.getint
            values[f.name] = read(f.name)
    return cls(**values)


def _write_fields(section: configparser.SectionProxy, record) -> None:
    """Inverse of _read_fields: writes each field of `record` that `section`
    has a key for; floats use repr so dumps round-trip."""
    for f in fields(record):
        if f.name in section:
            value = getattr(record, f.name)
            section[f.name] = repr(float(value)) if f.type == "float" else str(value)


def config_from_parser(parser: configparser.ConfigParser) -> ExperimentConfig:
    """Build the typed configuration from flat key-value sections: each key of
    [channel], [learner] and [dataset] is the field of the same name on its
    record; the keys below are the ones that are not."""
    exp, par = parser["experiment"], parser["partition"]
    cha, lrn = parser["channel"], parser["learner"]
    distances = (cha.getfloat("distance_min"), cha.getfloat("distance_max"))
    return ExperimentConfig(
        channel=_read_fields(ChannelConfig, cha, distance_range=distances),
        learner=_read_fields(LearnerConfig, lrn),
        dataset=_read_fields(DatasetSpec, parser["dataset"]),
        partition_mode=par["mode"].strip(),
        dirichlet_param=par.getfloat("dirichlet_param"),
        methods=tuple(m.strip() for m in exp["methods"].split(",") if m.strip()),
        trials=exp.getint("trials"),
        seed=exp.getint("seed"),
        output_dir=exp["output_dir"].strip(),
        hidden_dim=lrn.getint("hidden_dim"),
        peak_power=cha.getfloat("peak_power"),
        eval_every=exp.getint("eval_every"),
    )


def config_to_parser(config: ExperimentConfig) -> configparser.ConfigParser:
    """Inverse of config_from_parser; floats use repr so dumps round-trip."""
    parser = default_parser()
    exp, par = parser["experiment"], parser["partition"]
    cha, lrn = parser["channel"], parser["learner"]
    exp["seed"] = str(config.seed)
    exp["trials"] = str(config.trials)
    exp["methods"] = ",".join(config.methods)
    exp["output_dir"] = config.output_dir
    exp["eval_every"] = str(config.eval_every)
    _write_fields(parser["dataset"], config.dataset)
    par["mode"] = config.partition_mode
    par["dirichlet_param"] = repr(float(config.dirichlet_param))
    _write_fields(cha, config.channel)
    cha["distance_min"] = repr(float(config.channel.distance_range[0]))
    cha["distance_max"] = repr(float(config.channel.distance_range[1]))
    cha["peak_power"] = repr(float(config.peak_power))
    _write_fields(lrn, config.learner)
    lrn["hidden_dim"] = str(config.hidden_dim)
    return parser


def dump_config(config: ExperimentConfig) -> str:
    """The resolved configuration as reloadable key-value text."""
    buffer = io.StringIO()
    config_to_parser(config).write(buffer)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Round-level building blocks
# ---------------------------------------------------------------------------


def generate_knowledge(
    params: ModelParams, batch: Batch
) -> tuple[KnowledgeSet, ForwardPass]:
    """Every device's per-class average soft predictions, from one forward
    pass of the (M, P) models on their batch. Also returns the forward
    pass, which `train_round` reuses for the full-batch loss while the
    parameters are unchanged."""
    forward = forward_pass(params, batch)
    q = knowledge_vectors(forward.probs, batch.bins, batch.counts)
    return KnowledgeSet(q=q), forward


class CommunicationCost(NamedTuple):
    """Exact per-round and total uplink scalar counts for one method."""

    channel_uses_per_round: int
    scalars_per_round: int
    total_scalars: int


def communication_accounting(
    method: str, num_wds: int, num_classes: int, model_dim: int, rounds: int
) -> CommunicationCost:
    """Uplink cost model.

    Superposed methods spend K^2 channel uses per round regardless of the
    device count, plus 2MK error-free statistic scalars (means and stds) and
    MK signaling scalars. The orthogonal method spends M*K^2 uses and, since
    its receiver reads the same statistics and counts, the same 3MK side
    scalars; a parameter-averaging scheme would spend M*model_dim (reported
    for scale only); the error-free method is a hypothetical with no uplink.
    """
    m, k, d = int(num_wds), int(num_classes), int(model_dim)
    side = 2 * m * k + m * k
    if method in _SUPERPOSED:
        uses = k * k
        scalars = uses + side
    elif method == "orthogonal":
        uses = m * k * k
        scalars = uses + side
    elif method == "error_free":
        uses = 0
        scalars = 0
    elif method == "fl":
        uses = m * d
        scalars = uses
    else:
        raise ValueError(f"unknown method: {method!r}")
    return CommunicationCost(uses, scalars, scalars * int(rounds))


# ---------------------------------------------------------------------------
# The experiment loop
# ---------------------------------------------------------------------------


class TrialAbort(NamedTuple):
    trial: int
    message: str


class ExperimentResult(NamedTuple):
    """Everything run_experiment produced, for tests and callers.

    csv_paths/summary_path point at the written files; rows holds the same
    records in memory; final_accuracies[method] lists the mean end-of-run
    test accuracy of each completed trial; final_params[method][j] is the
    (M, P) stack of final models in the j-th completed trial (device i's is
    row i).
    """

    csv_paths: dict[str, str]
    summary_path: str
    rows: dict[str, list[RoundMetrics]]
    final_accuracies: dict[str, list[float]]
    final_params: dict[str, list[ModelParams]]
    completed_trials: list[int]
    aborts: list[TrialAbort]


class _TrialResult(NamedTuple):
    """One completed trial, each field keyed by method: its CSV rows, its
    final mean test accuracy, its final (M, P) model stack, and its plan
    construction seconds and solver iterations (superposed methods only)."""

    rows: dict[str, list[RoundMetrics]]
    accuracy: dict[str, float]
    params: dict[str, ModelParams]
    plan_seconds: dict[str, float]
    plan_iterations: dict[str, int]


def _run_trial(
    config: ExperimentConfig,
    arch: Architecture,
    peaks: np.ndarray,
    a2: float,
    trial: int,
) -> _TrialResult:
    """All configured methods on one trial's data and channel draws, round
    by round: every method runs round t on the same fading, estimate and
    noise before any method starts round t + 1."""
    seed = config.seed
    spec = config.dataset
    cha = config.channel
    lrn = config.learner
    num_wds, num_classes = cha.num_wds, spec.num_classes
    rounds, zeta = lrn.rounds, cha.csi_quality
    noise_var = cha.noise_variance

    # Both sets are checked and laid out once, for every round of the trial.
    train = synthesize_dataset(spec, substream(seed, "data", trial))
    test = EvalSet(
        arch,
        *synthesize_dataset(
            replace(spec, num_samples=spec.test_samples),
            substream(seed, "testdata", trial),
        ),
    )
    order, sizes = partition(
        train.labels,
        config.partition_mode,
        num_wds,
        config.dirichlet_param,
        substream(seed, "partition", trial),
    )
    # The training set in device order: device i holds the next B_i samples.
    # The uplink weighs knowledge by the counts that its averages divide by.
    batch = Batch(arch, train.features[order], train.labels[order], sizes)
    part = DatasetPartition(counts=batch.counts)
    distances = sample_distances(cha, substream(seed, "distance", trial))
    amplitudes = np.sqrt([path_loss(d, cha) for d in distances])
    # The estimate's error is drawn on the unit fading, before path loss.
    unit_config = replace(
        cha, pathloss_exponent=0.0, antenna_gain_ps=1.0, antenna_gain_wd=1.0
    )
    initial = init_params(
        arch, [substream(seed, "init", trial, i) for i in range(num_wds)]
    )
    params = dict.fromkeys(config.methods, initial)
    accuracy = dict.fromkeys(config.methods, 0.0)
    rows: dict[str, list[RoundMetrics]] = {m: [] for m in config.methods}
    plan_seconds = dict.fromkeys(config.methods, 0.0)
    plan_iterations = dict.fromkeys(config.methods, 0)
    superposed = any(m in _SUPERPOSED for m in config.methods)

    for t in range(rounds):
        # One fading, channel estimate and receiver noise per round, shared
        # by every method; the estimate and the noises are drawn only when a
        # configured method reads them.
        fading = sample_channel(
            unit_config, distances, substream(seed, "fading", trial, t)
        )
        true_channel = scale_coefficients(fading, amplitudes)
        if superposed:
            perceived = scale_coefficients(
                perturb_csi(fading, zeta, substream(seed, "csi", trial, t)),
                amplitudes,
            )
            noise = sample_noise(
                cha.num_antennas,
                num_classes * num_classes,
                noise_var,
                substream(seed, "noise", trial, t),
            )
        if "orthogonal" in config.methods:
            orth_noise = sample_noise(
                cha.num_antennas,
                num_wds * num_classes * num_classes,
                noise_var,
                substream(seed, "orthnoise", trial, t),
            ).reshape(num_wds, num_classes, num_classes, cha.num_antennas)

        for method in config.methods:
            knowledge, forward = generate_knowledge(params[method], batch)
            plan = None
            if method == "error_free":
                target = global_target(knowledge, part)
            elif method == "orthogonal":
                target = orthogonal_receive(
                    true_channel, knowledge, part, peaks, orth_noise
                ).real
            else:
                start = time.perf_counter()
                if method == "proposed":
                    plan = optimize_round(perceived, knowledge.stds, part, peaks)
                else:
                    plan = uniform_baseline(perceived, knowledge.stds, part, peaks)
                plan_seconds[method] += time.perf_counter() - start
                plan_iterations[method] += plan.diagnostics.solver_iterations
                target = aggregate_over_air(
                    knowledge, part, plan, true_channel, noise
                ).real

            # A stateful generator that train_round consumes: one per method.
            batch_rng = (
                substream(seed, "batch", trial, t) if lrn.local_epochs > 1 else None
            )
            params[method], losses = train_round(
                params[method],
                batch,
                target,
                lrn,
                t,
                batch_rng,
                cache=forward,
            )
            del forward  # spent by train_round
            if t % config.eval_every == 0 or t == rounds - 1:
                accuracies = evaluate_accuracy(params[method], test)
                accuracy[method] = float(np.mean(accuracies))

            if plan is None:
                phi1_max = phi1_mean = phi2_mean = p2_val = p4_val = 0.0
                eig1, eig2 = 1.0, 0.0
            else:
                phi1_values = phi1(plan, true_channel, knowledge, part)
                phi1_max = float(phi1_values.max())
                phi1_mean = float(phi1_values.mean())
                phi2_mean = float(
                    phi2_sq_all(plan.denormalizers, part, noise_var).mean()
                )
                p2_val = p2_objective(
                    plan.beamformer,
                    true_channel,
                    knowledge.stds,
                    part,
                    peaks,
                    noise_var,
                    a2,
                    rounds,
                )
                p4_val = plan.diagnostics.relaxation_objective
                eig1, eig2 = plan.diagnostics.eig1, plan.diagnostics.eig2
            rows[method].append(
                RoundMetrics(
                    trial=trial,
                    round=t,
                    method=method,
                    N=cha.num_antennas,
                    M=num_wds,
                    K=num_classes,
                    zeta=zeta,
                    phi1_max=phi1_max,
                    phi1_mean=phi1_mean,
                    phi2_sq_mean=phi2_mean,
                    p2_obj=p2_val,
                    p4_obj=p4_val,
                    eig1=eig1,
                    eig2=eig2,
                    train_loss_mean=float(losses.mean()),
                    test_acc_mean=accuracy[method],
                )
            )
    return _TrialResult(rows, accuracy, params, plan_seconds, plan_iterations)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every configured method on every trial and write the outputs.

    Trials are independent; a failure inside one aborts that trial alone (its
    rows are dropped, a diagnostic is recorded) and the remaining trials run.
    Every output is read from the completed trials' records in trial order.
    Rerunning with an identical configuration rewrites byte-identical CSVs;
    wall-clock timing appears only in the summary file.
    """
    arch = Architecture(
        feature_dim=config.dataset.feature_dim,
        hidden_dim=config.hidden_dim,
        num_classes=config.dataset.num_classes,
    )
    peaks = np.full(config.channel.num_wds, config.peak_power)
    a2 = a2_coefficient(config.learner)

    done: dict[int, _TrialResult] = {}
    aborts: list[TrialAbort] = []

    wall_start = time.perf_counter()
    for trial in range(config.trials):
        try:
            done[trial] = _run_trial(config, arch, peaks, a2, trial)
        except Exception as exc:  # deliberate: record and move to next trial
            aborts.append(TrialAbort(trial, f"{type(exc).__name__}: {exc}"))
    total_wall = time.perf_counter() - wall_start

    records = done.values()
    rows = {m: [row for r in records for row in r.rows[m]] for m in config.methods}
    os.makedirs(config.output_dir, exist_ok=True)
    csv_paths: dict[str, str] = {}
    for method in config.methods:
        path = os.path.join(config.output_dir, f"{method}.csv")
        lines = [csv_header()] + [r.to_csv_row() for r in rows[method]]
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
        csv_paths[method] = path

    summary_path = os.path.join(config.output_dir, "summary.txt")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_summarize(config, arch, done, aborts, total_wall))

    return ExperimentResult(
        csv_paths=csv_paths,
        summary_path=summary_path,
        rows=rows,
        final_accuracies={m: [r.accuracy[m] for r in records] for m in config.methods},
        final_params={m: [r.params[m] for r in records] for m in config.methods},
        completed_trials=list(done),
        aborts=aborts,
    )


def _summarize(
    config: ExperimentConfig,
    arch: Architecture,
    done: dict[int, _TrialResult],
    aborts: list[TrialAbort],
    total_wall: float,
) -> str:
    """Human-readable run report (the only place wall-clock numbers go);
    `done` holds the completed trials in trial order."""
    cha, lrn = config.channel, config.learner
    lines = ["run summary", "===========", ""]
    lines.append(dump_config(config).rstrip())
    lines.append("")
    lines.append(f"model parameters per device: {arch.param_count}")
    lines.append(_blas_threads_line())
    lines.append(
        f"trials completed: {len(done)} of {config.trials}; "
        f"total wall time {total_wall:.3f} s"
    )
    lines.append("")
    lines.append("per-method results")
    lines.append("------------------")
    plan_rounds = len(done) * lrn.rounds
    for method in config.methods:
        accs = [r.accuracy[method] for r in done.values()]
        mean_acc = float(np.mean(accs)) if accs else float("nan")
        cost = communication_accounting(
            method, cha.num_wds, config.dataset.num_classes,
            arch.param_count, lrn.rounds,
        )
        lines.append(
            f"method={method} trials={len(accs)} "
            f"mean_final_accuracy={mean_acc:.4f}"
        )
        lines.append(
            f"  uplink per round: {cost.channel_uses_per_round} channel uses, "
            f"{cost.scalars_per_round} scalars; total {cost.total_scalars} "
            f"scalars = {cost.total_scalars * AIRTIME_PER_SCALAR_S:.6f} s airtime"
        )
        if method in _SUPERPOSED and plan_rounds:
            seconds = sum(r.plan_seconds[method] for r in done.values())
            lines.append(
                f"  mean plan construction time: "
                f"{1e3 * seconds / plan_rounds:.3f} ms/round"
            )
        if method == "proposed" and plan_rounds:
            iterations = sum(r.plan_iterations[method] for r in done.values())
            lines.append(
                f"  mean IPM iterations per solve: {iterations / plan_rounds:.2f}"
            )
    reference = communication_accounting(
        "fl", cha.num_wds, config.dataset.num_classes,
        arch.param_count, lrn.rounds,
    )
    lines.append(
        f"parameter-averaging reference upload: {reference.scalars_per_round} "
        f"scalars/round at this model size"
    )
    lines.append("")
    lines.append("aborts")
    lines.append("------")
    if aborts:
        lines.extend(f"trial {a.trial}: {a.message}" for a in aborts)
    else:
        lines.append("(none)")
    return "\n".join(lines) + "\n"


def _blas_threads_line() -> str:
    """The BLAS thread variables as airfd found them at import, and whether
    its one-thread default for unset ones could apply."""
    found = ", ".join(
        f"{name}={'unset' if value is None else value}"
        for name, value in BLAS_THREADS_AT_IMPORT.items()
    )
    if NUMPY_LOADED_FIRST:
        note = "numpy was loaded first, so the one-thread default did not apply"
    else:
        note = "unset ones took the one-thread default"
    return f"BLAS threads at airfd import: {found}; {note}"


# ---------------------------------------------------------------------------
# Self-check suite (the `verify` subcommand)
# ---------------------------------------------------------------------------


def _verify_instance(seed: int, index: int) -> list[tuple[str, bool, str]]:
    """One battery of independent cross-checks on random instances."""
    checks: list[tuple[str, bool, str]] = []
    rng = substream(seed, "verify", index)
    num_wds, num_classes, num_antennas = 4, 3, 3

    parts = rng.standard_normal((num_wds, num_antennas, 2)) * np.sqrt(0.5)
    channel = ChannelState(coefficients=parts[..., 0] + 1j * parts[..., 1])
    part = DatasetPartition(
        counts=rng.integers(5, 40, size=(num_wds, num_classes))
    )
    knowledge = KnowledgeSet(
        q=rng.dirichlet(np.ones(num_classes), size=(num_wds, num_classes))
    )
    peaks = np.full(num_wds, 1.0)

    plan = optimize_round(channel, knowledge.stds, part, peaks)

    # Noiseless end-to-end aggregation must reproduce the exact target.
    zero_noise = np.zeros(
        (num_classes * num_classes, num_antennas), dtype=np.complex128
    )
    estimate = aggregate_over_air(knowledge, part, plan, channel, zero_noise).real
    gap = float(np.max(np.abs(estimate - global_target(knowledge, part))))
    checks.append(("noiseless_aggregation_exact", gap <= 1e-9, f"max err {gap:.2e}"))

    # The combining path agrees with an entry-by-entry evaluation.
    signals = 0.1 * (
        rng.standard_normal((num_wds, 6)) + 1j * rng.standard_normal((num_wds, 6))
    )
    noise = 0.01 * (
        rng.standard_normal((6, num_antennas))
        + 1j * rng.standard_normal((6, num_antennas))
    )
    fast = superpose_and_combine(signals, channel, plan.beamformer, noise)
    slow = naive_aggregate(signals, channel.coefficients, plan.beamformer, noise)
    gap = float(np.max(np.abs(fast - slow)))
    checks.append(("combining_matches_loops", gap <= 1e-9, f"max err {gap:.2e}"))

    # Every class's bottleneck device, the one with the largest share
    # |P_i^k|^2 / P_i of its budget, transmits at exactly its power budget,
    # and nobody exceeds theirs.
    eq = plan.transmit.equalizers
    share = (eq.real**2 + eq.imag**2) / peaks[:, None]
    sat = float(np.max(np.abs(share.max(axis=0) - 1.0)))
    over = float(np.max(share - 1.0))
    ok = sat <= 1e-9 and over <= 1e-9
    checks.append(
        ("power_budget_saturated", ok, f"bottleneck gap {sat:.2e}, excess {over:.2e}")
    )

    # Optimized beamformer vs exhaustive search on a two-antenna instance.
    small_channel = ChannelState(
        coefficients=channel.coefficients[:3, :2].copy()
    )
    small_part = DatasetPartition(counts=part.counts[:3, :2].copy())
    small_stds = knowledge.stds[:3, :2]
    small_peaks = peaks[:3]
    small_plan = optimize_round(small_channel, small_stds, small_part, small_peaks)
    problem = build_relaxation(small_channel, small_stds, small_part, small_peaks)
    own = relaxation_objective(small_plan.beamformer, problem)
    best = beamformer_grid_search(problem, coarse_theta=200, coarse_phi=400)
    rel = (own - best) / max(abs(best), 1e-30)
    checks.append(
        ("beamformer_matches_grid_search", rel <= 1e-3, f"rel excess {rel:.2e}")
    )

    # Training gradient vs finite differences.
    arch = Architecture(feature_dim=5, hidden_dim=6, num_classes=num_classes)
    model = init_params(arch, [rng])
    features = rng.standard_normal((12, 5))
    labels = rng.integers(0, num_classes, size=12)
    shared = rng.dirichlet(np.ones(num_classes), size=num_classes)

    batch = Batch(arch, features, labels, [12])

    def device_loss_and_grad(theta):  # one device holding all 12 samples
        loss, grad = loss_and_grad(
            ModelParams(theta=theta[None], arch=arch), batch, shared, 0.7
        )
        return loss[0], grad[0]

    grad = device_loss_and_grad(model.theta[0])[1]
    numeric = finite_difference_gradient(
        lambda theta: device_loss_and_grad(theta)[0], model.theta[0]
    )
    rel = float(
        np.linalg.norm(grad - numeric) / max(np.linalg.norm(numeric), 1e-30)
    )
    checks.append(("gradient_matches_numeric", rel <= 1e-4, f"rel err {rel:.2e}"))

    # Test accuracy vs a per-sample loop: a stack of 17 models, one more
    # than a block of evaluate_accuracy at H = 32 and 600 samples, then 17
    # with a near tie on every sample, which only its float64 re-score
    # resolves: class 1's logits are (1 + eps) times class 0's, eps from
    # 1e-9 to 1e-6, and every other class's are 5 below class 0's.
    arch = Architecture(feature_dim=5, hidden_dim=32, num_classes=num_classes)
    stack = 2.0 * rng.standard_normal((34, arch.param_count))
    h, first = arch.hidden_dim, (arch.feature_dim + 1) * arch.hidden_dim
    w2 = stack[17:, first : first + h * num_classes].reshape(17, h, num_classes)
    b2 = stack[17:, -num_classes:]
    w2[:] = w2[:, :, :1]
    b2[:] = b2[:, :1]
    b2[:, 2:] -= 5.0
    eps = np.geomspace(1e-9, 1e-6, 17)[:, None]
    w2[:, :, 1] *= 1.0 + eps
    b2[:, 1:2] *= 1.0 + eps
    features = rng.standard_normal((600, 5))
    labels = rng.integers(0, num_classes, size=600)
    fast = evaluate_accuracy(
        ModelParams(theta=stack, arch=arch), EvalSet(arch, features, labels)
    )
    slow = accuracy_loop(stack, features, labels, arch.hidden_dim, num_classes)
    wrong = int(np.count_nonzero(fast != slow))
    checks.append(
        ("accuracy_matches_loop", wrong == 0, f"{wrong} of {len(stack)} models differ")
    )

    # Closed-form noise error vs simulation through the receiver.
    analytic = phi2_sq_all(plan.denormalizers, part, 0.05)[0]
    simulated = phi2_sq_monte_carlo(
        plan.beamformer,
        plan.denormalizers,
        part.counts[0],
        0.05,
        substream(seed, "verify-noise", index),
        draws=20_000,
    )
    rel = abs(simulated - analytic) / analytic
    checks.append(("noise_error_matches_simulation", rel <= 0.02, f"rel err {rel:.2e}"))
    return checks


def run_verify(seed: int, trials: int) -> int:
    """Cross-check the implementation against its independent oracles on
    `trials` >= 1 instance batteries drawn from a nonnegative `seed`."""
    if trials < 1:
        raise ValueError("verify needs at least one trial")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    failures = 0
    for index in range(trials):
        for name, ok, detail in _verify_instance(seed, index):
            print(f"[{index}] {name}: {'ok' if ok else 'FAIL'} ({detail})")
            failures += 0 if ok else 1
    print(
        f"verify: {trials} instance batteries, "
        f"{'all checks passed' if failures == 0 else f'{failures} FAILURES'}"
    )
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airfd",
        description="Federated distillation over a shared uplink: experiments "
        "and self-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the configured experiment")
    run_p.add_argument("--config", help="key-value config file (sections)")
    run_p.add_argument("--seed", type=int, help="root seed override")
    run_p.add_argument("--out", help="output directory override")
    run_p.add_argument(
        "--methods", help="comma-separated subset of " + ",".join(METHODS)
    )
    run_p.add_argument("--trials", type=int, help="trial count override")
    run_p.add_argument("--antennas", type=int, help="receive antenna count")
    run_p.add_argument(
        "--zeta", type=float, help="channel-estimate quality in [0, 1]"
    )
    run_p.add_argument(
        "--gamma", type=float, help="distillation regularizer weight"
    )
    run_p.add_argument(
        "--dump-effective-config",
        action="store_true",
        help="print the resolved configuration and exit",
    )

    verify_p = sub.add_parser("verify", help="run the oracle cross-check suite")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--trials", type=int, default=3)
    return parser


def main(argv: list[str] | None = None) -> int:
    """The `airfd` command. Invalid arguments, config files and output paths
    end in a usage error (exit code 2), not a traceback."""
    arg_parser = build_arg_parser()
    args = arg_parser.parse_args(argv)
    if args.command == "verify":
        if args.trials < 1:
            arg_parser.error("verify needs at least one trial")
        if args.seed < 0:
            arg_parser.error("seed must be nonnegative")
        return run_verify(args.seed, args.trials)

    overrides = {
        ("experiment", "seed"): args.seed,
        ("experiment", "output_dir"): args.out,
        ("experiment", "methods"): args.methods,
        ("experiment", "trials"): args.trials,
        ("channel", "num_antennas"): args.antennas,
        ("channel", "csi_quality"): args.zeta,
        ("learner", "distill_weight"): args.gamma,
    }
    try:
        parser = load_config_file(args.config)
        for (section, key), value in overrides.items():
            if value is not None:
                parser[section][key] = str(value)
        config = config_from_parser(parser)
        if args.dump_effective_config:
            print(dump_config(config), end="")
            return 0
        os.makedirs(config.output_dir, exist_ok=True)
    except (ValueError, OSError, configparser.Error) as error:
        arg_parser.error(str(error))

    result = run_experiment(config)
    for method in config.methods:
        accs = result.final_accuracies[method]
        mean_acc = float(np.mean(accs)) if accs else float("nan")
        print(
            f"{method}: {len(accs)} trials, mean final accuracy {mean_acc:.4f}, "
            f"rows in {result.csv_paths[method]}"
        )
    print(f"summary: {result.summary_path}")
    for abort in result.aborts:
        print(f"ABORTED trial {abort.trial}: {abort.message}")
    return 1 if result.aborts else 0


if __name__ == "__main__":
    raise SystemExit(main())
