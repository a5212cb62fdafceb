"""Timed runs, traced runs, set-up probes and correctness gates.

Only ``airfd``'s public functions are called. Timings of rounds and plans are
taken by rebinding names in ``airfd.expcli`` (where ``_run_trial`` looks them
up at call time); the traced run rebinds more names there and in
``airfd.transceiver``. Every rebinding is undone when the measurement ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from airfd import expcli, transceiver
from airfd.channel import sample_channel
from airfd.rng import substream
from airfd.sdp_solver import SdpConvergenceError
from airfd.transceiver import PlanDegeneracyError, optimize_round

import workloads
from speed import Speed
from tracing import Tracer, rebound

# name -> (unit, better); BENCHMARK.json lists the same names, units and
# directions, which the harness's own test checks.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "trial_s": ("s", "lower"),
    "round_ms_p50": ("ms", "lower"),
    "round_ms_p90": ("ms", "lower"),
    "plan_ms_p50": ("ms", "lower"),
    "plan_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "rank_one_share": ("share", "higher"),
}
PER_LAYER = {
    "sdp_solver.solve.busy_ms": ("ms", "lower"),
    "sdp_solver.solve.calls": ("count", "lower"),
    "sdp_solver.iterations": ("count", "lower"),
    "sdp_solver.ms_per_iter": ("ms", "lower"),
    "sdp_solver.rank_one_ratio": ("share", "higher"),
    "sdp_solver.failures": ("count", "lower"),
    "transceiver.optimize_round.busy_ms": ("ms", "lower"),
    "transceiver.optimize_round.self_ms": ("ms", "lower"),
    "transceiver.build_relaxation.busy_ms": ("ms", "lower"),
    "transceiver.uniform_baseline.busy_ms": ("ms", "lower"),
    "transceiver.orthogonal_receive.busy_ms": ("ms", "lower"),
    "transceiver.constraints": ("count", "lower"),
    "learner.train.busy_ms": ("ms", "lower"),
    "learner.train.calls": ("count", "lower"),
    "learner.eval.busy_ms": ("ms", "lower"),
    "learner.eval.calls": ("count", "lower"),
    "learner.samples": ("count", "lower"),
    "knowledge.generate.busy_ms": ("ms", "lower"),
    "knowledge.generate.calls": ("count", "lower"),
    "knowledge.global_target.busy_ms": ("ms", "lower"),
    "airagg.aggregate.busy_ms": ("ms", "lower"),
    "airagg.aggregate.calls": ("count", "lower"),
    "channel.busy_ms": ("ms", "lower"),
    "channel.calls": ("count", "lower"),
    "metrics.busy_ms": ("ms", "lower"),
    "metrics.calls": ("count", "lower"),
    "rng.substream.calls": ("count", "lower"),
    "rng.substream.busy_ms": ("ms", "lower"),
    "expcli.setup_ms": ("ms", "lower"),
    "expcli.self_ms": ("ms", "lower"),
    "expcli.csv_bytes": ("bytes", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}
# Counters that must repeat exactly for one commit, workload and seed.
EXACT_COUNTERS = (
    "sdp_solver.iterations",
    "transceiver.constraints",
    "learner.samples",
    "rng.substream.calls",
    "expcli.csv_bytes",
)

# p90 is reported only with at least ten samples beyond it, so every timed
# run collects at least this many rounds and plans.
MIN_TAIL_SAMPLES = 100
# Repeats of one experiment in a run, so that its CSVs can be compared.
MIN_TRIALS = 2
# A field_plan trial is a block of this many consecutive plans.
FIELD_TRIAL_PLANS = 20
# Fixed work of a traced field_plan run; each plan is made untraced and traced.
TRACE_FIELD_PLANS = 20
TRACE_TINY_FIELD_PLANS = 2
SETUP_PROBES = 5
BLAS_PROBE_PLANS = 4
# A plan is rank-one when the relaxation's top eigenvalues satisfy claim c01.
RANK_ONE_EIG1, RANK_ONE_EIG2 = 0.99, 1e-3
RANK_ONE_GATE = 0.99
# phi1 of a perfect-CSI optimized plan is zero up to roundoff (claim c02).
PHI1_ROUNDOFF = 1e-10
POWER_RTOL = 1e-9

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = Path(__file__).resolve().parent / "run.py"
# Experiment CSVs are written here and removed when the run ends.
SCRATCH = ROOT / ".perfbench_out"


class _FirstRound(BaseException):
    """Stops a set-up probe at its first round (passes `except Exception`)."""


@dataclass
class Outcome:
    """One run's metric values, operation counts, gates and information."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    gates: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def gate(self, name: str, ok: bool, detail: str) -> None:
        """Record a check; a gate checked again keeps its first failure."""
        if self.gates.get(name, {"ok": True})["ok"]:
            self.gates[name] = {"ok": bool(ok), "detail": detail}

    @property
    def correct(self) -> bool:
        return all(g["ok"] for g in self.gates.values())


def is_rank_one(diagnostics) -> bool:
    return diagnostics.eig1 >= RANK_ONE_EIG1 and diagnostics.eig2 <= RANK_ONE_EIG2


def planner_of(config) -> str:
    """The workload's most expensive planner: optimize_round when the
    proposed method runs, otherwise uniform_baseline."""
    return "optimize_round" if "proposed" in config.methods else "uniform_baseline"


def tail(samples_s: list[float]) -> tuple[float, float]:
    """(p50, p90) in milliseconds; zeros when every operation failed."""
    if not samples_s:
        return 0.0, 0.0
    p50, p90 = np.percentile(np.asarray(samples_s) * 1e3, [50, 90])
    return float(p50), float(p90)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_csvs(result, methods) -> bytes:
    data = b""
    for method in methods:
        with open(result.csv_paths[method], "rb") as handle:
            data += handle.read()
    return data


def scratch_dir(name: str) -> str:
    return str(SCRATCH / f"{name}-{os.getpid()}")


def remove_scratch(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # another run still uses it


# ---------------------------------------------------------------------------
# Timed runs (--trace 0)
# ---------------------------------------------------------------------------


@dataclass
class Timings:
    """(start, seconds) of every trial, round and plan of a timed run."""

    trials: list = field(default_factory=list)
    rounds: list = field(default_factory=list)
    plans: list = field(default_factory=list)


def time_metrics(timings: Timings, scale) -> dict:
    """The timed end-to-end metrics, each sample multiplied by
    scale(start, end)."""

    def seconds(samples):
        return [d * scale(t, t + d) for t, d in samples]

    round_p50, round_p90 = tail(seconds(timings.rounds))
    plan_p50, plan_p90 = tail(seconds(timings.plans))
    trials = seconds(timings.trials)
    return {
        "trial_s": statistics.median(trials) if trials else 0.0,
        "round_ms_p50": round_p50,
        "round_ms_p90": round_p90,
        "plan_ms_p50": plan_p50,
        "plan_ms_p90": plan_p90,
    }


class Clock:
    """Per-round and per-plan wall times of run_experiment, taken at names
    bound in expcli: a round runs from generate_knowledge to RoundMetrics.
    Before a round it may time the speed kernel."""

    def __init__(self, speed: Speed, timings: Timings) -> None:
        self.timings = timings
        self.rank_one: list[bool] = []
        self.speed = speed
        self.calibration_s = 0.0
        self._round_start = 0.0

    def hooks(self, planner: str) -> dict:
        generate, make_row = expcli.generate_knowledge, expcli.RoundMetrics
        plan = getattr(expcli, planner)

        def generate_timed(*args, **kwargs):
            self.calibration_s += self.speed.sample()
            self._round_start = perf_counter()
            return generate(*args, **kwargs)

        def row_timed(*args, **kwargs):
            row = make_row(*args, **kwargs)
            start = self._round_start
            self.timings.rounds.append((start, perf_counter() - start))
            return row

        def plan_timed(*args, **kwargs):
            start = perf_counter()
            result = plan(*args, **kwargs)
            self.timings.plans.append((start, perf_counter() - start))
            self.rank_one.append(is_rank_one(result.diagnostics))
            return result

        return {
            "generate_knowledge": generate_timed,
            "RoundMetrics": row_timed,
            planner: plan_timed,
        }


def check_experiment(outcome: Outcome, result, config) -> None:
    """Gates on one finished run_experiment call."""
    outcome.attempted += 1
    if result.aborts:
        outcome.failed += 1
    outcome.gate(
        "no_aborted_trials",
        not result.aborts,
        "; ".join(a.message for a in result.aborts) or "none",
    )
    if "proposed" in config.methods and config.channel.csi_quality == 1.0:
        worst = max((r.phi1_max for r in result.rows["proposed"]), default=0.0)
        outcome.gate(
            "proposed_phi1_at_roundoff",
            worst <= PHI1_ROUNDOFF,
            f"max phi1_max {worst:.3e} (limit {PHI1_ROUNDOFF:g})",
        )


def experiment_info(outcome: Outcome, result, config, csv: bytes) -> None:
    outcome.info["csv_sha256"] = hashlib.sha256(csv).hexdigest()
    outcome.info["csv_bytes"] = len(csv)
    for method in config.methods:
        accs = result.final_accuracies[method]
        outcome.info[f"final_acc.{method}"] = float(np.mean(accs)) if accs else None


def timed_experiment(
    name: str, seed: int, seconds: float, tiny: bool, speed: Speed, timings: Timings
) -> Outcome:
    """Run trials until `seconds` are used up (another trial starts while at
    least half of it fits), with enough round and plan samples for p90.

    The first two trials share one input set and must write identical CSVs;
    every later trial draws a new one, so a run covers several data sets.
    """
    outcome = Outcome()
    out_dir = scratch_dir(name)
    clock = Clock(speed, timings)
    trial_s = timings.trials
    csvs: list[bytes] = []
    try:
        start = perf_counter()
        # An aborted trial is a failed gate; the run stops there.
        while not outcome.failed and (
            len(trial_s) < MIN_TRIALS
            or min(len(timings.rounds), len(timings.plans)) < MIN_TAIL_SAMPLES
            or perf_counter() - start + statistics.median(d for _, d in trial_s) / 2
            <= seconds
        ):
            repeat = len(trial_s)
            config = workloads.experiment_config(name, seed, repeat, out_dir, tiny)
            planned = len(clock.rank_one)
            calibrated = clock.calibration_s
            with rebound(expcli, clock.hooks(planner_of(config))):
                began = perf_counter()
                result = expcli.run_experiment(config)
                trial_s.append(
                    (began, perf_counter() - began - (clock.calibration_s - calibrated))
                )
            if repeat == 0:
                first = result
            elif repeat == 1:
                del clock.rank_one[planned:]  # count each input set once
            check_experiment(outcome, result, config)
            csvs.append(read_csvs(result, config.methods))
    finally:
        remove_scratch(out_dir)
    outcome.gate(
        "csv_byte_identical",
        len(csvs) >= 2 and csvs[0] == csvs[1],
        "two trials of one input set",
    )
    experiment_info(outcome, first, config, csvs[0])
    outcome.metrics["rank_one_share"] = sum(clock.rank_one) / max(len(clock.rank_one), 1)
    outcome.info["planner"] = planner_of(config)
    return outcome


def plan_digest(plan) -> str:
    return hashlib.sha256(
        plan.beamformer.tobytes() + plan.transmit.equalizers.tobytes()
    ).hexdigest()


def field_step(seed, index, tiny, draw_substream, draw_channel, plan_fn):
    """Draw instance `index` and plan it. Returns (step seconds, plan seconds,
    plan or None if the planner raised, instance)."""
    began = perf_counter()
    instance = workloads.field_instance(seed, index, tiny, draw_substream, draw_channel)
    planned = perf_counter()
    try:
        plan = plan_fn(instance.channel, instance.stds, instance.partition, instance.peaks)
    except (SdpConvergenceError, PlanDegeneracyError):
        plan = None
    done = perf_counter()
    return done - began, done - planned, plan, instance


def power_excess(plan, instance) -> float:
    """Largest relative excess of |equalizer|^2 over the peak power."""
    eq = plan.transmit.equalizers
    power = eq.real**2 + eq.imag**2
    return float(np.max(power / instance.peaks[:, None] - 1.0))


def check_field_plans(outcome: Outcome, plans, instances) -> float:
    """Gates on a list of plans; returns the rank-one share."""
    made = [(p, i) for p, i in zip(plans, instances) if p is not None]
    outcome.attempted += len(plans)
    outcome.failed += len(plans) - len(made)
    excess = max((power_excess(p, i) for p, i in made), default=0.0)
    outcome.gate(
        "equalizer_power_within_peak",
        excess <= POWER_RTOL,
        f"max relative excess {excess:.3e} (limit {POWER_RTOL:g})",
    )
    share = sum(is_rank_one(p.diagnostics) for p, _ in made) / max(len(made), 1)
    outcome.gate(
        "rank_one_share",
        share >= RANK_ONE_GATE,
        f"{share:.4f} of {len(made)} plans (limit {RANK_ONE_GATE})",
    )
    return share


def timed_field(
    seed: int, seconds: float, tiny: bool, speed: Speed, timings: Timings
) -> Outcome:
    """Plan independent instances until `seconds` have passed and there are
    enough plans for p90. A round is one stream step: draw and plan."""
    outcome = Outcome()
    plans, instances = [], []
    start = perf_counter()
    while perf_counter() - start < seconds or (
        len(timings.plans) < MIN_TAIL_SAMPLES and len(plans) < 2 * MIN_TAIL_SAMPLES
    ):
        speed.sample()
        began = perf_counter()
        step, solve_s, plan, instance = field_step(
            seed, len(plans), tiny, substream, sample_channel, optimize_round
        )
        timings.rounds.append((began, step))
        if plan is not None:
            timings.plans.append((began + step - solve_s, solve_s))
        plans.append(plan)
        instances.append(instance)
    outcome.metrics["rank_one_share"] = check_field_plans(outcome, plans, instances)
    _, _, again, _ = field_step(seed, 0, tiny, substream, sample_channel, optimize_round)
    outcome.gate(
        "plan_deterministic",
        plans[0] is not None and again is not None
        and plan_digest(plans[0]) == plan_digest(again),
        "instance 0 planned twice",
    )
    for first in range(0, len(timings.rounds) - FIELD_TRIAL_PLANS + 1, FIELD_TRIAL_PLANS):
        block = timings.rounds[first : first + FIELD_TRIAL_PLANS]
        timings.trials.append((block[0][0], sum(d for _, d in block)))
    outcome.info["planner"] = "optimize_round"
    outcome.info["blas_threads_nproc"] = blas_probe_child(seed, tiny)
    return outcome


def warm_up(name: str, seed: int) -> None:
    """Run the smoke-test size of the workload once, untimed, so that lazy
    imports and first-call costs are paid before anything is timed."""
    if name == "field_plan":
        field_step(seed, 0, True, substream, sample_channel, optimize_round)
        return
    out_dir = scratch_dir(name)
    try:
        expcli.run_experiment(workloads.experiment_config(name, seed, 0, out_dir, True))
    finally:
        remove_scratch(out_dir)


def timed_run(name: str, seed: int, seconds: float, tiny: bool) -> Outcome:
    """Set-up probes, warm-up, then the timed loop. Times are reported at the
    reference host speed (see speed.py); the raw ones go to the information
    line."""
    setup = setup_seconds(name, seed, tiny)
    warm_up(name, seed)
    speed, timings = Speed(), Timings()
    if name == "field_plan":
        outcome = timed_field(seed, seconds, tiny, speed, timings)
    else:
        outcome = timed_experiment(name, seed, seconds, tiny, speed, timings)
    raw = time_metrics(timings, lambda start, end: 1.0)
    raw["setup_s"] = statistics.median(setup)
    outcome.metrics.update(time_metrics(timings, speed.factor))
    outcome.metrics["setup_s"] = raw["setup_s"] * speed.factor()
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    outcome.info.update(
        raw=raw,
        kernel_ms_median=1e3 * statistics.median(speed.samples),
        kernel_samples=len(speed.samples),
        trials=len(timings.trials),
        rounds=len(timings.rounds),
        plans=len(timings.plans),
        setup_samples_s=setup,
        fail_share=outcome.failed / outcome.attempted,
    )
    return outcome


# ---------------------------------------------------------------------------
# Child processes: set-up probes and the BLAS-threads reading
# ---------------------------------------------------------------------------


def child_command(name: str, seed: int, tiny: bool, role: str, blas_threads: int = 1):
    command = [
        sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
        "--seconds", "1", "--trace", "0", "--role", role,
        "--blas-threads", str(blas_threads),
    ]
    return command + (["--tiny"] if tiny else [])


def child_env() -> dict:
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1")


def setup_seconds(name: str, seed: int, tiny: bool) -> list[float]:
    """Seconds from the start of a fresh process to its first round or plan,
    once per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        began = time.monotonic()
        done = subprocess.run(
            child_command(name, seed, tiny, "setup"),
            capture_output=True, text=True, timeout=120, env=child_env(),
            cwd=ROOT, check=True,
        )
        samples.append(float(done.stdout.split()[-1]) - began)
    return samples


def first_round_clock(name: str, seed: int, tiny: bool) -> float:
    """Set-up probe body: the monotonic clock when the first round or plan
    is about to start, after imports, data synthesis, partitioning and init."""
    if name == "field_plan":
        workloads.field_instance(seed, 0, tiny, substream, sample_channel)
        return time.monotonic()
    config = workloads.experiment_config(name, seed, 0, scratch_dir(name), tiny)

    def stop(*args, **kwargs):
        raise _FirstRound(time.monotonic())

    with rebound(expcli, {"generate_knowledge": stop}):
        try:
            expcli.run_experiment(config)
        except _FirstRound as reached:
            return reached.args[0]
    raise RuntimeError("run_experiment returned without starting a round")


def blas_probe_child(seed: int, tiny: bool) -> dict:
    """Plan p50 of the first field plans with BLAS at nproc threads, in a
    fresh process (the thread count is fixed when numpy loads)."""
    threads = os.cpu_count() or 1
    done = subprocess.run(
        child_command("field_plan", seed, tiny, "blas", threads),
        capture_output=True, text=True, timeout=170, env=child_env(),
        cwd=ROOT, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def blas_probe(seed: int, tiny: bool) -> dict:
    plan_s = [
        field_step(seed, index, tiny, substream, sample_channel, optimize_round)[1]
        for index in range(BLAS_PROBE_PLANS)
    ]
    return {
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "plans": BLAS_PROBE_PLANS,
        "plan_ms_p50": float(np.median(plan_s) * 1e3),
    }


# ---------------------------------------------------------------------------
# Traced runs (--trace 1)
# ---------------------------------------------------------------------------

# Names bound in expcli -> span name; the layer is the part before the dot.
EXPCLI_SPANS = {
    "substream": "rng.substream",
    "sample_distances": "channel",
    "path_loss": "channel",
    "sample_channel": "channel",
    "scale_coefficients": "channel",
    "perturb_csi": "channel",
    "sample_noise": "channel",
    "global_target": "knowledge.global_target",
    "uniform_baseline": "transceiver.uniform_baseline",
    "orthogonal_receive": "transceiver.orthogonal_receive",
    "aggregate_over_air": "airagg.aggregate",
    "evaluate_accuracy": "learner.eval",
    "a2_coefficient": "metrics",
    "phi1": "metrics",
    "phi2_sq_all": "metrics",
    "p2_objective": "metrics",
    "RoundMetrics": "metrics",
}


def traced_functions(tracer: Tracer) -> tuple[dict, dict]:
    """Replacements for names bound in expcli and in transceiver."""
    solve, build = transceiver.solve, transceiver.build_relaxation
    train, count = expcli.train_round, tracer.counts

    def solve_counted(*args, **kwargs):
        try:
            solution = solve(*args, **kwargs)
        except SdpConvergenceError as exc:
            count["sdp_solver.failures"] += 1
            count["sdp_solver.iterations"] += exc.best.iterations
            raise
        count["sdp_solver.iterations"] += solution.iterations
        return solution

    def build_counted(*args, **kwargs):
        problem = build(*args, **kwargs)
        count["transceiver.constraints"] += int(problem.active_mask.sum())
        return problem

    def train_counted(params, features, *args, **kwargs):
        count["learner.samples"] += len(features)
        return train(params, features, *args, **kwargs)

    traced_plan = tracer.wrap("transceiver.optimize_round", expcli.optimize_round)

    def plan_counted(*args, **kwargs):
        plan = traced_plan(*args, **kwargs)
        count["sdp_solver.rank_one"] += is_rank_one(plan.diagnostics)
        return plan

    in_expcli = {
        name: tracer.wrap(span, getattr(expcli, name))
        for name, span in EXPCLI_SPANS.items()
    }
    in_expcli.update(
        generate_knowledge=tracer.wrap(
            "knowledge.generate", expcli.generate_knowledge, new_round=True
        ),
        train_round=tracer.wrap("learner.train", train_counted),
        optimize_round=plan_counted,
    )
    in_transceiver = {
        "solve": tracer.wrap("sdp_solver.solve", solve_counted),
        "build_relaxation": tracer.wrap("transceiver.build_relaxation", build_counted),
    }
    return in_expcli, in_transceiver


def span_totals(tracer: Tracer):
    """Per span name: total duration and self time in seconds, and calls."""
    names, duration, own = tracer.durations()
    busy, self_s, calls = {}, {}, {}
    for name, d, s in zip(names, duration, own):
        busy[name] = busy.get(name, 0.0) + d
        self_s[name] = self_s.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
    return busy, self_s, calls


def layer_metrics(tracer: Tracer, roots: list[int], round_marker: str) -> dict:
    """Per-layer busy and self times, calls and counters from the spans."""
    busy, self_s, calls = span_totals(tracer)
    root_name = tracer.names[roots[0]]
    count = tracer.counts
    solves = calls.get("sdp_solver.solve", 0)
    iterations = count["sdp_solver.iterations"]
    first_round = tracer.names.index(round_marker) if round_marker in calls else roots[0]
    values = {
        "sdp_solver.solve.calls": solves,
        "sdp_solver.iterations": iterations,
        "sdp_solver.ms_per_iter": 1e3 * busy.get("sdp_solver.solve", 0.0) / iterations
        if iterations else 0.0,
        "sdp_solver.rank_one_ratio": count["sdp_solver.rank_one"] / solves
        if solves else 0.0,
        "sdp_solver.failures": count["sdp_solver.failures"],
        "transceiver.optimize_round.self_ms": 1e3 * self_s.get("transceiver.optimize_round", 0.0),
        "transceiver.constraints": count["transceiver.constraints"],
        "learner.train.calls": calls.get("learner.train", 0),
        "learner.eval.calls": calls.get("learner.eval", 0),
        "learner.samples": count["learner.samples"],
        "knowledge.generate.calls": calls.get("knowledge.generate", 0),
        "airagg.aggregate.calls": calls.get("airagg.aggregate", 0),
        "channel.calls": calls.get("channel", 0),
        "channel.busy_ms": 1e3 * busy.get("channel", 0.0),
        "metrics.calls": calls.get("metrics", 0),
        "metrics.busy_ms": 1e3 * busy.get("metrics", 0.0),
        "rng.substream.calls": calls.get("rng.substream", 0),
        "expcli.setup_ms": 1e3 * (tracer.starts[first_round] - tracer.starts[roots[0]]),
        "expcli.self_ms": 1e3 * self_s[root_name],
    }
    for metric in PER_LAYER:
        if metric.endswith(".busy_ms") and metric not in values:
            values[metric] = 1e3 * busy.get(metric[: -len(".busy_ms")], 0.0)
    return values


def layer_shares(tracer: Tracer, roots: list[int]) -> dict:
    """Share of the traced wall time in each layer (self time, so nested
    layers are not counted twice; the shares sum to 1), plus the two splits
    the workloads were chosen for. The roots (trials or plan steps) are the
    driver layer, expcli."""
    busy, self_s, _ = span_totals(tracer)
    root_name = tracer.names[roots[0]]
    wall = busy[root_name]
    layers: dict[str, float] = {}
    for name, s in self_s.items():
        layer = "expcli" if name == root_name else name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + s
    learner_knowledge = sum(
        d for name, d in busy.items() if name.split(".")[0] in ("learner", "knowledge")
    )
    return {
        "self_share": {k: v / wall for k, v in sorted(layers.items())},
        "sdp_solver_share": busy.get("sdp_solver.solve", 0.0) / wall,
        "learner_plus_knowledge_share": learner_knowledge / wall,
        "layers_plus_expcli_self_ms": 1e3 * sum(layers.values()),
    }


def traced_experiment(name: str, seed: int, tiny: bool) -> Outcome:
    """The first trial of the seed untraced, traced, and untraced again; the
    untraced time is the mean of the two, which brackets the traced one."""
    outcome = Outcome()
    out_dir = scratch_dir(name)
    config = workloads.experiment_config(name, seed, 0, out_dir, tiny)
    tracer = Tracer()
    in_expcli, in_transceiver = traced_functions(tracer)
    untraced_s, csvs = [], []
    try:
        for traced in (False, True, False):
            with ExitStack() as stack:
                if traced:
                    stack.enter_context(rebound(expcli, in_expcli))
                    stack.enter_context(rebound(transceiver, in_transceiver))
                    root = tracer.open("expcli.run_experiment")
                began = perf_counter()
                try:
                    result = expcli.run_experiment(config)
                finally:
                    if traced:
                        tracer.close(root)
                        first = result
                    else:
                        untraced_s.append(perf_counter() - began)
            check_experiment(outcome, result, config)
            csvs.append(read_csvs(result, config.methods))
    finally:
        remove_scratch(out_dir)
    outcome.gate(
        "csv_byte_identical",
        csvs[0] == csvs[1] == csvs[2],
        "untraced, traced and untraced trial of one input set",
    )
    experiment_info(outcome, first, config, csvs[1])
    finish_traced(outcome, tracer, [root], "knowledge.generate", statistics.mean(untraced_s))
    outcome.metrics["expcli.csv_bytes"] = len(csvs[1])
    return outcome


def traced_field(seed: int, tiny: bool) -> Outcome:
    """The seed's first plans, each planned untraced and traced in turn
    (alternating which goes first, so that drift in machine speed cancels)."""
    outcome = Outcome()
    count = TRACE_TINY_FIELD_PLANS if tiny else TRACE_FIELD_PLANS
    tracer = Tracer()
    in_expcli, in_transceiver = traced_functions(tracer)
    untraced_s, roots, plans, instances = 0.0, [], [], []
    same = True
    for index in range(count):
        for traced in (index % 2 == 0, index % 2 == 1):
            if not traced:
                step_s, _, reference, _ = field_step(
                    seed, index, tiny, substream, sample_channel, optimize_round
                )
                untraced_s += step_s
                continue
            tracer.round_id += 1
            with rebound(transceiver, in_transceiver):
                roots.append(tracer.open("expcli.run"))
                try:
                    _, _, plan, instance = field_step(
                        seed, index, tiny, in_expcli["substream"],
                        in_expcli["sample_channel"], in_expcli["optimize_round"],
                    )
                finally:
                    tracer.close(roots[-1])
            plans.append(plan)
            instances.append(instance)
        same = same and plan is not None and reference is not None and (
            plan_digest(plan) == plan_digest(reference)
        )
    check_field_plans(outcome, plans, instances)
    outcome.gate("plan_deterministic", same, "traced plans against untraced plans")
    finish_traced(outcome, tracer, roots, "rng.substream", untraced_s)
    outcome.metrics["expcli.csv_bytes"] = 0
    return outcome


def finish_traced(outcome, tracer, roots, round_marker, untraced_s) -> None:
    outcome.metrics.update(layer_metrics(tracer, roots, round_marker))
    traced_s = sum(tracer.ends[r] - tracer.starts[r] for r in roots)
    outcome.metrics["trace.overhead_ms"] = 1e3 * (traced_s - untraced_s)
    outcome.info.update(layer_shares(tracer, roots))
    outcome.info.update(
        spans=len(tracer.names),
        untraced_ms=1e3 * untraced_s,
        traced_ms=1e3 * traced_s,
    )


def traced_run(name: str, seed: int, tiny: bool) -> Outcome:
    warm_up(name, seed)
    if name == "field_plan":
        return traced_field(seed, tiny)
    return traced_experiment(name, seed, tiny)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }
