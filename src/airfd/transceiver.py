"""Per-round uplink planning: the plan record (transmit equalizers, receive
beamformer and denormalizers), the relaxed receive-beamformer design, its
closed-form completion, and two baselines — uniform combining with peak-power
uploads, and a fully orthogonal per-device uplink combined digitally at the
server. The estimator's mean-offset weights are the partition's aggregation
weights, so a plan does not store them.

The planning channel may be an imperfect estimate; the resulting plan is
applied to whatever true channel the aggregation step actually sees.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelState
from .knowledge import DatasetPartition, KnowledgeSet, transmit_active_mask
from .sdp_solver import (
    SdpProblem,
    canonical_phase,
    extract_principal_eigenpair,
    solve,
)

__all__ = [
    "PlanDegeneracyError",
    "PlanDiagnostics",
    "PostprocessingResult",
    "TransceiverPlan",
    "TransmitPlan",
    "build_relaxation",
    "relaxation_objective",
    "optimal_postprocessing",
    "optimize_round",
    "uniform_baseline",
    "orthogonal_receive",
]

# The polish holds a constraint as active when its gain at the principal
# eigenvector lies within this relative margin of its class minimum. The
# eigenvector sits about sqrt(sdp_solver.TOL) from the optimum; on the
# instances measured (TOL 1e-8), gains tied at the optimum lay a median 3e-9
# apart there, and gains inactive at the optimum at least 2.7e-3 above the
# minimum.
# A tied constraint left outside the margin either stays above its class
# level or fails the acceptance checks, which then keep the eigenvector.
_ACTIVE_MARGIN = 1e-4
# Newton evaluations of the polish; a tight instance converges in three.
_POLISH_STEPS = 4
# Largest KKT residual, in the polish's O(1) scaled units, taken as roundoff.
_POLISH_RESIDUAL = 1e-12


class PlanDegeneracyError(RuntimeError):
    """A combining vector nulls the signal of a device that must transmit.

    The bottleneck denormalizer of that device's class would be zero, so no
    finite equalizer can align its contribution.
    """


class PostprocessingResult(NamedTuple):
    """Server-side scalars and transmit equalizers completing a beamformer
    into a full plan.

    Attributes:
        denormalizers: (K,) positive per-class scalars lambda^k.
        equalizers: (M, K) complex channel-inverting transmit equalizers,
            zero where the device does not transmit.
    """

    denormalizers: np.ndarray
    equalizers: np.ndarray


@dataclass(frozen=True)
class PlanDiagnostics:
    """How a plan was produced, for per-round reporting.

    Attributes:
        eig1: Largest eigenvalue of the relaxation solution (1.0 when the
            beamformer was fixed rather than optimized).
        eig2: Second-largest eigenvalue (0.0 when fixed).
        relaxation_objective: Weighted negated-bottleneck objective value:
            for an optimized plan, the optimal value of the semidefinite
            relaxation (a lower bound on what any unit beamformer achieves);
            for a fixed beamformer, the value that beamformer achieves.
        solver_iterations: Interior-point iterations spent (0 when fixed).
    """

    eig1: float
    eig2: float
    relaxation_objective: float
    solver_iterations: int


@dataclass(frozen=True)
class TransmitPlan:
    """Per-device, per-class complex equalizers under peak-power limits.

    Attributes:
        equalizers: (M, K) complex; equalizers[i, k] scales device i's
            normalized class-k block. Squared magnitude = transmit power.
        peak_powers: (M,) positive per-device power budgets (watts) that the
            equalizers are checked against; not stored.
    """

    equalizers: np.ndarray
    peak_powers: InitVar[np.ndarray]

    def __post_init__(self, peak_powers: np.ndarray) -> None:
        # A copy, so that freezing it leaves the caller's array writeable.
        eq = np.array(self.equalizers, dtype=np.complex128)
        peak = np.asarray(peak_powers, dtype=np.float64)
        if eq.ndim != 2:
            raise ValueError(f"equalizers must be (M, K), got shape {eq.shape}")
        if peak.shape != (eq.shape[0],):
            raise ValueError("peak_powers must have shape (M,)")
        # Each test is written so that a NaN fails it.
        if not np.all(peak > 0):
            raise ValueError("peak powers must be positive")
        # Tiny headroom absorbs the round-trip rounding of a peak-power design.
        power = eq.real**2 + eq.imag**2
        if not np.all(power <= peak[:, None] * (1.0 + 1e-9)):
            raise ValueError("equalizer power exceeds the peak-power budget")
        eq.setflags(write=False)
        object.__setattr__(self, "equalizers", eq)


@dataclass(frozen=True)
class TransceiverPlan:
    """A complete uplink plan: the devices' transmit equalizers, the server's
    combining vector, and the denormalizers of its estimator. The device that
    limits a class is not stored: it is the one whose equalizer sits at its
    power budget.

    Attributes:
        transmit: Per-device, per-class complex equalizers under peak power.
        beamformer: Length-N complex combining vector w, unit 2-norm.
        denormalizers: (K,) positive scalars lambda^k; combined block k is
            divided by denormalizers[k] before the mean offsets are added back.
        diagnostics: Solver-side facts (eigenvalues, objective, iterations).
    """

    transmit: TransmitPlan
    beamformer: np.ndarray
    denormalizers: np.ndarray
    diagnostics: PlanDiagnostics

    def __post_init__(self) -> None:
        # Copies, so that freezing them leaves the caller's arrays writeable.
        w = np.array(self.beamformer, dtype=np.complex128)
        lam = np.array(self.denormalizers, dtype=np.float64)
        k = self.transmit.equalizers.shape[1]
        if w.ndim != 1:
            raise ValueError("beamformer must be a vector")
        # The value tests are written so that a NaN fails them.
        if not abs(np.linalg.norm(w) - 1.0) <= 1e-10:
            raise ValueError("beamformer must have unit 2-norm")
        if lam.shape != (k,) or not np.all(np.isfinite(lam) & (lam > 0)):
            raise ValueError(f"denormalizers must be ({k},) finite positive scalars")
        for name, arr in (("beamformer", w), ("denormalizers", lam)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _scaled_channels(
    channel: ChannelState,
    knowledge_stds: np.ndarray,
    partition: DatasetPartition,
    peak_powers: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The (M, K) transmit mask and the (K, M, N) scaled channel vectors

        v_j^k = (sqrt(P_j) / (B_j^k q_hat_j^k)) h_j,

    zero where device j does not transmit class k. Every planner's round
    inputs are checked here: the channel's device count, the peak powers and
    the shape of the knowledge stds."""
    if channel.num_wds != partition.num_wds:
        raise ValueError("channel and partition disagree on the device count")
    peaks = np.asarray(peak_powers, dtype=np.float64)
    peaks_ok = np.isfinite(peaks) & (peaks > 0)  # false for NaN
    if peaks.shape != (partition.num_wds,) or not np.all(peaks_ok):
        raise ValueError("peak_powers must be (M,) positive and finite")
    active = transmit_active_mask(partition, knowledge_stds)
    denom = np.where(active, partition.counts * knowledge_stds, 1.0)
    scale = np.where(active, np.sqrt(peaks)[:, None] / denom, 0.0)  # (M, K)
    return active, scale.T[:, :, None] * channel.coefficients[None, :, :]


def build_relaxation(
    channel: ChannelState,
    knowledge_stds: np.ndarray,
    partition: DatasetPartition,
    peak_powers: np.ndarray,
) -> SdpProblem:
    """Assemble the relaxed beamformer-selection problem for one round.

    Each transmitting (class k, device j) pair contributes the rank-one
    constraint v v^H, stored as its factor, the scaled channel vector

        v_j^k = (sqrt(P_j) / (B_j^k q_hat_j^k)) h_j,

    so that |w^H v_j^k|^2 is the squared bottleneck gain the class-k
    denormalizer is limited by. Class k is weighted by
    (sum_i B_i^k / B_i) / B^k, the weight its inverse squared denormalizer
    carries in the aggregation-error objective.
    """
    active, vecs = _scaled_channels(channel, knowledge_stds, partition, peak_powers)
    class_weights = partition.class_mix().sum(axis=0) / partition.class_totals
    return SdpProblem(
        dim=channel.num_antennas,
        class_weights=class_weights,
        constraint_vectors=vecs,
        active_mask=active.T.copy(),
    )


def _constraint_gains(w: np.ndarray, problem: SdpProblem) -> np.ndarray:
    """(K, M) squared gains |w^H v_j^k|^2; +inf where the device does not
    take part in the class."""
    projections = np.conj(problem.constraint_vectors) @ w
    gains = projections.real**2 + projections.imag**2
    return np.where(problem.active_mask, gains, np.inf)


def relaxation_objective(beamformer: np.ndarray, problem: SdpProblem) -> float:
    """Objective value of a fixed unit beamformer: the weighted sum over
    classes of the negated smallest active squared constraint gain."""
    w = np.asarray(beamformer, dtype=np.complex128)
    if w.shape != (problem.dim,):
        raise ValueError(f"beamformer must have shape ({problem.dim},)")
    worst = _constraint_gains(w, problem).min(axis=1)
    return float(problem.class_weights @ (-worst))


def _polish_beamformer(w: np.ndarray, problem: SdpProblem) -> np.ndarray:
    """Refine a unit beamformer to a KKT point of the max-min problem

        maximize sum_k c_k t_k  s.t.  w^H H_l w >= t_k(l),  ||w|| = 1,

    holding as equalities the constraints active at `w` (gain within
    _ACTIVE_MARGIN of its class minimum). Newton's method solves

        sum_l mu_l H_l w = nu w,   sum_{l in class k} mu_l = c_k,
        w^H H_l w = t_k(l),        ||w||^2 = 1

    over (Re w, Im w, t, mu, nu). Because every H_l is Hermitian,
    Im(w^H g) = 0 for g = (sum_l mu_l H_l - nu) w at every point, so the
    imaginary stationarity row at the largest entry p of `w` vanishes
    wherever the other stationarity rows do: the system is overdetermined by
    one row, and the global phase leaves its Jacobian singular. That row is
    replaced by the phase condition Im w_p = 0, so each Newton step is one
    square solve. Gains are scaled per class to their minimum at `w`, and
    the weights to sum one, so every unknown is O(1) at any channel scale.

    Returns the refined vector, in the phase convention of
    extract_principal_eigenpair, when the residual reaches roundoff, every
    multiplier is nonnegative, no other constraint falls below its class
    level, and the achieved objective is no worse than at `w`. Otherwise
    returns `w` unchanged.
    """
    n, num_classes = problem.dim, problem.num_classes
    gains = _constraint_gains(w, problem)
    level = gains.min(axis=1)
    if not np.all(level > 0.0):
        return w
    active = gains <= level[:, None] * (1.0 + _ACTIVE_MARGIN)
    cls, dev = np.nonzero(active)
    size = cls.size
    vecs = problem.constraint_vectors[cls, dev]
    mats = vecs[:, :, None] * np.conj(vecs[:, None, :]) / level[cls, None, None]
    flat = mats.reshape(size, n * n)
    weights = problem.class_weights * level
    weights = weights / weights.sum()
    phase_row = n + int(np.argmax(np.abs(w)))

    # Unknowns: z = (Re w, Im w) in [0, 2n), t in [2n, t_end), mu in
    # [t_end, mu_end), nu last. Rows: stationarity (with the phase row),
    # weights, gains, norm.
    t_end = 2 * n + num_classes
    mu_end = t_end + size
    rows = np.arange(size)
    jac = np.zeros((mu_end + 1, mu_end + 1))
    jac[2 * n + cls, t_end + rows] = 1.0
    jac[t_end + rows, 2 * n + cls] = -1.0
    diagonal = np.arange(2 * n)

    def linearize(x, t, mu, nu):
        hx = mats @ x
        z = np.concatenate([x.real, x.imag])
        hz = np.concatenate([hx.real, hx.imag], axis=1)  # rows R_l z
        stationary = mu @ hx - nu * x
        f = np.concatenate([
            stationary.real,
            stationary.imag,
            np.bincount(cls, mu, num_classes) - weights,
            hz @ z - t[cls],
            [z @ z - 1.0],
        ])
        f[phase_row] = z[phase_row]
        a = (mu @ flat).reshape(n, n)
        jac[:n, :n] = jac[n : 2 * n, n : 2 * n] = a.real
        jac[n : 2 * n, :n] = a.imag
        jac[:n, n : 2 * n] = -a.imag
        jac[diagonal, diagonal] -= nu
        jac[: 2 * n, t_end:mu_end] = hz.T
        jac[: 2 * n, mu_end] = -z
        jac[phase_row] = 0.0
        jac[phase_row, phase_row] = 1.0
        jac[t_end:mu_end, : 2 * n] = 2.0 * hz
        jac[mu_end, : 2 * n] = 2.0 * z
        return f, jac

    x, t = w.copy(), np.ones(num_classes)
    # Stationarity and weight rows are linear in (mu, nu): start from their
    # least-squares solution at w.
    f, jac = linearize(x, t, np.zeros(size), 0.0)
    start = np.linalg.lstsq(jac[:t_end, t_end:], -f[:t_end], rcond=None)[0]
    mu, nu = start[:-1], start[-1]
    for _ in range(_POLISH_STEPS):
        f, jac = linearize(x, t, mu, nu)
        if np.abs(f).max() <= _POLISH_RESIDUAL:
            break
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return w
        x = x + (step[:n] + 1j * step[n : 2 * n])
        t = t + step[2 * n : t_end]
        mu = mu + step[t_end:mu_end]
        nu = nu + step[mu_end]
    else:
        return w
    if np.any(mu < 0.0):
        return w
    polished = canonical_phase(x)
    new_gains = _constraint_gains(polished, problem)
    held = np.where(active, new_gains, np.inf).min(axis=1)
    if np.any(new_gains.min(axis=1) < held):
        return w
    if problem.class_weights @ held < problem.class_weights @ level:
        return w
    return polished


def _combined_gains(channel: ChannelState, beamformer: np.ndarray) -> np.ndarray:
    """Per-device combined channel scalars w^H h_i, shape (M,)."""
    w = np.asarray(beamformer, dtype=np.complex128)
    if w.shape != (channel.num_antennas,):
        raise ValueError("beamformer length must match the antenna count")
    return channel.coefficients @ np.conj(w)


def optimal_postprocessing(
    beamformer: np.ndarray,
    channel: ChannelState,
    knowledge_stds: np.ndarray,
    partition: DatasetPartition,
    peak_powers: np.ndarray,
) -> PostprocessingResult:
    """Bottleneck-optimal completion of a given combining vector: the server
    scalars and the transmit equalizers.

    The class-k denormalizer is the largest value every transmitting device
    can support at its peak power:

        lambda^k = min_i B^k |w^H v_i^k|
                 = min_i B^k |w^H h_i| sqrt(P_i) / (B_i^k q_hat_i^k),

    attained by the class's bottleneck device. The equalizers invert the
    combined channel onto those denormalizers,

        P_i^k = B_i^k lambda^k q_hat_i^k (w^H h_i)^H / (B^k |w^H h_i|^2),

    zero where the device does not transmit: each class's bottleneck device,
    and any device tied with it, lands on its power budget (so the bottleneck
    is the largest |P_i^k|^2 / P_i of the class), and every effective gain
    w^H h_i P_i^k / (lambda^k q_hat_i^k) equals the real weight B_i^k / B^k.

    Raises:
        PlanDegeneracyError: some transmitting device has w^H h_i = 0.
        ValueError: the inputs disagree on the device count, the peak powers
            are not (M,) positive and finite, the stds are not (M, K), or the
            beamformer's length is not the antenna count.
    """
    stds = np.asarray(knowledge_stds, dtype=np.float64)
    active, vecs = _scaled_channels(channel, stds, partition, peak_powers)
    combined = _combined_gains(channel, beamformer)
    power_gain = combined.real**2 + combined.imag**2
    nulled = (power_gain == 0.0) & active.any(axis=1)
    if np.any(nulled):
        raise PlanDegeneracyError(
            f"combining vector nulls transmitting device(s) {np.flatnonzero(nulled).tolist()}"
        )
    expr = partition.class_totals[:, None] * np.abs(vecs @ np.conj(beamformer))
    expr = np.where(active.T, expr, np.inf)  # (K, M)
    denormalizers = expr.min(axis=1)
    denom = np.where(
        active,
        partition.class_totals[None, :] * power_gain[:, None],
        1.0,
    )
    numer = (
        partition.counts * denormalizers[None, :] * stds * np.conj(combined)[:, None]
    )
    return PostprocessingResult(
        denormalizers=denormalizers,
        equalizers=np.where(active, numer / denom, 0.0 + 0.0j),
    )


def optimize_round(
    channel: ChannelState,
    knowledge_stds: np.ndarray,
    partition: DatasetPartition,
    peak_powers: np.ndarray,
) -> TransceiverPlan:
    """Full per-round plan: solve the relaxed beamformer problem, recover the
    combining vector from the principal eigenvector, polish it on the active
    bottleneck set, and complete it with the closed-form scalars and
    equalizers.

    Accuracy of the beamformer: the interior-point method stops at its
    relative gap sdp_solver.TOL = 1e-8, where its principal eigenvector lies
    about sqrt(TOL) from the optimum. When the relaxation is tight (rank-one
    solution), the polish moves it to the exact max-min optimum, to roundoff
    (~1e-15 in w), so the plan does not depend on how the solver happened to
    stop. When the relaxation is not tight, the polish is accepted only where
    it reaches a KKT point that is no worse; otherwise the principal
    eigenvector is kept, whose achieved objective can lie well short of the
    relaxation bound. In both cases the achieved objective is never worse
    than the eigenvector's.
    The diagnostics (eigenvalues, objective, iterations) describe the
    relaxation's solution, not the polish.

    Deterministic given its inputs. Solver non-convergence propagates; how
    well the principal direction is separated shows in the diagnostics'
    eig1 and eig2.
    """
    problem = build_relaxation(channel, knowledge_stds, partition, peak_powers)
    solution = solve(problem)
    pair = extract_principal_eigenpair(solution.W)
    w = _polish_beamformer(pair.vector, problem)
    post = optimal_postprocessing(w, channel, knowledge_stds, partition, peak_powers)
    return TransceiverPlan(
        transmit=TransmitPlan(equalizers=post.equalizers, peak_powers=peak_powers),
        beamformer=w,
        denormalizers=post.denormalizers,
        diagnostics=PlanDiagnostics(
            eig1=pair.value,
            eig2=pair.runner_up,
            relaxation_objective=float(solution.objective),
            solver_iterations=solution.iterations,
        ),
    )


def uniform_baseline(
    channel: ChannelState,
    knowledge_stds: np.ndarray,
    partition: DatasetPartition,
    peak_powers: np.ndarray,
) -> TransceiverPlan:
    """Non-optimized reference plan: uniform combining across antennas, every
    transmitting device at peak power with its phase aligned to the combined
    channel, and per-class denormalizers set to the mean (rather than the
    minimum) of the per-device bottleneck expressions.
    """
    stds = np.asarray(knowledge_stds, dtype=np.float64)
    peaks = np.asarray(peak_powers, dtype=np.float64)
    n = channel.num_antennas
    w = np.full(n, 1.0 / np.sqrt(n), dtype=np.complex128)
    problem = build_relaxation(channel, stds, partition, peaks)
    active = transmit_active_mask(partition, stds)
    combined = _combined_gains(channel, w)
    gains = np.abs(combined)
    # Phase-align each upload so contributions add constructively; a zero
    # combined gain (measure-zero) falls back to an unrotated upload.
    phases = np.where(gains > 0.0, np.conj(combined) / np.where(gains > 0.0, gains, 1.0), 1.0)
    equalizers = np.where(active, np.sqrt(peaks)[:, None] * phases[:, None], 0.0 + 0.0j)

    # Bottleneck expressions B^k |w^H v_i^k|, (K, M). `active` is C-ordered:
    # the order of the sum below depends on the memory order of `finite`.
    expr = partition.class_totals[:, None] * np.abs(
        problem.constraint_vectors @ np.conj(w)
    )
    finite = np.where(active, expr.T, 0.0)
    denormalizers = finite.sum(axis=0) / active.sum(axis=0)
    return TransceiverPlan(
        transmit=TransmitPlan(equalizers=equalizers, peak_powers=peaks),
        beamformer=w,
        denormalizers=denormalizers,
        diagnostics=PlanDiagnostics(
            eig1=1.0,
            eig2=0.0,
            relaxation_objective=relaxation_objective(w, problem),
            solver_iterations=0,
        ),
    )


def orthogonal_receive(
    channel: ChannelState,
    knowledge: KnowledgeSet,
    partition: DatasetPartition,
    peak_powers: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """Orthogonal-uplink baseline: each device's normalized blocks pass through
    dedicated channel uses (M*K^2 in total), are matched-filter combined and
    denormalized per device, then digitally weighted into the global estimate.

    Device i uploads each class block at peak power, phase-free because the
    matched filter h_i / ||h_i|| makes the combined gain ||h_i|| real. The
    server recovers per-device knowledge q_hat_i^k x + mean offset and applies
    the sample-count weights.

    Args:
        channel: True channel the uploads experience.
        knowledge: All devices' knowledge vectors and statistics.
        partition: Sample counts (weights and activity).
        peak_powers: (M,) per-device budgets.
        noise: (M, K, K, N) receiver noise, one length-N vector per device,
            class block, and entry slot.

    Returns:
        (K, K) complex array; row k estimates the global class-k knowledge.
    """
    peaks = np.asarray(peak_powers, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.complex128)
    m, k = partition.counts.shape
    n = channel.num_antennas
    if knowledge.num_wds != m or knowledge.num_classes != k:
        raise ValueError("knowledge and partition disagree on (M, K)")
    if channel.num_wds != m:
        raise ValueError("channel and partition disagree on the device count")
    if peaks.shape != (m,) or not np.all(np.isfinite(peaks) & (peaks > 0)):
        raise ValueError("peak_powers must be (M,) positive and finite")
    if noise.shape != (m, k, k, n):
        raise ValueError(f"noise must have shape ({m}, {k}, {k}, {n})")

    norms = np.linalg.norm(channel.coefficients, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("a device's channel vector is identically zero")

    blocks = knowledge.normalized_blocks(partition)
    scale = norms * np.sqrt(peaks)  # combined signal amplitude per device
    combined_noise = np.einsum(
        "ikdn,in->ikd", noise, np.conj(channel.coefficients) / norms[:, None]
    )
    received = scale[:, None, None] * blocks + combined_noise
    per_wd = (
        knowledge.stds[:, :, None] * (received / scale[:, None, None])
        + knowledge.means[:, :, None]
    )  # (M, K, K) per-device complex knowledge estimates
    return np.einsum("ik,ikd->kd", partition.class_weights(), per_wd)
