"""Independent reference implementations used to cross-check the fast paths.

Everything here is deliberately written the slow, obvious way (explicit loops,
exhaustive search, finite differences, Monte-Carlo simulation) and shares no
code with the modules it checks. The test suite and the ``verify`` command
compare the two routes.
"""

from __future__ import annotations

import numpy as np

from .sdp_solver import SdpProblem

__all__ = [
    "beamformer_grid_search",
    "naive_aggregate",
    "local_knowledge",
    "finite_difference_gradient",
    "accuracy_loop",
    "phi2_sq_monte_carlo",
]

_NOISE_DRAWS_PER_BATCH = 1000  # per pass of phi2_sq_monte_carlo; bounds memory


def beamformer_grid_search(
    problem: SdpProblem,
    coarse_theta: int = 1000,
    coarse_phi: int = 1000,
    refine_rounds: int = 3,
    refine_points: int = 121,
) -> float:
    """Exhaustive rank-one search of the beamforming objective for dim == 2.

    Any unit beamformer in C^2 is, up to a physically irrelevant global phase,
    w = [cos(theta), sin(theta) e^{i phi}] with theta in [0, pi/2] and phi in
    [0, 2 pi). The objective sum_k c_k * (-min_j w^H H_j^k w) is evaluated on
    a coarse theta x phi grid and the best cell is refined a few times. The
    returned value is the grid minimum — an upper bound on the true optimum
    that tightens as the grid is refined.
    """
    if problem.dim != 2:
        raise ValueError("grid search is implemented for dim == 2 only")
    entries = []  # per class: list of (h00, h11, re01, im01)
    for k in range(problem.num_classes):
        rows = []
        for j in range(problem.num_wds):
            if not problem.active_mask[k, j]:
                continue
            v = problem.constraint_vectors[k, j]
            h = np.outer(v, v.conj())
            rows.append(
                (float(h[0, 0].real), float(h[1, 1].real), float(h[0, 1].real), float(h[0, 1].imag))
            )
        entries.append(rows)
    weights = problem.class_weights

    def evaluate(theta: np.ndarray, phi: np.ndarray) -> tuple[float, int, int]:
        cos2 = np.cos(theta) ** 2
        sincos = np.sin(theta) * np.cos(theta)
        sin2 = np.sin(theta) ** 2
        cphi, sphi = np.cos(phi), np.sin(phi)
        objective = np.zeros((theta.size, phi.size))
        for k, rows in enumerate(entries):
            class_min = np.full((theta.size, phi.size), np.inf)
            for h00, h11, re01, im01 in rows:
                val = (
                    (cos2 * h00 + sin2 * h11)[:, None]
                    + 2.0 * sincos[:, None] * (re01 * cphi - im01 * sphi)[None, :]
                )
                np.minimum(class_min, val, out=class_min)
            objective -= weights[k] * class_min
        flat = int(np.argmin(objective))
        it, ip = divmod(flat, phi.size)
        return float(objective[it, ip]), it, ip

    theta = np.linspace(0.0, np.pi / 2, coarse_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, coarse_phi, endpoint=False)
    best, it, ip = evaluate(theta, phi)
    dt = theta[1] - theta[0]
    dp = phi[1] - phi[0]
    center_t, center_p = theta[it], phi[ip]
    for _ in range(refine_rounds):
        theta = np.linspace(
            max(0.0, center_t - dt), min(np.pi / 2, center_t + dt), refine_points
        )
        phi = np.linspace(center_p - dp, center_p + dp, refine_points)
        value, it, ip = evaluate(theta, phi)
        if value < best:
            best = value
        center_t, center_p = theta[it], phi[ip]
        dt = theta[1] - theta[0]
        dp = phi[1] - phi[0]
    return best


def naive_aggregate(
    signals: np.ndarray, coefficients: np.ndarray, beamformer: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """Entry-by-entry multi-antenna superposition and combining.

    signals: (M, D) per-device baseband symbols; coefficients: (M, N);
    noise: (D, N). Returns the length-D combined vector
    w^H (sum_i h_i s_i[d] + n[d]) computed with explicit Python loops.
    """
    num_wds, length = signals.shape
    num_antennas = coefficients.shape[1]
    out = np.zeros(length, dtype=np.complex128)
    for d in range(length):
        received = np.zeros(num_antennas, dtype=np.complex128)
        for i in range(num_wds):
            for a in range(num_antennas):
                received[a] += coefficients[i, a] * signals[i, d]
        for a in range(num_antennas):
            received[a] += noise[d, a]
        acc = 0.0 + 0.0j
        for a in range(num_antennas):
            acc += np.conj(beamformer[a]) * received[a]
        out[d] = acc
    return out


def local_knowledge(
    outputs_by_class: list[np.ndarray], counts_row: np.ndarray
) -> np.ndarray:
    """Average soft predictions per class for one device, class by class.

    Args:
        outputs_by_class: Length-K list; entry k is a (B_i^k, K) array of
            softmax outputs of the device's class-k samples (an empty array
            where the device holds none).
        counts_row: Length-K sample counts B_i^k for consistency checking.

    Returns:
        (K, K) array whose row k is the class-k knowledge vector. Rows of
        classes with zero samples are filled with the uniform vector.
    """
    counts_row = np.asarray(counts_row)
    num_classes = len(outputs_by_class)
    if counts_row.shape != (num_classes,):
        raise ValueError("counts_row length must match the number of classes")
    result = np.full((num_classes, num_classes), 1.0 / num_classes)
    for k, outputs in enumerate(outputs_by_class):
        outputs = np.asarray(outputs, dtype=np.float64)
        if counts_row[k] > 0:
            if outputs.size == 0:
                raise ValueError(
                    f"class {k} reports {counts_row[k]} samples but no outputs"
                )
            if outputs.shape != (counts_row[k], num_classes):
                raise ValueError(
                    f"class {k} outputs must have shape ({counts_row[k]}, {num_classes})"
                )
            result[k] = outputs.mean(axis=0)
    return result


def finite_difference_gradient(fn, theta: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a vector."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for idx in range(theta.size):
        bump = np.zeros_like(theta)
        bump[idx] = step
        grad[idx] = (fn(theta + bump) - fn(theta - bump)) / (2.0 * step)
    return grad


def accuracy_loop(
    thetas: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    hidden_dim: int,
    num_classes: int,
) -> np.ndarray:
    """Test accuracy of each flat parameter row, sample by sample.

    Each row of the (M, P) `thetas` is laid out as W1 (F x H, row-major),
    b1 (H), W2 (H x K, row-major), b2 (K), with F the width of the (B, F)
    `features`. A sample's prediction is the first class whose logit
    tanh(x W1 + b1) W2 + b2 is the largest; the result is the share of
    samples whose prediction is their label, one entry per row.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    f, h, k = features.shape[1], hidden_dim, num_classes
    if thetas.shape[1] != f * h + h + h * k + k:
        raise ValueError("parameter rows do not match the layer sizes")
    accuracies = np.zeros(len(thetas))
    for i, theta in enumerate(thetas):
        w1 = theta[: f * h].reshape(f, h)
        b1 = theta[f * h : f * h + h]
        w2 = theta[f * h + h : f * h + h + h * k].reshape(h, k)
        b2 = theta[f * h + h + h * k :]
        hits = 0
        for x, label in zip(features, labels):
            logits = np.tanh(x @ w1 + b1) @ w2 + b2
            best = 0
            for c in range(1, k):
                if logits[c] > logits[best]:
                    best = c
            hits += int(best == label)
        accuracies[i] = hits / len(features)
    return accuracies


def phi2_sq_monte_carlo(
    beamformer: np.ndarray,
    denormalizers: np.ndarray,
    counts_row: np.ndarray,
    noise_variance: float,
    rng: np.random.Generator,
    draws: int = 100_000,
) -> float:
    """Monte-Carlo estimate of the squared noise error: simulates receiver
    noise through the combining vector and the denormalizers.

    Draw noise with fresh sub-streams, never the streams driving a learning
    run, so the estimate stays independent of the simulation it checks.
    """
    w = np.asarray(beamformer, dtype=np.complex128)
    lams = np.asarray(denormalizers, dtype=np.float64)
    counts_row = np.asarray(counts_row, dtype=np.float64)
    k = lams.shape[0]
    n = w.shape[0]
    if draws < 1:
        raise ValueError("draws must be >= 1")
    mix = counts_row / counts_row.sum()
    total = 0.0
    done = 0
    scale = np.sqrt(noise_variance * 0.5)
    while done < draws:
        batch = min(_NOISE_DRAWS_PER_BATCH, draws - done)
        parts = rng.standard_normal((batch, k, k, n, 2)) * scale
        noise = parts[..., 0] + 1j * parts[..., 1]
        combined = noise @ np.conj(w)  # (batch, K, K)
        block_norms_sq = np.sum(
            combined.real**2 + combined.imag**2, axis=2
        )  # (batch, K)
        total += float(np.sum(block_norms_sq @ (mix / lams**2)))
        done += batch
    return total / draws
