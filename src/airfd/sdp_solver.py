"""Dense semidefinite-program solver for the relaxed receive-beamforming
problem: over Hermitian N x N matrices W and per-class slack scalars e^k,

    minimize    sum_k c_k e^k
    subject to  Tr(W) = 1,  W >= 0 (PSD),
                e^k + v^H W v >= 0   for every active constraint vector v = v_j^k,

that is, each constraint matrix H_j^k = v v^H is rank-one and is stored as
its factor v. The rank-one constraint of the original beamforming problem is
dropped; on generic instances the optimum is rank-one anyway and the
beamformer is recovered from the principal eigenvector.

Algorithm: a primal-dual path-following interior-point method with a Mehrotra
predictor-corrector step, run in real arithmetic on the standard symmetric
embedding of the complex problem ([[Re, -Im], [Im, Re]], under which the
embedded matrix has trace 2*Tr(W) and Tr(W H) = (1/2) Tr(embed(W) embed(H))).
The start is strictly feasible for both the primal and the dual, so the
equality residuals stay at roundoff level and only the complementarity gap has
to be driven to the tolerance. Problem sizes are tiny (N <= 16, a few hundred
inequality rows), so everything is dense.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import (
    LinAlgWarning,
    cho_factor,
    cho_solve,
    lu_factor,
    lu_solve,
    solve_triangular,
)

__all__ = [
    "SdpProblem",
    "SdpSolution",
    "SdpConvergenceError",
    "PrincipalEigenpair",
    "solve",
    "canonical_phase",
    "extract_principal_eigenpair",
    "dump_instance",
]


@dataclass(frozen=True)
class SdpProblem:
    """One relaxed beamforming instance, stored by its rank-one factors.

    Attributes:
        dim: Beamformer dimension N.
        class_weights: (K,) positive objective weights c_k.
        constraint_vectors: (K, M, N) complex array; entry [k, j] is the
            vector v_j^k whose outer product v v^H is the constraint matrix
            of constraint (j, k), so every constraint is Hermitian PSD by
            construction. Entries where the mask is False are ignored
            (conventionally zero).
        active_mask: (K, M) booleans; False marks devices that do not
            participate in a class. Every class needs at least one active row.
    """

    dim: int
    class_weights: np.ndarray
    constraint_vectors: np.ndarray
    active_mask: np.ndarray

    def __post_init__(self) -> None:
        # Copies, so that freezing them leaves the caller's arrays writeable.
        c = np.array(self.class_weights, dtype=np.float64)
        vecs = np.array(self.constraint_vectors, dtype=np.complex128)
        mask = np.array(self.active_mask, dtype=bool)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if c.ndim != 1 or np.any(c <= 0):
            raise ValueError("class_weights must be positive scalars")
        k = c.shape[0]
        if vecs.ndim != 3 or vecs.shape[0] != k or vecs.shape[2] != self.dim:
            raise ValueError(
                f"constraint_vectors must be (K, M, N) = ({k}, M, {self.dim})"
            )
        if mask.shape != vecs.shape[:2]:
            raise ValueError("active_mask must be (K, M)")
        if np.any(~mask.any(axis=1)):
            raise ValueError("infeasible mask: some class has no active device")
        if not np.all(np.isfinite(vecs[mask])):
            raise ValueError("active constraint vectors must be finite")
        for arr in (c, vecs, mask):
            arr.setflags(write=False)
        object.__setattr__(self, "class_weights", c)
        object.__setattr__(self, "constraint_vectors", vecs)
        object.__setattr__(self, "active_mask", mask)

    @property
    def num_classes(self) -> int:
        return self.class_weights.shape[0]

    @property
    def num_wds(self) -> int:
        return self.constraint_vectors.shape[1]


@dataclass(frozen=True)
class SdpSolution:
    """Solver output.

    Attributes:
        W: Hermitian PSD N x N matrix with unit trace.
        slacks: (K,) optimal slack scalars e^k.
        objective: sum_k c_k e^k.
        iterations: Interior-point iterations used.
        residuals: Final normalized residuals: primal_eq, primal_ineq,
            dual_eq, dual_matrix, rel_gap.
        converged: True iff all residuals met the tolerance.
    """

    W: np.ndarray
    slacks: np.ndarray
    objective: float
    iterations: int
    residuals: dict = field(default_factory=dict)
    converged: bool = True


class SdpConvergenceError(RuntimeError):
    """Iteration limit reached; carries the best iterate found."""

    def __init__(self, message: str, best: SdpSolution):
        super().__init__(message)
        self.best = best


class PrincipalEigenpair(NamedTuple):
    value: float
    vector: np.ndarray
    degenerate: bool
    runner_up: float


def _complex_from_embedding(x: np.ndarray) -> np.ndarray:
    """Inverse of the symmetric embedding (averaging out roundoff asymmetry)."""
    n = x.shape[0] // 2
    re = 0.5 * (x[:n, :n] + x[n:, n:])
    im = 0.5 * (x[n:, :n] - x[:n, n:])
    w = re + 1j * im
    return 0.5 * (w + w.conj().T)


def canonical_phase(vector: np.ndarray) -> np.ndarray:
    """Unit-norm copy of a nonzero vector with its global phase fixed: the
    first entry of largest magnitude is made real and nonnegative."""
    index = int(np.argmax(np.abs(vector)))
    pivot = vector[index]
    if np.abs(pivot) > 0:
        vector = vector * (np.conj(pivot) / np.abs(pivot))
    return vector / np.linalg.norm(vector)


def extract_principal_eigenpair(w: np.ndarray) -> PrincipalEigenpair:
    """Largest eigenvalue and unit eigenvector of a Hermitian PSD matrix,
    with the second-largest eigenvalue as `runner_up` (0.0 for a 1 x 1 input).

    The eigenvector's global phase is fixed deterministically: the first entry
    of largest magnitude is made real and nonnegative. The degenerate flag is
    set when the top two eigenvalues are numerically indistinguishable (an
    isotropic or near-isotropic matrix), in which case the returned vector is
    an arbitrary member of the top eigenspace.
    """
    w = np.asarray(w, dtype=np.complex128)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("input must be a square matrix")
    scale = max(1.0, float(np.abs(w).max()))
    if np.abs(w - w.conj().T).max() > 1e-8 * scale:
        raise ValueError("input must be Hermitian")
    values, vectors = np.linalg.eigh(0.5 * (w + w.conj().T))
    if values[0] < -1e-8 * scale:
        raise ValueError("input must be PSD")
    value = float(values[-1])
    vector = canonical_phase(vectors[:, -1])
    runner_up = float(values[-2]) if w.shape[0] > 1 else 0.0
    degenerate = w.shape[0] > 1 and runner_up >= value * (1.0 - 1e-6)
    return PrincipalEigenpair(
        value=value, vector=vector, degenerate=degenerate, runner_up=runner_up
    )


def _psd_step_limit(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha with v + alpha * dv still PSD (v symmetric PD)."""
    try:
        low = np.linalg.cholesky(v)
        a = solve_triangular(low, dv, lower=True)
        b = solve_triangular(low, a.T, lower=True)
    except np.linalg.LinAlgError:
        # v has drifted to the PSD boundary; fall back to a scaled eigenproblem.
        vals_v = np.linalg.eigvalsh(v)
        floor = max(vals_v[0], 1e-300)
        b = dv / floor
    b = 0.5 * (b + b.T)
    lam_min = float(np.linalg.eigvalsh(b)[0])
    if lam_min >= 0.0:
        return np.inf
    return 1.0 / (-lam_min)


def _scalar_step_limit(v: np.ndarray, dv: np.ndarray) -> float:
    negative = dv < 0
    if not np.any(negative):
        return np.inf
    return float(np.min(-v[negative] / dv[negative]))


class _NumericalBreakdown(Exception):
    """Internal: the linear solve produced non-finite directions."""


def _sym_inverse(s: np.ndarray) -> np.ndarray:
    factor = cho_factor(s, lower=True)
    inv = cho_solve(factor, np.eye(s.shape[0]))
    return 0.5 * (inv + inv.T)


class _Core:
    """State of one interior-point run on the embedded (real) problem."""

    def __init__(self, h_embedded: np.ndarray, class_of: np.ndarray, c: np.ndarray):
        self.h_all = h_embedded  # (m, 2N, 2N)
        self.h_flat = h_embedded.reshape(h_embedded.shape[0], -1)
        self.class_of = class_of
        self.c = c
        self.m = h_embedded.shape[0]
        self.two_n = h_embedded.shape[1]
        self.num_classes = c.shape[0]
        self.eye = np.eye(self.two_n)
        # Membership matrix of constraints in classes (m, K).
        self.members = np.zeros((self.m, self.num_classes))
        self.members[np.arange(self.m), class_of] = 1.0

        # Strictly feasible start for primal and dual.
        self.x = self.eye * (2.0 / self.two_n)
        half_tr = 0.5 * (self.h_flat @ self.x.ravel())
        self.e = np.array(
            [
                -half_tr[class_of == k].min() + 1.0
                for k in range(self.num_classes)
            ]
        )
        self.s = self.e[class_of] + half_tr
        counts = np.bincount(class_of, minlength=self.num_classes)
        self.z = (c / counts)[class_of]
        z_weighted = 0.5 * np.tensordot(self.z, self.h_all, axes=1)
        self.y = -(float(np.linalg.eigvalsh(z_weighted)[-1]) + 1.0)
        self.big_s = -self.y * self.eye - z_weighted

    def duality_gap(self) -> float:
        return float(np.sum(self.x * self.big_s) + self.z @ self.s)

    def residual_report(self) -> dict:
        half_tr = 0.5 * (self.h_flat @ self.x.ravel())
        primal_eq = abs(2.0 - np.trace(self.x))
        primal_ineq = float(
            np.abs(self.e[self.class_of] + half_tr - self.s).max()
        )
        dual_matrix = self.big_s + self.y * self.eye + 0.5 * np.tensordot(
            self.z, self.h_all, axes=1
        )
        dual_matrix_norm = float(np.linalg.norm(dual_matrix, "fro"))
        dual_eq = float(np.abs(self.c - self.members.T @ self.z).max())
        obj_p = float(self.c @ self.e)
        obj_d = 2.0 * self.y
        # Normalize the gap by the objective magnitude itself: instances with a
        # dominant bottleneck device have optimal values orders of magnitude
        # below the constraint scale, and an absolute gap test would stop while
        # the iterate still carries visible centering residue in its spectrum.
        gap_scale = max(abs(obj_p), abs(obj_d), 1e-300)
        rel_gap = self.duality_gap() / gap_scale
        return {
            "primal_eq": primal_eq,
            "primal_ineq": primal_ineq,
            "dual_eq": dual_eq,
            "dual_matrix": dual_matrix_norm,
            "rel_gap": rel_gap,
        }

    def _directions(self, lu, rc_mat, rc_vec, d_mat, s_inv, x_s_inv, a_all):
        """Solve the reduced system for one right-hand side."""
        y0 = (rc_mat + self.x @ d_mat) @ s_inv
        rhs = np.empty(1 + self.m + self.num_classes)
        half_tr = 0.5 * (self.h_flat @ self.x.ravel())
        rp0 = 2.0 - np.trace(self.x)
        rp = self.e[self.class_of] + half_tr - self.s
        rdz = self.c - self.members.T @ self.z
        rhs[0] = rp0 - np.trace(y0)
        rhs[1 : 1 + self.m] = (
            -rp + rc_vec / self.z - 0.5 * (self.h_flat @ y0.ravel())
        )
        rhs[1 + self.m :] = rdz
        sol = lu_solve(lu, rhs)
        if not np.all(np.isfinite(sol)):
            raise _NumericalBreakdown
        dy = float(sol[0])
        dz = sol[1 : 1 + self.m]
        de = sol[1 + self.m :]
        ds_mat = -d_mat - dy * self.eye - 0.5 * np.tensordot(dz, self.h_all, axes=1)
        dx_raw = y0 + dy * x_s_inv + 0.5 * np.tensordot(dz, a_all, axes=1)
        dx = 0.5 * (dx_raw + dx_raw.T)
        ds = (rc_vec - self.s * dz) / self.z
        return dy, dz, de, dx, ds_mat, ds

    def iterate(self, tol: float, max_iterations: int) -> tuple[int, bool]:
        total = self.two_n + self.m
        for iteration in range(max_iterations):
            report = self.residual_report()
            if (
                max(report["primal_eq"], report["primal_ineq"]) <= tol
                and max(report["dual_eq"], report["dual_matrix"]) <= tol
                and report["rel_gap"] <= tol
            ):
                return iteration, True

            try:
                self._step(total)
            except (_NumericalBreakdown, np.linalg.LinAlgError):
                # The iterate is too close to the boundary for further
                # progress; report the best point reached so far.
                return iteration, False
        return max_iterations, False

    def _step(self, total: int) -> None:
        mu = self.duality_gap() / total
        s_inv = _sym_inverse(self.big_s)
        x_s_inv = self.x @ s_inv
        d_mat = self.big_s + self.y * self.eye + 0.5 * np.tensordot(
            self.z, self.h_all, axes=1
        )
        # Schur pieces: b_l = (1/2) Tr(X S^-1 H_l); G = (1/4) Tr(X H_l' S^-1 H_l).
        b = 0.5 * (self.h_flat @ x_s_inv.ravel())
        a_all = np.matmul(np.matmul(self.x[None], self.h_all), s_inv[None])
        g = 0.25 * (self.h_flat @ a_all.reshape(self.m, -1).T)
        g = 0.5 * (g + g.T)
        size = 1 + self.m + self.num_classes
        kkt = np.zeros((size, size))
        kkt[0, 0] = np.trace(x_s_inv)
        kkt[0, 1 : 1 + self.m] = b
        kkt[1 : 1 + self.m, 0] = b
        kkt[1 : 1 + self.m, 1 : 1 + self.m] = g + np.diag(self.s / self.z)
        kkt[1 : 1 + self.m, 1 + self.m :] = self.members
        kkt[1 + self.m :, 1 : 1 + self.m] = self.members.T

        def attempt(matrix):
            lu = lu_factor(matrix)
            # Predictor (affine-scaling) direction.
            rc_mat = -self.x @ self.big_s
            rc_vec = -(self.z * self.s)
            aff = self._directions(lu, rc_mat, rc_vec, d_mat, s_inv, x_s_inv, a_all)
            dy_a, dz_a, de_a, dx_a, ds_mat_a, ds_a = aff
            alpha_p = min(
                1.0, _psd_step_limit(self.x, dx_a), _scalar_step_limit(self.s, ds_a)
            )
            alpha_d = min(
                1.0,
                _psd_step_limit(self.big_s, ds_mat_a),
                _scalar_step_limit(self.z, dz_a),
            )
            gap_aff = float(
                np.sum((self.x + alpha_p * dx_a) * (self.big_s + alpha_d * ds_mat_a))
                + (self.z + alpha_d * dz_a) @ (self.s + alpha_p * ds_a)
            )
            mu_aff = max(gap_aff, 0.0) / total
            sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-12))
            # Corrector: recenter and compensate the second-order term.
            rc_mat = sigma * mu * self.eye - self.x @ self.big_s - dx_a @ ds_mat_a
            rc_vec = sigma * mu - self.z * self.s - dz_a * ds_a
            return self._directions(lu, rc_mat, rc_vec, d_mat, s_inv, x_s_inv, a_all)

        # Factor the exact system first; if the solve breaks down (freak
        # alignments can make it numerically singular), retry with escalating
        # quasi-definite regularization scaled to the Schur block.
        base = max(1.0, float(np.abs(g).max()), abs(kkt[0, 0]))
        diag = np.arange(size)
        direction = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            for reg in (0.0, 1e-12 * base, 1e-9 * base, 1e-6 * base):
                matrix = kkt
                if reg > 0.0:
                    matrix = kkt.copy()
                    matrix[diag[: 1 + self.m], diag[: 1 + self.m]] += reg
                    matrix[diag[1 + self.m :], diag[1 + self.m :]] -= reg
                try:
                    direction = attempt(matrix)
                    break
                except _NumericalBreakdown:
                    continue
        if direction is None:
            raise _NumericalBreakdown
        dy, dz, de, dx, ds_mat, ds = direction

        tau = 0.98
        alpha_p = min(
            1.0,
            tau * _psd_step_limit(self.x, dx),
            tau * _scalar_step_limit(self.s, ds),
        )
        alpha_d = min(
            1.0,
            tau * _psd_step_limit(self.big_s, ds_mat),
            tau * _scalar_step_limit(self.z, dz),
        )
        self.x = 0.5 * ((self.x + alpha_p * dx) + (self.x + alpha_p * dx).T)
        self.s = self.s + alpha_p * ds
        self.e = self.e + alpha_p * de
        self.big_s = 0.5 * (
            (self.big_s + alpha_d * ds_mat) + (self.big_s + alpha_d * ds_mat).T
        )
        self.z = self.z + alpha_d * dz
        self.y = self.y + alpha_d * dy


def solve(problem: SdpProblem, tol: float = 1e-8, max_iterations: int = 200) -> SdpSolution:
    """Solve the relaxed beamforming SDP to the requested tolerance.

    Args:
        problem: Validated instance.
        tol: Bound on the normalized primal/dual residuals and relative gap.
        max_iterations: Interior-point iteration cap.

    Returns:
        SdpSolution with a unit-trace Hermitian PSD W and slacks e.

    Raises:
        SdpConvergenceError: if the iteration cap is hit; carries the best
            iterate in its ``best`` attribute.
    """
    mask = problem.active_mask
    all_pairs = np.argwhere(mask)  # rows of (k, j)
    # Presolve: exactly repeated constraints within a class are redundant and
    # would make the Newton system singular at the optimum; merge them.
    seen = set()
    kept = []
    for row, (k, j) in enumerate(all_pairs):
        key = (int(k), problem.constraint_vectors[k, j].tobytes())
        if key not in seen:
            seen.add(key)
            kept.append(row)
    pairs = all_pairs[kept]
    class_of = pairs[:, 0].astype(np.int64)
    num_classes = problem.num_classes
    vecs = problem.constraint_vectors[pairs[:, 0], pairs[:, 1]]
    h = vecs[:, :, None] * np.conj(vecs[:, None, :])  # (m, N, N) v v^H

    # Per-class scaling for conditioning: H'_l = kappa_k H_l, c'_k = c_k / kappa_k
    # leaves the problem invariant with e^k -> kappa_k e^k.
    traces = np.trace(h, axis1=1, axis2=2).real
    kappa = np.ones(num_classes)
    for k in range(num_classes):
        top = traces[class_of == k].max()
        kappa[k] = 1.0 / top if top > 0 else 1.0
    c_scaled = problem.class_weights / kappa
    # One overall dual scale so the objective weights sit near 1.
    gamma = float(np.mean(c_scaled))
    c_scaled = c_scaled / gamma

    # Symmetric real embedding [[Re, -Im], [Im, Re]] of every row at once.
    h_embedded = np.block([[h.real, -h.imag], [h.imag, h.real]])
    h_embedded *= kappa[class_of, None, None]

    core = _Core(h_embedded, class_of, c_scaled)
    iterations, converged = core.iterate(tol, max_iterations)

    w = _complex_from_embedding(core.x)
    trace_w = float(np.trace(w).real)
    if trace_w > 0:
        w = w / trace_w
    slacks = core.e / kappa
    objective = float(problem.class_weights @ slacks)
    solution = SdpSolution(
        W=w,
        slacks=slacks,
        objective=objective,
        iterations=iterations,
        residuals=core.residual_report(),
        converged=converged,
    )
    if not converged:
        raise SdpConvergenceError(
            f"no convergence within {max_iterations} iterations "
            f"(residuals: {solution.residuals})",
            best=solution,
        )
    return solution


def dump_instance(problem: SdpProblem) -> str:
    """Self-describing text dump for cross-checking against external solvers.

    Format: a dimensions line, the class weights, then one line per active
    constraint (class k, device j) holding the entries of its rank-one
    factor v_j^k as "re im" pairs, after "constraint class=k wd=j".
    """
    lines = [
        f"sdp dim={problem.dim} classes={problem.num_classes} wds={problem.num_wds}",
        "class_weights " + " ".join(repr(float(v)) for v in problem.class_weights),
    ]
    for k, j in np.argwhere(problem.active_mask):
        lines.append(
            f"constraint class={k} wd={j} "
            + " ".join(
                f"{float(entry.real)!r} {float(entry.imag)!r}"
                for entry in problem.constraint_vectors[k, j]
            )
        )
    return "\n".join(lines) + "\n"
