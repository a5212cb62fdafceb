"""Dense semidefinite-program solver for the relaxed receive-beamforming
problem: over Hermitian N x N matrices W and per-class slack scalars e^k,

    minimize    sum_k c_k e^k
    subject to  Tr(W) = 1,  W >= 0 (PSD),
                e^k + v^H W v >= 0   for every active constraint vector v = v_j^k,

that is, each constraint matrix H_j^k = v v^H is rank-one and is stored as
its factor v. The rank-one constraint of the original beamforming problem is
dropped; on generic instances the optimum is rank-one anyway and the
beamformer is recovered from the principal eigenvector.

Algorithm: a primal-dual path-following interior-point method with the
HKM search direction and a Mehrotra predictor-corrector step, run in complex
N x N arithmetic directly on the constraint factors u_l = sqrt(kappa_k) v
(each class scaled for conditioning). A constraint matrix is never formed:
the constraint values are the quadratic forms u_l^H X u_l, the dual matrix
is S = -y I - (1/2) sum_l z_l u_l u_l^H, and the Schur block of the Newton
system is

    G = (1/2) Re[(V^H X V) o conj(V^H S^-1 V)],   V = [u_1 ... u_m],

built as R R^T from the m real rows R_l = vec(conj(L_X^H u_l) (L_S^-1 u_l)^T)
/ sqrt(2) (real and imaginary parts side by side), so it costs O(m^2 N^2)
and holds no complex m x m matrix. The Newton system (trace dual, the m
constraint duals and the K slacks: size 1 + m + K) is symmetric and
indefinite. Only one triangle of it is written, into a buffer that every
iteration of a solve reuses, and LAPACK factors that triangle in place as
L D L^T with symmetric 1 x 1 and 2 x 2 pivots (Bunch-Kaufman), once per
iteration, for the predictor and the corrector; no block of the system has
to stay numerically definite. X and S do not change between the two, so each
is Cholesky-factored once per iteration (X = L_X L_X^H, S = L_S L_S^H), and
those factors give S^-1, the Schur rows and all four step lengths,
alpha = 1 / -lambda_min(L^-1 dX L^-H).

The method is the one on the real symmetric embedding [[Re, -Im], [Im, Re]]
of the complex problem, written in complex form: its inner product is
<A, B> = 2 Re Tr(A B), so the trace row reads 2 Tr(X) = 2, the dual
objective is 2y, and the barrier parameter counts the PSD block as 2N. The
iterates, residuals and stopping test are those of the embedded method, up
to roundoff.

The start is strictly feasible for both the primal and the dual, so the
equality residuals stay at roundoff level and only the complementarity gap
has to be driven to the tolerance. It is also centred within each class and
sits at the instance's own scale, not at absolute constants (after Mehrotra
1992 and SDPT3), which saves about half the iterations on field-scale
instances. With X = I/N and the forms f_l = u_l^H X u_l:

    e^k = mu_k - min_{l in k} f_l,   mu_k = the smallest positive f_l of class k
                                          (1 if the class has none),
    s_l = e^k + f_l,   z_l = c_k s_l^-1 / sum_{j in k} s_j^-1,
    y = -2 lambda_max(Z),   Z = (1/2) sum_l z_l u_l u_l^H  (y = -1 if Z = 0),

so each class's smallest slack is its smallest positive form (a zero
constraint vector keeps s > 0), sum_{l in k} z_l = c_k exactly, z_l s_l is
the same for every row of a class, and S = -y I - Z >= lambda_max(Z) I > 0.

Problem sizes are tiny (N <= 16, a few hundred inequality rows), so
everything is dense. An iterate that is no longer numerically positive
definite, a singular Newton system or a non-finite direction ends the run as
a numerical breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dsytrf, dsytrf_lwork, dsytrs, zpotrf, ztrtri

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

# Bound on the normalized primal and dual residuals and on the relative
# duality gap at which the interior-point method stops.
TOL = 1e-8
# Interior-point iterations after which the method gives up.
MAX_ITERATIONS = 200


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
        if c.ndim != 1 or not np.all(np.isfinite(c) & (c > 0)):  # NaN fails
            raise ValueError("class_weights must be finite positive scalars")
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
    """

    W: np.ndarray
    slacks: np.ndarray
    objective: float
    iterations: int
    residuals: dict


class SdpConvergenceError(RuntimeError):
    """The interior-point method stopped short of the tolerance, at its
    iteration cap or on a numerical breakdown; carries the last accepted
    iterate in ``best``, whose residuals need not be the smallest reached."""

    def __init__(self, message: str, best: SdpSolution):
        super().__init__(message)
        self.best = best


class PrincipalEigenpair(NamedTuple):
    value: float
    vector: np.ndarray
    runner_up: float


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
    of largest magnitude is made real and nonnegative. When the top two
    eigenvalues coincide (an isotropic or near-isotropic matrix), the
    returned vector is an arbitrary member of the top eigenspace.
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
    return PrincipalEigenpair(value=value, vector=vector, runner_up=runner_up)


def _hermitian(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """<A, B> = 2 Re Tr(A B) of Hermitian A and B, the inner product of their
    real embeddings."""
    return 2.0 * float(np.vdot(a, b).real)


def _cholesky_and_inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factor L of a Hermitian positive definite matrix,
    a = L L^H, and its inverse. Raises LinAlgError when `a` is not
    numerically positive definite."""
    low, info = zpotrf(a, lower=1)
    if info == 0:
        inverse, info = ztrtri(low, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("iterate is not positive definite")
    return low, inverse


def _psd_step_limit(inverse_factor: np.ndarray, direction: np.ndarray) -> float:
    """Largest alpha with A + alpha * dA still PSD, where A = L L^H is
    positive definite and inverse_factor = L^-1: alpha is
    1 / -lambda_min(L^-1 dA L^-H), or inf when that eigenvalue is >= 0."""
    scaled = inverse_factor @ direction @ inverse_factor.conj().T
    lam_min = float(np.linalg.eigvalsh(scaled)[0])
    if lam_min >= 0.0:
        return np.inf
    return 1.0 / (-lam_min)


def _scalar_step_limit(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha with v + alpha * dv still nonnegative (v > 0): the PSD
    rule on a diagonal matrix, 1 / -min(dv / v), or inf."""
    lam_min = float((dv / v).min())
    if lam_min >= 0.0:
        return np.inf
    return 1.0 / (-lam_min)


class _Residuals(NamedTuple):
    """Residuals of one iterate, shared by its report and its step."""

    trace: float  # 2 - 2 Tr(X)
    rows: np.ndarray  # (m,) e^k(l) + u_l^H X u_l - s_l
    classes: np.ndarray  # (K,) c_k - sum of the class's z_l
    dual: np.ndarray  # S + y I + (1/2) sum_l z_l u_l u_l^H
    gap: float  # <X, S> + z^T s


class _Core:
    """State of one interior-point run on the scaled constraint factors.

    The variables are those of the problem (X = W, slacks e and s, duals y, z
    and S = -y I - (1/2) sum_l z_l u_l u_l^H), with the real embedding's
    doubled inner product <A, B> = 2 Re Tr(A B) (see the module docstring).
    """

    def __init__(self, factors: np.ndarray, class_of: np.ndarray, c: np.ndarray):
        self.u = factors  # (m, N) rows u_l
        self.u_conj = factors.conj()
        self.u_real = factors.view(np.float64)  # (m, 2N) rows (Re, Im) interleaved
        self.class_of = class_of
        self.c = c
        self.m, n = factors.shape
        self.num_classes = c.shape[0]
        # Barrier parameter: the PSD block counts with its embedded size 2N.
        self.degree = 2 * n + self.m
        self.eye = np.eye(n)
        # Membership matrix of constraints in classes (m, K).
        self.members = np.zeros((self.m, self.num_classes))
        self.members[np.arange(self.m), class_of] = 1.0
        # The Newton system's buffer, refilled by every step of the run, and
        # the workspace size its factorization asks for.
        size = 1 + self.m + self.num_classes
        self.kkt = np.zeros((size, size))
        self.lwork = int(dsytrf_lwork(size, lower=1)[0])

        # Strictly feasible, centred start at the instance's own scale (see
        # the module docstring).
        self.x = np.eye(n, dtype=np.complex128) / n
        forms = self.forms(self.x)
        lowest = np.full(self.num_classes, np.inf)
        np.minimum.at(lowest, class_of, forms)
        smallest_positive = np.full(self.num_classes, np.inf)
        np.minimum.at(smallest_positive, class_of, np.where(forms > 0, forms, np.inf))
        smallest_positive[np.isinf(smallest_positive)] = 1.0
        self.e = smallest_positive - lowest
        self.s = self.e[class_of] + forms
        inv_s = 1.0 / self.s
        self.z = c[class_of] * inv_s / (self.members.T @ inv_s)[class_of]
        z_weighted = 0.5 * self.outer_sum(self.z)
        top = float(np.linalg.eigvalsh(z_weighted)[-1])
        self.y = -2.0 * top if top > 0 else -1.0
        self.big_s = -self.y * self.eye - z_weighted

    def forms(self, a: np.ndarray) -> np.ndarray:
        """(m,) quadratic forms Re(u_l^H A u_l)."""
        return np.einsum("ij,ij->i", self.u_real, (self.u @ a.T).view(np.float64))

    def outer_sum(self, weights: np.ndarray) -> np.ndarray:
        """N x N matrix sum_l weights_l u_l u_l^H, exactly Hermitian: an
        anti-Hermitian roundoff part would sit in the dual residual, which
        the Hermitian direction dS cannot remove, and near the optimum
        S^-1 amplifies it into the primal direction."""
        return _hermitian((self.u.T * weights) @ self.u_conj)

    def residuals(self) -> _Residuals:
        return _Residuals(
            trace=2.0 - 2.0 * float(self.x.trace().real),
            rows=self.e[self.class_of] + self.forms(self.x) - self.s,
            classes=self.c - self.members.T @ self.z,
            dual=self.big_s + self.y * self.eye + 0.5 * self.outer_sum(self.z),
            gap=_inner(self.x, self.big_s) + float(self.z @ self.s),
        )

    def residual_report(self, residuals: _Residuals) -> dict:
        obj_p = float(self.c @ self.e)
        obj_d = 2.0 * self.y
        # Normalize the gap by the objective magnitude itself: instances with a
        # dominant bottleneck device have optimal values orders of magnitude
        # below the constraint scale, and an absolute gap test would stop while
        # the iterate still carries visible centering residue in its spectrum.
        gap_scale = max(abs(obj_p), abs(obj_d), 1e-300)
        return {
            "primal_eq": abs(residuals.trace),
            "primal_ineq": float(np.abs(residuals.rows).max()),
            "dual_eq": float(np.abs(residuals.classes).max()),
            # The embedded Frobenius norm is sqrt(2) times the complex one.
            "dual_matrix": float(np.sqrt(2.0) * np.linalg.norm(residuals.dual)),
            "rel_gap": residuals.gap / gap_scale,
        }

    def iterate(self) -> tuple[int, str | None, dict]:
        """Steps until every residual is within TOL, at most MAX_ITERATIONS
        times. Returns the steps run, why the run stopped short (or None) and
        the residual report of the iterate it stopped on."""
        for iteration in range(MAX_ITERATIONS + 1):
            residuals = self.residuals()
            report = self.residual_report(residuals)
            if (
                max(report["primal_eq"], report["primal_ineq"]) <= TOL
                and max(report["dual_eq"], report["dual_matrix"]) <= TOL
                and report["rel_gap"] <= TOL
            ):
                return iteration, None, report
            if iteration == MAX_ITERATIONS:
                return iteration, "the iteration cap", report

            try:
                self._step(residuals)
            except np.linalg.LinAlgError:
                # Report the last point reached before the breakdown; a failed
                # step leaves the iterate unchanged.
                return iteration, "a numerical breakdown", report

    def _step(self, residuals: _Residuals) -> None:
        m = self.m
        mu = residuals.gap / self.degree
        # X and S stay fixed through the predictor and the corrector: factor
        # each once, for S^-1, the Schur rows and all four step lengths.
        low_x, inv_x = _cholesky_and_inverse(self.x)
        _, inv_s = _cholesky_and_inverse(self.big_s)
        s_inv = inv_s.conj().T @ inv_s
        x_s_inv = self.x @ s_inv
        x_dual = self.x @ residuals.dual
        # Schur block G = (1/2) Re[(V^H X V) o conj(V^H S^-1 V)] = R R^T, with
        # row l of R the real and imaginary parts of
        # vec(conj(L_X^H u_l / sqrt(2)) (L_S^-1 u_l)^T).
        fx = self.u @ (np.sqrt(0.5) * low_x.conj())
        fs = self.u @ inv_s.T
        schur_rows = (fx.conj()[:, :, None] * fs[:, None, :]).reshape(m, -1)
        schur_rows = schur_rows.view(np.float64)
        block = slice(1, 1 + m)
        classes = slice(1 + m, None)
        diag = np.arange(1, 1 + m)
        # LAPACK reads the lower triangle of kkt.T, which is the upper triangle
        # of kkt: only that triangle is written. The last factorization
        # overwrote it, so its structural zeros are written again too.
        kkt = self.kkt
        kkt[0, 0] = 2.0 * float(x_s_inv.trace().real)
        kkt[0, block] = self.forms(x_s_inv)
        kkt[0, classes] = 0.0
        # Written into kkt directly, with no m x m temporary. The copy makes
        # it a general product, which writes each entry once: numpy computes
        # R @ R.T as a symmetric product plus a mirror copy, and only one
        # triangle is read.
        np.matmul(schur_rows, schur_rows.copy().T, out=kkt[block, block])
        kkt[diag, diag] += self.s / self.z
        kkt[block, classes] = self.members
        kkt[classes, classes] = 0.0

        def directions(ldl, piv, rc_mat, rc_vec):
            """Solve the reduced system for one right-hand side."""
            y0 = (rc_mat + x_dual) @ s_inv
            rhs = np.empty(kkt.shape[0])
            rhs[0] = residuals.trace - 2.0 * float(y0.trace().real)
            rhs[block] = -residuals.rows + rc_vec / self.z - self.forms(y0)
            rhs[classes] = residuals.classes
            sol, info = dsytrs(ldl, piv, rhs, lower=1)
            if info != 0 or not np.isfinite(sol).all():
                raise np.linalg.LinAlgError("no finite Newton direction")
            dy = float(sol[0])
            dz = sol[block]
            de = sol[classes]
            dz_mat = 0.5 * self.outer_sum(dz)
            ds_mat = -residuals.dual - dy * self.eye - dz_mat
            dx = _hermitian(y0 + dy * x_s_inv + self.x @ dz_mat @ s_inv)
            ds = (rc_vec - self.s * dz) / self.z
            return dy, dz, de, dx, ds_mat, ds

        def step_lengths(tau, dz, dx, ds_mat, ds):
            """Primal and dual steps: tau of the way to the boundary, at most 1."""
            alpha_p = min(
                1.0,
                tau * _psd_step_limit(inv_x, dx),
                tau * _scalar_step_limit(self.s, ds),
            )
            alpha_d = min(
                1.0,
                tau * _psd_step_limit(inv_s, ds_mat),
                tau * _scalar_step_limit(self.z, dz),
            )
            return alpha_p, alpha_d

        def newton_direction():
            """Corrector direction, after the predictor (affine-scaling) step up
            to the boundary."""
            # kkt.T is kkt in Fortran order: LAPACK factors it in place as
            # L D L^T, with symmetric 1 x 1 and 2 x 2 pivots (Bunch-Kaufman),
            # without a copy. Only an exactly zero pivot block stops it.
            ldl, piv, info = dsytrf(kkt.T, lower=1, lwork=self.lwork, overwrite_a=1)
            if info != 0:
                raise np.linalg.LinAlgError("the Newton system is singular")
            rc_mat = -self.x @ self.big_s
            rc_vec = -(self.z * self.s)
            _, dz_a, _, dx_a, ds_mat_a, ds_a = directions(ldl, piv, rc_mat, rc_vec)
            alpha_p, alpha_d = step_lengths(1.0, dz_a, dx_a, ds_mat_a, ds_a)
            gap_aff = _inner(
                self.x + alpha_p * dx_a, self.big_s + alpha_d * ds_mat_a
            ) + float((self.z + alpha_d * dz_a) @ (self.s + alpha_p * ds_a))
            mu_aff = max(gap_aff, 0.0) / self.degree
            sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-12))
            # Corrector: recenter and compensate the second-order term.
            rc_mat = sigma * mu * self.eye - self.x @ self.big_s - dx_a @ ds_mat_a
            rc_vec = sigma * mu - self.z * self.s - dz_a * ds_a
            return directions(ldl, piv, rc_mat, rc_vec)

        dy, dz, de, dx, ds_mat, ds = newton_direction()
        alpha_p, alpha_d = step_lengths(0.98, dz, dx, ds_mat, ds)
        # Both directions are exactly Hermitian, and so stay the iterates.
        self.x = self.x + alpha_p * dx
        self.s = self.s + alpha_p * ds
        self.e = self.e + alpha_p * de
        self.big_s = self.big_s + alpha_d * ds_mat
        self.z = self.z + alpha_d * dz
        self.y = self.y + alpha_d * dy


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve the relaxed beamforming SDP to the tolerance TOL.

    Args:
        problem: Validated instance.

    Returns:
        SdpSolution with a unit-trace Hermitian PSD W and slacks e.

    Raises:
        SdpConvergenceError: if MAX_ITERATIONS is reached or a step breaks
            down numerically first (an iterate that is no longer numerically
            positive definite, or a singular Newton system); carries the last
            accepted iterate, not the one with the smallest residuals, in its
            ``best`` attribute.
    """
    mask = problem.active_mask
    all_classes = np.nonzero(mask)[0].astype(np.int64)
    all_vecs = problem.constraint_vectors[mask]  # (P, N), rows in (k, j) order
    # Presolve: exactly repeated constraints within a class are redundant and
    # would make the Newton system singular at the optimum; merge them. A
    # row's key is the bytes of its class index followed by its vector's, and
    # the rows keep their order of first occurrence.
    keys = np.hstack([all_classes[:, None].view(np.uint8), all_vecs.view(np.uint8)])
    keys = keys.view(np.dtype((np.void, keys.shape[1])))
    _, first = np.unique(keys, return_index=True)
    kept = np.sort(first)
    class_of = all_classes[kept]
    vecs = all_vecs[kept]

    # Per-class scaling for conditioning: H'_l = kappa_k H_l, c'_k = c_k / kappa_k
    # leaves the problem invariant with e^k -> kappa_k e^k.
    traces = (vecs.real**2 + vecs.imag**2).sum(axis=1)  # Tr(v v^H)
    top = np.zeros(problem.num_classes)
    np.maximum.at(top, class_of, traces)
    kappa = np.divide(1.0, top, out=np.ones_like(top), where=top > 0)
    c_scaled = problem.class_weights / kappa
    # One overall dual scale so the objective weights sit near 1.
    gamma = float(np.mean(c_scaled))
    c_scaled = c_scaled / gamma

    core = _Core(vecs * np.sqrt(kappa)[class_of, None], class_of, c_scaled)
    iterations, stop, report = core.iterate()

    w = core.x
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
        residuals=report,
    )
    if stop is not None:
        raise SdpConvergenceError(
            f"no convergence: {stop} stopped the run after {iterations} of at "
            f"most {MAX_ITERATIONS} iterations (residuals: {solution.residuals})",
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
