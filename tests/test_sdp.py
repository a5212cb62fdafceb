"""Tests for the semidefinite solver, its problem format, and eigen-extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airfd import sdp_solver
from airfd.channel import ChannelConfig, sample_channel
from airfd.knowledge import DatasetPartition
from airfd.oracles import beamformer_grid_search
from airfd.rng import substream
from airfd.sdp_solver import (
    PrincipalEigenpair,
    SdpConvergenceError,
    SdpProblem,
    SdpSolution,
    dump_instance,
    extract_principal_eigenpair,
    solve,
)
from airfd.transceiver import build_relaxation


def random_unit_complex(rng, n):
    v = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    return v / np.linalg.norm(v)


def rank_one_problem(vectors_by_class, weights):
    """Build an SdpProblem from per-class lists of constraint vectors."""
    num_classes = len(vectors_by_class)
    num_wds = max(len(v) for v in vectors_by_class)
    dim = vectors_by_class[0][0].shape[0]
    vecs = np.zeros((num_classes, num_wds, dim), dtype=np.complex128)
    mask = np.zeros((num_classes, num_wds), dtype=bool)
    for k, vectors in enumerate(vectors_by_class):
        for j, vec in enumerate(vectors):
            vecs[k, j] = vec
            mask[k, j] = True
    return SdpProblem(
        dim=dim,
        class_weights=np.asarray(weights, dtype=np.float64),
        constraint_vectors=vecs,
        active_mask=mask,
    )


def reduced_objective(w_matrix, problem):
    """Independent evaluation: sum_k c_k * (-min over active j of Tr(W H)),
    with H = v v^H formed from the constraint vector."""
    total = 0.0
    for k in range(problem.num_classes):
        values = [
            float(np.trace(w_matrix @ np.outer(v, v.conj())).real)
            for v, active in zip(problem.constraint_vectors[k], problem.active_mask[k])
            if active
        ]
        total += problem.class_weights[k] * (-min(values))
    return total


@st.composite
def desk_shaped_problems(draw):
    """Rank-one problems shaped like the default experiment's: K = 3 classes,
    3-11 devices, 2-5 antennas, vector norms 1e-3 to 1 and about one entry in
    five inactive (each class keeps one); with a permutation of the devices."""
    num_wds = draw(st.integers(3, 11))
    dim = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vecs = rng.standard_normal((3, num_wds, dim)) + 1j * rng.standard_normal(
        (3, num_wds, dim)
    )
    vecs *= 10.0 ** rng.uniform(-3, 0, (3, num_wds, 1)) / np.linalg.norm(
        vecs, axis=2, keepdims=True
    )
    mask = rng.random((3, num_wds)) >= 0.2
    mask[np.arange(3), rng.integers(0, num_wds, 3)] = True
    vecs[~mask] = 0.0
    problem = SdpProblem(
        dim=dim,
        class_weights=rng.uniform(0.5, 2.0, 3),
        constraint_vectors=vecs,
        active_mask=mask,
    )
    return problem, np.array(draw(st.permutations(range(num_wds))))


class TestPrincipalEigenpair:
    def test_recovers_rank_one_direction(self):
        rng = np.random.default_rng(11)
        v = random_unit_complex(rng, 5)
        pair = extract_principal_eigenpair(np.outer(v, v.conj()))
        assert isinstance(pair, PrincipalEigenpair)
        assert abs(pair.value - 1.0) < 1e-10
        assert abs(abs(np.vdot(pair.vector, v)) - 1.0) < 1e-10
        assert abs(pair.runner_up) < 1e-10

    def test_phase_convention(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            v = random_unit_complex(rng, 4)
            pair = extract_principal_eigenpair(np.outer(v, v.conj()))
            pivot = pair.vector[np.argmax(np.abs(pair.vector))]
            assert abs(pivot.imag) < 1e-12
            assert pivot.real > 0

    def test_eigen_residual_small(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        w = a @ a.conj().T
        pair = extract_principal_eigenpair(w)
        residual = np.linalg.norm(w @ pair.vector - pair.value * pair.vector)
        assert residual <= 1e-9 * max(1.0, abs(pair.value))

    def test_isotropic_flags_degenerate(self):
        pair = extract_principal_eigenpair(np.eye(4) / 4.0)
        assert pair.runner_up == pair.value

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            extract_principal_eigenpair(np.diag([1.0, -1.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            extract_principal_eigenpair(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestProblemValidation:
    def test_rejects_class_with_no_active_device(self):
        rng = np.random.default_rng(21)
        vecs = np.zeros((2, 1, 3), dtype=np.complex128)
        vecs[0, 0] = random_unit_complex(rng, 3)
        mask = np.array([[True], [False]])
        with pytest.raises(ValueError, match="infeasible mask"):
            SdpProblem(
                dim=3,
                class_weights=np.array([1.0, 1.0]),
                constraint_vectors=vecs,
                active_mask=mask,
            )

    def test_rejects_wrong_shaped_vectors(self):
        # A (K, M, N, N) matrix stack, or vectors of the wrong length.
        for vecs in (np.eye(2, dtype=np.complex128)[None, None], np.ones((1, 1, 3))):
            with pytest.raises(ValueError, match=r"\(K, M, N\)"):
                SdpProblem(
                    dim=2,
                    class_weights=np.array([1.0]),
                    constraint_vectors=vecs,
                    active_mask=np.ones((1, 1), bool),
                )

    def test_rejects_non_finite_active_vector(self):
        vecs = np.ones((1, 2, 2), dtype=np.complex128)
        vecs[0, 1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SdpProblem(
                dim=2,
                class_weights=np.array([1.0]),
                constraint_vectors=vecs,
                active_mask=np.ones((1, 2), bool),
            )
        # The same entry is ignored when its row is masked out.
        SdpProblem(
            dim=2,
            class_weights=np.array([1.0]),
            constraint_vectors=vecs,
            active_mask=np.array([[True, False]]),
        )

    def test_rejects_nonpositive_weights(self):
        vecs = np.ones((1, 1, 2), dtype=np.complex128)
        with pytest.raises(ValueError):
            SdpProblem(
                dim=2,
                class_weights=np.array([0.0]),
                constraint_vectors=vecs,
                active_mask=np.ones((1, 1), bool),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_rejects_non_finite_weights(self, bad):
        vecs = np.ones((2, 1, 2), dtype=np.complex128)
        with pytest.raises(ValueError, match="class_weights"):
            SdpProblem(
                dim=2,
                class_weights=np.array([1.0, bad]),
                constraint_vectors=vecs,
                active_mask=np.ones((2, 1), bool),
            )


class TestSolveClosedForm:
    def test_single_device_single_class(self):
        # One constraint: the optimum points straight at the constraint vector,
        # with slack equal to minus its squared norm.
        rng = np.random.default_rng(31)
        for _ in range(5):
            h = (rng.standard_normal(5) + 1j * rng.standard_normal(5)) * np.sqrt(0.5)
            problem = rank_one_problem([[h]], [1.0])
            solution = solve(problem)
            norm_sq = float(np.vdot(h, h).real)
            assert abs(solution.slacks[0] + norm_sq) <= 1e-6 * norm_sq
            assert abs(solution.objective - solution.slacks[0]) <= 1e-12 * norm_sq
            expected = np.outer(h, h.conj()) / norm_sq
            assert np.abs(solution.W - expected).max() <= 1e-5

    def test_solution_invariants(self):
        rng = np.random.default_rng(32)
        vectors = [[random_unit_complex(rng, 3) for _ in range(4)] for _ in range(2)]
        problem = rank_one_problem(vectors, [1.0, 2.0])
        solution = solve(problem)
        assert isinstance(solution, SdpSolution)
        assert abs(np.trace(solution.W).real - 1.0) <= 1e-8
        assert np.abs(solution.W - solution.W.conj().T).max() <= 1e-10
        assert np.linalg.eigvalsh(solution.W)[0] >= -1e-9
        # slacks are feasible for every active constraint
        for k in range(problem.num_classes):
            for v in problem.constraint_vectors[k]:
                value = np.trace(solution.W @ np.outer(v, v.conj())).real
                assert solution.slacks[k] + value >= -1e-6
        assert set(solution.residuals) == {
            "primal_eq",
            "primal_ineq",
            "dual_eq",
            "dual_matrix",
            "rel_gap",
        }

    def test_objective_matches_reduced_evaluation(self):
        rng = np.random.default_rng(33)
        vectors = [[random_unit_complex(rng, 4) for _ in range(5)] for _ in range(3)]
        problem = rank_one_problem(vectors, [0.7, 1.1, 2.3])
        solution = solve(problem)
        assert abs(solution.objective - reduced_objective(solution.W, problem)) <= 1e-7


class TestSolveProperties:
    def test_duplicate_constraints_change_nothing(self):
        rng = np.random.default_rng(41)
        vectors = [[random_unit_complex(rng, 3) for _ in range(3)] for _ in range(2)]
        problem = rank_one_problem(vectors, [1.0, 1.5])
        doubled = rank_one_problem([v + v for v in vectors], [1.0, 1.5])
        a, b = solve(problem), solve(doubled)
        assert abs(a.objective - b.objective) <= 1e-6 * max(1.0, abs(a.objective))
        assert np.allclose(a.slacks, b.slacks, rtol=1e-5, atol=1e-9)
        assert np.abs(a.W - b.W).max() <= 1e-4

    def test_repeated_rows_within_a_class_change_no_bit(self):
        # The presolve merges rows repeated within a class and keeps the rest
        # in their order of first occurrence, so the method runs on exactly
        # the rows of the problem written without the repeats.
        rng = np.random.default_rng(42)
        distinct = [
            [s * random_unit_complex(rng, 4) for s in 10.0 ** rng.uniform(-2, 1, 5)]
            for _ in range(3)
        ]
        order = [rng.permutation(np.r_[0:5, rng.integers(0, 5, 4)]) for _ in range(3)]
        repeated = [[row[i] for i in picks] for row, picks in zip(distinct, order)]

        def without_repeats(vectors):
            kept = []
            for v in vectors:
                if all(v.tobytes() != w.tobytes() for w in kept):
                    kept.append(v)
            return kept

        weights = [0.7, 1.1, 2.3]
        a = solve(rank_one_problem(repeated, weights))
        b = solve(rank_one_problem([without_repeats(r) for r in repeated], weights))
        assert a.iterations == b.iterations
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.slacks, b.slacks)
        assert a.objective == b.objective

    def test_a_vector_shared_by_two_classes_stays_in_both(self, monkeypatch):
        rng = np.random.default_rng(44)
        a, b, c = (random_unit_complex(rng, 3) for _ in range(3))
        iterate = sdp_solver._Core.iterate
        cores = []

        def record(core):
            cores.append(core)
            return iterate(core)

        monkeypatch.setattr(sdp_solver._Core, "iterate", record)
        solve(rank_one_problem([[a, b, a], [c, a]], [1.0, 2.0]))
        core = cores[0]
        assert core.class_of.tolist() == [0, 0, 1, 1]
        # Scaling by sqrt(kappa_k) > 0 keeps each row's direction.
        for row, v in zip(core.u, (a, b, c, a)):
            assert np.allclose(row / np.linalg.norm(row), v, rtol=0, atol=1e-15)

    def test_single_class_scaling_squares_slack_same_argmin(self):
        # With one class, scaling every constraint vector by beta multiplies
        # the slack by beta^2 and leaves the optimizing W unchanged.
        rng = np.random.default_rng(42)
        vectors = [random_unit_complex(rng, 3) for _ in range(4)]
        beta = 1.7
        base = rank_one_problem([vectors], [1.0])
        scaled = rank_one_problem([[beta * v for v in vectors]], [1.0])
        a, b = solve(base), solve(scaled)
        assert abs(b.slacks[0] - beta**2 * a.slacks[0]) <= 1e-6 * abs(a.slacks[0])
        assert np.abs(a.W - b.W).max() <= 1e-5

    def test_compensated_class_scaling_multi_class(self):
        # With several classes, scaling class k's vectors by beta while
        # dividing its weight by beta^2 leaves W and the objective unchanged
        # and multiplies that slack by beta^2.
        rng = np.random.default_rng(43)
        vectors = [[random_unit_complex(rng, 3) for _ in range(3)] for _ in range(2)]
        beta = 2.3
        base = solve(rank_one_problem(vectors, [1.0, 1.3]))
        scaled_vectors = [[beta * v for v in vectors[0]], vectors[1]]
        scaled = solve(rank_one_problem(scaled_vectors, [1.0 / beta**2, 1.3]))
        assert abs(scaled.objective - base.objective) <= 1e-6 * abs(base.objective)
        assert abs(scaled.slacks[0] - beta**2 * base.slacks[0]) <= 1e-5 * abs(
            base.slacks[0]
        )
        assert abs(scaled.slacks[1] - base.slacks[1]) <= 1e-6 * abs(base.slacks[1])
        assert np.abs(scaled.W - base.W).max() <= 1e-5

    def test_matches_grid_search_dim_two(self):
        rng = np.random.default_rng(44)
        for _ in range(3):
            vectors = [
                [
                    (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * np.sqrt(0.5)
                    for _ in range(3)
                ]
                for _ in range(2)
            ]
            problem = rank_one_problem(vectors, rng.uniform(0.5, 2.0, 2))
            solution = solve(problem)
            grid = beamformer_grid_search(problem, coarse_theta=400, coarse_phi=400)
            # the grid value is an upper bound on the optimum
            assert solution.objective <= grid + 1e-9
            assert abs(solution.objective - grid) <= 1e-3 * abs(grid)

    def test_zero_active_vector_solves(self):
        # A zero constraint vector has a zero quadratic form at every W. The
        # start's slacks must stay positive on it, also when a whole class
        # is zero, and the optimum must match the grid search.
        rng = np.random.default_rng(49)
        vectors = [
            [
                (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * np.sqrt(0.5)
                for _ in range(4)
            ]
            for _ in range(2)
        ]
        zero = np.zeros(2, dtype=np.complex128)
        vectors[0][2] = zero
        for problem in (
            rank_one_problem(vectors, [1.0, 1.5]),
            rank_one_problem([[zero], vectors[1]], [1.0, 1.5]),
        ):
            solution = solve(problem)
            assert abs(solution.slacks[0]) <= 1e-7
            grid = beamformer_grid_search(problem, coarse_theta=400, coarse_phi=400)
            assert solution.objective <= grid + 1e-9
            assert abs(solution.objective - grid) <= 1e-3 * abs(grid)
        # With every vector zero the dual matrix has no constraint part.
        zeros = rank_one_problem([[zero, zero], [zero]], [1.0, 1.5])
        assert abs(solve(zeros).objective) <= 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(45)
        vectors = [[random_unit_complex(rng, 3) for _ in range(4)] for _ in range(2)]
        problem = rank_one_problem(vectors, [1.0, 2.0])
        a, b = solve(problem), solve(problem)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.slacks, b.slacks)
        assert a.objective == b.objective
        assert a.iterations == b.iterations

    def test_dominant_bottleneck_gives_rank_one(self):
        # One device is far weaker than the rest in every class: the optimum
        # beams straight at it and has a clean rank-one spectrum.
        rng = np.random.default_rng(46)
        weak = random_unit_complex(rng, 5) * 0.01
        vectors = [
            [weak] + [random_unit_complex(rng, 5) for _ in range(6)] for _ in range(3)
        ]
        solution = solve(rank_one_problem(vectors, [1.0, 0.8, 1.2]))
        values = np.linalg.eigvalsh(solution.W)
        assert values[-1] >= 0.99
        assert values[-2] <= 1e-3
        pair = extract_principal_eigenpair(solution.W)
        alignment = abs(np.vdot(pair.vector, weak / np.linalg.norm(weak)))
        assert alignment >= 0.999

    def test_iteration_cap_raises_with_best_iterate(self, monkeypatch):
        rng = np.random.default_rng(47)
        vectors = [[random_unit_complex(rng, 3) for _ in range(3)]]
        problem = rank_one_problem(vectors, [1.0])
        monkeypatch.setattr(sdp_solver, "MAX_ITERATIONS", 1)
        with pytest.raises(SdpConvergenceError) as info:
            solve(problem)
        best = info.value.best
        assert isinstance(best, SdpSolution)
        assert best.iterations == 1
        assert "the iteration cap" in str(info.value)

    def test_breakdown_raises_with_the_iterations_run(self, monkeypatch):
        rng = np.random.default_rng(47)
        vectors = [[random_unit_complex(rng, 3) for _ in range(3)]]
        problem = rank_one_problem(vectors, [1.0])
        step = sdp_solver._Core._step
        steps = []

        def breaks_after_three(core, residuals):
            if len(steps) == 3:
                raise np.linalg.LinAlgError("forced breakdown")
            steps.append(residuals)
            step(core, residuals)

        monkeypatch.setattr(sdp_solver._Core, "_step", breaks_after_three)
        with pytest.raises(SdpConvergenceError) as info:
            solve(problem)
        message = str(info.value)
        assert info.value.best.iterations == 3
        assert "a numerical breakdown" in message and "after 3 of" in message
        assert "np.float64" not in message
        assert all(type(v) is float for v in info.value.best.residuals.values())

    def test_singular_newton_system_ends_the_run_without_retry(self, monkeypatch):
        # The Newton system is factored once per iteration: a singular one is
        # a numerical breakdown, not a reason to factor it again.
        rng = np.random.default_rng(47)
        vectors = [[random_unit_complex(rng, 3) for _ in range(3)]]
        problem = rank_one_problem(vectors, [1.0])
        factor = sdp_solver.dsytrf
        calls = []

        def singular_from_the_fourth_call(matrix, **kwargs):
            calls.append(matrix.shape)
            ldl, piv, info = factor(matrix, **kwargs)
            return ldl, piv, 1 if len(calls) >= 4 else info

        monkeypatch.setattr(sdp_solver, "dsytrf", singular_from_the_fourth_call)
        with pytest.raises(SdpConvergenceError) as info:
            solve(problem)
        assert "a numerical breakdown" in str(info.value)
        assert info.value.best.iterations == 3
        assert len(calls) == 4

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(desk_shaped_problems())
    def test_permuting_the_devices_keeps_the_objective(self, drawn):
        # The devices' order changes the rows of the Newton system, and with
        # them its symmetric pivots, but not the relaxation's optimum.
        problem, order = drawn
        permuted = SdpProblem(
            dim=problem.dim,
            class_weights=problem.class_weights,
            constraint_vectors=problem.constraint_vectors[:, order],
            active_mask=problem.active_mask[:, order],
        )
        a, b = solve(problem), solve(permuted)
        assert abs(a.objective - b.objective) <= 1e-8 * abs(a.objective)


class TestNewtonSystem:
    @staticmethod
    def desk_problem():
        """M = 10 devices, K = 3 classes, N = 5 antennas, spread scales."""
        rng = np.random.default_rng(51)
        vectors = [
            [s * random_unit_complex(rng, 5) for s in 10.0 ** rng.uniform(-3, 0, 10)]
            for _ in range(3)
        ]
        return rank_one_problem(vectors, [0.8, 1.0, 1.3])

    @staticmethod
    def c01_problem():
        """Round 0 of the rank-one acceptance claim (M = 50, K = 10, N = 5)."""
        config = ChannelConfig(
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
        rng = substream(0, "rank-one", 0)
        distances = rng.uniform(*config.distance_range, size=50)
        channel = sample_channel(config, distances, rng)
        counts = rng.integers(100, 301, size=(50, 10))
        counts[np.argmax(distances)] *= 100
        stds = rng.uniform(0.05, 0.3, size=(50, 10))
        return build_relaxation(
            channel, stds, DatasetPartition(counts=counts), np.full(50, 1e-3)
        )

    @pytest.mark.parametrize("shape", ["desk", "c01"])
    def test_newton_system_is_factored_in_place(self, monkeypatch, shape):
        # LAPACK reads the lower triangle of the Newton system's transpose, in
        # Fortran order, and overwrites it with its L D L^T factors: no copy
        # of the (1 + m + K)^2 matrix is made. Both directions of an
        # iteration solve the symmetric matrix that triangle holds, whose
        # structural zeros (trace row and class block against the class
        # columns) the step writes again after each factorization.
        problem = self.desk_problem() if shape == "desk" else self.c01_problem()
        k = problem.num_classes
        factor, solve_factored = sdp_solver.dsytrf, sdp_solver.dsytrs
        calls = []
        errors = []

        def spy_factor(matrix, **kwargs):
            lower = np.tril(matrix)
            read = lower + np.tril(lower, -1).T
            zeros = not (read[0, -k:].any() or read[-k:, -k:].any())
            ldl, piv, info = factor(matrix, **kwargs)
            in_place = np.shares_memory(ldl, matrix)
            calls.append((matrix.flags.f_contiguous, kwargs, in_place, zeros, read))
            return ldl, piv, info

        def spy_solve(ldl, piv, rhs, **kwargs):
            sol, info = solve_factored(ldl, piv, rhs, **kwargs)
            read = calls[-1][-1]
            # Normwise backward error in the infinity norm.
            residual = np.abs(rhs - read @ sol).max()
            scale = np.abs(read).sum(axis=1).max() * np.abs(sol).max()
            errors.append(residual / (scale + np.abs(rhs).max()))
            return sol, info

        monkeypatch.setattr(sdp_solver, "dsytrf", spy_factor)
        monkeypatch.setattr(sdp_solver, "dsytrs", spy_solve)
        solution = solve(problem)
        assert len(calls) == solution.iterations > 0
        for f_contiguous, kwargs, in_place, zeros, _ in calls:
            assert f_contiguous and in_place and zeros
            assert kwargs["lower"] == 1 and kwargs["overwrite_a"] == 1
        assert len(errors) == 2 * len(calls)
        assert max(errors) <= 1e-14

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(desk_shaped_problems())
    def test_every_step_rewrites_its_buffers_structural_zeros(self, drawn):
        # The last factorization overwrote the triangle that a step fills, so
        # a step writes all of it again, the structural zeros included:
        # whatever the buffer held before, the iterates come out the same.
        cores = []

        def stop_at_the_start(core):
            cores.append(core)
            return 0, None, core.residual_report(core.residuals())

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sdp_solver._Core, "iterate", stop_at_the_start)
            solve(drawn[0])
            solve(drawn[0])
        poisoned, twin = cores
        for _ in range(6):
            poisoned.kkt.fill(np.nan)
            poisoned._step(poisoned.residuals())
            twin._step(twin.residuals())
            for name in ("x", "s", "e", "z", "big_s", "y"):
                assert np.array_equal(getattr(poisoned, name), getattr(twin, name))


class TestStart:
    @pytest.mark.parametrize("zero_row", [False, True])
    def test_start_is_strictly_feasible_and_centred(self, monkeypatch, zero_row):
        rng = np.random.default_rng(71)
        scales = 10.0 ** rng.uniform(-3, 1, size=(3, 6))
        vectors = [
            [s * random_unit_complex(rng, 4) for s in row] for row in scales
        ]
        if zero_row:
            vectors[1][3] = np.zeros(4, dtype=np.complex128)
        cores = []

        def stop_at_the_start(core):
            cores.append(core)
            return 0, None, core.residual_report(core.residuals())

        monkeypatch.setattr(sdp_solver._Core, "iterate", stop_at_the_start)
        solve(rank_one_problem(vectors, [0.5, 1.0, 3.0]))
        core = cores[0]
        report = core.residual_report(core.residuals())
        for name in ("primal_eq", "primal_ineq", "dual_eq", "dual_matrix"):
            assert report[name] <= 1e-14, name
        assert np.all(core.s > 0) and np.all(core.z > 0)
        assert np.linalg.eigvalsh(core.big_s)[0] > 0
        np.testing.assert_allclose(core.members.T @ core.z, core.c, rtol=1e-12)
        products = core.z * core.s
        for k in range(core.num_classes):
            in_class = products[core.class_of == k]
            np.testing.assert_allclose(in_class, in_class[0], rtol=1e-12)


class TestStepLimits:
    def test_psd_step_limit_reaches_the_boundary(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            x = a @ a.conj().T + 0.1 * np.eye(n)
            d = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            d = d + d.conj().T
            d -= (np.linalg.eigvalsh(d)[0] + 1.0) * np.eye(n)  # lambda_min = -1
            _, inverse = sdp_solver._cholesky_and_inverse(x)
            alpha = sdp_solver._psd_step_limit(inverse, d)
            scale = np.linalg.norm(x, 2) + alpha * np.linalg.norm(d, 2)
            assert 0.0 < alpha < np.inf
            assert abs(np.linalg.eigvalsh(x + alpha * d)[0]) <= 1e-12 * scale
            assert np.linalg.eigvalsh(x + 0.99 * alpha * d)[0] > 0.0

    def test_psd_direction_has_no_step_limit(self):
        rng = np.random.default_rng(62)
        x = np.diag([1.0, 2.0, 0.5]) + 0j
        _, inverse = sdp_solver._cholesky_and_inverse(x)
        v = random_unit_complex(rng, 3)
        # Full-rank PSD directions and the zero direction; a singular one
        # reads lambda_min at roundoff level, which may fall either side of 0.
        for d in (np.outer(v, v.conj()) + 1e-3 * np.eye(3), np.zeros((3, 3))):
            assert sdp_solver._psd_step_limit(inverse, d) == np.inf

    def test_scalar_step_limit(self):
        v = np.array([1.0, 2.0, 4.0])
        assert sdp_solver._scalar_step_limit(v, np.array([-0.5, -4.0, 1.0])) == 0.5
        assert sdp_solver._scalar_step_limit(v, np.array([0.0, 1.0, 3.0])) == np.inf

    def test_indefinite_iterate_is_a_numerical_breakdown(self, monkeypatch):
        # Nothing falls back to an eigenproblem: an iterate X that is not
        # numerically positive definite ends the run at its next step.
        rng = np.random.default_rng(48)
        vectors = [[random_unit_complex(rng, 3) for _ in range(3)]]
        problem = rank_one_problem(vectors, [1.0])
        step = sdp_solver._Core._step
        steps = []

        def indefinite_after_two(core, residuals):
            step(core, residuals)
            steps.append(residuals)
            if len(steps) == 2:
                core.x[0, 0] = -1e-3

        monkeypatch.setattr(sdp_solver._Core, "_step", indefinite_after_two)
        with pytest.raises(SdpConvergenceError) as info:
            solve(problem)
        best = info.value.best
        assert "a numerical breakdown" in str(info.value)
        assert "after 2 of" in str(info.value)
        assert best.iterations == 2
        assert np.linalg.eigvalsh(best.W)[0] < 0.0


class TestDump:
    def test_dump_round_trips_key_fields(self):
        rng = np.random.default_rng(51)
        vectors = [[random_unit_complex(rng, 2) for _ in range(3)] for _ in range(2)]
        vecs = np.array(vectors)
        mask = np.array([[True, False, True], [False, True, True]])
        vecs[~mask] = 0.0
        problem = SdpProblem(
            dim=2,
            class_weights=np.array([1.5, 0.1]),
            constraint_vectors=vecs,
            active_mask=mask,
        )
        text = dump_instance(problem)
        lines = text.strip().split("\n")
        assert lines[0] == "sdp dim=2 classes=2 wds=3"
        assert lines[1].startswith("class_weights 1.5")
        weights = np.array([float(x) for x in lines[1].split()[1:]])
        parsed_mask = np.zeros((2, 3), dtype=bool)
        parsed = np.zeros((2, 3, 2), dtype=np.complex128)
        for line in lines[2:]:
            head, cls, wd, *entries = line.split()
            assert head == "constraint"
            k, j = int(cls.removeprefix("class=")), int(wd.removeprefix("wd="))
            parsed_mask[k, j] = True
            pairs = np.array([float(x) for x in entries]).reshape(-1, 2)
            parsed[k, j] = pairs[:, 0] + 1j * pairs[:, 1]
        assert len(lines) == 2 + mask.sum()
        assert np.array_equal(weights, problem.class_weights)
        assert np.array_equal(parsed_mask, mask)
        assert np.array_equal(parsed.view(np.float64), vecs.view(np.float64))
