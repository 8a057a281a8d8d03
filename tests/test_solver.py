import math

import dataclasses
import itertools
import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.fft as sfft

from jdhym import fields, hermitian, solver
from jdhym.errors import (ConeBreachError, ContinuationError, DataError,
                          DomainError, EllipticityLostError, NotKahlerError,
                          PreconditionError, UsageError)
from jdhym.fields import (ScalarField, TorusGeometry, _axis_laplace,
                          _hessian_parts, complex_hessian,
                          constant_form, field_from_modes, form_field,
                          mixed_density, random_bandlimited, relative_spectrum_field)
from jdhym.functionals import compute_c0
from jdhym.solver import (SolveReport, SolverConfig, continuity_path_dhym,
                          continuity_path_j, dhym_linearization_apply,
                          dhym_residual, j_linearization_apply, j_residual,
                          make_dhym_problem, make_j_problem, newton_solve)


def manufactured_j_instance(geom, c_factor=1.15, seed=0):
    """(chi, omega0, phi*, f, c) with j_residual(phi*) = 0 by construction."""
    if geom.n == 1:
        chi = form_field(geom, np.array([[1.2]]),
                         field_from_modes(geom, [((1, 0), 0.03), ((0, 1), 0.02)]))
        omega0 = form_field(geom, np.array([[1.0]]),
                            field_from_modes(geom, [((0, 2), 0.005)]))
        phistar = field_from_modes(geom, [((1, 0), 0.02), ((0, 1), 0.014), ((1, 1), 0.006)])
    else:
        chi = form_field(geom, np.array([[1.0, 0.1 + 0.05j], [0.1 - 0.05j, 1.5]]),
                         field_from_modes(geom, [((1, 0, 0, 0), 0.02), ((0, 0, 1, 0), 0.015)]))
        omega0 = form_field(geom, np.eye(2),
                            field_from_modes(geom, [((0, 1, 0, 0), 0.01)]))
        phistar = field_from_modes(geom, [((1, 0, 0, 0), 0.008), ((0, 0, 0, 1), 0.006),
                                          ((1, 0, 1, 0), 0.004)])
    omega_star = omega0 + complex_hessian(phistar)
    lam = relative_spectrum_field(chi.values, omega_star.values)
    tr = np.sum(1.0 / lam, axis=-1)
    c = float(np.max(tr)) * c_factor
    f = ScalarField(geom, (c - tr) * np.prod(lam, axis=-1))
    return chi, omega0, phistar, f, c


class TestJResidual:
    def test_proportional_forms_zero(self):
        geom = TorusGeometry(2, 8)
        omega0 = form_field(geom, np.eye(2), field_from_modes(geom, [((1, 0, 0, 0), 0.01)]))
        c = 3.0
        chi = (c / 2) * omega0
        r = j_residual(chi, omega0, ScalarField.zeros(geom), ScalarField.zeros(geom), c)
        assert r.sup_norm() < 1e-13

    def test_n1_pointwise_division_oracle(self):
        geom = TorusGeometry(1, 32)
        chi = form_field(geom, np.array([[1.1]]), field_from_modes(geom, [((1, 0), 0.02)]))
        omega0 = form_field(geom, np.array([[0.9]]), field_from_modes(geom, [((0, 1), 0.01)]))
        phi = field_from_modes(geom, [((1, 1), 0.005)])
        f = field_from_modes(geom, [((1, 0), 0.05)]) + 0.2
        c = 2.0
        r = j_residual(chi, omega0, phi, f, c)
        chi_d = chi.values[..., 0, 0].real
        om_d = (omega0 + complex_hessian(phi)).values[..., 0, 0].real
        oracle = chi_d / om_d + f.values * (chi_d / om_d) - c
        assert np.max(np.abs(r.values - oracle)) < 1e-13

    def test_manufactured_zero(self):
        geom = TorusGeometry(1, 32)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        r = j_residual(chi, omega0, phistar, f, c)
        assert r.sup_norm() < 1e-12

    def test_rejects_f_bound_violation(self):
        geom = TorusGeometry(1, 16)
        omega0 = constant_form(geom, np.eye(1))
        chi = constant_form(geom, np.eye(1))
        f = ScalarField.constant(geom, -0.9)
        with pytest.raises(DomainError):
            j_residual(chi, omega0, ScalarField.zeros(geom), f, 1.0)

    def test_rejects_non_kahler(self):
        geom = TorusGeometry(1, 16)
        omega0 = constant_form(geom, np.eye(1))
        chi = constant_form(geom, np.eye(1))
        phi = field_from_modes(geom, [((1, 0), 1.0)])
        with pytest.raises(NotKahlerError):
            j_residual(chi, omega0, phi, ScalarField.zeros(geom), 1.0)


class TestJLinearization:
    def test_constant_direction_gives_zero(self):
        geom = TorusGeometry(2, 8)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        out = j_linearization_apply(chi, omega0, phistar, f, ScalarField.constant(geom, 2.0), c)
        assert out.sup_norm() < 1e-12

    @pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
    def test_matches_finite_differences(self, n, N):
        geom = TorusGeometry(n, N)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        modes = [((2,) + (0,) * (2 * n - 1), 0.2), ((0, 1) + (0,) * (2 * n - 2), 0.1)]
        u = field_from_modes(geom, modes)
        L = j_linearization_apply(chi, omega0, phistar, f, u, c)
        h = 1e-5
        fd = (j_residual(chi, omega0, phistar + h * u, f, c).values
              - j_residual(chi, omega0, phistar - h * u, f, c).values) / (2 * h)
        denom = max(np.max(np.abs(fd)), 1e-300)
        assert np.max(np.abs(L.values - fd)) / denom < 1e-6

    def test_symbol_sign_on_constant_background(self):
        # on constant coefficients the operator acts diagonally per mode and
        # u -> tr(W Hess u) has strictly negative symbol off the mean
        geom = TorusGeometry(2, 8)
        chi = constant_form(geom, np.diag([1.0, 2.0]))
        omega0 = constant_form(geom, np.eye(2))
        f = ScalarField.zeros(geom)
        c = 4.0
        rng = np.random.default_rng(0)
        for _ in range(6):
            k = rng.integers(-3, 4, size=4)
            if not np.any(k):
                k[0] = 1
            u = field_from_modes(geom, [(k, 1.0)])
            out = j_linearization_apply(chi, omega0, ScalarField.zeros(geom), f, u, c)
            # residual derivative = -tr(W Hess u) = +sym * u with sym > 0
            ratio = out.values / u.values
            mask = np.abs(u.values) > 0.5
            sym = np.mean(ratio[mask])
            assert sym > 0.0
            assert np.max(np.abs(ratio[mask] - sym)) < 1e-8 * max(1.0, abs(sym))

    def test_ellipticity_lost_outside_cone(self):
        geom = TorusGeometry(2, 8)
        chi = constant_form(geom, np.diag([1.0, 2.0]))
        omega0 = constant_form(geom, np.eye(2))
        # leave-one-out sums of omega0 rel chi are {1, 2}; c below 2 breaks it
        u = field_from_modes(geom, [((1, 0, 0, 0), 1.0)])
        with pytest.raises(EllipticityLostError):
            j_linearization_apply(chi, omega0, ScalarField.zeros(geom),
                                  ScalarField.zeros(geom), u, c=1.5)

    def test_matches_finite_differences_n3(self):
        geom = TorusGeometry(3, 8)
        chi = form_field(geom, np.diag([1.0, 1.5, 2.0]).astype(complex),
                         field_from_modes(geom, [((1, 0, 0, 0, 0, 0), 0.01)]))
        omega0 = form_field(geom, np.eye(3), field_from_modes(geom, [((0, 0, 0, 1, 0, 0), 0.01)]))
        phi = field_from_modes(geom, [((0, 1, 0, 0, 0, 0), 0.005)])
        f = ScalarField.constant(geom, 0.1)
        c = 5.0
        u = field_from_modes(geom, [((1, 0, 1, 0, 0, 0), 0.2), ((0, 0, 0, 0, 2, 0), 0.1)])
        L = j_linearization_apply(chi, omega0, phi, f, u, c)
        h = 1e-5
        fd = (j_residual(chi, omega0, phi + h * u, f, c).values
              - j_residual(chi, omega0, phi - h * u, f, c).values) / (2 * h)
        assert np.max(np.abs(L.values - fd)) / np.max(np.abs(fd)) < 1e-6

    def test_ellipticity_lost_on_negative_coefficient(self):
        # W = G (chi + q omega) G with q = f/prod(lam); lam = (1, 3) here, so
        # f = -5 gives 1 + q*lam_1 = -2/3 < 0 and f = -0.5 keeps W positive
        geom = TorusGeometry(2, 8)
        chi = constant_form(geom, np.eye(2))
        omega0 = constant_form(geom, np.diag([1.0, 3.0]))
        u = field_from_modes(geom, [((1, 0, 0, 0), 1.0)])
        with pytest.raises(EllipticityLostError):
            j_linearization_apply(chi, omega0, ScalarField.zeros(geom),
                                  ScalarField.constant(geom, -5.0), u)
        out = j_linearization_apply(chi, omega0, ScalarField.zeros(geom),
                                    ScalarField.constant(geom, -0.5), u)
        assert np.all(np.isfinite(out.values))

    def test_rejects_non_finite_direction(self):
        geom = TorusGeometry(2, 8)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        u = ScalarField(geom, np.full(geom.shape, np.nan))
        with pytest.raises(DataError):
            j_linearization_apply(chi, omega0, phistar, f, u, c)


class TestNewtonSolve:
    def test_exact_start_zero_iterations(self):
        geom = TorusGeometry(1, 32)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        rep = newton_solve(make_j_problem(chi, omega0, f, c), phistar, SolverConfig())
        assert rep.success and rep.iterations == 0

    def test_min_steps_forces_a_corrector_step(self):
        geom = TorusGeometry(1, 32)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        rep = newton_solve(make_j_problem(chi, omega0, f, c), phistar, SolverConfig(),
                           min_steps=1)
        assert rep.success and rep.iterations == 1

    def test_manufactured_n1(self):
        geom = TorusGeometry(1, 64)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        rep = newton_solve(make_j_problem(chi, omega0, f, c),
                           ScalarField.zeros(geom), SolverConfig(tolerance=1e-10))
        assert rep.success
        assert rep.iterations <= 8
        assert rep.final_residual <= 1e-10
        d = rep.phi.values - phistar.values
        d -= d.mean()
        assert np.max(np.abs(d)) < 1e-9
        assert rep.cone_margin_min > 0
        assert rep.multiplier <= 1e-9

    def test_unsolvable_instance_fails_honestly(self):
        # f = 0 with c != c0 violates integrability: no solution exists
        geom = TorusGeometry(2, 8)
        chi = constant_form(geom, np.diag([1.0, 2.0]))
        omega0 = constant_form(geom, np.eye(2))
        problem = make_j_problem(chi, omega0, ScalarField.zeros(geom), 3.5)
        try:
            rep = newton_solve(problem, ScalarField.zeros(geom),
                               SolverConfig(max_newton=12))
            assert not rep.success
            assert rep.status in ("no-convergence", "marginal-cone")
            # the unremovable component is surfaced, not absorbed
            assert rep.multiplier > 0.1
        except ConeBreachError:
            pass  # also an honest failure

    def test_cone_breach_on_bad_start(self):
        geom = TorusGeometry(2, 8)
        chi = constant_form(geom, np.diag([1.0, 2.0]))
        omega0 = constant_form(geom, np.eye(2))
        # leave-one-out sums of omega0 rel chi reach 2 >= c = 1.8
        problem = make_j_problem(chi, omega0, ScalarField.zeros(geom), 1.8)
        with pytest.raises(ConeBreachError):
            newton_solve(problem, ScalarField.zeros(geom), SolverConfig())

    def test_mean_zero_gauge(self):
        geom = TorusGeometry(1, 32)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        problem = make_j_problem(chi, omega0, f, c)
        rep = newton_solve(problem, ScalarField.zeros(geom), SolverConfig())
        w = mixed_density([omega0.values])
        assert abs(np.sum(rep.phi.values * w) / np.sum(w)) < 1e-10

    def test_residual_shift_invariance(self):
        geom = TorusGeometry(1, 32)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        r1 = j_residual(chi, omega0, phistar, f, c)
        r2 = j_residual(chi, omega0, phistar + 4.0, f, c)
        # invariance is exact in exact arithmetic; FFT roundoff scales with
        # the shift magnitude
        assert np.max(np.abs(r1.values - r2.values)) < 1e-11


class TestNewtonArguments:
    """``newton_solve`` refuses bad arguments before any work, the coarse solve included."""

    @staticmethod
    def problem(monkeypatch):
        geom = TorusGeometry(2, 16)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        touched = []
        monkeypatch.setattr(solver, "_restrict", lambda *a: touched.append(1))
        return make_j_problem(chi, omega0, f, c), touched

    def test_start_on_another_grid(self, monkeypatch):
        problem, touched = self.problem(monkeypatch)
        with pytest.raises(UsageError):
            newton_solve(problem, ScalarField.zeros(TorusGeometry(2, 8)), SolverConfig())
        assert not touched

    @pytest.mark.parametrize("min_steps", [2.5, -1, "1"])
    def test_min_steps_not_a_count(self, monkeypatch, min_steps):
        problem, touched = self.problem(monkeypatch)
        with pytest.raises(UsageError):
            newton_solve(problem, ScalarField.zeros(problem.geometry), SolverConfig(),
                         min_steps=min_steps)
        assert not touched


def single_grid_solve(problem, phi0, config):
    """``newton_solve`` with the nested start switched off."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "COARSEST_N", 10 ** 9)
        return newton_solve(problem, phi0, config)


class TestNestedStart:
    """A constant start solves criterion 5's instance on the N/2 grids first."""

    CFG = SolverConfig(tolerance=1e-10)

    @staticmethod
    def instance(n, N):
        geom = TorusGeometry(n, N)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        return make_j_problem(chi, omega0, f, c), phistar

    @pytest.mark.parametrize("n, N, const", [(2, 16, 0.0), (1, 64, 0.25)])
    def test_agrees_with_the_single_grid_solve(self, n, N, const):
        problem, phistar = self.instance(n, N)
        start = ScalarField.constant(problem.geometry, const)
        nested = newton_solve(problem, start, self.CFG)
        single = single_grid_solve(problem, start, self.CFG)
        assert nested.success and single.success
        # the nested start keeps the start's constant in the gauge
        assert np.max(np.abs(nested.phi.values - single.phi.values)) <= 1e-9
        assert nested.iterations < single.iterations
        assert nested.iterations == len(nested.residual_history) - 1
        levels = nested.path_history
        assert [h["N"] for h in levels] == [N >> k for k in range(len(levels), 0, -1)]
        assert levels[0]["N"] == solver.COARSEST_N
        assert [h["start"] for h in levels] == ["cold"] + ["prolonged"] * (len(levels) - 1)
        assert all(h["residual"] <= self.CFG.tolerance and h["iterations"] >= 1
                   for h in levels)
        assert single.path_history == []

    @pytest.mark.parametrize("failure", ["domain-error", "cone-breach", "no-convergence",
                                         "prolonged-outside-cone"])
    def test_coarse_failure_falls_back_bit_for_bit(self, monkeypatch, failure):
        problem, _ = self.instance(2, 16)
        start = ScalarField.zeros(problem.geometry)
        single = single_grid_solve(problem, start, self.CFG)
        if failure == "domain-error":
            def fail(*args):
                raise DomainError("forced")

            monkeypatch.setattr(solver, "_restrict", fail)
        elif failure == "cone-breach":
            build = problem.coarse

            def refusing():
                coarse = build()
                evaluate = coarse.evaluate
                coarse.evaluate = lambda phi: dataclasses.replace(evaluate(phi),
                                                                  cone_margin=-math.inf)
                return coarse

            problem.coarse = refusing
        elif failure == "prolonged-outside-cone":
            evaluate, seen = problem.evaluate, []

            def refusing_first(phi):
                seen.append(phi)
                ev = evaluate(phi)
                return ev if len(seen) > 1 else dataclasses.replace(ev, cone_margin=-math.inf)

            problem.evaluate = refusing_first
        else:
            newton = solver.newton_solve

            def unconverged(problem, phi0, config, **kwargs):
                report = newton(problem, phi0, config, **kwargs)
                if problem.geometry.N == 8:
                    report.status = "no-convergence"
                return report

            monkeypatch.setattr(solver, "newton_solve", unconverged)
        rep = newton_solve(problem, start, self.CFG)
        assert np.array_equal(rep.phi.values, single.phi.values)
        assert rep.residual_history == single.residual_history
        assert rep.path_history == []
        if failure == "prolonged-outside-cone":
            assert np.ptp(seen[0].values) > 0.0 and seen[1] is start

    @pytest.mark.parametrize("failure", ["fine-no-convergence", "fine-cone-breach"])
    def test_fine_failure_falls_back_bit_for_bit(self, monkeypatch, failure):
        problem, _ = self.instance(2, 16)
        start = ScalarField.zeros(problem.geometry)
        single = single_grid_solve(problem, start, self.CFG)
        newton, forced = solver.newton_solve, []

        def failing_from_prolonged(problem, phi0, config, **kwargs):
            report = newton(problem, phi0, config, **kwargs)
            # the N = 16 solve from the prolonged start: its first residual is not the cold one's
            if (problem.geometry.N == 16
                    and report.residual_history[0] != single.residual_history[0]):
                forced.append(report)
                if failure == "fine-cone-breach":
                    raise ConeBreachError("forced", report=report)
                report.status = "no-convergence"
            return report

        monkeypatch.setattr(solver, "newton_solve", failing_from_prolonged)
        rep = solver.newton_solve(problem, start, self.CFG)
        assert len(forced) == 1
        assert np.array_equal(rep.phi.values, single.phi.values)
        assert rep.residual_history == single.residual_history
        assert rep.success and rep.path_history == []

    def test_non_constant_start_stays_on_its_grid(self, monkeypatch):
        problem, phistar = self.instance(2, 16)
        touched = []
        monkeypatch.setattr(solver, "_restrict", lambda *a: touched.append(1))
        rep = newton_solve(problem, 0.5 * phistar, self.CFG)
        assert rep.success and rep.path_history == []
        assert not touched


class TestStepMemory:
    def test_omega_phi_in_place_equals_the_form_sum(self):
        geom = TorusGeometry(2, 16)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        for base in (omega0, constant_form(geom, np.eye(2))):
            ev = make_j_problem(chi, base, f, c).evaluate(phistar)
            omega_vals = hermitian._matrix(list(ev.parts))
            assert np.array_equal(omega_vals, (base + complex_hessian(phistar)).values)

    def test_cold_solve_peak_in_grid_arrays(self, monkeypatch):
        # criterion 5's instance at n = 2, N = 16; the bounds (36 float64 grid
        # arrays above the solve's start, 21.5 above a Krylov solve's start)
        # were fixed before measuring.  A Krylov solve that keeps the
        # right-hand side's half spectrum, mask and symbol alive reads 22.6.
        geom = TorusGeometry(2, 16)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        problem = make_j_problem(chi, omega0, f, c)
        newton_solve(problem, ScalarField.zeros(geom), SolverConfig())  # fills the caches
        peaks = []  # the solve's peak, segment by segment
        krylov = []  # each Krylov solve's peak above its start, in grid arrays
        solve_linear = solver._solve_linear

        def traced_solve_linear(*args, **kwargs):
            at, peak = tracemalloc.get_traced_memory()
            peaks.append(peak)
            tracemalloc.reset_peak()
            out = solve_linear(*args, **kwargs)
            krylov.append((tracemalloc.get_traced_memory()[1] - at) / (8 * geom.grid_size))
            return out

        monkeypatch.setattr(solver, "_solve_linear", traced_solve_linear)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rep = newton_solve(problem, ScalarField.zeros(geom), SolverConfig())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        peak = max(peaks)
        assert rep.success
        assert (peak - start) / (8 * geom.grid_size) <= 36.0
        assert krylov and max(krylov) <= 21.5, krylov

    @pytest.mark.parametrize("n, N", [(1, 64), (2, 8), (2, 16)])
    def test_a_cold_solve_stays_under_the_estimate(self, n, N):
        # the tracemalloc peak of criterion 5's instance, measured from before
        # its inputs are built, since estimate_peak_bytes counts them; n = 2,
        # N = 8 is the thin case (about 72 of its 80 grid arrays)
        geom = TorusGeometry(n, N)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            chi, omega0, phistar, f, c = manufactured_j_instance(geom)
            rep = newton_solve(make_j_problem(chi, omega0, f, c), ScalarField.zeros(geom),
                               SolverConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.success
        assert peak - start < solver.estimate_peak_bytes(geom)

    def test_a_problem_holds_two_grid_arrays_beyond_its_inputs(self):
        # det chi and the gauge weight det omega0; the problem reads the
        # forms' parts where they are.  The bound was fixed before measuring.
        geom = TorusGeometry(2, 16)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        make_j_problem(chi, omega0, f, c)  # fills the caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            problem = make_j_problem(chi, omega0, f, c)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert problem.gauge_weight.shape == geom.shape
        assert held / (8 * geom.grid_size) <= 2.5

    @pytest.mark.parametrize("kind", ["J", "dHYM"])
    def test_n3_coefficient_rows_peak_in_grid_arrays(self, kind):
        # the rows are n^2 = 9 grid arrays; the bound of n^2 + 2 float64 grid
        # arrays above the coefficient's inputs was fixed before measuring
        geom, chi, omega0, phi, f = random_kernel_instance(3, 60)
        problem = (make_j_problem(chi, omega0, f, 12.0) if kind == "J"
                   else make_dhym_problem(chi, omega0, f, math.pi / 5))
        ev = problem.evaluate(phi)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rows, _ = problem.linear_coefficient(ev)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (9,) + geom.shape
        assert (peak - start) / (8 * geom.grid_size) <= 11.0


class TestContinuityPathJ:
    def test_trivial_scaling_instance(self):
        # chi = omega0 constant forms, c = c0 = n, f = 0: path stays at phi = 0
        geom = TorusGeometry(2, 8)
        omega0 = constant_form(geom, np.eye(2))
        chi = constant_form(geom, np.eye(2))
        rep = continuity_path_j(chi, omega0, ScalarField.zeros(geom), 2.0,
                                SolverConfig(path_steps=3))
        assert rep.success
        assert rep.phi.sup_norm() < 1e-12
        assert all(h["iterations"] == 0 for h in rep.path_history)

    def test_nontrivial_f_target_agrees_with_cold_start(self):
        geom = TorusGeometry(2, 8)
        chi = constant_form(geom, np.diag([1.0, 2.0]))
        omega0 = constant_form(geom, np.eye(2))
        c0 = compute_c0(chi, omega0)
        f_target = field_from_modes(geom, [((1, 0, 0, 0), 0.05)])
        cfg = SolverConfig(path_steps=4)
        rep = continuity_path_j(chi, omega0, f_target, c0, cfg)
        assert rep.success
        cold = newton_solve(make_j_problem(chi, omega0, f_target, c0),
                            ScalarField.zeros(geom), cfg)
        d = rep.phi.values - cold.phi.values
        d -= d.mean()
        assert np.max(np.abs(d)) < 1e-7
        assert all(h["cone_margin"] > 0 for h in rep.path_history)
        assert all(h["multiplier"] <= 10 * cfg.linear_tol for h in rep.path_history)

    def test_integrability_sign_precondition(self):
        geom = TorusGeometry(2, 8)
        chi = constant_form(geom, np.diag([1.0, 2.0]))
        omega0 = constant_form(geom, np.eye(2))
        # c below c0 makes the class integral negative
        with pytest.raises(PreconditionError):
            continuity_path_j(chi, omega0, ScalarField.zeros(geom), 2.5, SolverConfig())

    def test_integrability_identity_precondition(self):
        geom = TorusGeometry(2, 8)
        chi = constant_form(geom, np.diag([1.0, 2.0]))
        omega0 = constant_form(geom, np.eye(2))
        # f with the wrong mass for c = c0
        f_bad = ScalarField.constant(geom, 0.25)
        with pytest.raises(PreconditionError):
            continuity_path_j(chi, omega0, f_bad, 3.0, SolverConfig())

    def test_j_equation_with_potential_chi(self):
        # genuine J-equation (f = 0, c = c0) made nontrivial by a chi potential
        geom = TorusGeometry(2, 8)
        chi = form_field(geom, np.diag([1.0, 2.0]),
                         field_from_modes(geom, [((1, 0, 0, 0), 0.04)]))
        omega0 = constant_form(geom, np.eye(2))
        c0 = compute_c0(chi, omega0)
        rep = continuity_path_j(chi, omega0, ScalarField.zeros(geom), c0,
                                SolverConfig(path_steps=4))
        assert rep.success
        assert rep.phi.sup_norm() > 1e-5  # genuinely nontrivial
        r = j_residual(chi, omega0, rep.phi, ScalarField.zeros(geom), c0)
        assert r.sup_norm() <= 1e-10


class TestDhymResidual:
    def test_trivial_start_exact(self):
        geom = TorusGeometry(2, 8)
        theta0 = math.pi / 5
        chi = form_field(geom, np.eye(2), field_from_modes(geom, [((1, 0, 0, 0), 0.03)]))
        omega0 = (1.0 / math.tan(theta0 / 2)) * chi
        r = dhym_residual(chi, omega0, ScalarField.zeros(geom),
                          ScalarField.zeros(geom), theta0)
        assert r.sup_norm() <= 1e-12

    def test_angle_and_wedge_forms_agree(self):
        geom = TorusGeometry(2, 8)
        theta0 = math.pi / 5
        chi = constant_form(geom, np.eye(2))
        omega0 = constant_form(geom, 3.2 * np.eye(2))
        rng = np.random.default_rng(1)
        for _ in range(5):
            phi = field_from_modes(geom, [((1, 0, 0, 0), rng.uniform(-0.02, 0.02)),
                                          ((0, 1, 1, 0), rng.uniform(-0.02, 0.02))])
            f = ScalarField.constant(geom, float(rng.uniform(0.0, 0.3)))
            ra = dhym_residual(chi, omega0, phi, f, theta0)
            rw = dhym_residual(chi, omega0, phi, f, theta0, form="wedge")
            assert np.max(np.abs(ra.values - rw.values)) < 1e-9

    def test_monotone_in_f(self):
        geom = TorusGeometry(1, 16)
        theta0 = 0.5
        chi = constant_form(geom, np.eye(1))
        omega0 = constant_form(geom, 3.0 * np.eye(1))
        r1 = dhym_residual(chi, omega0, ScalarField.zeros(geom),
                           ScalarField.constant(geom, 0.1), theta0)
        r2 = dhym_residual(chi, omega0, ScalarField.zeros(geom),
                           ScalarField.constant(geom, 0.5), theta0)
        assert np.all(r2.values < r1.values)

    def test_f_bound_enforced(self):
        geom = TorusGeometry(1, 16)
        with pytest.raises(DomainError):
            dhym_residual(constant_form(geom, np.eye(1)),
                          constant_form(geom, 3.0 * np.eye(1)),
                          ScalarField.zeros(geom),
                          ScalarField.constant(geom, -0.5), 0.5)

    def test_wedge_form_checks_hypotheses_first_and_builds_no_problem(self, monkeypatch):
        geom = TorusGeometry(1, 16)
        chi = constant_form(geom, np.eye(1))
        omega0 = constant_form(geom, 3.0 * np.eye(1))
        zero = ScalarField.zeros(geom)
        for form in ("wedge", "no-such-form"):
            with pytest.raises(DomainError, match="theta0"):
                dhym_residual(chi, omega0, zero, zero, math.pi / 4, form=form)
        with pytest.raises(UsageError, match="form must be"):
            dhym_residual(chi, omega0, zero, zero, 0.5, form="no-such-form")
        monkeypatch.setattr(solver, "make_dhym_problem", None)
        wedge = dhym_residual(chi, omega0, zero, zero, 0.5, form="wedge")
        assert wedge.values.shape == geom.shape

    def test_linearization_matches_fd(self):
        geom = TorusGeometry(2, 8)
        theta0 = math.pi / 5
        chi = constant_form(geom, np.eye(2))
        omega0 = form_field(geom, 3.2 * np.eye(2),
                            field_from_modes(geom, [((1, 0, 0, 0), 0.02)]))
        phi = field_from_modes(geom, [((0, 1, 0, 0), 0.01)])
        f = ScalarField.constant(geom, 0.1)
        u = field_from_modes(geom, [((1, 0, 1, 0), 1.0), ((0, 2, 0, 0), 0.3)])
        L = dhym_linearization_apply(chi, omega0, phi, f, theta0, u)
        h = 1e-5
        fd = (dhym_residual(chi, omega0, phi + h * u, f, theta0).values
              - dhym_residual(chi, omega0, phi - h * u, f, theta0).values) / (2 * h)
        assert np.max(np.abs(L.values - fd)) / np.max(np.abs(fd)) < 1e-6

    def test_linearization_on_degenerate_spectrum_n2(self):
        # proportional forms have an exactly degenerate relative spectrum
        geom = TorusGeometry(2, 8)
        theta0 = math.pi / 5
        chi = constant_form(geom, np.eye(2))
        omega0 = constant_form(geom, 3.2 * np.eye(2))
        u = field_from_modes(geom, [((1, 0, 0, 0), 1.0)])
        f = ScalarField.constant(geom, 0.05)
        L = dhym_linearization_apply(chi, omega0, ScalarField.zeros(geom), f, theta0, u)
        h = 1e-5
        fd = (dhym_residual(chi, omega0, h * u, f, theta0).values
              - dhym_residual(chi, omega0, (-h) * u, f, theta0).values) / (2 * h)
        assert np.max(np.abs(L.values - fd)) / np.max(np.abs(fd)) < 1e-5

    @pytest.mark.parametrize("n", [1, 3])
    def test_linearization_on_degenerate_spectrum(self, n):
        # omega0 = kappa * chi makes every relative eigenvalue equal kappa; the
        # projector form needs no gap between them
        geom = TorusGeometry(n, 8)
        theta0 = math.pi / 5
        kappa = 1.0 / math.tan(theta0 / n)
        chi = constant_form(geom, np.eye(n))
        omega0 = constant_form(geom, kappa * np.eye(n))
        u = field_from_modes(geom, [((1,) + (0,) * (2 * n - 1), 1.0),
                                    ((0,) * (2 * n - 1) + (1,), 0.5)])
        f = ScalarField.constant(geom, 0.05)
        L = dhym_linearization_apply(chi, omega0, ScalarField.zeros(geom), f, theta0, u)
        h = 1e-5
        fd = (dhym_residual(chi, omega0, h * u, f, theta0).values
              - dhym_residual(chi, omega0, (-h) * u, f, theta0).values) / (2 * h)
        assert np.max(np.abs(L.values - fd)) / np.max(np.abs(fd)) < 1e-5

    def test_linearization_past_the_arctan_branch_n3(self):
        # omega0 = 0.3 chi puts every relative eigenvalue near 0.3, where
        # sum arctan(1/lam) > pi, so arg det(omega + i chi) = s - 2 pi; the
        # wedge form has no branch and is the oracle
        geom = TorusGeometry(3, 8)
        theta0 = math.pi / 5
        chi = form_field(geom, np.diag([1.0, 1.5, 2.0]).astype(complex),
                         field_from_modes(geom, [((1, 0, 0, 0, 0, 0), 0.002)]))
        omega0 = 0.3 * chi
        phi = field_from_modes(geom, [((0, 1, 0, 0, 0, 0), 0.001), ((0, 0, 0, 1, 1, 0), 0.0005)])
        lam = relative_spectrum_field(chi.values, (omega0 + complex_hessian(phi)).values)
        assert np.min(np.sum(np.arctan(1.0 / lam), axis=-1)) > math.pi
        f = ScalarField(geom, 0.05 + phi.values)
        u = field_from_modes(geom, [((1, 0, 1, 0, 0, 0), 0.2), ((0, 0, 0, 0, 2, 0), 0.1)])
        L = dhym_linearization_apply(chi, omega0, phi, f, theta0, u)
        h = 1e-5
        fd = (dhym_residual(chi, omega0, phi + h * u, f, theta0, form="wedge").values
              - dhym_residual(chi, omega0, phi - h * u, f, theta0, form="wedge").values) / (2 * h)
        assert np.max(np.abs(L.values - fd)) / np.max(np.abs(fd)) < 1e-6

    def test_linearization_rejects_non_finite_direction(self):
        geom = TorusGeometry(1, 16)
        form = constant_form(geom, np.eye(1))
        u = ScalarField(geom, np.full(geom.shape, np.inf))
        with pytest.raises(DataError):
            dhym_linearization_apply(form, 3.0 * form, ScalarField.zeros(geom),
                                     ScalarField.zeros(geom), 0.5, u)


class TestContinuityPathDhym:
    def test_fully_trivial_target(self):
        geom = TorusGeometry(2, 8)
        theta0 = math.pi / 5
        chi = constant_form(geom, np.eye(2))
        omega0 = (1.0 / math.tan(theta0 / 2)) * chi
        rep = continuity_path_dhym(chi, omega0, ScalarField.zeros(geom), theta0,
                                   SolverConfig(path_steps=3))
        assert rep.success
        assert rep.phi.sup_norm() < 1e-10

    def test_n2_zero_f_instance_recovers_analytic_solution(self):
        geom = TorusGeometry(2, 8)
        theta0 = math.pi / 5
        s = (1 + math.cos(theta0)) / math.sin(theta0)  # cot(theta0/2)
        chi = constant_form(geom, np.eye(2))
        psi = field_from_modes(geom, [((1, 0, 0, 0), 0.05), ((0, 0, 0, 1), 0.03)])
        omega0 = form_field(geom, s * np.eye(2), psi)
        cfg = SolverConfig(path_steps=4, tolerance=1e-11)
        rep = continuity_path_dhym(chi, omega0, ScalarField.zeros(geom), theta0, cfg)
        assert rep.success
        # solution carries omega back to s * I, i.e. phi = -psi + const
        d = rep.phi.values + psi.values
        d -= d.mean()
        assert np.max(np.abs(d)) < 1e-9
        lam = relative_spectrum_field(chi.values,
                                      (omega0 + complex_hessian(rep.phi)).values)
        q = np.sum(np.arctan(1.0 / lam), axis=-1)
        assert np.max(np.abs(q - theta0)) <= 1e-8

    def test_hypothesis_violation_rejected(self):
        geom = TorusGeometry(2, 8)
        theta0 = 0.3
        chi = constant_form(geom, np.eye(2))
        omega0 = constant_form(geom, 1.2 * np.eye(2))  # arctan sums exceed theta0
        with pytest.raises(PreconditionError):
            continuity_path_dhym(chi, omega0, ScalarField.zeros(geom), theta0,
                                 SolverConfig())

    def test_gamma_margin_checked_before_integrability(self):
        # these data fail both: their class constant is -2.26, far from mean f = 0
        geom = TorusGeometry(2, 8)
        chi = constant_form(geom, np.eye(2))
        omega0 = constant_form(geom, 1.2 * np.eye(2))
        assert solver._dhym_class_f(chi, omega0, 0.3) == pytest.approx(-2.26, abs=0.01)
        with pytest.raises(PreconditionError, match="Gamma margin"):
            continuity_path_dhym(chi, omega0, ScalarField.zeros(geom), 0.3, SolverConfig())

    def test_integrability_identity_rejected(self):
        geom = TorusGeometry(2, 8)
        theta0 = math.pi / 5
        chi = constant_form(geom, np.eye(2))
        omega0 = constant_form(geom, 4.0 * np.eye(2))
        f_bad = ScalarField.constant(geom, -0.004)  # wrong mass, inside f-bound
        with pytest.raises(PreconditionError):
            continuity_path_dhym(chi, omega0, f_bad, theta0, SolverConfig())


class TestKahlerHypotheses:
    """Both paths check chi and omega0 on the grid before any other hypothesis."""

    @pytest.mark.parametrize("constant", [False, True], ids=["potential", "constant"])
    @pytest.mark.parametrize("which", ["chi", "omega0"])
    @pytest.mark.parametrize("path, param", [(continuity_path_j, 3.0),
                                             (continuity_path_dhym, math.pi / 5)],
                             ids=["j", "dhym"])
    def test_non_kahler_form_is_named(self, path, param, which, constant):
        geom = TorusGeometry(2, 8)
        forms = {"chi": constant_form(geom, np.eye(2)),
                 "omega0": constant_form(geom, 3.0 * np.eye(2))}
        # smallest eigenvalue 1 - 0.2 pi^2 < 0 where x_1 = 0; a constant form's
        # smallest eigenvalue is named at the first grid point
        forms[which] = (constant_form(geom, np.diag([-1.0, 1.0])) if constant else
                        form_field(geom, np.eye(2), field_from_modes(geom, [((1, 0, 0, 0), 0.2)])))
        with pytest.raises(NotKahlerError,
                           match=rf"^{which} is not positive at grid index \(0, 0, 0, 0\)"):
            path(forms["chi"], forms["omega0"], ScalarField.zeros(geom), param, SolverConfig())


class TestClassData:
    @staticmethod
    def forms(n):
        geom = TorusGeometry(n, 8)
        rng = np.random.default_rng(n)
        chi = form_field(geom, np.diag(np.arange(1.0, n + 1.0)),
                         random_bandlimited(geom, rng, kmax=1, amplitude=0.01))
        omega = form_field(geom, 2.0 * np.eye(n) + 0.1 * np.ones((n, n)),
                           random_bandlimited(geom, rng, kmax=1, amplitude=0.01))
        return chi, omega

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dhym_class_const_matches_the_complex_determinant(self, n):
        # mean det(omega + i chi) from the intersection vector, against a batched LU
        chi, omega = self.forms(n)
        det = np.linalg.det(omega.values + 1j * chi.values)
        want = (np.mean(math.tan(0.5) * det.real - det.imag)
                / np.mean(np.linalg.det(chi.values).real))
        assert solver._dhym_class_f(chi, omega, 0.5) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_j_class_const_matches_the_trace(self, n):
        # integrating tr_omega(chi) + f det chi/det omega = c against omega^n
        chi, omega = self.forms(n)
        c = 3.0
        trace = np.einsum("...ii->...", np.linalg.solve(omega.values, chi.values)).real
        want = (np.mean(np.linalg.det(omega.values).real * (c - trace))
                / np.mean(np.linalg.det(chi.values).real))
        assert solver._j_class_f(chi, omega, c) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_class_consts_vanish_at_the_exactly_solvable_starts(self, n):
        # J stage 1 starts at chi = (c/n) omega0, dHYM stage 1 at omega0 = cot(theta0/n) chi
        # with phi = 0 and f = 0
        chi, omega = self.forms(n)
        c, theta0 = 3.0, 0.5
        assert abs(solver._j_class_f((c / n) * omega, omega, c)) <= 1e-14
        assert abs(solver._dhym_class_f(chi, chi * (1.0 / math.tan(theta0 / n)), theta0)) <= 1e-14


class TestConfigValidation:
    def test_solver_config_bounds(self):
        with pytest.raises(UsageError):
            SolverConfig(tolerance=1e-13)
        with pytest.raises(UsageError):
            SolverConfig(path_steps=0)

    @pytest.mark.parametrize("kwargs", [
        {"linear_tol": -1.0}, {"linear_tol": math.nan}, {"linear_tol": 5.0},
        {"linear_tol": 1.0}, {"tolerance": math.nan}, {"tolerance": math.inf}])
    def test_tolerances_validated(self, kwargs):
        with pytest.raises(UsageError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("slack", [-1.0, math.nan, math.inf])
    def test_cone_slack_validated(self, slack):
        with pytest.raises(UsageError):
            SolverConfig(cone_slack=slack)
        assert SolverConfig(cone_slack=0.5).cone_slack == 0.5

    @pytest.mark.parametrize("name", ["max_newton", "path_steps", "linear_max_iter"])
    @pytest.mark.parametrize("value", [2.5, math.nan, "8", True])
    def test_non_integral_count_is_refused(self, name, value):
        with pytest.raises(UsageError, match=f"^{name} must be an integer, got {value!r}"):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("name", ["max_newton", "path_steps", "linear_max_iter"])
    def test_integral_count_of_any_type(self, name):
        for value in (np.int64(3), 3.0):
            count = getattr(SolverConfig(**{name: value}), name)
            assert count == 3 and type(count) is int


# Complex-FFT and eigh references for the real-transform Newton kernels.
KERNEL_RTOL = 1e-12  # fixed before the comparison; the arithmetic order differs


def reference_zeta(geom):
    N = geom.N
    freq = sfft.fftfreq(N, d=1.0 / N)
    freq[N // 2] = 0.0
    out = np.zeros((geom.n,) + geom.shape, dtype=complex)
    for j in range(geom.n):
        kx = freq.reshape((1,) * j + (N,) + (1,) * (2 * geom.n - j - 1))
        ky = freq.reshape((1,) * (geom.n + j) + (N,) + (1,) * (geom.n - j - 1))
        out[j] = math.pi * (ky + 1j * kx)
    return out


def reference_tr_m_hessian(geom, M, u):
    zeta = reference_zeta(geom)
    lap = _axis_laplace(geom)
    phat = sfft.fftn(u)
    out = None
    for i in range(geom.n):
        e = sfft.ifftn(-lap[i] * phat).real
        term = M[..., i, i].real * e
        out = term if out is None else out + term
        for j in range(i + 1, geom.n):
            e = sfft.ifftn(-zeta[j] * np.conj(zeta[i]) * phat)
            mij = M[..., i, j]
            out += 2.0 * (mij.real * e.real - mij.imag * e.imag)
    return out


def hermitize(M):
    return 0.5 * (M + M.conj().swapaxes(-1, -2))


def reference_j_coefficient(chi, omega_vals, lam, f):
    gi = np.linalg.inv(omega_vals)
    q = f.values / np.prod(lam, axis=-1)
    return hermitize(gi @ np.ascontiguousarray(chi.values) @ gi + q[..., None, None] * gi)


def reference_dhym_coefficient(chi, omega_vals, f, theta0):
    Linv = np.linalg.inv(np.linalg.cholesky(np.ascontiguousarray(chi.values)))
    lam, U = np.linalg.eigh(Linv @ omega_vals @ Linv.conj().swapaxes(-1, -2))
    V = Linv.conj().swapaxes(-1, -2) @ U
    s = np.sum(np.arctan(1.0 / lam), axis=-1, keepdims=True)
    r = np.prod(np.sqrt(lam * lam + 1.0), axis=-1, keepdims=True)
    g = f.values[..., None] * math.cos(theta0) / r
    w = np.cos(theta0 - s) / (lam * lam + 1.0) + g * lam / (lam * lam + 1.0)
    return hermitize(np.einsum("...ik,...k,...jk->...ij", V, w.astype(complex), np.conj(V)))


def matrix_from_rows(rows, n):
    """Hermitian field from coefficient rows: diagonal, then 2 Re / 2 Im per pair."""
    M = np.empty(rows.shape[1:] + (n, n), dtype=complex)
    for i in range(n):
        M[..., i, i] = rows[i]
    for p, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        M[..., i, j] = 0.5 * (rows[n + 2 * p] + 1j * rows[n + 2 * p + 1])
        M[..., j, i] = np.conj(M[..., i, j])
    return M


def rows_from_matrix(M):
    """Coefficient rows of the Hermitian part of M, the inverse of matrix_from_rows."""
    rows = np.stack(hermitian._parts(hermitize(M)))
    rows[M.shape[-1]:] *= 2.0
    return rows


def relative_error(a, ref):
    return float(np.max(np.abs(a - ref)) / np.max(np.abs(ref)))


def random_hermitian_field(geom, rng, base):
    a = rng.standard_normal(geom.shape + base.shape) \
        + 1j * rng.standard_normal(geom.shape + base.shape)
    return base + 0.05 * hermitize(a)


def random_kernel_instance(n, seed):
    """Forms with white-noise potentials (not band-limited) and a positive f."""
    geom = TorusGeometry(n, 8)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    base = g @ g.conj().T / n + np.eye(n)

    def noise():
        return ScalarField(geom, 2e-4 * rng.standard_normal(geom.shape))

    chi = form_field(geom, base, noise())
    omega0 = form_field(geom, 2.0 * np.eye(n), noise())
    f = ScalarField(geom, 0.1 + 0.05 * rng.uniform(size=geom.shape))
    return geom, chi, omega0, noise(), f


class TestRealTransformKernels:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tr_m_hessian_matches_complex_reference(self, n):
        geom = TorusGeometry(n, 8)
        rng = np.random.default_rng(30 + n)
        M = random_hermitian_field(geom, rng, np.eye(n))
        u = rng.standard_normal(geom.shape)
        out = solver._tr_m_hessian(geom, rows_from_matrix(M), sfft.rfftn(u))
        assert relative_error(out, reference_tr_m_hessian(geom, M, u)) <= KERNEL_RTOL

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_j_coefficient_matches_reference(self, n):
        geom, chi, omega0, phi, f = random_kernel_instance(n, 40 + n)
        problem = make_j_problem(chi, omega0, f, 4.0 * n)
        ev = problem.evaluate(phi)
        rows, sign = problem.linear_coefficient(ev)
        ref = reference_j_coefficient(chi, hermitian._matrix(list(ev.parts)), ev.lam, f)
        assert sign == -1.0
        assert relative_error(matrix_from_rows(rows, n), ref) <= KERNEL_RTOL

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dhym_coefficient_matches_reference(self, n):
        geom, chi, omega0, phi, f = random_kernel_instance(n, 50 + n)
        theta0 = math.pi / 5
        problem = make_dhym_problem(chi, omega0, f, theta0)
        ev = problem.evaluate(phi)
        rows, sign = problem.linear_coefficient(ev)
        ref = reference_dhym_coefficient(chi, hermitian._matrix(list(ev.parts)), f, theta0)
        assert sign == 1.0
        assert relative_error(matrix_from_rows(rows, n), ref) <= KERNEL_RTOL

    def test_dhym_coefficient_on_degenerate_spectrum(self):
        # omega = kappa * chi: both relative eigenvalues equal kappa everywhere,
        # so the projector sum is w(kappa) * chi^-1
        geom = TorusGeometry(2, 8)
        theta0 = math.pi / 5
        kappa = 3.2
        chi = form_field(geom, np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 1.5]]),
                         field_from_modes(geom, [((1, 0, 0, 0), 0.02), ((0, 1, 1, 0), 0.01)]))
        f = ScalarField.constant(geom, 0.05)
        problem = make_dhym_problem(chi, kappa * chi, f, theta0)
        rows, _ = problem.linear_coefficient(problem.evaluate(ScalarField.zeros(geom)))
        r = kappa * kappa + 1.0
        w = (math.cos(theta0 - 2.0 * math.atan(1.0 / kappa))
             + 0.05 * math.cos(theta0) / r * kappa) / r
        assert np.all(np.isfinite(rows))
        assert relative_error(matrix_from_rows(rows, 2),
                              w * np.linalg.inv(chi.values)) <= 1e-6

    @pytest.mark.parametrize("constant_chi", [False, True])
    def test_blocked_n2_rows_match_general_formulas(self, constant_chi):
        # N = 16 spans 16 blocks of hermitian._BLOCK2 points
        geom = TorusGeometry(2, 16)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        if constant_chi:
            chi = constant_form(geom, chi.base)
        parts = _hessian_parts(phistar, base=omega0.parts)
        omega_vals = hermitian._matrix(list(parts))
        lam = relative_spectrum_field(chi.values, omega_vals)
        gi = np.linalg.inv(omega_vals)
        q = f.values / np.prod(lam, axis=-1)
        j_ref = rows_from_matrix(gi @ np.ascontiguousarray(chi.values) @ gi
                                 + q[..., None, None] * gi)
        j_rows = solver._coefficient_rows(solver._j_block, parts, *solver._chi_terms(chi),
                                          f.values)
        assert j_rows.shape == j_ref.shape
        assert relative_error(j_rows, j_ref) <= 1e-13
        theta0 = math.pi / 5
        f_d = ScalarField(geom, 0.01 + 0.5 * phistar.values)
        d_ref = reference_dhym_coefficient(chi, omega_vals, f_d, theta0)
        d_rows = solver._coefficient_rows(partial(solver._dhym_block, theta0=theta0), parts,
                                          *solver._chi_terms(chi), f_d.values)
        assert relative_error(d_rows, rows_from_matrix(d_ref)) <= 1e-13


class TestConstantChi:
    def test_equals_a_zero_potential_n3(self):
        # a constant chi's frame and det chi are taken at one point and
        # broadcast; the problem evaluates as if they were taken at every point
        geom = TorusGeometry(3, 8)
        base = np.diag([1.0, 1.5, 2.0]) + 0.1 * hermitize(np.triu(np.full((3, 3), 1.0 + 0.5j), 1))
        omega0 = form_field(geom, np.eye(3), field_from_modes(geom, [((0, 1, 0, 0, 0, 0), 0.01)]))
        f = ScalarField(geom, 0.05 + field_from_modes(geom, [((1, 0, 0, 0, 0, 0), 0.01)]).values)
        phi = field_from_modes(geom, [((0, 0, 1, 0, 0, 0), 0.005)])
        evs = [make_j_problem(chi, omega0, f, 3.0).evaluate(phi)
               for chi in (constant_form(geom, base),
                           form_field(geom, base, ScalarField.zeros(geom)))]
        for name in ("parts", "lam", "residual", "weight"):
            assert np.array_equal(getattr(evs[0], name), getattr(evs[1], name)), name
        for name in ("c2", "kahler_margin", "cone_margin"):
            assert getattr(evs[0], name) == getattr(evs[1], name), name


class TestCofactorDeterminants:
    """``det chi`` and the gauge weight ``det omega0`` of a Newton problem come
    from the cofactor kernel on the forms' real parts; ``np.linalg.det`` of
    the form matrices is the oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("constant", [False, True], ids=["potential", "constant"])
    def test_match_linalg_det(self, n, constant):
        geom = TorusGeometry(n, 8)
        rng = np.random.default_rng(n)
        chi_base = np.diag(np.linspace(1.0, 2.0, n)) + 0.1 * hermitize(
            np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1))
        potentials = [None, None] if constant else [
            random_bandlimited(geom, rng, amplitude=0.005) for _ in range(2)]
        chi = form_field(geom, chi_base, potentials[0])
        omega0 = form_field(geom, 1.5 * np.eye(n), potentials[1])
        problem = make_j_problem(chi, omega0, ScalarField.zeros(geom), 2.0)
        _, det_chi = solver._chi_terms(chi)
        np.testing.assert_allclose(det_chi, np.linalg.det(chi.values).real.reshape(-1),
                                   rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(problem.gauge_weight, np.linalg.det(omega0.values).real,
                                   rtol=1e-13, atol=0.0)


def blocked_evaluation_instance(n):
    """(chi, omega0, phi, f) at n = 1, 2 (N = 16: 16 blocks of hermitian._BLOCK2
    points) and 3, with ``phi`` halfway to the manufactured J solution."""
    if n == 3:
        geom = TorusGeometry(3, 8)
        chi = form_field(geom, np.diag([1.0, 1.5, 2.0]).astype(complex),
                         field_from_modes(geom, [((1, 0, 0, 0, 0, 0), 0.01)]))
        omega0 = form_field(geom, np.eye(3),
                            field_from_modes(geom, [((0, 0, 0, 1, 0, 0), 0.01)]))
        phi = field_from_modes(geom, [((0, 1, 0, 0, 0, 0), 0.005), ((1, 0, 0, 0, 1, 0), 0.003)])
        return chi, omega0, phi, ScalarField(geom, 0.1 + 0.5 * phi.values)
    geom = TorusGeometry(n, 32 if n == 1 else 16)
    chi, omega0, phistar, f, c = manufactured_j_instance(geom)
    return chi, omega0, 0.5 * phistar, f


def unfused_evaluation(chi, omega0, phi, f, param, kind):
    """The reference of one evaluation from the assembled matrix grid of
    ``omega_phi``: ``relative_spectrum_field``, then the value kernel on the
    whole grid; (lam, c2, kahler, cone, residual, weight)."""
    n = chi.geometry.n
    lam = relative_spectrum_field(chi.values, (omega0 + complex_hessian(phi)).values)
    terms = 1.0 / lam if kind == "J" else np.arctan(1.0 / lam)
    total = hermitian._reduce_last(np.add, terms)
    value = hermitian._j_value if kind == "J" else hermitian._dhym_value
    res, ratio = value(lam, f.values, param, total)
    det_chi = mixed_density([chi.values] * n) / math.factorial(n)
    return (lam, float(np.max(hermitian._reduce_last(np.add, lam))), float(np.min(lam[..., 0])),
            hermitian._cone_margin(terms, param, total), res, det_chi * ratio)


class TestBlockedEvaluation:
    @pytest.mark.parametrize("kind", ["J", "dHYM"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_the_unfused_reference(self, n, kind):
        chi, omega0, phi, f = blocked_evaluation_instance(n)
        param = 4.0 * n if kind == "J" else math.pi / 5
        make = make_j_problem if kind == "J" else make_dhym_problem
        ev = make(chi, omega0, f, param).evaluate(phi)
        lam, c2, kahler, cone, res, weight = unfused_evaluation(chi, omega0, phi, f, param, kind)
        assert kahler > 0.0
        got = (ev.lam, ev.c2, ev.kahler_margin, ev.cone_margin, ev.residual, ev.weight)
        if n == 2:
            assert chi.geometry.grid_size == 16 * hermitian._BLOCK2
            for a, b in zip(got, (lam, c2, kahler, cone, res, weight)):
                assert np.array_equal(a, b)
        else:
            for a, b in zip(got, (lam, c2, kahler, cone, res, weight)):
                assert np.max(np.abs(np.asarray(a) - b)) <= 1e-13 * np.max(np.abs(b))

    @pytest.mark.parametrize("kind", ["J", "dHYM"])
    def test_non_positive_eigenvalue_reports_kahler_margin_only(self, kind):
        # a steep mode along the first grid axis, whose index is the block's
        # at N = 16: the first block is positive, later ones are not
        chi, omega0, phistar, f = blocked_evaluation_instance(2)
        geom = chi.geometry
        phi = field_from_modes(geom, [((3, 0, 0, 0), 0.02, math.pi)]) + phistar
        param = 8.0 if kind == "J" else math.pi / 5
        make = make_j_problem if kind == "J" else make_dhym_problem
        ev = make(chi, omega0, f, param).evaluate(phi)
        lam = relative_spectrum_field(chi.values, (omega0 + complex_hessian(phi)).values)
        assert float(np.min(lam[..., 0])) <= 0.0 < float(np.min(lam[0, ..., 0]))
        assert ev.kahler_margin == float(np.min(lam[..., 0]))
        assert ev.c2 == float(np.max(np.sum(lam, axis=-1)))
        assert np.array_equal(ev.lam, lam)
        assert ev.cone_margin == -math.inf
        assert ev.residual is None and ev.weight is None


def j_newton_rows(n, seed):
    """The J Newton coefficient rows at the white-noise kernel instance."""
    geom, chi, omega0, phi, f = random_kernel_instance(n, seed)
    problem = make_j_problem(chi, omega0, f, 4.0 * n)
    rows, _ = problem.linear_coefficient(problem.evaluate(phi))
    return geom, rows


def white_noise_rhs(geom, seed):
    rhs = np.random.default_rng(seed).standard_normal(geom.shape)
    return rhs - rhs.mean()


class TestLinearSolve:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residual_contract(self, n):
        geom, rows = j_newton_rows(n, 60 + n)
        rhs = white_noise_rhs(geom, 70 + n)
        u, stats = solver._solve_linear(geom, rows, rhs, SolverConfig())
        assert stats.status == "converged"
        assert abs(u.mean()) <= 1e-14 * np.max(np.abs(u))
        out = solver._tr_m_hessian(geom, rows, sfft.rfftn(u))
        # bound fixed before measuring; the stop test is linear_tol = 1e-10
        assert np.linalg.norm(out - out.mean() - rhs) <= 1e-9 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_loose_residual_contract(self, n):
        # at the float32 threshold the operator runs in float32; the float64
        # residual still meets the requested rtol (bound fixed before measuring)
        geom, rows = j_newton_rows(n, 60 + n)
        rhs = white_noise_rhs(geom, 70 + n)
        rtol = solver.FLOAT32_RTOL
        u, stats = solver._solve_linear(geom, rows, rhs, SolverConfig(), rtol)
        assert stats.status == "converged"
        out = solver._tr_m_hessian(geom, rows, sfft.rfftn(u))
        assert np.linalg.norm(out - out.mean() - rhs) <= rtol * np.linalg.norm(rhs)

    @pytest.mark.parametrize("max_iter", [3, 10, 60])
    def test_linear_max_iter_bounds_operator_applications(self, monkeypatch, max_iter):
        geom, rows = j_newton_rows(1, 61)
        calls = []
        tr_m_hessian = solver._tr_m_hessian

        def counted(*args):
            calls.append(1)
            return tr_m_hessian(*args)

        monkeypatch.setattr(solver, "_tr_m_hessian", counted)
        config = SolverConfig(linear_tol=0.0, linear_max_iter=max_iter)
        _, stats = solver._solve_linear(geom, rows, white_noise_rhs(geom, 71), config)
        cycles = math.ceil(max_iter / min(30, max_iter))
        assert stats.status == "budget"
        assert len(calls) <= max_iter + cycles + 1

    @pytest.mark.parametrize("max_iter", [3, 10, 45, 60])
    def test_linear_max_iter_is_an_exact_cap(self, monkeypatch, max_iter):
        geom, rows = j_newton_rows(1, 61)
        calls = []
        tr_m_hessian = solver._tr_m_hessian

        def counted(*args):
            calls.append(1)
            return tr_m_hessian(*args)

        monkeypatch.setattr(solver, "_tr_m_hessian", counted)
        config = SolverConfig(linear_tol=0.0, linear_max_iter=max_iter)
        _, stats = solver._solve_linear(geom, rows, white_noise_rhs(geom, 71), config)
        assert stats.status == "budget" and stats.applications == max_iter
        assert len(calls) == max_iter

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("loose", [True, False])
    def test_stats_report_the_float64_residual(self, n, loose):
        # rtol_reached is |b - A u| / |b| of the returned u, recomputed here
        # from rfftn(u); the two agree to 1e-12 of |b|, as two float64
        # evaluations of A u differ by about 1e-17 |b|
        geom, rows = j_newton_rows(n, 60 + n)
        rhs = white_noise_rhs(geom, 70 + n)
        config = SolverConfig()
        rtol = solver.FLOAT32_RTOL if loose else config.linear_tol
        u, stats = solver._solve_linear(geom, rows, rhs, config, rtol)
        out = solver._tr_m_hessian(geom, rows, sfft.rfftn(u))
        reached = np.linalg.norm(out - out.mean() - rhs) / np.linalg.norm(rhs)
        assert stats.status == "converged"
        assert abs(stats.rtol_reached - reached) <= 1e-12
        assert stats.rtol_reached <= rtol
        assert stats.dtype == (np.float32 if loose else np.float64)
        assert 2 <= stats.applications <= config.linear_max_iter

    @pytest.mark.parametrize("a, rtol, dtype", [
        (0.9, 1e-12, np.float64), (0.99, solver.FLOAT32_RTOL, np.float32)])
    def test_a_restart_converges(self, a, rtol, dtype):
        # rows scaled by 1 + a cos(2 pi x_1) along the first axis: the mean
        # coefficient's preconditioner is poor, so one cycle does not reach rtol
        geom, rows = j_newton_rows(1, 61)
        x = np.arange(geom.N) / geom.N
        scale = (1.0 + a * np.cos(2.0 * np.pi * x)).reshape((-1,) + (1,) * (rows.ndim - 2))
        config = SolverConfig(linear_tol=1e-12)
        _, stats = solver._solve_linear(geom, rows * scale, white_noise_rhs(geom, 71),
                                        config, rtol)
        assert stats.status == "converged" and stats.rtol_reached <= rtol
        assert stats.dtype == dtype and stats.applications > solver.RESTART + 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("rtol", [solver.FLOAT32_RTOL, 1e-10])
    def test_rhs_mean_is_not_solved_for(self, n, rtol):
        # a Newton right-hand side carries the multiplier as its mean, which
        # the mask drops: the solve is the one of the mean-zero right-hand side
        geom, rows = j_newton_rows(n, 60 + n)
        rhs = white_noise_rhs(geom, 70 + n)
        u, stats = solver._solve_linear(geom, rows, rhs, SolverConfig(), rtol)
        shifted, moved = solver._solve_linear(geom, rows, rhs + 3.0, SolverConfig(), rtol)
        assert (moved.status, moved.applications) == (stats.status, stats.applications)
        assert np.linalg.norm(shifted - u) <= rtol * np.linalg.norm(u)

    @pytest.mark.parametrize("n, a, rtol", [
        *((n, 0.0, rtol) for n in (1, 2, 3) for rtol in (solver.FLOAT32_RTOL, 1e-10)),
        (1, 0.9, 1e-12), (1, 0.99, solver.FLOAT32_RTOL)])
    def test_transforms_per_solve(self, monkeypatch, n, a, rtol):
        # an application is n^2 inverse transforms and one forward one; the
        # right-hand side takes one forward transform and u one inverse one,
        # however many cycles run (a > 0: test_a_restart_converges's rows)
        geom, rows = j_newton_rows(n, 60 + n)
        x = np.arange(geom.N) / geom.N
        rows = rows * (1.0 + a * np.cos(2.0 * np.pi * x)).reshape((-1,) + (1,) * (rows.ndim - 2))
        rhs = white_noise_rhs(geom, 70 + n)
        calls = []

        class CountingFFT:
            """``scipy.fft`` with the real transforms counted."""

            def __getattr__(self, name):
                fn = getattr(sfft, name)
                if name not in ("rfftn", "irfftn"):
                    return fn

                def call(*args, **kwargs):
                    calls.append(name)
                    return fn(*args, **kwargs)
                return call

        monkeypatch.setattr(fields, "sfft", CountingFFT())
        _, stats = solver._solve_linear(geom, rows, rhs, SolverConfig(), rtol)
        assert stats.status == "converged"
        assert (stats.applications > solver.RESTART + 1) == (a > 0.0)
        assert len(calls) == stats.applications * (n * n + 1) + 2

    @staticmethod
    def refine(monkeypatch, scales, rest=1.0):
        """Replace ``_gmres`` by one whose k-th call returns ``scales[k]`` times
        the GMRES cycle's ``y`` (``rest`` times it after the list ends); the
        list of its calls."""
        calls = []
        gmres = solver._gmres

        def poor(*args):
            calls.append(1)
            y = gmres(*args)
            return (scales[len(calls) - 1] if len(calls) <= len(scales) else rest) * y

        monkeypatch.setattr(solver, "_gmres", poor)
        return calls

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_missed_check_runs_one_refinement_pass(self, monkeypatch, n):
        calls = self.refine(monkeypatch, [0.5])
        geom, rows = j_newton_rows(n, 60 + n)
        rtol = solver.FLOAT32_RTOL
        _, stats = solver._solve_linear(geom, rows, white_noise_rhs(geom, 70 + n),
                                        SolverConfig(), rtol)
        assert len(calls) == 2
        assert stats.status == "converged" and stats.rtol_reached <= rtol
        assert stats.dtype == np.float32

    @pytest.mark.parametrize("scales, rest, status", [
        ([0.5], 0.0, "unconverged"), ([0.5, 0.5], 1.0, "converged")])
    def test_a_cycle_without_progress_is_unconverged(self, monkeypatch, scales, rest, status):
        # a cycle that does not lower the float64 residual ends the solve;
        # halved cycles lower it, so the solve goes on
        calls = self.refine(monkeypatch, scales, rest)
        geom, rows = j_newton_rows(2, 62)
        rtol = solver.FLOAT32_RTOL
        _, stats = solver._solve_linear(geom, rows, white_noise_rhs(geom, 72),
                                        SolverConfig(), rtol)
        assert len(calls) == len(scales) + 1
        assert stats.status == status
        assert (stats.rtol_reached <= rtol) == (status == "converged")

    def test_an_unconverged_solve_is_a_krylov_failure(self, monkeypatch):
        # N = 8 is the coarsest grid, so the solve is not nested
        calls = self.refine(monkeypatch, [0.5], rest=0.0)
        geom = TorusGeometry(1, 8)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        rep = newton_solve(make_j_problem(chi, omega0, f, c), ScalarField.zeros(geom),
                           SolverConfig())
        assert len(calls) == 2
        assert rep.status == "krylov-failure" and rep.iterations == 0


class TestKrylovPrecision:
    """Loose Krylov solves apply their operator in float32; tight ones in float64."""

    @staticmethod
    def solve(monkeypatch, rtol, **config):
        """``_solve_linear`` at ``rtol`` and the dtypes of each operator
        application's rows and spectrum."""
        geom, rows = j_newton_rows(2, 62)
        dtypes = []
        tr_m_hessian = solver._tr_m_hessian

        def recorded(geom, coef, phat):
            dtypes.append((coef.dtype, phat.dtype))
            return tr_m_hessian(geom, coef, phat)

        monkeypatch.setattr(solver, "_tr_m_hessian", recorded)
        u, stats = solver._solve_linear(geom, rows, white_noise_rhs(geom, 72),
                                        SolverConfig(**config), rtol)
        return u, stats, dtypes

    @pytest.mark.parametrize("rtol, single", [
        (solver.FLOAT32_RTOL, True), (np.nextafter(solver.FLOAT32_RTOL, 0.0), False)])
    def test_precision_follows_rtol(self, monkeypatch, rtol, single):
        u, stats, dtypes = self.solve(monkeypatch, rtol)
        expected = (np.float32, np.complex64) if single else (np.float64, np.complex128)
        # the operator's applications, then the float64 check of u
        *applications, check = dtypes
        assert stats.status == "converged" and applications
        assert all(d == expected for d in applications)
        assert check == (np.float64, np.complex128)
        assert stats.dtype == expected[0] and stats.applications == len(dtypes)
        assert u.dtype == np.float64
        assert abs(u.mean()) <= 1e-14 * np.max(np.abs(u))

    @pytest.mark.parametrize("max_iter", [1, 2, 4])
    def test_linear_max_iter_is_an_exact_cap_in_float32(self, monkeypatch, max_iter):
        # this solve needs 6 applications to reach the threshold, so each cap
        # below that ends a float32 solve
        _, stats, dtypes = self.solve(monkeypatch, solver.FLOAT32_RTOL,
                                      linear_max_iter=max_iter)
        assert stats.status == "budget"
        assert len(dtypes) == max_iter and all(d == np.float32 for d, _ in dtypes)


# the edge of the terminal region, r_k**2 <= ETA_MAX * tolerance, at tolerance 1e-10
TERMINAL_EDGE = math.sqrt(1e-2 * 1e-10)


def terminal(eta, r):
    """``eta`` under the terminal cap of a Newton step from the sup residual
    ``r``, at tolerance 1e-10."""
    if 0.0 < r <= TERMINAL_EDGE:
        return min(eta, max(solver.FLOAT32_RTOL, solver.REACH * 1e-10 / r))
    return eta


class TestForcingTerms:
    """Eisenstat-Walker forcing terms, capped by the terminal term, on criterion
    5's instance at n = 2, N = 16, whose cold solve starts from the N = 8
    solve (the nested start)."""

    @staticmethod
    def solve(monkeypatch, N=16, **overrides):
        """The report, the Krylov tolerances by grid ``N`` and the recovery error."""
        geom = TorusGeometry(2, N)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        tols = {}
        solve_linear = solver._solve_linear

        def recorded(geom, coef, rhs, config, rtol=None):
            tols.setdefault(geom.N, []).append(rtol)
            return solve_linear(geom, coef, rhs, config, rtol)

        monkeypatch.setattr(solver, "_solve_linear", recorded)
        config = SolverConfig(tolerance=1e-10, **overrides)
        rep = newton_solve(make_j_problem(chi, omega0, f, c), ScalarField.zeros(geom), config)
        d = rep.phi.values - phistar.values
        return rep, tols, float(np.max(np.abs(d - d.mean())))

    def test_forcing_rule(self, monkeypatch):
        rep, by_grid, _ = self.solve(monkeypatch)
        tols = by_grid[16]
        r = rep.residual_history
        assert rep.success and len(tols) == rep.iterations
        assert tols[0] == 1e-2
        for k in range(1, len(tols)):
            assert tols[k] == max(1e-10, terminal(min(1e-2, 0.9 * (r[k] / r[k - 1]) ** 2), r[k]))
        assert by_grid[8][0] == 1e-2

    def test_far_from_the_solution_the_term_is_eisenstat_walker(self, monkeypatch):
        # a one-grid solve from zero: a step from a residual a hundred times the
        # terminal region's edge gets exactly the Eisenstat-Walker term, which
        # lies above the float32 floor, so a cap would have lowered it
        monkeypatch.setattr(solver, "COARSEST_N", 10 ** 9)
        rep, by_grid, _ = self.solve(monkeypatch)
        tols, r = by_grid[16], rep.residual_history
        far = [k for k in range(len(tols)) if r[k] >= 100 * TERMINAL_EDGE]
        assert rep.success and len(far) >= 2
        for k in far:
            eta = 1e-2 if k == 0 else min(1e-2, 0.9 * (r[k] / r[k - 1]) ** 2)
            assert tols[k] == eta > solver.FLOAT32_RTOL

    @pytest.mark.parametrize("N, steps", [(16, 2), (32, 1)])
    def test_terminal_step_finishes_in_float32(self, monkeypatch, N, steps):
        # the nested cold solve: the fine grid's one step from inside the
        # terminal region is its last, and it runs in float32; at N = 32 the
        # prolonged start is inside, so that step is the fine grid's only one.
        # The recovery bound was fixed before measuring.
        dtypes = []
        tr_m_hessian = solver._tr_m_hessian

        def recorded(geom, coef, phat):
            if geom.N == N:
                dtypes.append(coef.dtype)
            return tr_m_hessian(geom, coef, phat)

        monkeypatch.setattr(solver, "_tr_m_hessian", recorded)
        rep, by_grid, recovery = self.solve(monkeypatch, N=N)
        r = rep.residual_history
        inside = [k for k in range(rep.iterations) if r[k] <= TERMINAL_EDGE]
        assert rep.success and rep.iterations == steps and inside == [steps - 1]
        # each Krylov solve on this grid: float32 applications, then the
        # float64 check of its u
        assert set(dtypes) == {np.dtype(np.float32), np.dtype(np.float64)}
        solves = "".join("d" if d == np.float64 else "s" for d in dtypes).split("d")
        assert by_grid[N][-1] >= solver.FLOAT32_RTOL
        assert solves[-1] == "" and len(solves) == len(by_grid[N]) + 1 and all(solves[:-1])
        assert recovery <= 1e-10

    def test_linear_tol_is_the_floor(self, monkeypatch):
        _, by_grid, _ = self.solve(monkeypatch, linear_tol=1e-2)
        tols = [t for grid in by_grid.values() for t in grid]
        assert tols and all(t == 1e-2 for t in tols)

    def test_newton_count_matches_exact_solves(self, monkeypatch):
        rep, _, recovery = self.solve(monkeypatch)
        monkeypatch.setattr(solver, "ETA_MAX", 1e-10)
        rep_exact, by_grid, recovery_exact = self.solve(monkeypatch)
        assert all(t == 1e-10 for grid in by_grid.values() for t in grid)
        assert rep.success and rep_exact.success
        assert rep.iterations == rep_exact.iterations
        assert recovery <= 1e-7 and recovery_exact <= 1e-7


class TestFailureBounds:
    def test_krylov_failure_ends_newton_without_step(self, monkeypatch):
        geom = TorusGeometry(1, 32)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        monkeypatch.setattr(solver, "_gmres", lambda apply, b, *args: np.ones_like(b))
        rep = newton_solve(make_j_problem(chi, omega0, f, c), ScalarField.zeros(geom),
                           SolverConfig())
        assert rep.status == "krylov-failure" and not rep.success
        assert rep.iterations == 0 and len(rep.residual_history) == 1
        assert np.all(rep.phi.values == 0.0)

    @staticmethod
    def stub_solver(monkeypatch, accept, corrector_steps=0):
        """Replace the Newton solve by ``accept(t, t_prev)``, ``t_prev`` the last
        accepted ``t``; phi carries t.  A solve from a predicted start (one
        with ``min_steps``) reports ``corrector_steps`` iterations, a warm one
        1 (phi moves, so a warm solve takes a step)."""
        calls = []
        accepted = [0.0]

        def stub(t, phi, config, min_steps=0):
            calls.append(t)
            status = "converged" if accept(t, accepted[-1]) else "no-convergence"
            if status == "converged":
                accepted.append(t)
            return SolveReport(ScalarField.constant(phi.geometry, t), [0.0], 1.0, 0.0, 0.0,
                               0.0, status, corrector_steps if min_steps else 1)

        monkeypatch.setattr(solver, "newton_solve", stub)
        return calls

    def test_bisection_bounded_per_target(self, monkeypatch):
        calls = self.stub_solver(monkeypatch, lambda t, t_prev: t < 0.5)
        with pytest.raises(ContinuationError) as exc:
            solver._march(lambda t: t, ScalarField.zeros(TorusGeometry(1, 8)),
                          SolverConfig(), 0.0, np.linspace(0.0, 1.0, 9)[1:], "stub", [])
        assert exc.value.t == 0.5 and exc.value.cause == "no-convergence"
        # one attempt at the target, then 8 halvings of one failure and one midpoint
        assert len([t for t in calls if t > 0.375]) <= 17

    def test_stage_solve_budget(self, monkeypatch):
        # every step longer than a quarter of the target spacing fails, so each
        # target costs 7 solves and the stage runs out of its 32
        calls = self.stub_solver(monkeypatch, lambda t, t_prev: t - t_prev <= 1.0 / 32)
        history = []
        with pytest.raises(ContinuationError) as exc:
            solver._march(lambda t: t, ScalarField.zeros(TorusGeometry(1, 8)),
                          SolverConfig(), 0.0, np.linspace(0.0, 1.0, 9)[1:], "stub", history)
        assert exc.value.cause == "solve-budget"
        assert len(calls) == 2 * (8 + solver.PATH_HALVINGS)
        assert [h["t"] for h in history if h["t"] in (0.125, 0.25, 0.375, 0.5)] \
            == [0.125, 0.25, 0.375, 0.5]

    def test_failure_report_carries_cause_and_history(self, monkeypatch):
        # the last solve before the budget runs out converged; the report
        # handed out with the failure must not read as converged
        self.stub_solver(monkeypatch, lambda t, t_prev: t - t_prev <= 1.0 / 32)
        history = []
        with pytest.raises(ContinuationError) as exc:
            solver._march(lambda t: t, ScalarField.zeros(TorusGeometry(1, 8)),
                          SolverConfig(), 0.0, np.linspace(0.0, 1.0, 9)[1:], "stub", history)
        assert exc.value.report.status == "solve-budget"
        assert exc.value.report.path_history is history and len(history) == 18

    def test_refused_prediction_retries_within_its_solve(self, monkeypatch):
        # the cone refuses every predicted start: each warm retry belongs to the
        # refused solve, so the stage of test_stage_solve_budget still gets its
        # 32 solves and accepts the same 18 targets, all from warm starts
        calls = self.stub_solver(monkeypatch, lambda t, t_prev: t - t_prev <= 1.0 / 32)
        stub, refused = solver.newton_solve, []

        def refusing(t, phi, config, min_steps=0):
            if min_steps:
                refused.append(t)
                raise ConeBreachError("predicted start outside the cone")
            return stub(t, phi, config)

        monkeypatch.setattr(solver, "newton_solve", refusing)
        history = []
        with pytest.raises(ContinuationError) as exc:
            solver._march(lambda t: t, ScalarField.zeros(TorusGeometry(1, 8)),
                          SolverConfig(), 0.0, np.linspace(0.0, 1.0, 9)[1:], "stub", history)
        assert exc.value.cause == "solve-budget"
        assert len(calls) == 2 * (8 + solver.PATH_HALVINGS)
        # the three solves up to the first accepted t have no secant to predict from
        assert len(refused) == len(calls) - 3
        assert len(history) == 18 and {h["start"] for h in history} == {"warm"}

    @pytest.mark.parametrize("steps, accepted", [(1, [1, 2, 4, 8]), (2, range(1, 9))])
    def test_one_step_corrections_double_the_stride(self, monkeypatch, steps, accepted):
        # the first target has no secant (warm); each later one is predicted, and
        # a one-step correction doubles the stride (1, 2, 4, clipped to the end)
        # while a second step keeps it at one target
        calls = self.stub_solver(monkeypatch, lambda t, t_prev: True, corrector_steps=steps)
        history = []
        solver._march(lambda t: t, ScalarField.zeros(TorusGeometry(1, 8)),
                      SolverConfig(), 0.0, np.linspace(0.0, 1.0, 9)[1:], "stub", history)
        assert [h["t"] for h in history] == calls == [k / 8 for k in accepted]
        assert [h["start"] for h in history] == ["warm"] + ["predicted"] * (len(calls) - 1)

    def test_refused_doubled_step_bisects_to_the_skipped_target(self, monkeypatch):
        # steps longer than the target spacing fail: each doubled step falls
        # back to the grid target it skipped, and the stride returns to 1
        calls = self.stub_solver(monkeypatch, lambda t, t_prev: t - t_prev <= 1 / 8,
                                 corrector_steps=1)
        history = []
        solver._march(lambda t: t, ScalarField.zeros(TorusGeometry(1, 8)),
                      SolverConfig(), 0.0, np.linspace(0.0, 1.0, 9)[1:], "stub", history)
        assert calls == [1 / 8, 2 / 8, 4 / 8, 3 / 8, 4 / 8, 5 / 8, 7 / 8, 6 / 8, 7 / 8, 1.0]
        assert [h["t"] for h in history] == [k / 8 for k in range(1, 9)]


class TestStepHalvingExhaustion:
    @staticmethod
    def refusing_problem():
        """A J problem whose cone accepts the first potential it evaluates and
        refuses every later one; returns the problem and its evaluations."""
        geom = TorusGeometry(1, 8)
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        problem = make_j_problem(chi, omega0, f, c)
        evaluate, seen = problem.evaluate, []

        def refusing(phi):
            seen.append(phi)
            ev = evaluate(phi)
            return ev if len(seen) == 1 else dataclasses.replace(ev, cone_margin=-math.inf)

        problem.evaluate = refusing
        return problem, seen

    def test_exhausted_halvings_raise_a_cone_breach_report(self):
        problem, seen = self.refusing_problem()
        start = ScalarField.zeros(problem.geometry)
        with pytest.raises(ConeBreachError) as exc:
            newton_solve(problem, start, SolverConfig())
        report = exc.value.report
        assert report.status == "cone-breach" and not report.success
        assert report.iterations == 0 and report.phi is start
        assert len(seen) == 1 + 30  # the start, then one candidate per halving

    def test_cone_breach_report_keeps_the_accepted_c2(self):
        # the iterate's grid arrays are released before the Krylov solve, so
        # the report's c2 comes from the float kept at its evaluation
        problem, seen = self.refusing_problem()
        geom = problem.geometry
        chi, omega0, phistar, f, c = manufactured_j_instance(geom)
        start = ScalarField(geom, 0.5 * phistar.values)
        with pytest.raises(ConeBreachError) as exc:
            newton_solve(problem, start, SolverConfig())
        lam = relative_spectrum_field(chi.values, (omega0 + complex_hessian(start)).values)
        assert exc.value.report.c2_diagnostic == float(np.max(np.sum(lam, axis=-1)))

    def test_corrector_reraises_without_a_warm_retry(self, monkeypatch):
        # the cone accepts the predicted start, so the breach comes from the
        # step halving and carries a report: no retry from the warm start
        problem, seen = self.refusing_problem()
        geom = problem.geometry
        newton, calls = solver.newton_solve, []

        def counting(problem, phi0, config, **kwargs):
            calls.append(kwargs)
            return newton(problem, phi0, config, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", counting)
        predicted = ScalarField.constant(geom, 1e-3)
        with pytest.raises(ConeBreachError) as exc:
            solver._corrected(problem, ScalarField.zeros(geom), predicted, SolverConfig())
        assert exc.value.report.status == "cone-breach"
        assert calls == [{"min_steps": 1}]
        assert seen[0] is predicted


def _validator_cases():
    """(entry point, argument) pairs that break one theorem hypothesis each."""
    from jdhym.hermitian import ConeSpec, SpectrumRel, f_gradient, f_hessian, f_value
    geom = TorusGeometry(2, 8)
    chi = constant_form(geom, np.eye(2))
    omega0 = constant_form(geom, 3.0 * np.eye(2))
    zero = ScalarField.zeros(geom)
    spec = SpectrumRel((3.0, 3.0))
    cfg = SolverConfig()
    f_dhym = -1.0 / (100.0 * 2)  # the dHYM bound at n = 2
    dhym = {
        "ConeSpec.dhym": lambda t, f: ConeSpec.dhym(t),
        "f_value": lambda t, f: f_value(f, spec, t),
        "f_gradient": lambda t, f: f_gradient(f, spec, t),
        "f_hessian": lambda t, f: f_hessian(f, spec, t),
        "dhym_residual": lambda t, f: dhym_residual(chi, omega0, zero,
                                                    ScalarField.constant(geom, f), t),
        "make_dhym_problem": lambda t, f: make_dhym_problem(chi, omega0,
                                                            ScalarField.constant(geom, f), t),
        "continuity_path_dhym": lambda t, f: continuity_path_dhym(
            chi, omega0, ScalarField.constant(geom, f), t, cfg),
    }
    cases = []
    for name, call in dhym.items():
        for theta0 in (0.0, math.pi / 4):
            cases.append(pytest.param(call, theta0, 0.0, id=f"{name}-theta0={theta0:.3f}"))
        if name != "ConeSpec.dhym":
            cases.append(pytest.param(call, 0.5, f_dhym, id=f"{name}-f-at-bound"))
    j = {
        "j_residual": lambda c, f: j_residual(chi, omega0, zero, ScalarField.constant(geom, f), c),
        "make_j_problem": lambda c, f: make_j_problem(chi, omega0,
                                                      ScalarField.constant(geom, f), c),
        "continuity_path_j": lambda c, f: continuity_path_j(
            chi, omega0, ScalarField.constant(geom, f), c, cfg),
    }
    for name, call in j.items():
        for c in (0.0, -1.0):
            cases.append(pytest.param(call, c, 0.0, id=f"{name}-c={c}"))
        # the J bound -(1/2n)(1/c)^(n-1) at n = 2, c = 4
        cases.append(pytest.param(call, 4.0, -(1.0 / 4.0) * (1.0 / 4.0), id=f"{name}-f-at-bound"))
    return cases


class TestValidatorContract:
    """Every entry point rejects a broken hypothesis with DomainError itself."""

    @pytest.mark.parametrize("call, param, f", _validator_cases())
    def test_raises_domain_error(self, call, param, f):
        with pytest.raises(DomainError) as exc:
            call(param, f)
        assert type(exc.value) is DomainError


class TestNonFiniteF:
    """A non-finite ``f`` is corrupt data, refused before any work."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", ["make_j_problem", "make_dhym_problem", "f_value"])
    def test_raises_data_error(self, entry, value):
        from jdhym.hermitian import SpectrumRel, f_value
        geom = TorusGeometry(2, 8)
        chi = constant_form(geom, np.eye(2))
        omega0 = constant_form(geom, 3.0 * np.eye(2))
        vals = np.full(geom.shape, 0.1)
        vals[1, 2, 3, 4] = value
        f = ScalarField(geom, vals)
        calls = {
            "make_j_problem": lambda: make_j_problem(chi, omega0, f, 4.0),
            "make_dhym_problem": lambda: make_dhym_problem(chi, omega0, f, 0.5),
            "f_value": lambda: f_value(value, SpectrumRel((3.0, 3.0)), 0.5),
        }
        with pytest.raises(DataError, match="f contains non-finite values"):
            calls[entry]()


class TestZeroVectorOperator:
    def test_no_operator_application_to_zero(self, monkeypatch):
        geom = TorusGeometry(2, 8)
        chi, omega0, _, f, c = manufactured_j_instance(geom)
        inputs = []
        tr_m_hessian = solver._tr_m_hessian

        def recorded(geom, coef, phat):
            inputs.append(bool(np.any(phat)))
            return tr_m_hessian(geom, coef, phat)

        monkeypatch.setattr(solver, "_tr_m_hessian", recorded)
        rep = newton_solve(make_j_problem(chi, omega0, f, c), ScalarField.zeros(geom),
                           SolverConfig())
        assert rep.success and rep.iterations > 0
        assert inputs and all(inputs)
