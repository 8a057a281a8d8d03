"""Nested (coarse-to-fine) continuity paths and a grid-convergence study."""

import math

import numpy as np
import pytest

from jdhym import solver
from jdhym.errors import (ConeBreachError, ContinuationError, DomainError,
                          PreconditionError)
from jdhym.fields import (ScalarField, TorusGeometry, constant_form,
                          field_from_modes, form_field, mixed_density, resample)
from jdhym.functionals import compute_c0
from jdhym.solver import SolverConfig, continuity_path_dhym, continuity_path_j

THETA0 = math.pi / 5


def poisson_bump_instance(N, rho=0.8, height=0.01, n=1):
    """A dHYM instance whose ``f`` no grid resolves.

    ``f`` is a constant plus ``height`` times the product of the periodic
    Poisson kernels ``P(u) = (1 - rho^2) / (1 - 2 rho cos(2 pi u) + rho^2)``
    in all ``2n`` coordinates: a smoothed bump whose Fourier coefficients
    ``rho^(|k| + |l|)`` never vanish.  The bump's grid mean is taken out, so
    the integrability identity holds on every grid.
    """
    geom = TorusGeometry(n, N)

    def poisson(u):
        return (1.0 - rho * rho) / (1.0 - 2.0 * rho * np.cos(2.0 * math.pi * u) + rho * rho)

    bump = 1.0
    for u in geom.coordinates():
        bump = bump * poisson(u)
    bump = np.broadcast_to(bump, geom.shape)
    # n = 1: det(omega0 + i chi) = s + i, so the class constant is tan(theta0) s - 1;
    # n = 2: s = cot(theta0 / 2) puts the constant at tan(theta0) (s^2 - 1) - 2 s = 0
    s, const = (1.8, math.tan(THETA0) * 1.8 - 1.0) if n == 1 else (1.0 / math.tan(THETA0 / 2), 0.0)
    chi = constant_form(geom, np.eye(n))
    omega0 = constant_form(geom, s * np.eye(n))
    f = ScalarField(geom, const + height * (bump - bump.mean()))
    return chi, omega0, f


def potential_gap(a, b):
    d = a.values - b.values
    return float(np.max(np.abs(d - d.mean())))


def single_level(path, *args):
    """``path(*args)`` with nesting switched off: the one-grid march."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "COARSEST_N", 10 ** 9)
        return path(*args)


def j_instance(N):
    geom = TorusGeometry(2, N)
    chi = form_field(geom, np.diag([1.0, 2.0]), field_from_modes(geom, [((1, 0, 0, 0), 0.04)]))
    omega0 = constant_form(geom, np.eye(2))
    f = field_from_modes(geom, [((0, 0, 1, 0), 0.02)])
    return chi, omega0, f, compute_c0(chi, omega0)


def dhym_instance(N):
    geom = TorusGeometry(2, N)
    s = 1.0 / math.tan(THETA0 / 2)
    chi = constant_form(geom, np.eye(2))
    omega0 = form_field(geom, s * np.eye(2),
                        field_from_modes(geom, [((1, 0, 0, 0), 0.05), ((0, 0, 0, 1), 0.03)]))
    return chi, omega0, ScalarField.zeros(geom)


class TestGridConvergence:
    def test_error_decays_geometrically(self):
        cfg = SolverConfig(path_steps=4, tolerance=1e-11)
        ref = continuity_path_dhym(*poisson_bump_instance(256), THETA0, cfg)
        assert ref.success
        errors = []
        for N in (32, 64, 128):
            rep = continuity_path_dhym(*poisson_bump_instance(N), THETA0, cfg)
            assert rep.success
            errors.append(potential_gap(rep.phi, resample(ref.phi, rep.phi.geometry)))
        e32, e64, e128 = errors
        assert e32 > e64 > e128
        # geometric in N: the error's rate per grid point does not flatten,
        # as it would (to half per doubling) under algebraic decay
        assert e128 / e64 <= (e64 / e32) ** 1.5
        assert e128 <= 1e-8

    def test_error_decays_geometrically_at_n2(self):
        # rho = 0.5: the coefficients beyond N/2 shrink about 16-fold per
        # doubling of N; the bounds were fixed before the first run.  On the
        # N = 8 grid f's Nyquist content breaks the discrete integrability
        # identity, and the residual stalls at its multiplier, 1.1e-8.
        cfg = SolverConfig(path_steps=4, tolerance=1e-7)
        ref = continuity_path_dhym(*poisson_bump_instance(32, rho=0.5, height=0.004, n=2),
                                   THETA0, cfg)
        assert ref.success
        errors = []
        for N in (8, 16):
            rep = continuity_path_dhym(*poisson_bump_instance(N, rho=0.5, height=0.004, n=2),
                                       THETA0, cfg)
            assert rep.success
            errors.append(potential_gap(rep.phi, resample(ref.phi, rep.phi.geometry)))
        e8, e16 = errors
        assert e8 > e16
        assert e16 <= e8 / 8

    @pytest.mark.xfail(raises=ContinuationError, strict=True,
                       reason="f's Nyquist content at N = 8, n = 2 leaves no discrete "
                              "solution below a residual of about 1e-8")
    def test_n2_nyquist_data_reach_tight_tolerance(self):
        data = poisson_bump_instance(8, rho=0.5, height=0.004, n=2)
        rep = continuity_path_dhym(*data, THETA0, SolverConfig(path_steps=4, tolerance=1e-11))
        assert rep.success

    @pytest.mark.xfail(raises=ContinuationError, strict=True,
                       reason="with f's Nyquist content at N = 8, n = 2 the J path stalls "
                              "above the default tolerance")
    def test_n2_nyquist_j_data_reach_default_tolerance(self):
        f = poisson_bump_instance(8, rho=0.5, height=0.004, n=2)[2]
        chi = constant_form(f.geometry, np.diag([1.0, 2.0]))
        omega0 = constant_form(f.geometry, np.eye(2))
        rep = continuity_path_j(chi, omega0, f, compute_c0(chi, omega0),
                                SolverConfig(path_steps=4))
        assert rep.success

    def test_nested_path_agrees_with_single_level(self):
        cfg = SolverConfig(path_steps=4, tolerance=1e-11)
        data = poisson_bump_instance(128)
        nested = continuity_path_dhym(*data, THETA0, cfg)
        single = single_level(continuity_path_dhym, *data, THETA0, cfg)
        assert nested.success and single.success
        assert potential_gap(nested.phi, single.phi) <= 1e-7
        # the coarse levels ran the path, the fine grid only one Newton solve
        grids = [h["N"] for h in nested.path_history]
        assert grids == sorted(grids) and grids[0] == 8
        fine = [h for h in nested.path_history if h["N"] == 128]
        assert len(fine) == 1 and fine[0]["stage"] == "dhym-stage3" and fine[0]["t"] == 1.0
        assert all(h["N"] == 128 for h in single.path_history)


class TestRestriction:
    """Mode 5 of ``chi``'s potential and of ``f`` lies beyond the N = 8 grid.
    The two correlate in ``mean(f det chi)``, so truncation alone breaks an
    integrability identity that holds on the N = 16 grid."""

    @staticmethod
    def data():
        geom = TorusGeometry(2, 16)
        chi = form_field(geom, np.diag([1.0, 2.0]),
                         field_from_modes(geom, [((5, 0, 0, 0), 0.002)]))
        f = field_from_modes(geom, [((0, 0, 1, 0), 0.02), ((5, 0, 0, 0), 0.02)])
        return chi, constant_form(geom, 3.0 * np.eye(2)), f, TorusGeometry(2, 8)

    def test_restricted_j_data_keep_the_integrability_identity(self):
        chi, omega0, f, coarse = self.data()
        c = compute_c0(chi, omega0) + 1.0

        def defect(chi, omega, f):
            """``int(f chi^n)/n!`` minus what the class data require, and the scale."""
            vol = float(np.mean(mixed_density([omega.values] * 2))) / 2.0
            cross = float(np.mean(mixed_density([chi.values, omega.values])))
            f_int = float(np.mean(f.values * np.linalg.det(chi.values).real))
            return f_int - (c * vol - cross), max(1.0, abs(c) * vol)

        d, _ = defect(chi, omega0, f)
        f = f - d / float(np.mean(np.linalg.det(chi.values).real))
        assert abs(defect(chi, omega0, f)[0]) <= 1e-12
        chi_c, omega_c, f_c = solver._restrict(
            coarse, chi, omega0, f, lambda ch, om: solver._j_class_f(ch, om, c))
        assert chi_c.geometry == omega_c.geometry == f_c.geometry == coarse
        d, scale = defect(chi_c, omega_c, f_c)
        assert abs(d) <= 1e-8 * scale
        d, scale = defect(chi_c, omega_c, resample(f, coarse))
        assert abs(d) > 1e-4 * scale

    def test_restricted_dhym_data_keep_the_integrability_identity(self):
        chi, omega0, f, coarse = self.data()

        def defect(chi, omega, f):
            """``int(f chi^n) / int(chi^n)`` minus the class constant, and the scale."""
            det = np.linalg.det(omega.values + 1j * chi.values)
            vol = float(np.mean(np.linalg.det(chi.values).real))
            rhs = float(np.mean(math.tan(THETA0) * det.real - det.imag)) / vol
            f_int = float(np.mean(f.values * np.linalg.det(chi.values).real)) / vol
            return f_int - rhs, max(1.0, abs(rhs))

        f = f - defect(chi, omega0, f)[0]
        assert abs(defect(chi, omega0, f)[0]) <= 1e-12
        chi_c, omega_c, f_c = solver._restrict(
            coarse, chi, omega0, f, lambda ch, om: solver._dhym_class_f(ch, om, THETA0))
        d, scale = defect(chi_c, omega_c, f_c)
        assert abs(d) <= 1e-8 * scale
        d, scale = defect(chi_c, omega_c, resample(f, coarse))
        assert abs(d) > 1e-4 * scale


CFG = SolverConfig(path_steps=2, tolerance=1e-11)


@pytest.fixture(scope="module")
def j_case():
    args = (*j_instance(16), CFG)
    return args, single_level(continuity_path_j, *args)


@pytest.fixture(scope="module")
def dhym_case():
    args = (*dhym_instance(16), THETA0, CFG)
    return args, single_level(continuity_path_dhym, *args)


class TestNestedPath:
    @pytest.mark.parametrize("path, case", [(continuity_path_j, "j_case"),
                                            (continuity_path_dhym, "dhym_case")],
                             ids=["j", "dhym"])
    def test_nested_endpoint_matches_single_level(self, request, path, case):
        args, single = request.getfixturevalue(case)
        nested = path(*args)
        assert nested.success and single.success
        assert potential_gap(nested.phi, single.phi) <= 1e-9
        grids = [h["N"] for h in nested.path_history]
        assert grids == [8] * (len(grids) - 1) + [16]
        assert all(set(h) >= {"stage", "t", "N", "iterations"} for h in nested.path_history)

    def test_coarse_domain_error_falls_back_bit_for_bit(self, monkeypatch, j_case):
        args, single = j_case

        def fail(*args):
            raise DomainError("forced")

        monkeypatch.setattr(solver, "_restrict", fail)
        rep = continuity_path_j(*args)
        assert np.array_equal(rep.phi.values, single.phi.values)
        assert rep.path_history == single.path_history
        assert rep.residual_history == single.residual_history

    def test_coarse_continuation_error_falls_back_bit_for_bit(self, monkeypatch, dhym_case):
        args, single = dhym_case
        march = solver._march

        def failing_on_coarse_stage2(make_problem, phi, config, t_start, targets, stage,
                                     history):
            phi, report = march(make_problem, phi, config, t_start, targets, stage, history)
            if phi.geometry.N == 8 and stage == "dhym-stage2":
                report.path_history, report.status = history, "forced"
                raise ContinuationError("forced", stage=stage, t=1.0, cause="forced",
                                        report=report)
            return phi, report

        monkeypatch.setattr(solver, "_march", failing_on_coarse_stage2)
        rep = continuity_path_dhym(*args)
        assert np.array_equal(rep.phi.values, single.phi.values)
        coarse = [h for h in rep.path_history if h["N"] == 8]
        fine = [h for h in rep.path_history if h["N"] == 16]
        assert rep.path_history == coarse + fine
        assert {h["stage"] for h in coarse} == {"dhym-stage1", "dhym-stage2"}
        assert fine == single.path_history

    @pytest.mark.parametrize("failure", ["no-convergence", "cone-breach"])
    def test_fine_solve_failure_falls_back(self, monkeypatch, j_case, failure):
        args, single = j_case
        f = args[2]
        # only the problem built from the target f itself is the fine solve's:
        # the march builds its stage-2 right-hand sides afresh
        fine_problems = []
        make_problem, newton = solver.make_j_problem, solver.newton_solve

        def recording(chi_, omega0_, f_, c_):
            problem = make_problem(chi_, omega0_, f_, c_)
            if f_ is f:
                fine_problems.append(problem)
            return problem

        def failing_on_fine_target(problem, phi0, config, **kwargs):
            report = newton(problem, phi0, config, **kwargs)
            if any(problem is p for p in fine_problems):
                if failure == "cone-breach":
                    raise ConeBreachError("forced", report=report)
                report.status = failure
            return report

        monkeypatch.setattr(solver, "make_j_problem", recording)
        monkeypatch.setattr(solver, "newton_solve", failing_on_fine_target)
        rep = continuity_path_j(*args)
        assert len(fine_problems) == 1
        assert np.array_equal(rep.phi.values, single.phi.values)
        coarse = [h for h in rep.path_history if h["N"] == 8]
        assert coarse and rep.path_history == coarse + single.path_history

    @pytest.mark.parametrize("kind", ["j-sign", "j-identity", "dhym-gamma", "dhym-f"])
    def test_fine_hypotheses_checked_before_coarse_work(self, monkeypatch, kind):
        touched = []
        monkeypatch.setattr(solver, "_restrict", lambda *a: touched.append(1))
        monkeypatch.setattr(solver, "resample", lambda *a: touched.append(1))
        geom = TorusGeometry(2, 16)
        chi = constant_form(geom, np.diag([1.0, 2.0]))
        omega0 = constant_form(geom, np.eye(2))
        if kind == "j-sign":
            call, error = lambda: continuity_path_j(chi, omega0, ScalarField.zeros(geom), 2.5,
                                                    SolverConfig()), PreconditionError
        elif kind == "j-identity":
            call, error = lambda: continuity_path_j(chi, omega0,
                                                    ScalarField.constant(geom, 0.25), 3.0,
                                                    SolverConfig()), PreconditionError
        elif kind == "dhym-gamma":
            call, error = lambda: continuity_path_dhym(
                constant_form(geom, np.eye(2)), constant_form(geom, 1.2 * np.eye(2)),
                ScalarField.zeros(geom), 0.3, SolverConfig()), PreconditionError
        else:
            call, error = lambda: continuity_path_dhym(
                constant_form(geom, np.eye(2)), constant_form(geom, 4.0 * np.eye(2)),
                ScalarField.constant(geom, -0.5), THETA0, SolverConfig()), DomainError
        with pytest.raises(error):
            call()
        assert not touched

    @pytest.mark.parametrize("kind", ["j", "dhym"])
    def test_target_is_the_last_stage_at_its_end(self, kind):
        if kind == "j":
            path, (chi, omega0, f, param) = solver._j_path, j_instance(16)
        else:
            path, (chi, omega0, f), param = solver._dhym_path, dhym_instance(16), THETA0
        class_f = path(chi, omega0, f, param)[1]
        for data in ((chi, omega0, f),
                     solver._restrict(TorusGeometry(2, 8), chi, omega0, f, class_f)):
            stages, _, target = path(*data, param)
            _, _, t_end, problem = stages[-1]
            phi = field_from_modes(data[0].geometry, [((0, 1, 0, 0), 0.01)])
            got, want = target(), problem(t_end)
            assert np.array_equal(got.gauge_weight, want.gauge_weight)
            a, b = got.evaluate(phi), want.evaluate(phi)
            assert np.array_equal(a.residual, b.residual)
            assert np.array_equal(a.weight, b.weight)

    @pytest.mark.parametrize("kind", ["j", "dhym"])
    def test_path_problems_carry_no_coarse_builder(self, kind):
        # each solve of a path stays on its grid: the path nests the grids itself
        if kind == "j":
            path, data = solver._j_path, j_instance(16)
        else:
            path, data = solver._dhym_path, (*dhym_instance(16), THETA0)
        stages, _, target = path(*data)
        problems = [problem(t) for _, t_start, t_end, problem in stages
                    for t in (t_start, t_end)] + [target()]
        assert all(p.coarse is None for p in problems)
        assert solver.make_j_problem(*j_instance(16)).coarse is not None

    def test_target_built_only_where_the_fine_solve_runs(self, monkeypatch):
        built = []
        path = solver._j_path

        def recording(chi, omega0, f, c):
            stages, class_f, target = path(chi, omega0, f, c)
            return stages, class_f, lambda: built.append(chi.geometry.N) or target()

        monkeypatch.setattr(solver, "_j_path", recording)
        assert continuity_path_j(*j_instance(16), SolverConfig(path_steps=2)).success
        assert built == [16]

    def test_every_entry_carries_its_grid(self):
        chi, omega0, f, c = j_instance(32)
        rep = continuity_path_j(chi, omega0, f, c, SolverConfig(path_steps=2))
        assert rep.success
        grids = [h["N"] for h in rep.path_history]
        assert grids == sorted(grids) and grids[-2:] == [16, 32] and set(grids) == {8, 16, 32}


class TestLastStage:
    """A constant target ``f`` makes the last stage one target at its end;
    any other ``f`` marches it over the ``path_steps`` grid."""

    @staticmethod
    def marched(monkeypatch, path, *args):
        """``path(*args)`` and the number of targets each stage was given."""
        march, targets = solver._march, {}

        def recording(make_problem, phi, config, t_start, stage_targets, stage, history):
            targets[stage] = len(stage_targets)
            return march(make_problem, phi, config, t_start, stage_targets, stage, history)

        monkeypatch.setattr(solver, "_march", recording)
        return path(*args), targets

    @pytest.mark.parametrize("kind", ["j", "dhym"])
    def test_constant_f_is_one_target(self, monkeypatch, kind):
        if kind == "j":
            chi, omega0, _, c = j_instance(8)
            path, stage, args = continuity_path_j, "j-stage2", (
                chi, omega0, ScalarField.zeros(chi.geometry), c)
        else:
            path, stage, args = continuity_path_dhym, "dhym-stage3", (*dhym_instance(8), THETA0)
        rep, targets = self.marched(monkeypatch, path, *args, SolverConfig(path_steps=6))
        assert rep.success and rep.final_residual <= 1e-13
        last = [h for h in rep.path_history if h["stage"] == stage]
        assert [h["t"] for h in last] == [1.0] and targets[stage] == 1
        assert all(n == 6 for s, n in targets.items() if s != stage)

    @pytest.mark.parametrize("kind", ["j", "dhym"])
    def test_varying_f_marches_the_target_grid(self, monkeypatch, kind):
        if kind == "j":
            path, stage, args = continuity_path_j, "j-stage2", j_instance(8)
        else:
            path, stage, args = (continuity_path_dhym, "dhym-stage3",
                                 (*poisson_bump_instance(8), THETA0))
        rep, targets = self.marched(monkeypatch, path, *args,
                                    SolverConfig(path_steps=4, tolerance=1e-11))
        assert rep.success and targets[stage] == 4
        # its first step is one grid spacing; step doubling may skip later targets
        last = [h["t"] for h in rep.path_history if h["stage"] == stage]
        assert last[0] == 0.25 and last[-1] == 1.0 and set(last) <= {0.25, 0.5, 0.75, 1.0}


class TestStillStages:
    """A stage whose iterate does not move doubles its stride after each
    0-step warm solve: constant ``chi`` and ``omega0`` keep dHYM stages 1-2
    at ``phi = 0``."""

    def test_zero_step_warm_solves_grow_the_stride(self):
        data = poisson_bump_instance(8)
        cfg = SolverConfig(path_steps=8, tolerance=1e-11)
        rep = continuity_path_dhym(*data, THETA0, cfg)
        assert rep.success
        # strides 1, 2, 4, then the last target: 4 of each stage's 8 targets
        for stage in ("dhym-stage1", "dhym-stage2"):
            entries = [h for h in rep.path_history if h["stage"] == stage]
            assert len(entries) == 4
            assert all(h["start"] == "warm" and h["iterations"] == 0 for h in entries)
        # stages 1-2 leave phi = 0, so stage 3 marched alone from zero gives
        # the path's stage-3 entries and its endpoint
        stages, _, _ = solver._dhym_path(*data, THETA0)
        name, t_start, t_end, problem = stages[-1]
        history = []
        phi, _ = solver._march(problem, ScalarField.zeros(data[0].geometry), cfg, t_start,
                               np.linspace(t_start, t_end, 9)[1:], name, history)
        assert [h for h in rep.path_history if h["stage"] == name] == history
        assert np.array_equal(rep.phi.values, phi.values)
