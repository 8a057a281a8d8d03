import json
import math
from pathlib import Path

import numpy as np
import pytest

from jdhym.cli import main
from jdhym.fields import load_scalar_field

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def solve_j_config(**overrides):
    cfg = {
        "geometry": {"n": 2, "N": 8},
        "chi": {"base": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]},
        "omega0": {"base": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        "c": "c0",
        "f": [{"freq": [1, 0, 0, 0], "amp": 0.05}],
        "solver": {"path_steps": 3},
    }
    cfg.update(overrides)
    return cfg


class TestSolveJ:
    def test_happy_path_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", solve_j_config())
        out = tmp_path / "out"
        assert main(["solve-j", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "converged"
        assert (out / "phi.bin").exists()
        assert (out / "residual_history.csv").exists()

    def test_round_trip_residual(self, tmp_path):
        cfg_doc = solve_j_config()
        cfg = write_config(tmp_path, "c.json", cfg_doc)
        out = tmp_path / "out"
        main(["solve-j", "--config", cfg, "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        phi, _ = load_scalar_field(out / "phi.json")
        from jdhym.fields import TorusGeometry, constant_form, field_from_modes
        from jdhym.functionals import compute_c0
        from jdhym.solver import j_residual
        geom = TorusGeometry(2, 8)
        chi = constant_form(geom, np.diag([1.0, 2.0]))
        omega0 = constant_form(geom, np.eye(2))
        f = field_from_modes(geom, [((1, 0, 0, 0), 0.05)])
        c0 = compute_c0(chi, omega0)
        r = j_residual(chi, omega0, phi, f, c0)
        assert abs(r.sup_norm() - report["final_residual"]) <= 1e-12

    def test_deterministic_reports(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", solve_j_config())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["solve-j", "--config", cfg, "--out", str(out1)])
        main(["solve-j", "--config", cfg, "--out", str(out2)])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "phi.bin").read_bytes() == (out2 / "phi.bin").read_bytes()

    def test_precondition_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", solve_j_config(c=2.5, f=None))
        assert main(["solve-j", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_negative_linear_tol_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", solve_j_config(
            solver={"path_steps": 3, "linear_tol": -1e-3}))
        assert main(["solve-j", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "config field 'solver': linear_tol" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"geometry": {')
        assert main(["solve-j", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_field_diagnostic(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", solve_j_config(
            chi={"base": [[[1.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]}))
        assert main(["solve-j", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "chi.base" in err

    def test_non_hermitian_matrix_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", solve_j_config(
            omega0={"base": [[[1.0, 0.0], [0.3, 0.1]], [[0.0, 0.0], [1.0, 0.0]]]}))
        assert main(["solve-j", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("which", ["chi", "omega0"])
    def test_non_kahler_form_exits_2_with_a_numeric_c(self, tmp_path, capsys, which):
        doc = solve_j_config(c=3.0, f=None)
        doc[which] = {**doc[which], "potential": [{"freq": [1, 0, 0, 0], "amp": 0.2}]}
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o"
        assert main(["solve-j", "--config", cfg, "--out", str(out)]) == 2
        assert f"{which} is not positive at grid index (0, 0, 0, 0)" in capsys.readouterr().err
        assert not out.exists()


class TestSolveDhym:
    def test_trivial_instance(self, tmp_path):
        theta0 = math.pi / 5
        s = (1 + math.cos(theta0)) / math.sin(theta0)
        cfg = write_config(tmp_path, "d.json", {
            "geometry": {"n": 2, "N": 8},
            "chi": {"base": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
            "omega0": {"base": [[[s, 0.0], [0.0, 0.0]], [[0.0, 0.0], [s, 0.0]]],
                        "potential": [{"freq": [1, 0, 0, 0], "amp": 0.04}]},
            "theta0": theta0,
            "solver": {"path_steps": 3},
        })
        out = tmp_path / "out"
        assert main(["solve-dhym", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "converged"

    def test_config_path_corrects_every_prediction(self, tmp_path):
        # a predicted start lands just under the tolerance; without its corrector
        # step the endpoint's residual would stay there, not at rounding level
        out = tmp_path / "out"
        assert main(["solve-dhym", "--config", str(CONFIGS / "solve_dhym.json"),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        history = report["path_history"]
        starts = [h["start"] for h in history]
        assert starts[-1] == "prolonged" and set(starts[:-1]) == {"warm", "predicted"}
        assert all(h["iterations"] >= 1 for h in history if h["start"] == "predicted")
        assert sum(h["iterations"] for h in history) <= 12
        assert report["final_residual"] <= 1e-13

    def test_refused_predictions_fall_back_to_warm_starts(self, tmp_path, monkeypatch):
        from jdhym import solver
        from jdhym.errors import ConeBreachError
        newton = solver.newton_solve

        def refusing(problem, phi0, config, min_steps=0):
            if min_steps:
                raise ConeBreachError("predicted start outside the cone")
            return newton(problem, phi0, config)

        monkeypatch.setattr(solver, "newton_solve", refusing)
        out = tmp_path / "out"
        assert main(["solve-dhym", "--config", str(CONFIGS / "solve_dhym.json"),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        # warm starts never double the step: 6 targets in each of stages 1-2, the
        # one target of the constant-f stage 3 and the fine finish, no bisection
        assert [h["start"] for h in report["path_history"]] == ["warm"] * 13 + ["prolonged"]
        assert report["final_residual"] <= 1e-13

    def test_theta_hat_alias(self, tmp_path):
        theta0 = math.pi / 5
        s = (1 + math.cos(theta0)) / math.sin(theta0)
        theta_hat = 2 * math.pi / 2 - theta0
        cfg = write_config(tmp_path, "d.json", {
            "geometry": {"n": 2, "N": 8},
            "chi": {"base": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
            "omega0": {"base": [[[s, 0.0], [0.0, 0.0]], [[0.0, 0.0], [s, 0.0]]]},
            "theta_hat": theta_hat,
            "solver": {"path_steps": 2},
        })
        assert main(["solve-dhym", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_hypothesis_failure_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", {
            "geometry": {"n": 2, "N": 8},
            "chi": {"base": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
            "omega0": {"base": [[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.2, 0.0]]]},
            "theta0": 0.3,
        })
        assert main(["solve-dhym", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestCheckStability:
    def test_slope_pass(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {
            "datasets": [
                {"p": 1, "n": 2, "a": [1.0, 1.0], "label": "V1"},
                {"p": 1, "n": 2, "a": [1.0, 2.0], "label": "V2"},
                {"p": 2, "n": 2, "a": [2.0, 3.0, 4.0], "label": "V=M"},
            ],
            "c": 3.0,
        })
        out = tmp_path / "out"
        assert main(["check-stability", "--config", cfg, "--out", str(out)]) == 0
        verdict = json.loads((out / "stability.json").read_text())
        assert verdict["feasible"]
        assert verdict["max_uniform_epsilon"] == pytest.approx(1.0)

    def test_slope_failure_names_offender(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {
            "datasets": [{"p": 1, "n": 2, "a": [1.0, 4.0], "label": "badtorus"}],
            "c": 3.0,
        })
        assert main(["check-stability", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "badtorus" in capsys.readouterr().err

    def test_angle_mode(self, tmp_path):
        n, theta0 = 2, math.pi / 5
        s = 1.0 / math.tan(theta0 / n)
        cfg = write_config(tmp_path, "a.json", {
            "datasets": [
                {"p": 1, "n": 2, "a": [s, 1.0], "label": "V1"},
                {"p": 2, "n": 2, "a": [2 * s * s, 2 * s, 2.0], "label": "V=M"},
            ],
            "theta_hat": n * math.pi / 2 - theta0,
            "epsilon": 0.01,
        })
        out = tmp_path / "out"
        assert main(["check-stability", "--config", cfg, "--out", str(out)]) == 0
        verdict = json.loads((out / "stability.json").read_text())
        assert verdict["overall"] and verdict["kind"] == "sampled check"

    def test_angle_failure_names_offender(self, tmp_path, capsys):
        # theta_hat above the V1 branch's start: V1 leaves the admissible interval
        n, theta0 = 2, math.pi / 5
        s = 1.0 / math.tan(theta0 / n)
        cfg = write_config(tmp_path, "a.json", {
            "datasets": [
                {"p": 1, "n": 2, "a": [0.2 * s, 1.0], "label": "thinslice"},
                {"p": 2, "n": 2, "a": [2 * s * s, 2 * s, 2.0], "label": "V=M"},
            ],
            "theta_hat": n * math.pi / 2 - theta0,
        })
        out = tmp_path / "out"
        assert main(["check-stability", "--config", cfg, "--out", str(out)]) == 2
        assert "offending dataset: thinslice" in capsys.readouterr().err
        assert not json.loads((out / "stability.json").read_text())["overall"]

    def test_angle_mode_without_full_dimension_dataset_fails(self, tmp_path, capsys):
        n, theta0 = 2, math.pi / 5
        cfg = write_config(tmp_path, "a.json", {
            "datasets": [{"p": 1, "n": 2, "a": [1.0 / math.tan(theta0 / n), 1.0],
                          "label": "V1"}],
            "theta_hat": n * math.pi / 2 - theta0,
        })
        out = tmp_path / "out"
        assert main(["check-stability", "--config", cfg, "--out", str(out)]) == 2
        assert "p = n" in capsys.readouterr().err
        assert (out / "stability.json").exists()

    def test_neither_mode_exits_1_without_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {"datasets": dataset()})
        out = tmp_path / "out"
        assert main(["check-stability", "--config", cfg, "--out", str(out)]) == 1
        assert "config field 'c'" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyLemmas:
    def test_runs_and_writes_csv(self, tmp_path):
        out = tmp_path / "out"
        assert main(["verify-lemmas", "--out", str(out), "--trials", "60",
                     "--seed", "3"]) == 0
        rows = (out / "lemma_slacks.csv").read_text().strip().splitlines()
        assert len(rows) == 9  # header + 8 suites
        payload = json.loads((out / "lemmas.json").read_text())
        assert payload["all_hold"]

    def test_seeded_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["verify-lemmas", "--out", str(out1), "--trials", "40", "--seed", "9"])
        main(["verify-lemmas", "--out", str(out2), "--trials", "40", "--seed", "9"])
        assert (out1 / "lemmas.json").read_bytes() == (out2 / "lemmas.json").read_bytes()

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--trials", "-3"),
                                             ("--seed", "-1")])
    def test_out_of_range_flag_is_refused(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        assert main(["verify-lemmas", "--out", str(out), "--trials", "5", flag, value]) == 1
        assert flag in capsys.readouterr().err
        assert not (out / "lemmas.json").exists()


class TestFlags:
    @pytest.mark.parametrize("command, config", [
        ("solve-j", "solve_j.json"), ("solve-dhym", "solve_dhym.json"),
        ("check-stability", "check_stability_slope.json"),
        ("functionals", "functionals.json")])
    @pytest.mark.parametrize("flag", ["--seed", "--trials"])
    def test_only_verify_lemmas_takes_seed_and_trials(self, tmp_path, command, config, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(CONFIGS / config), "--out", str(tmp_path / "o"),
                  flag, "3"])
        assert exc.value.code != 0
        assert not (tmp_path / "o").exists()


class TestFunctionalsCommand:
    def test_report_and_scatter(self, tmp_path):
        cfg = write_config(tmp_path, "f.json", {
            "geometry": {"n": 2, "N": 8},
            "chi": {"base": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]},
            "omega0": {"base": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
            "phi": [{"freq": [1, 0, 0, 0], "amp": 0.01}],
            "phi_samples": [[{"freq": [0, 1, 0, 0], "amp": 0.008}]],
            "t_steps": 8,
        })
        out = tmp_path / "out"
        assert main(["functionals", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "functionals.json").read_text())
        assert rep["c0"] == pytest.approx(3.0)
        assert rep["aubin_i"] >= 0.0
        assert rep["j_omega0"] >= 0.0
        lines = (out / "coercivity.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + phi + one sample

    def test_phi_outside_the_cone_exits_2_without_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "f.json", functionals_config(
            phi=[{"freq": [1, 0, 0, 0], "amp": 0.2}]))
        out = tmp_path / "out"
        assert main(["functionals", "--config", cfg, "--out", str(out)]) == 2
        assert "omega_phi is not positive at grid index (0, 0, 0, 0)" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodeRouting:
    def test_no_convergence_maps_to_3(self, tmp_path, monkeypatch):
        import jdhym.cli as cli
        from jdhym.errors import ContinuationError

        def fake_path(*args, **kwargs):
            raise ContinuationError("stuck", stage="j-stage2", t=0.5,
                                    cause="no-convergence")

        monkeypatch.setattr(cli, "continuity_path_j", fake_path)
        cfg = write_config(tmp_path, "c.json", solve_j_config())
        assert main(["solve-j", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_cone_breach_maps_to_4(self, tmp_path, monkeypatch):
        import jdhym.cli as cli
        from jdhym.errors import ContinuationError

        def fake_path(*args, **kwargs):
            raise ContinuationError("breach", stage="j-stage1", t=0.25,
                                    cause="cone-breach")

        monkeypatch.setattr(cli, "continuity_path_j", fake_path)
        cfg = write_config(tmp_path, "c.json", solve_j_config())
        assert main(["solve-j", "--config", cfg, "--out", str(tmp_path / "o")]) == 4

    def test_krylov_failure_maps_to_3(self, tmp_path, monkeypatch):
        import jdhym.solver as solver
        monkeypatch.setattr(solver, "lgmres", lambda A, b, **kw: (np.zeros_like(b), 1))
        cfg = write_config(tmp_path, "c.json", solve_j_config())
        assert main(["solve-j", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_failed_solve_writes_artifacts(self, tmp_path, monkeypatch):
        import jdhym.solver as solver
        monkeypatch.setattr(solver, "lgmres", lambda A, b, **kw: (np.zeros_like(b), 1))
        cfg = write_config(tmp_path, "c.json", solve_j_config())
        out = tmp_path / "o"
        assert main(["solve-j", "--config", cfg, "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "krylov-failure"
        # stage 1 is exact at phi = 0 and needs no Krylov solve; its 0-step warm
        # solves double the stride (t = 1/3, then 1); stage 2 fails
        assert [(h["stage"], h["t"]) for h in report["path_history"]] == [
            ("j-stage1", pytest.approx(1 / 3)), ("j-stage1", 1.0)]
        assert (out / "phi.bin").exists()
        assert (out / "residual_history.csv").exists()


class TestTrivialFixture:
    def test_proportional_chi_fixture_converges_immediately(self, tmp_path):
        # chi = (c/n) omega0: every path step is already solved at phi = 0
        cfg = write_config(tmp_path, "c.json", {
            "problem": "solve-j",
            "geometry": {"n": 2, "N": 8},
            "chi": {"base": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.5, 0.0]]]},
            "omega0": {"base": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
            "c": "c0",
            "solver": {"path_steps": 2},
        })
        out = tmp_path / "out"
        assert main(["solve-j", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert all(h["iterations"] <= 1 for h in report["path_history"])

    def test_problem_kind_mismatch_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", solve_j_config(problem="solve-dhym"))
        assert main(["solve-j", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_cone_slack_knob_reaches_the_solver(self, tmp_path):
        # a slack larger than the instance margin must trigger a cone breach
        cfg = write_config(tmp_path, "c.json", solve_j_config(
            solver={"path_steps": 2, "cone_slack": 50.0}))
        assert main(["solve-j", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


class TestNestedPathArtifacts:
    def test_grid_column_and_key(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", solve_j_config(geometry={"n": 2, "N": 16}))
        out = tmp_path / "out"
        assert main(["solve-j", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        grids = [h["N"] for h in report["path_history"]]
        assert grids == [8] * (len(grids) - 1) + [16]
        rows = (out / "residual_history.csv").read_text().split("\n\n", 1)[1].split()
        assert rows[0] == "stage,N,t,iterations,residual,cone_margin,multiplier"
        assert [int(r.split(",")[1]) for r in rows[1:]] == grids


class TestMemoryPreflight:
    def test_estimate_scales_with_the_grid(self):
        from jdhym.fields import TorusGeometry
        from jdhym.solver import estimate_peak_bytes
        # one complex 3 x 3 field at n = 3, N = 16 alone is 2.4 GB
        field = 16 ** 6 * 9 * 16
        assert estimate_peak_bytes(TorusGeometry(3, 16)) > 4 * field
        for n in (1, 2, 3):
            small = estimate_peak_bytes(TorusGeometry(n, 8))
            assert estimate_peak_bytes(TorusGeometry(n, 16)) == 2 ** (2 * n) * small
        assert estimate_peak_bytes(TorusGeometry(2, 16)) < 64 * 2 ** 20

    @pytest.mark.parametrize("command", ["solve-j", "solve-dhym"])
    def test_oversized_grid_exits_2_before_any_field(self, tmp_path, monkeypatch, capsys,
                                                     command):
        import jdhym.cli as cli

        def no_fields(*args, **kwargs):
            raise AssertionError("a field was built")

        monkeypatch.setattr(cli, "_physical_memory", lambda: 2 ** 20)
        monkeypatch.setattr(cli, "_parse_form", no_fields)
        doc = solve_j_config(problem=command, theta0=0.6)
        cfg = write_config(tmp_path, "c.json", doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "physical memory" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def stability_config(**overrides):
    cfg = {"datasets": [{"p": 1, "n": 2, "a": [1.0, 1.0], "label": "V1"}], "c": 3.0}
    cfg.update(overrides)
    return cfg


def functionals_config(**overrides):
    cfg = solve_j_config(t_steps=8)
    del cfg["c"], cfg["f"], cfg["solver"]
    cfg.update(overrides)
    return cfg


def dataset(**overrides):
    return [{"p": 1, "n": 2, "a": [1.0, 1.0], "label": "V1", **overrides}]


MODE = {"freq": [1, 0, 0, 0], "amp": 0.05}


class TestTypedConfigNumbers:
    # (command, config, dotted path of the one malformed number)
    CASES = [
        ("solve-j", solve_j_config(solver={"tolerance": "abc"}), "solver.tolerance"),
        ("solve-j", solve_j_config(solver={"max_newton": None}), "solver.max_newton"),
        ("solve-j", solve_j_config(solver={"path_steps": True}), "solver.path_steps"),
        ("solve-j", solve_j_config(solver={"cone_slack": "x"}), "solver.cone_slack"),
        ("solve-j", solve_j_config(solver={"linear_max_iter": 20.5}), "solver.linear_max_iter"),
        ("solve-j", solve_j_config(geometry={"n": "two", "N": 8}), "geometry.n"),
        ("solve-j", solve_j_config(geometry={"n": 2, "N": 16.5}), "geometry.N"),
        ("solve-j", solve_j_config(c="abc"), "c"),
        ("solve-j", solve_j_config(f=True), "f"),
        ("solve-j", solve_j_config(chi={"base": [[[1.0, "x"], [0.0, 0.0]],
                                                 [[0.0, 0.0], [2.0, 0.0]]]}),
         "chi.base[0][0][1]"),
        ("solve-j", solve_j_config(f=[{**MODE, "freq": [1, 0, 0.5, 0]}]), "f[0].freq[2]"),
        ("solve-j", solve_j_config(f=[{**MODE, "amp": "x"}]), "f[0].amp"),
        ("solve-j", solve_j_config(f=[{**MODE, "phase": None}]), "f[0].phase"),
        ("solve-dhym", solve_j_config(theta0="x"), "theta0"),
        ("solve-dhym", solve_j_config(theta_hat=[1.0]), "theta_hat"),
        ("check-stability", stability_config(datasets=dataset(p="x")), "datasets[0].p"),
        ("check-stability", stability_config(datasets=dataset(n=2.5)), "datasets[0].n"),
        ("check-stability", stability_config(datasets=dataset(a=[1.0, "x"])),
         "datasets[0].a[1]"),
        ("check-stability", stability_config(c="abc"), "c"),
        ("check-stability", stability_config(c=None), "c"),
        ("functionals", functionals_config(t_steps="x"), "t_steps"),
        ("functionals", functionals_config(t_steps=8.5), "t_steps"),
    ]
    ANGLE = [("theta_hat", "x"), ("epsilon", "x"), ("t_max", None), ("samples", 2.5)]
    ANGLE_BASE = {**{k: v for k, v in stability_config().items() if k != "c"},
                  "theta_hat": 2.5}
    CASES += [("check-stability", {**{k: v for k, v in stability_config().items() if k != "c"},
                                   "theta_hat": 2.5, key: value}, key)
              for key, value in ANGLE]

    @pytest.mark.parametrize("command, doc, path", CASES,
                             ids=[f"{c[0]}-{c[2]}-{i}" for i, c in enumerate(CASES)])
    def test_malformed_number_exits_1_with_its_path(self, tmp_path, capsys, command, doc,
                                                    path):
        cfg = write_config(tmp_path, "c.json", doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"config field '{path}'" in capsys.readouterr().err

    # (command, config, key) with the key's value a well-formed number out of
    # range, or a well-formed value of the wrong type
    OUT_OF_RANGE = [
        ("check-stability", {**ANGLE_BASE, "samples": 4}, "samples"),
        ("check-stability", {**ANGLE_BASE, "t_max": 0.5}, "t_max"),
        ("check-stability", {**ANGLE_BASE, "epsilon": -0.1}, "epsilon"),
        ("check-stability", stability_config(datasets=[]), "datasets"),
        ("check-stability", {**ANGLE_BASE, "datasets": []}, "datasets"),
        ("functionals", functionals_config(t_steps=7), "t_steps"),
        ("functionals", functionals_config(phi_samples=5), "phi_samples"),
        ("solve-j", solve_j_config(chi={"base": [[[1.0, 0.0], [0.0, 0.0]]]}), "chi.base"),
        ("solve-j", solve_j_config(chi={"base": [[[1.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]}),
         "chi.base[0]"),
        ("solve-j", solve_j_config(chi={"base": [[[1.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]}),
         "chi.base[0][0]"),
        ("solve-j", solve_j_config(omega0={"base": [[[1.0, 0.0], [2.0, 0.0]],
                                                    [[2.0, 0.0], [1.0, 0.0]]]}),
         "omega0.base"),
        ("solve-j", solve_j_config(chi={"base": [[[1.0, 0.0], [0.0, 0.0]],
                                                 [[0.0, 0.0], [2.0, 0.0]]],
                                        "potential": {"freq": [1, 0, 0, 0], "amp": 0.01}}),
         "chi.potential"),
        ("solve-j", solve_j_config(f=[[1, 0, 0, 0]]), "f[0]"),
        ("solve-j", solve_j_config(solver=5), "solver"),
        ("solve-dhym", solve_j_config(), "theta0"),
        ("check-stability", stability_config(datasets=[5]), "datasets[0]"),
    ]

    @pytest.mark.parametrize("command, doc, key", OUT_OF_RANGE,
                             ids=[c[2] for c in OUT_OF_RANGE])
    def test_out_of_range_value_exits_1_without_output(self, tmp_path, capsys, command,
                                                       doc, key):
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert f"config field '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config"),
        ("[1, 2]", "config root must be an object"),
    ], ids=["unreadable", "root-not-an-object"])
    def test_unusable_config_file_exits_1(self, tmp_path, capsys, text, message):
        path = tmp_path / "c.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "o"
        assert main(["solve-j", "--config", str(path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_cone_slack_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", solve_j_config(solver={"cone_slack": -1.0}))
        assert main(["solve-j", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "config field 'solver': cone_slack" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["path_stepz", "damping"])
    def test_unknown_solver_key_exits_1(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, "c.json", solve_j_config(solver={key: 2}))
        out = tmp_path / "o"
        assert main(["solve-j", "--config", cfg, "--out", str(out)]) == 1
        assert f"config field 'solver.{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, doc", [
        ("solve-j", solve_j_config(output_dir=5)),
        ("check-stability", stability_config(output_dir=5)),
        ("functionals", functionals_config(output_dir=["o"])),
    ], ids=["solve-j", "check-stability", "functionals"])
    @pytest.mark.parametrize("flags", [[], ["--out", "o"]], ids=["config-dir", "out-flag"])
    def test_output_dir_must_be_a_string(self, tmp_path, capsys, monkeypatch, command, doc,
                                         flags):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "c.json", doc)
        assert main([command, "--config", cfg, *flags]) == 1
        assert "config field 'output_dir'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_every_solver_field_round_trips(self):
        import dataclasses

        from jdhym.cli import _parse_solver
        from jdhym.solver import SolverConfig
        values = {"tolerance": 1e-9, "max_newton": 7, "path_steps": 3,
                  "cone_slack": 0.25, "linear_tol": 1e-6, "linear_max_iter": 50}
        fields = dataclasses.fields(SolverConfig)
        assert set(values) == {f.name for f in fields}
        assert all(values[f.name] != f.default for f in fields)
        doc = json.loads(json.dumps({"solver": values}))
        assert _parse_solver(doc) == SolverConfig(**values)
