"""The three benchmark workloads: inputs from a seed, one timed operation, a gate.

Each workload has

* ``build(root, seed, toy)``: the inputs (the part of a caller's set-up the
  benchmark times as ``setup_s``), made only from ``seed``;
* ``run(inputs, out)``: one operation, timed as ``run_s``;
* ``check(inputs, result, out, perturb)``: the correctness gate with the
  acceptance suite's own bounds, returning a :class:`Check`.

``toy`` shrinks each instance for the harness self-test; ``perturb`` adds a
small mode to the returned potential (or to the reference) so the gate must
fail.  The package is imported lazily: ``run.py`` puts the checkout's
``src`` first on ``sys.path`` before any workload runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# an error of exactly zero reads as this many digits
MAX_DIGITS = 17.0
PERTURB_AMP = 1e-3


@dataclass
class Check:
    ok: bool
    error: float | None       # the independently measured error behind accuracy_digits
    detail: dict
    fingerprint: bytes | None  # artifact bytes that must repeat for one seed


def digits(error: float) -> float:
    return MAX_DIGITS if error <= 0.0 else min(MAX_DIGITS, -math.log10(error))


def _cli_main(argv: list[str]) -> int:
    from jdhym import cli
    return cli.main(argv)


def _perturbed(phi):
    """``phi`` plus a small first-harmonic mode, far above every gate bound."""
    from jdhym.fields import field_from_modes
    freq = [1] + [0] * (2 * phi.geometry.n - 1)
    return phi + field_from_modes(phi.geometry, [(freq, PERTURB_AMP)])


def _form(geom, entry):
    """Public-API construction of one config form (the gate's own copy)."""
    from jdhym.fields import field_from_modes, form_field
    base = np.array([[complex(re, im) for re, im in row] for row in entry["base"]])
    modes = entry.get("potential")
    pot = None if not modes else field_from_modes(
        geom, [(m["freq"], m["amp"], m.get("phase", 0.0)) for m in modes])
    return form_field(geom, base, pot)


class JNewton:
    """Cold Newton solve of acceptance criterion 5's manufactured J-equation."""

    name = "j-newton-32"
    min_ops = 1
    configs: tuple[str, ...] = ()

    def build(self, root: Path, seed: int, toy: bool) -> dict:
        from jdhym.fields import (ScalarField, TorusGeometry, complex_hessian,
                                  field_from_modes, form_field,
                                  relative_spectrum_field)
        phase = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=5)
        geom = TorusGeometry(2, 8 if toy else 32)
        chi = form_field(geom, np.array([[1.0, 0.1 + 0.05j], [0.1 - 0.05j, 1.5]]),
                         field_from_modes(geom, [((1, 0, 0, 0), 0.02, phase[0]),
                                                 ((0, 0, 1, 0), 0.015, phase[1])]))
        omega0 = form_field(geom, np.eye(2),
                            field_from_modes(geom, [((0, 1, 0, 0), 0.01)]))
        phistar = field_from_modes(geom, [((1, 0, 0, 0), 0.008, phase[2]),
                                          ((0, 0, 0, 1), 0.006, phase[3]),
                                          ((1, 0, 1, 0), 0.004, phase[4])])
        lam = relative_spectrum_field(chi.values,
                                      (omega0 + complex_hessian(phistar)).values)
        tr = np.sum(1.0 / lam, axis=-1)
        c = float(np.max(tr)) * 1.15
        f = ScalarField(geom, (c - tr) * np.prod(lam, axis=-1))
        return {"geom": geom, "chi": chi, "omega0": omega0, "phistar": phistar,
                "f": f, "c": c}

    def run(self, inp: dict, out: Path):
        from jdhym import fields, solver
        problem = solver.make_j_problem(inp["chi"], inp["omega0"], inp["f"], inp["c"])
        return solver.newton_solve(problem, fields.ScalarField.zeros(inp["geom"]),
                                   solver.SolverConfig(tolerance=1e-10))

    def check(self, inp: dict, rep, out: Path, perturb: bool) -> Check:
        phi = _perturbed(rep.phi) if perturb else rep.phi
        d = phi.values - inp["phistar"].values
        recovery = float(np.max(np.abs(d - d.mean())))
        ok = (rep.success and rep.final_residual <= 1e-9 and rep.iterations <= 15
              and recovery <= 1e-7)
        return Check(ok, recovery, {"status": rep.status, "iterations": rep.iterations,
                                    "final_residual": rep.final_residual,
                                    "recovery": recovery}, None)


class DhymPath:
    """``solve-dhym`` on ``configs/solve_dhym.json`` through ``cli.main``."""

    name = "dhym-path-16"
    # three operations for a steadier median; the determinism gate compares
    # report.json across them
    min_ops = 3
    configs = ("configs/solve_dhym.json",)

    def build(self, root: Path, seed: int, toy: bool) -> dict:
        from jdhym.fields import TorusGeometry
        cfg = json.loads((root / self.configs[0]).read_text())
        modes = cfg["omega0"]["potential"]
        for mode, phase in zip(modes, np.random.default_rng(seed).uniform(
                0.0, 2.0 * math.pi, size=len(modes))):
            mode["phase"] = float(phase)
        if toy:
            cfg["geometry"]["N"] = 8
        g = cfg["geometry"]
        geom = TorusGeometry(int(g["n"]), int(g["N"]))
        return {"cfg": cfg, "geom": geom, "chi": _form(geom, cfg["chi"]),
                "omega0": _form(geom, cfg["omega0"]), "theta0": float(cfg["theta0"])}

    def run(self, inp: dict, out: Path) -> int:
        out.mkdir(parents=True, exist_ok=True)
        config = out / "solve_dhym.json"
        config.write_text(json.dumps(inp["cfg"]))
        return _cli_main(["solve-dhym", "--config", str(config),
                          "--out", str(out / "result")])

    def check(self, inp: dict, code: int, out: Path, perturb: bool) -> Check:
        from jdhym.fields import complex_hessian, load_scalar_field, relative_spectrum_field
        report_path = out / "result" / "report.json"
        if code != 0 or not report_path.exists():
            return Check(False, None, {"exit": code}, None)
        report_bytes = report_path.read_bytes()
        status = json.loads(report_bytes)["status"]
        phi, _ = load_scalar_field(out / "result" / "phi.json")
        if perturb:
            phi = _perturbed(phi)
        # the config has f = 0, so the solution satisfies sum arctan(1/lam) = theta0
        lam = relative_spectrum_field(inp["chi"].values,
                                      (inp["omega0"] + complex_hessian(phi)).values)
        defect = float(np.max(np.abs(np.sum(np.arctan(1.0 / lam), axis=-1)
                                     - inp["theta0"])))
        ok = status == "converged" and defect <= 1e-8
        return Check(ok, defect, {"exit": code, "status": status, "angle_defect": defect},
                     report_bytes)


class Analysis:
    """``verify-lemmas``, ``functionals`` and both ``check-stability`` configs."""

    name = "analysis"
    min_ops = 2  # the determinism gate compares lemmas.json across operations
    trials = 1000
    configs = ("configs/functionals.json", "configs/check_stability_slope.json",
               "configs/check_stability_angle.json")

    def build(self, root: Path, seed: int, toy: bool) -> dict:
        from jdhym.fields import TorusGeometry, field_from_modes
        cfg = json.loads((root / self.configs[0]).read_text())
        if toy:
            cfg["geometry"]["N"] = 8
        g = cfg["geometry"]
        geom = TorusGeometry(int(g["n"]), int(g["N"]))
        phi = field_from_modes(geom, [(m["freq"], m["amp"], m.get("phase", 0.0))
                                      for m in cfg["phi"]])
        return {"seed": seed, "trials": 20 if toy else self.trials, "cfg": cfg,
                "geom": geom, "omega0": _form(geom, cfg["omega0"]), "phi": phi,
                "stability": [root / name for name in self.configs[1:]]}

    def run(self, inp: dict, out: Path) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        config = out / "functionals.json"
        config.write_text(json.dumps(inp["cfg"]))
        codes = {"verify-lemmas": _cli_main(
            ["verify-lemmas", "--out", str(out / "lemmas"), "--trials",
             str(inp["trials"]), "--seed", str(inp["seed"])])}
        codes["functionals"] = _cli_main(["functionals", "--config", str(config),
                                          "--out", str(out / "functionals")])
        for path in inp["stability"]:
            codes[path.stem] = _cli_main(["check-stability", "--config", str(path),
                                          "--out", str(out / path.stem)])
        return codes

    def check(self, inp: dict, codes: dict, out: Path, perturb: bool) -> Check:
        from jdhym.functionals import aubin_i, j_omega0_functional
        lemmas_path = out / "lemmas" / "lemmas.json"
        values_path = out / "functionals" / "functionals.json"
        if any(codes.values()) or not lemmas_path.exists() or not values_path.exists():
            return Check(False, None, {"exit": codes}, None)
        lemmas_bytes = lemmas_path.read_bytes()
        all_hold = json.loads(lemmas_bytes)["all_hold"]
        values = json.loads(values_path.read_text())
        finite = all(math.isfinite(values[k]) for k in ("c0", "j_chi", "aubin_i", "j_omega0"))
        # the CLI reports the direct/potential representations; recompute the
        # integrated-by-parts ones, hold the gap to criterion 8's 1e-7 and
        # report it relative to the value as the accuracy
        phi = _perturbed(inp["phi"]) if perturb else inp["phi"]
        t_steps = int(inp["cfg"].get("t_steps", 32))
        other = {"aubin_i": aubin_i(inp["omega0"], phi, form="gradient"),
                 "j_omega0": j_omega0_functional(inp["omega0"], phi, t_steps=t_steps,
                                                 form="gradient")}
        gap = max(abs(values[k] - v) for k, v in other.items())
        relative = max(abs(values[k] - v) / abs(v) for k, v in other.items())
        ok = all_hold and finite and gap <= 1e-7
        return Check(ok, relative, {"exit": codes, "all_hold": all_hold, "finite": finite,
                                    "representation_gap": gap,
                                    "relative_gap": relative}, lemmas_bytes)


WORKLOADS = {w.name: w for w in (JNewton(), DhymPath(), Analysis())}
