"""Batch front door: config ingestion, dispatch, JSON/CSV report emission.

Commands: ``solve-j``, ``solve-dhym``, ``check-stability``, ``functionals``,
``verify-lemmas``.  Exit codes: 0 success, 1 malformed config or unwritable
output path, 2 precondition failure (unstable/inadmissible input detected,
data out of floating-point range, or out of memory), 3 non-convergence, 4
cone breach.  Reports contain no timestamps, so identical config and seed
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import properties
from .errors import ContinuationError, DataError, DomainError, PreconditionError, UsageError
from .fields import (FormField, ScalarField, TorusGeometry, field_from_modes,
                     form_field, save_scalar_field)
from .hermitian import ensure_hermitian
from .functionals import _check_t_steps, aubin_i, compute_c0, coercivity_probe
from .solver import (SolverConfig, continuity_path_dhym, continuity_path_j,
                     estimate_peak_bytes)
from .stability import (IntersectionData, _check_datasets, _check_epsilon, _check_samples,
                        _check_t_max, dhym_hypothesis_check, max_uniform_epsilon, slope_test)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PRECONDITION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CONE_BREACH = 4

# the most trials per suite of verify-lemmas, whose run time grows linearly in them
MAX_TRIALS = 10 ** 7


class ConfigError(Exception):
    """Carries a dotted field path for the diagnostic."""

    def __init__(self, path, message):
        super().__init__(f"config field '{path}': {message}")


def _number(val, where: str, kind: type):
    """``val`` as ``kind`` (int or float): a finite JSON number, not a bool,
    and integral when ``kind`` is int."""
    try:
        if not isinstance(val, bool) and math.isfinite(val) and (kind is float or val == int(val)):
            return kind(val)
    except (TypeError, OverflowError):
        pass
    raise ConfigError(where, f"expected a finite {kind.__name__}, got {json.dumps(val)}")


def _need(doc: dict, path: str, key: str, types=None, default=None):
    """``doc[key]`` (``default`` if absent, unless None), read by :func:`_number`
    when ``types`` is int or float and checked by ``isinstance`` otherwise."""
    where = f"{path}.{key}" if path else key
    if key not in doc:
        if default is None:
            raise ConfigError(where, "missing")
        return default
    val = doc[key]
    if types in (int, float):
        return _number(val, where, types)
    if types is not None and not isinstance(val, types):
        raise ConfigError(where, f"expected {types}, got {type(val).__name__}")
    return val


def _checked(path: str, make, /, *args, **kwargs):
    """``make(*args, **kwargs)``, which checks the ranges of its arguments; a
    value out of range (a ``UsageError``) is a malformed config field ``path``."""
    try:
        return make(*args, **kwargs)
    except UsageError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_matrix(entry, path: str, n: int) -> np.ndarray:
    if not isinstance(entry, list) or len(entry) != n:
        raise ConfigError(path, f"expected {n} rows")
    rows = []
    for i, row in enumerate(entry):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError(f"{path}[{i}]", f"expected {n} [re, im] pairs")
        prow = []
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"{path}[{i}][{j}]", "expected [re, im]")
            prow.append(complex(*(_number(v, f"{path}[{i}][{j}][{k}]", float)
                                  for k, v in enumerate(pair))))
        rows.append(prow)
    mat = _checked(path, ensure_hermitian, np.array(rows))
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.any(np.linalg.eigvalsh(mat) <= 1e-10 * scale):
        raise ConfigError(path, "matrix is not positive definite to 1e-10")
    return mat


def _parse_potential(entry, path: str, geom: TorusGeometry) -> ScalarField:
    if not isinstance(entry, list):
        raise ConfigError(path, "expected a list of modes")
    modes = []
    for i, m in enumerate(entry):
        where = f"{path}[{i}]"
        if not isinstance(m, dict):
            raise ConfigError(where, "expected {freq, amp[, phase]}")
        freq = [_number(v, f"{where}.freq[{k}]", int)
                for k, v in enumerate(_need(m, where, "freq", list))]
        modes.append((freq, _need(m, where, "amp", float), _need(m, where, "phase", float, 0.0)))
    return _checked(path, field_from_modes, geom, modes)


def _parse_form(doc, path: str, geom: TorusGeometry) -> FormField:
    base = _parse_matrix(_need(doc, path, "base"), f"{path}.base", geom.n)
    pot = doc.get("potential")
    return form_field(geom, base, None if pot is None else
                      _parse_potential(pot, f"{path}.potential", geom))


def _parse_geometry(doc: dict) -> TorusGeometry:
    g = _need(doc, "", "geometry", dict)
    return _checked("geometry", TorusGeometry, _need(g, "geometry", "n", int),
                    _need(g, "geometry", "N", int))


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


# float64 grid arrays at the peak of ``functionals``, a third above the measured
# peaks, besides one per ``phi_samples`` entry, whose grids the run holds throughout
_FUNCTIONALS_GRID_ARRAYS = {1: 14, 2: 40, 3: 80}


def _sized_geometry(doc: dict, peak_bytes, what: str) -> TorusGeometry:
    """The grid of ``what``, refused before any field exists if its estimated
    peak memory ``peak_bytes(geom)`` exceeds the machine's physical memory."""
    geom = _parse_geometry(doc)
    need, have = peak_bytes(geom), _physical_memory()
    if have is not None and need > have:
        raise PreconditionError(
            f"{what} at n = {geom.n}, N = {geom.N} needs about {need / 2**30:.1f} GiB, "
            f"more than the {have / 2**30:.1f} GiB of physical memory")
    return geom


def _parse_solver(doc: dict) -> SolverConfig:
    """The ``solver`` object: each key is a :class:`SolverConfig` field, read
    with the type of the field's default, which also fills an absent key."""
    s = doc.get("solver", {})
    if not isinstance(s, dict):
        raise ConfigError("solver", "expected an object")
    fields = dataclasses.fields(SolverConfig)
    names = [f.name for f in fields]
    for key in s:
        if key not in names:
            raise ConfigError(f"solver.{key}", f"unknown key; expected one of {', '.join(names)}")
    return _checked("solver", SolverConfig, **{
        f.name: _need(s, "solver", f.name, type(f.default), f.default) for f in fields})


def _constant_or_modes(doc, key, path, geom) -> ScalarField:
    entry = doc.get(key)
    if entry is None:
        return ScalarField.zeros(geom)
    if isinstance(entry, (int, float)):
        return ScalarField.constant(geom, _number(entry, path, float))
    return _parse_potential(entry, path, geom)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, rows) -> None:
    """``rows`` as CSV: a float in 17 significant digits, ``None`` as an empty cell."""
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(
            ["" if v is None else f"{v:.17g}" if isinstance(v, float) else v for v in row]
            for row in rows)


def _emit_solve(report, out: Path, omega0) -> None:
    out.mkdir(parents=True, exist_ok=True)
    save_scalar_field(out / "phi", report.phi, base=omega0.base)
    _write_json(out / "report.json", {**report.to_json_dict(), "phi_file": "phi.json"})
    rows = [["iteration", "sup_residual"], *enumerate(report.residual_history)]
    if report.path_history:
        columns = ["stage", "N", "t", "iterations", "residual", "cone_margin", "multiplier"]
        rows += [[], columns, *([h[k] for k in columns] for h in report.path_history)]
    _write_csv(out / "residual_history.csv", rows)


def _cmd_solve(cfg: dict, out: Path, args) -> int:
    """``solve-j`` (parameter ``c``, ``"c0"`` by default) and ``solve-dhym``
    (parameter ``theta0``, or ``theta_hat = n pi/2 - theta0``)."""
    geom = _sized_geometry(cfg, estimate_peak_bytes, "a solve")
    chi = _parse_form(_need(cfg, "", "chi", dict), "chi", geom)
    omega0 = _parse_form(_need(cfg, "", "omega0", dict), "omega0", geom)
    if args.command == "solve-j":
        path = continuity_path_j
        param = cfg.get("c", "c0")
        param = compute_c0(chi, omega0) if param in ("c0", None) else _number(param, "c", float)
    else:
        path = continuity_path_dhym
        if "theta0" in cfg:
            param = _need(cfg, "", "theta0", float)
        elif "theta_hat" in cfg:
            param = geom.n * math.pi / 2.0 - _need(cfg, "", "theta_hat", float)
        else:
            raise ConfigError("theta0", "missing (provide theta0 or theta_hat)")
    f_target = _constant_or_modes(cfg, "f", "f", geom)
    # a failed path writes its partial artifacts too
    try:
        report = path(chi, omega0, f_target, param, _parse_solver(cfg))
    except ContinuationError as exc:
        if exc.report is not None:
            _emit_solve(exc.report, out, omega0)
        raise
    _emit_solve(report, out, omega0)
    return EXIT_OK if report.success else EXIT_NO_CONVERGENCE


def _parse_datasets(cfg: dict) -> list[IntersectionData]:
    entries = _need(cfg, "", "datasets", list)
    if not entries:
        raise ConfigError("datasets", "need at least one dataset")
    out = []
    for i, d in enumerate(entries):
        if not isinstance(d, dict):
            raise ConfigError(f"datasets[{i}]", "expected an object")
        out.append(_checked(
            f"datasets[{i}]", IntersectionData,
            p=_need(d, f"datasets[{i}]", "p", int),
            n=_need(d, f"datasets[{i}]", "n", int),
            a=tuple(_number(v, f"datasets[{i}].a[{k}]", float)
                    for k, v in enumerate(_need(d, f"datasets[{i}]", "a", list))),
            label=str(d.get("label", f"dataset-{i}"))))
        _checked(f"datasets[{i}].n", _check_datasets, out)
    return out


def _cmd_check_stability(cfg: dict, out: Path, args) -> int:
    """Slope (``c``) or angle (``theta_hat``) mode: its verdict and failure line."""
    datasets = _parse_datasets(cfg)
    if "c" in cfg:
        c = _need(cfg, "", "c", float)
        margins = [slope_test(d, c, 0.0) for d in datasets]
        eps = max_uniform_epsilon(datasets, c)
        verdict = {
            "mode": "slope",
            "c": c,
            "margins_at_zero_slack": [
                {"label": d.label, "p": d.p, "margin": m}
                for d, m in zip(datasets, margins)],
            "max_uniform_epsilon": (None if eps is None
                                    else ("inf" if math.isinf(eps) else eps)),
            "feasible": eps is not None,
        }
        worst = min(zip(margins, datasets), key=lambda t: t[0])[1]
        failure = None if eps is not None else \
            f"infeasible at zero slack; offending dataset: {worst.label}"
    elif "theta_hat" in cfg:
        verdict = dhym_hypothesis_check(
            datasets, _need(cfg, "", "theta_hat", float),
            _checked("epsilon", _check_epsilon, _need(cfg, "", "epsilon", float, 0.0)),
            t_max=_checked("t_max", _check_t_max, _need(cfg, "", "t_max", float, 1e4)),
            samples=_checked("samples", _check_samples, _need(cfg, "", "samples", int, 512)))
        bad = [r["label"] for r in verdict["datasets"] if not r["ok"]]
        failure = None if verdict["overall"] else (
            f"hypothesis fails; offending dataset: {bad[0]}" if bad
            else "hypothesis fails: no dataset has p = n (the case V = M)")
    else:
        raise ConfigError("c", "missing (provide c for slope mode or theta_hat for angle mode)")
    verdict["warnings"] = [w for d in datasets for w in d.kahler_warnings()]
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "stability.json", verdict)
    _write_table(out / "stability.txt", verdict)
    if failure is not None:
        print(failure, file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_OK


def _write_table(path: Path, verdict: dict) -> None:
    lines = []
    if verdict.get("mode") == "slope":
        lines.append(f"{'label':<16}{'p':>3}  {'margin@eps=0':>18}")
        for row in verdict["margins_at_zero_slack"]:
            lines.append(f"{row['label']:<16}{row['p']:>3}  {row['margin']:>18.10e}")
        lines.append(f"max uniform epsilon: {verdict['max_uniform_epsilon']}")
    else:
        lines.append(f"{'label':<16}{'p':>3}  {'ok':<6}{'reason'}")
        for row in verdict["datasets"]:
            lines.append(f"{row['label']:<16}{row['p']:>3}  "
                         f"{str(row['ok']):<6}{row['reason'] or ''}")
        lines.append(f"overall ({verdict['kind']}): {verdict['overall']}")
    path.write_text("\n".join(lines) + "\n")


def _cmd_functionals(cfg: dict, out: Path, args) -> int:
    entries = _need(cfg, "", "phi_samples", list, [])
    geom = _sized_geometry(cfg, lambda g: g.grid_size * 8 * (
        _FUNCTIONALS_GRID_ARRAYS[g.n] + len(entries)), "functionals")
    chi = _parse_form(_need(cfg, "", "chi", dict), "chi", geom)
    omega0 = _parse_form(_need(cfg, "", "omega0", dict), "omega0", geom)
    phi = _constant_or_modes(cfg, "phi", "phi", geom)
    t_steps = _checked("t_steps", _check_t_steps, _need(cfg, "", "t_steps", int, 32))
    c0 = compute_c0(chi, omega0)
    samples = [phi]
    for i, entry in enumerate(entries):
        samples.append(_parse_potential(entry, f"phi_samples[{i}]", geom))
    # refuses a phi outside the cone before any output; sample 0 then has both energies
    aubin = aubin_i(omega0, phi)
    scatter = coercivity_probe(chi, omega0, samples, c0=c0, t_steps=t_steps)
    report = {
        "c0": c0,
        "j_chi": scatter[0]["j_chi"],
        "aubin_i": aubin,
        "j_omega0": scatter[0]["j_omega0"],
        "coercivity_points": [[r["j_omega0"], r["j_chi"]] for r in scatter
                              if r["error"] is None],
    }
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "functionals.json", report)
    columns = ["sample", "j_omega0", "j_chi", "sup_shift", "energy_shift", "error"]
    _write_csv(out / "coercivity.csv", [columns, *([r[k] for k in columns] for r in scatter)])
    return EXIT_OK


def _cmd_verify_lemmas(cfg: dict, out: Path, args) -> int:
    trials, seed = args.trials, args.seed
    # no trial drawn would report every lemma as verified; numpy refuses a negative seed
    for flag, value, low, high in (("--trials", trials, 1, MAX_TRIALS),
                                   ("--seed", seed, 0, math.inf)):
        if not low <= value <= high:
            print(f"error: {flag} must lie in [{low}, {high}], got {value}", file=sys.stderr)
            return EXIT_CONFIG
    results = properties.run_property_suites(trials=trials, seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    columns = ["property", "trials", "worst_slack", "threshold", "holds"]
    _write_csv(out / "lemma_slacks.csv", [columns, *([r[k] for k in columns] for r in results)])
    all_hold = all(r["holds"] for r in results)
    _write_json(out / "lemmas.json", {"seed": seed, "trials": trials, "all_hold": all_hold,
                                      "results": results})
    return EXIT_OK if all_hold else EXIT_PRECONDITION


_COMMANDS = {
    "solve-j": _cmd_solve,
    "solve-dhym": _cmd_solve,
    "check-stability": _cmd_check_stability,
    "functionals": _cmd_functionals,
    "verify-lemmas": _cmd_verify_lemmas,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jdhym",
        description="J-equation / dHYM laboratory on flat complex tori")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "verify-lemmas"),
                       help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory")
        if name == "verify-lemmas":
            p.add_argument("--seed", type=int, default=0, help="seed for the randomized suites")
            p.add_argument("--trials", type=int, default=1000, help="trials per suite")
    args = parser.parse_args(argv)
    cfg = {}
    if args.config is not None:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except json.JSONDecodeError as exc:
            print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: "
                  f"{exc.msg}", file=sys.stderr)
            return EXIT_CONFIG
        if not isinstance(cfg, dict):
            print("error: config root must be an object", file=sys.stderr)
            return EXIT_CONFIG
    try:
        declared = cfg.get("problem")
        if declared is not None and declared != args.command:
            raise ConfigError("problem",
                              f"declares {declared!r} but command is {args.command!r}")
        out_dir = _need(cfg, "", "output_dir", str, "out")  # checked under --out too
        # data out of floating-point range stop the command instead of
        # carrying inf or nan into its results
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _COMMANDS[args.command](cfg, Path(args.out or out_dir), args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ContinuationError as exc:
        print(f"continuation failure: {exc}", file=sys.stderr)
        return EXIT_CONE_BREACH if exc.cause == "cone-breach" else EXIT_NO_CONVERGENCE
    except (DomainError, UsageError, DataError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except FloatingPointError as exc:
        print(f"precondition failure: {exc}: the data are out of floating-point range",
              file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        # the config was read before; what fails now is writing the artifacts
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        # past the pre-flight estimate: the machine, not the config, is short
        print(f"precondition failure: {args.command} ran out of memory", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
