"""Solve a J-type instance end to end and dump a small convergence study.

Sweeps the grid resolution for a fixed instance, recording endpoint
residuals and iteration counts, then writes a CSV next to the solve
artifacts.  Run from the repository root:

    python scripts/run_j_experiment.py --out out/j_experiment
"""

import argparse
import csv
import time
from pathlib import Path

import numpy as np

from jdhym.fields import (ScalarField, TorusGeometry, constant_form,
                          field_from_modes, form_field)
from jdhym.functionals import compute_c0
from jdhym.solver import SolverConfig, continuity_path_j


def build_instance(N):
    geom = TorusGeometry(2, N)
    chi = form_field(geom, np.diag([1.0, 2.0]),
                     field_from_modes(geom, [((1, 0, 0, 0), 0.04)]))
    omega0 = constant_form(geom, np.eye(2))
    return geom, chi, omega0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="out/j_experiment")
    parser.add_argument("--grids", type=int, nargs="+", default=[8, 16, 32])
    parser.add_argument("--path-steps", type=int, default=6)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for N in args.grids:
        geom, chi, omega0 = build_instance(N)
        c0 = compute_c0(chi, omega0)
        cfg = SolverConfig(path_steps=args.path_steps, tolerance=1e-10)
        t0 = time.monotonic()
        rep = continuity_path_j(chi, omega0, ScalarField.zeros(geom), c0, cfg)
        elapsed = time.monotonic() - t0
        # the path also records the coarse grids' steps; the fine ones have N
        total_iters = sum(h["iterations"] for h in rep.path_history)
        fine_iters = sum(h["iterations"] for h in rep.path_history if h["N"] == N)
        rows.append([N, c0, rep.final_residual, rep.cone_margin_min,
                     rep.c0_diagnostic, total_iters, fine_iters, elapsed])
        print(f"N={N:3d}  c0={c0:.6f}  residual={rep.final_residual:.3e}  "
              f"margin={rep.cone_margin_min:.4f}  iters={total_iters}  "
              f"fine iters={fine_iters}  {elapsed:.1f}s")

    with (out / "grid_sweep.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "c0", "final_residual", "cone_margin_min",
                    "oscillation", "newton_iterations", "fine_newton_iterations",
                    "seconds"])
        w.writerows(rows)
    print(f"wrote {out / 'grid_sweep.csv'}")


if __name__ == "__main__":
    main()
