"""March the dHYM continuity path across a range of target angles.

For each angle the target form is the zero-integrability multiple of chi
perturbed by a fixed potential, so f = 0 is admissible and the analytic
solution is known; the script records the endpoint angle defect.

    python scripts/run_dhym_experiment.py --out out/dhym_experiment
"""

import argparse
import csv
import math
import time
from pathlib import Path

import numpy as np

from jdhym.fields import (ScalarField, TorusGeometry, complex_hessian,
                          constant_form, field_from_modes, form_field,
                          relative_spectrum_field)
from jdhym.solver import SolverConfig, continuity_path_dhym


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="out/dhym_experiment")
    parser.add_argument("--N", type=int, default=16)
    parser.add_argument("--angles", type=float, nargs="+",
                        default=[0.35, 0.5, math.pi / 5, 0.7])
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    geom = TorusGeometry(2, args.N)
    chi = constant_form(geom, np.eye(2))
    psi = field_from_modes(geom, [((1, 0, 0, 0), 0.05), ((0, 0, 0, 1), 0.03)])
    rows = []
    for theta0 in args.angles:
        s = (1.0 + math.cos(theta0)) / math.sin(theta0)  # zero-integrability scale
        omega0 = form_field(geom, s * np.eye(2), psi)
        cfg = SolverConfig(path_steps=6, tolerance=1e-11)
        t0 = time.monotonic()
        rep = continuity_path_dhym(chi, omega0, ScalarField.zeros(geom), theta0, cfg)
        elapsed = time.monotonic() - t0
        lam = relative_spectrum_field(chi.values,
                                      (omega0 + complex_hessian(rep.phi)).values)
        defect = float(np.max(np.abs(np.sum(np.arctan(1.0 / lam), -1) - theta0)))
        # the path also records the coarse grids' steps; the fine ones have N
        total_iters = sum(h["iterations"] for h in rep.path_history)
        fine_iters = sum(h["iterations"] for h in rep.path_history if h["N"] == args.N)
        rows.append([theta0, s, rep.final_residual, defect, total_iters, fine_iters, elapsed])
        print(f"theta0={theta0:.4f}  scale={s:.4f}  residual={rep.final_residual:.2e}  "
              f"angle defect={defect:.2e}  iters={total_iters}  fine iters={fine_iters}  "
              f"{elapsed:.1f}s")

    with (out / "angle_sweep.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta0", "target_scale", "final_residual", "angle_defect",
                    "newton_iterations", "fine_newton_iterations", "seconds"])
        w.writerows(rows)
    print(f"wrote {out / 'angle_sweep.csv'}")


if __name__ == "__main__":
    main()
