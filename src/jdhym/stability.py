"""Slope-stability margins and phase-angle branch checks from intersection data.

Subvarieties enter only through their intersection vectors
``a_k = int_V chi^k ^ omega0^(p-k)`` for ``k = 0..p`` (so ``a_0`` is the
omega0-volume of V and ``a_p`` the chi-volume).  In the reversed indexing
``a'_k = int_V omega0^k ^ chi^(p-k) = a_{p-k}`` the slope margin reads
``(c - (n-p)*eps) * a'_p - p * a'_{p-1} = (c - (n-p)*eps) * a[0] - p * a[1]``.

For torus demos, coordinate subtori are generated from constant base
matrices via principal submatrices; no subvariety enumeration is attempted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchUndefinedError, UsageError
from .fields import intersections

__all__ = [
    "IntersectionData",
    "AngleBranch",
    "slope_test",
    "max_uniform_epsilon",
    "angle_branch",
    "branch_polynomial",
    "dhym_hypothesis_check",
    "coordinate_subtorus_data",
]

# the largest aligned terminal deviation from p*pi/2 that the sampled branch
# check accepts, and the largest |theta(1) - theta_hat| of the V = M dataset
TERMINAL_BOUND = 1e-2
START_BOUND = 1e-8


def _check_epsilon(epsilon: float) -> float:
    """``epsilon >= 0``, the slack of the slope test and of the angle check."""
    if epsilon < 0.0:
        raise UsageError("epsilon must be non-negative")
    return epsilon


def _check_t_max(t_max: float) -> float:
    """``t_max > 1``, the end of the sampled range ``[1, t_max]``."""
    if t_max <= 1.0:
        raise UsageError("t_max must exceed 1")
    return t_max


def _check_datasets(datasets) -> list:
    """At least one dataset, all of one ambient dimension ``n``, as a list."""
    datasets = list(datasets)
    if not datasets:
        raise UsageError("need at least one dataset")
    if len({d.n for d in datasets}) > 1:
        raise UsageError(f"datasets disagree on n: {sorted({d.n for d in datasets})}")
    return datasets


# the most samples of an angle branch, each of whose arrays holds one value per sample
MAX_SAMPLES = 2 ** 20


def _check_samples(samples: int) -> int:
    """From 8 to ``MAX_SAMPLES`` samples of an angle branch."""
    if not 8 <= samples <= MAX_SAMPLES:
        raise UsageError(f"samples must lie in [8, {MAX_SAMPLES}]")
    return samples


@dataclass(frozen=True)
class IntersectionData:
    """Dimension ``p``, ambient ``n`` and the p+1 numbers ``int_V chi^k omega0^(p-k)``."""

    p: int
    n: int
    a: tuple[float, ...]
    label: str = ""

    def __post_init__(self):
        if not 1 <= self.p <= self.n:
            raise UsageError(f"p must be in 1..n, got p={self.p}, n={self.n}")
        a = tuple(float(v) for v in self.a)
        if len(a) != self.p + 1:
            raise UsageError(f"need p+1 = {self.p + 1} intersection numbers, got {len(a)}")
        if any(not math.isfinite(v) for v in a):
            raise UsageError("intersection numbers must be finite")
        object.__setattr__(self, "a", a)

    def kahler_warnings(self) -> list[str]:
        """Non-fatal consistency notes: both volumes should be positive."""
        out = []
        if self.a[0] <= 0.0:
            out.append(f"{self.label or 'dataset'}: int_V omega0^p = {self.a[0]} <= 0")
        if self.a[-1] <= 0.0:
            out.append(f"{self.label or 'dataset'}: int_V chi^p = {self.a[-1]} <= 0")
        return out


def slope_test(data: IntersectionData, c: float, epsilon: float) -> float:
    """Signed margin ``(c - (n-p)*eps) * int_V omega0^p - p * int_V chi^omega0^(p-1)``.

    Non-negative iff the uniform slope test passes at slack ``epsilon``;
    1-homogeneous in the intersection vector.
    """
    _check_epsilon(epsilon)
    return (float(c) - (data.n - data.p) * float(epsilon)) * data.a[0] - data.p * data.a[1]


def max_uniform_epsilon(datasets, c: float) -> float | None:
    """Largest uniform slack keeping every margin non-negative.

    Top-dimension datasets act as feasibility constraints only.  Returns
    ``None`` when some dataset already fails at zero slack, ``inf`` when no
    dataset constrains the slack.  All datasets share one ``n``.
    """
    best = math.inf
    for d in _check_datasets(datasets):
        margin0 = slope_test(d, c, 0.0)
        if margin0 < 0.0:
            return None
        if d.p < d.n and d.a[0] > 0.0:
            best = min(best, margin0 / ((d.n - d.p) * d.a[0]))
    return best


def branch_polynomial(data: IntersectionData) -> np.ndarray:
    """Coefficients (highest degree first) of ``z(t) = int_V (chi + i t omega0)^p``."""
    p = data.p
    coeffs = np.zeros(p + 1, dtype=complex)
    for k in range(p + 1):
        m = p - k  # power of t contributed by (i t omega0)^(p-k)
        coeffs[p - m] = math.comb(p, k) * (1j ** m) * data.a[k]
    return coeffs


@dataclass(frozen=True)
class AngleBranch:
    """Sampled continuous argument of the intersection polynomial on [1, t_max].

    ``theta`` starts at the principal argument at t = 1 and is unwound with a
    pi/2-per-step guard.  ``branch_shift`` is the multiple of 2*pi aligning
    the terminal value with ``p*pi/2``; ``terminal_deviation`` is measured
    after that alignment.
    """

    data: IntersectionData
    t_samples: np.ndarray
    theta: np.ndarray
    branch_shift: float = 0.0

    @property
    def theta_start(self) -> float:
        return float(self.theta[0])

    @property
    def theta_min(self) -> float:
        return float(np.min(self.theta))

    @property
    def aligned_theta(self) -> np.ndarray:
        return self.theta + self.branch_shift

    @property
    def terminal_deviation(self) -> float:
        return abs(float(self.aligned_theta[-1]) - self.data.p * math.pi / 2.0)


def angle_branch(data: IntersectionData, t_max: float = 1e4,
                 samples: int = 512) -> AngleBranch:
    """Track the continuous argument of ``int_V (chi + i t omega0)^p``.

    Samples log-spaced points on [1, t_max].  A (near-)zero of the
    polynomial, or an argument jump of pi/2 or more between consecutive
    samples, raises :class:`BranchUndefinedError` naming the interval.
    """
    _check_t_max(t_max)
    _check_samples(samples)
    ts = np.logspace(0.0, math.log10(t_max), samples)
    ts[0] = 1.0
    coeffs = branch_polynomial(data)
    z = np.polyval(coeffs, ts)
    scale = np.polyval(np.abs(coeffs), ts)
    dead = np.abs(z) <= 1e-12 * scale
    if np.any(dead):
        i = int(np.argmax(dead))
        lo = ts[max(i - 1, 0)]
        hi = ts[min(i + 1, len(ts) - 1)]
        raise BranchUndefinedError(
            f"intersection polynomial vanishes near t = {ts[i]:.6g}",
            t_interval=(float(lo), float(hi)))
    theta = np.unwrap(np.angle(z))
    steps = np.abs(np.diff(theta))
    if np.any(steps >= math.pi / 2.0):
        i = int(np.argmax(steps >= math.pi / 2.0))
        raise BranchUndefinedError(
            f"argument jumps by {steps[i]:.3f} >= pi/2 on "
            f"({ts[i]:.6g}, {ts[i + 1]:.6g}); a zero crosses the sample range",
            t_interval=(float(ts[i]), float(ts[i + 1])))
    target = data.p * math.pi / 2.0
    shift = 2.0 * math.pi * round((target - float(theta[-1])) / (2.0 * math.pi))
    return AngleBranch(data=data, t_samples=ts, theta=theta, branch_shift=shift)


def dhym_hypothesis_check(datasets, theta_hat: float, epsilon: float,
                          t_max: float = 1e4, samples: int = 512) -> dict:
    """Sampled check of the angle-branch hypothesis for each dataset.

    For each dataset the branch must be defined on [1, t_max], stay inside
    ``[theta_hat - (n-p)*pi/2 + (n-p)*epsilon, p*pi/2)`` at every sample, and
    head to ``p*pi/2``; full-dimension datasets must additionally start at
    ``theta_hat``.  All datasets share one ``n``.  This is a sampled check,
    not a proof over all t; the verdict says so.
    """
    datasets = _check_datasets(datasets)
    n = datasets[0].n
    if not (n * math.pi / 2.0 - math.pi / 4.0 < theta_hat < n * math.pi / 2.0):
        raise UsageError("theta_hat must lie in (n*pi/2 - pi/4, n*pi/2)")
    _check_epsilon(epsilon)
    # the hypothesis quantifies over all V including V = M, so a
    # full-dimension dataset is mandatory input
    vm_present = any(d.p == d.n for d in datasets)
    records = []
    overall = vm_present
    for d in datasets:
        rec = {"label": d.label, "p": d.p, "ok": False, "reason": None,
               "theta_start": None, "terminal_deviation": None,
               "interval": None, "first_violation_t": None}
        lower = theta_hat - (n - d.p) * math.pi / 2.0 + (n - d.p) * epsilon
        upper = d.p * math.pi / 2.0
        rec["interval"] = [lower, upper]
        try:
            branch = angle_branch(d, t_max=t_max, samples=samples)
        except BranchUndefinedError as exc:
            rec["reason"] = f"branch undefined: {exc}"
            records.append(rec)
            overall = False
            continue
        theta = branch.aligned_theta
        rec["theta_start"] = float(theta[0])
        rec["terminal_deviation"] = branch.terminal_deviation
        bad = (theta < lower) | (theta >= upper)
        if np.any(bad):
            i = int(np.argmax(bad))
            rec["first_violation_t"] = float(branch.t_samples[i])
            rec["reason"] = (f"theta({branch.t_samples[i]:.6g}) = {theta[i]:.9g} "
                             f"outside [{lower:.9g}, {upper:.9g})")
        elif branch.terminal_deviation > TERMINAL_BOUND:
            rec["reason"] = (f"terminal deviation {branch.terminal_deviation:.3e} "
                             f"exceeds {TERMINAL_BOUND:.1e}")
        elif d.p == n and abs(float(theta[0]) - theta_hat) > START_BOUND:
            rec["reason"] = (f"theta(1) = {theta[0]:.12g} differs from "
                             f"theta_hat = {theta_hat:.12g}")
        else:
            rec["ok"] = True
        overall = overall and rec["ok"]
        records.append(rec)
    return {"kind": "sampled check", "overall": overall,
            "vm_present": vm_present, "datasets": records}


def coordinate_subtorus_data(chi_base: np.ndarray, omega0_base: np.ndarray
                             ) -> list[IntersectionData]:
    """Intersection vectors of all coordinate subtori for constant base forms.

    For each subset S of coordinates, the restricted forms are the principal
    submatrices and ``a`` is their :func:`fields.intersections` vector.
    """
    chi_base = np.asarray(chi_base, dtype=complex)
    omega0_base = np.asarray(omega0_base, dtype=complex)
    n = chi_base.shape[0]
    if chi_base.shape != (n, n) or omega0_base.shape != (n, n):
        raise UsageError("base matrices must be square of equal size")
    out = []
    for p in range(1, n + 1):
        for subset in itertools.combinations(range(n), p):
            idx = np.ix_(subset, subset)
            label = "V=M" if p == n else "V[" + ",".join(str(i + 1) for i in subset) + "]"
            out.append(IntersectionData(p=p, n=n, a=tuple(intersections(chi_base[idx],
                                                                        omega0_base[idx])),
                                        label=label))
    return out
