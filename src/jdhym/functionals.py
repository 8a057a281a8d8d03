"""Energy functionals: the topological constant, the chi-energy, Aubin's I,
the base-form energy in both integral representations, and a coercivity probe.

All functionals are shift-invariant in the potential; the probe therefore
reports the sup and the Monge-Ampere-energy normalization shifts alongside
each sample instead of choosing one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, UsageError
from .fields import (FormField, ScalarField, _require_kahler, complex_gradient,
                     complex_hessian, mixed_density)
from .hermitian import _check_geoms

__all__ = [
    "compute_c0",
    "j_chi_functional",
    "j_chi_derivative",
    "aubin_i",
    "j_omega0_functional",
    "monge_ampere_energy",
    "coercivity_probe",
]


def compute_c0(chi: FormField, omega0: FormField) -> float:
    """``n * int(chi ^ omega0^(n-1)) / int(omega0^n)``; class data only."""
    n = _check_geoms(chi, omega0).n
    _require_kahler(chi, "chi")
    _require_kahler(omega0, "omega0")
    num = np.mean(mixed_density([chi.values] + [omega0.values] * (n - 1)))
    den = np.mean(mixed_density([omega0.values] * n))
    if den <= 0.0 or num <= 0.0:
        raise DomainError("wedge integrals must be positive")
    return float(n * num / den)


def j_chi_functional(chi: FormField, omega0: FormField, phi: ScalarField,
                     c0: float) -> float:
    """The chi-energy whose critical points solve ``tr_omega(chi) = c0``.

    Value is invariant under ``phi -> phi + const`` thanks to the defining
    property of ``c0``.
    """
    geom = chi.geometry
    n = geom.n
    omega_phi = _require_kahler(omega0 + complex_hessian(phi), "omega_phi")
    total = 0.0
    for k in range(n):
        mats = [chi.values] + [omega0.values] * k + [omega_phi.values] * (n - 1 - k)
        total += np.mean(phi.values * mixed_density(mats)) / math.factorial(n)
    for k in range(n + 1):
        mats = [omega0.values] * k + [omega_phi.values] * (n - k)
        total -= c0 * np.mean(phi.values * mixed_density(mats)) / math.factorial(n + 1)
    return float(total)


def j_chi_derivative(chi: FormField, omega0: FormField, phi: ScalarField,
                     u: ScalarField, c0: float) -> float:
    """Directional derivative of the chi-energy at ``phi`` along ``u``.

    Equals ``int u * (chi ^ omega_phi^(n-1)/(n-1)! - c0 * omega_phi^n/n!)``;
    it vanishes for all ``u`` exactly at solutions.
    """
    geom = chi.geometry
    n = geom.n
    omega_phi = _require_kahler(omega0 + complex_hessian(phi), "omega_phi")
    dens = (mixed_density([chi.values] + [omega_phi.values] * (n - 1)) / math.factorial(n - 1)
            - c0 * mixed_density([omega_phi.values] * n) / math.factorial(n))
    return float(np.mean(u.values * dens))


def aubin_i(omega0: FormField, phi: ScalarField, form: str = "direct") -> float:
    """Aubin's I: ``int phi (omega0^n - omega_phi^n)``, always >= 0.

    ``form='gradient'`` evaluates the integrated-by-parts representation
    ``i int dphi ^ dbar(phi) ^ sum_k omega0^k omega_phi^(n-1-k)`` instead;
    the two agree to quadrature accuracy.
    """
    geom = omega0.geometry
    n = geom.n
    omega_phi = _require_kahler(omega0 + complex_hessian(phi), "omega_phi")
    if form == "direct":
        dens = mixed_density([omega0.values] * n) - mixed_density([omega_phi.values] * n)
        return float(np.mean(phi.values * dens))
    if form != "gradient":
        raise UsageError("form must be 'direct' or 'gradient'")
    grad = complex_gradient(phi)
    gmat = grad[..., :, None] * np.conj(grad[..., None, :])
    total = 0.0
    for k in range(n):
        mats = [gmat] + [omega0.values] * k + [omega_phi.values] * (n - 1 - k)
        total += np.mean(mixed_density(mats))
    return float(total)


def _check_t_steps(t_steps: int) -> int:
    """An even number of at least 2 Simpson steps."""
    if t_steps < 2 or t_steps % 2:
        raise UsageError("t_steps must be an even integer >= 2")
    return t_steps


def j_omega0_functional(omega0: FormField, phi: ScalarField, t_steps: int = 32,
                        form: str = "potential") -> float:
    """The base-form energy as a Simpson t-integral over the ray ``t*phi``.

    ``form='potential'`` uses the density
    ``phi (omega0 ^ omega_t^(n-1)/(n-1)! - n omega_t^n/n!)``;
    ``form='gradient'`` uses ``i dphi ^ dbar(phi) ^ t omega_t^(n-1)/(n-1)!``.
    The path must stay Kahler for every node; the first bad node is named
    (a :class:`NotKahlerError` with its grid point).
    """
    geom = omega0.geometry
    n = geom.n
    _check_t_steps(t_steps)
    if form not in ("potential", "gradient"):
        raise UsageError("form must be 'potential' or 'gradient'")
    hess = complex_hessian(phi)
    if form == "gradient":
        grad = complex_gradient(phi)
        gmat = grad[..., :, None] * np.conj(grad[..., None, :])
    ts = np.linspace(0.0, 1.0, t_steps + 1)
    integrand = np.empty_like(ts)
    for i, t in enumerate(ts):
        omega_t = _require_kahler(omega0 + float(t) * hess,
                                  f"omega_t (the ray leaves the Kahler cone first at t = {t:.6g})")
        if form == "potential":
            dens = (mixed_density([omega0.values] + [omega_t.values] * (n - 1))
                    / math.factorial(n - 1)
                    - n * mixed_density([omega_t.values] * n) / math.factorial(n))
            integrand[i] = np.mean(phi.values * dens)
        else:
            mats = [gmat] + [omega_t.values] * (n - 1)
            integrand[i] = t * np.mean(mixed_density(mats)) / math.factorial(n - 1)
    h = 1.0 / t_steps
    weights = np.ones_like(ts)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(np.sum(weights * integrand) * h / 3.0)


def monge_ampere_energy(omega0: FormField, phi: ScalarField) -> float:
    """Volume-normalized Monge-Ampere energy; shifts by ``c`` under ``phi + c``."""
    geom = omega0.geometry
    n = geom.n
    omega_phi = omega0 + complex_hessian(phi)
    total = 0.0
    for k in range(n + 1):
        mats = [omega0.values] * k + [omega_phi.values] * (n - k)
        total += np.mean(phi.values * mixed_density(mats))
    vol = np.mean(mixed_density([omega0.values] * n))
    return float(total / ((n + 1) * vol))


def coercivity_probe(chi: FormField, omega0: FormField, phis,
                     c0: float | None = None, t_steps: int = 32) -> list[dict]:
    """Scatter data ``(j_omega0, j_chi)`` over sample potentials.

    Diagnostics only: coercivity quantifies over all potentials and is not
    decidable from finitely many samples.  Per-sample failures are recorded
    in the ``error`` slot, not raised.  Both functionals are shift-invariant,
    so the sup- and energy-zero normalizations give the same pair; their
    shifts are reported per sample.
    """
    if c0 is None:
        c0 = compute_c0(chi, omega0)
    records = []
    for idx, phi in enumerate(phis):
        rec = {"sample": idx, "j_omega0": None, "j_chi": None,
               "sup_shift": None, "energy_shift": None, "error": None}
        try:
            rec["j_omega0"] = j_omega0_functional(omega0, phi, t_steps=t_steps)
            rec["j_chi"] = j_chi_functional(chi, omega0, phi, c0)
            rec["sup_shift"] = float(np.max(phi.values))
            rec["energy_shift"] = monge_ampere_energy(omega0, phi)
        except (DomainError, UsageError) as exc:
            rec["error"] = str(exc)
        records.append(rec)
    return records
