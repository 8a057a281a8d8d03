"""Energy functionals: the topological constant, the chi-energy, Aubin's I,
the base-form energy (the chi-energy at ``chi = omega0``) in both integral
representations, each exact, and a coercivity probe.

All functionals are shift-invariant in the potential; the probe therefore
reports the sup and the Monge-Ampere-energy normalization shifts alongside
each sample instead of choosing one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, UsageError
from .fields import (FormField, ScalarField, _require_kahler, complex_gradient,
                     complex_hessian, integrate, intersections, min_eigenvalue_field)
from .hermitian import _check_geoms, _require_positive

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
    """``n a_1 / a_0`` of the intersection vector ``a_k = int chi^k ^ omega0^(n-k)``,
    that is ``n * int(chi ^ omega0^(n-1)) / int(omega0^n)``; class data only."""
    n = _check_geoms(chi, omega0).n
    _require_kahler(chi, "chi")
    _require_kahler(omega0, "omega0")
    a = intersections(chi, omega0)
    return float(n * a[1] / a[0])


def _ladder(w: ScalarField | None, fixed: list, omega0: FormField, omega_phi: FormField,
            m: int) -> float:
    """``sum_{k=0..m} int w fixed ^ omega0^k ^ omega_phi^(m-k)`` (``w = None`` is 1)."""
    return sum(integrate(w, fixed + [omega0] * k + [omega_phi] * (m - k))
               for k in range(m + 1))


def j_chi_functional(chi: FormField, omega0: FormField, phi: ScalarField,
                     c0: float) -> float:
    """The chi-energy whose critical points solve ``tr_omega(chi) = c0``.

    Value is invariant under ``phi -> phi + const`` thanks to the defining
    property of ``c0``.
    """
    omega_phi = _require_kahler(omega0 + complex_hessian(phi), "omega_phi")
    return _chi_energy(chi, omega0, phi, omega_phi, c0,
                       _ladder(phi, [], omega0, omega_phi, chi.geometry.n))


def _chi_energy(chi: FormField, omega0: FormField, phi: ScalarField, omega_phi: FormField,
                c0: float, ma: float) -> float:
    """:func:`j_chi_functional` at its Kahler ``omega_phi = omega0 + i d dbar(phi)``,
    given the Monge-Ampere ladder ``ma = _ladder(phi, [], omega0, omega_phi, n)``."""
    n = chi.geometry.n
    return (_ladder(phi, [chi], omega0, omega_phi, n - 1) / math.factorial(n)
            - c0 * ma / math.factorial(n + 1))


def j_chi_derivative(chi: FormField, omega0: FormField, phi: ScalarField,
                     u: ScalarField, c0: float) -> float:
    """Directional derivative of the chi-energy at ``phi`` along ``u``.

    Equals ``int u * (chi ^ omega_phi^(n-1)/(n-1)! - c0 * omega_phi^n/n!)``;
    it vanishes for all ``u`` exactly at solutions.
    """
    n = chi.geometry.n
    omega_phi = _require_kahler(omega0 + complex_hessian(phi), "omega_phi")
    return (integrate(u, [chi] + [omega_phi] * (n - 1)) / math.factorial(n - 1)
            - c0 * integrate(u, [omega_phi] * n) / math.factorial(n))


def aubin_i(omega0: FormField, phi: ScalarField, form: str = "direct") -> float:
    """Aubin's I: ``int phi (omega0^n - omega_phi^n)``, always >= 0.

    ``form='gradient'`` evaluates the integrated-by-parts representation
    ``i int dphi ^ dbar(phi) ^ sum_k omega0^k omega_phi^(n-1-k)`` instead;
    the two agree to quadrature accuracy.
    """
    n = omega0.geometry.n
    hess = complex_hessian(phi)
    omega_phi = _require_kahler(omega0 + hess, "omega_phi")
    if form == "direct":  # omega0^n - omega_phi^n = -hess ^ sum_k omega0^k ^ omega_phi^(n-1-k)
        return -_ladder(phi, [hess], omega0, omega_phi, n - 1)
    if form != "gradient":
        raise UsageError("form must be 'direct' or 'gradient'")
    return _ladder(None, [_gradient_form(phi)], omega0, omega_phi, n - 1)


def _gradient_form(phi: ScalarField) -> np.ndarray:
    """The matrix grid ``dphi_i conj(dphi_j)`` of the (1,1)-form ``i dphi ^ dbar(phi)``."""
    grad = complex_gradient(phi)
    return grad[..., :, None] * np.conj(grad[..., None, :])


# the most ray intervals: a ray that leaves the cone costs an eigenvalue pass
# over the grid per node
MAX_T_STEPS = 2 ** 12


def _check_t_steps(t_steps: int) -> int:
    """An even number of 2 to ``MAX_T_STEPS`` ray intervals; a ray that leaves
    the Kahler cone is scanned at their nodes."""
    if not 2 <= t_steps <= MAX_T_STEPS or t_steps % 2:
        raise UsageError(f"t_steps must be an even integer in [2, {MAX_T_STEPS}]")
    return t_steps


def _kahler_ray(omega0: FormField, phi: ScalarField, t_steps: int) -> tuple:
    """``(i d dbar(phi), omega_phi)``, once ``omega_t = omega0 + t i d dbar(phi)`` is
    Kahler for all ``t`` in ``[0, 1]``.

    ``omega_t`` is affine in ``t``, so the ray is Kahler once both ends are;
    if one is not, the first bad one of ``t_steps + 1`` evenly spaced nodes
    is named (a :class:`NotKahlerError` with its grid point).
    """
    hess = complex_hessian(phi)
    omega_phi = omega0 + hess
    if min(w.min_eigenvalue() for w in (omega0, omega_phi)) <= 0:
        start, step = omega0.values, hess.values  # each read builds the matrices
        for t in np.linspace(0.0, 1.0, t_steps + 1):
            _require_positive(min_eigenvalue_field(start + float(t) * step),
                              f"omega_t (the ray leaves the Kahler cone first at t = {t:.6g})")
    return hess, omega_phi


def j_omega0_functional(omega0: FormField, phi: ScalarField, t_steps: int = 32,
                        form: str = "potential") -> float:
    """The base-form energy: the chi-energy at ``chi = omega0``, ``c0 = n``.

    Over the ray ``t*phi``, ``form='potential'`` integrates the density
    ``phi (omega0 ^ omega_t^(n-1)/(n-1)! - n omega_t^n/n!)``
    (:func:`j_chi_functional`) and ``form='gradient'`` the density
    ``i dphi ^ dbar(phi) ^ t omega_t^(n-1)/(n-1)!``, both exactly; the latter's
    ``t``-integral is ``sum_k C(n-1,k)/(k+2) Hess(phi)^k ^ omega0^(n-1-k)``.
    A ray that leaves the Kahler cone is refused at the first bad one of
    ``t_steps + 1`` evenly spaced nodes (:func:`_kahler_ray`).
    """
    n = omega0.geometry.n
    _check_t_steps(t_steps)
    if form not in ("potential", "gradient"):
        raise UsageError("form must be 'potential' or 'gradient'")
    hess, omega_phi = _kahler_ray(omega0, phi, t_steps)
    if form == "potential":
        return _chi_energy(omega0, omega0, phi, omega_phi, n,
                           _ladder(phi, [], omega0, omega_phi, n))
    gmat = _gradient_form(phi)
    return sum(math.comb(n - 1, k) / (k + 2)
               * integrate(None, [gmat] + [hess] * k + [omega0] * (n - 1 - k))
               for k in range(n)) / math.factorial(n - 1)


def monge_ampere_energy(omega0: FormField, phi: ScalarField) -> float:
    """Volume-normalized Monge-Ampere energy; shifts by ``c`` under ``phi + c``."""
    n = omega0.geometry.n
    omega_phi = omega0 + complex_hessian(phi)
    return (_ladder(phi, [], omega0, omega_phi, n)
            / ((n + 1) * integrate(None, [omega0] * n)))


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
    n = omega0.geometry.n
    volume = integrate(None, [omega0] * n)
    records = []
    for idx, phi in enumerate(phis):
        rec = {"sample": idx, "j_omega0": None, "j_chi": None,
               "sup_shift": None, "energy_shift": None, "error": None}
        try:  # one omega_phi, Kahler along the ray, and one ladder serve every value
            omega_phi = _kahler_ray(omega0, phi, _check_t_steps(t_steps))[1]
            ma = _ladder(phi, [], omega0, omega_phi, n)
            rec["j_omega0"] = _chi_energy(omega0, omega0, phi, omega_phi, n, ma)
            rec["j_chi"] = _chi_energy(chi, omega0, phi, omega_phi, c0, ma)
            rec["sup_shift"] = float(np.max(phi.values))
            rec["energy_shift"] = ma / ((n + 1) * volume)  # monge_ampere_energy
        except (DomainError, UsageError) as exc:
            rec["error"] = str(exc)
        records.append(rec)
    return records
