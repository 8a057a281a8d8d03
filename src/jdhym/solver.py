"""Residuals, linearizations, damped Newton, and the continuity paths.

Both equations are solved for a potential ``phi`` with ``omega_phi =
omega_0 + i d dbar(phi)`` and are driven by the relative eigenvalues
``lam_i`` of ``omega_phi`` against ``chi``:

* J-type: ``sum(1/lam_i) + f / prod(lam_i) - c = 0`` pointwise,
* dHYM:   ``sin(theta0 - sum arctan(1/lam_i)) - f cos(theta0)/prod sqrt(lam_i^2+1) = 0``.

The linearized operators annihilate constants, so each Newton step solves
the mean-zero projection ``A u = b`` of the linear system: ``lgmres`` solves
``(A P) y = b`` with ``P`` the inverse constant-coefficient Fourier symbol,
``u = P y``, and stops on the true residual ``b - A u``; the component of
the residual outside the numerical range (its volume-weighted mean) is
surfaced as ``multiplier`` instead of silently absorbed.
Newton is inexact: a step's Krylov tolerance is an Eisenstat-Walker forcing
term with ``linear_tol`` as its floor (see :func:`newton_solve`).  While
that term is at least ``FLOAT32_RTOL`` the Krylov operator runs in float32,
whose relative error (2.5e-7) stays far below the residual asked for; the
Krylov basis, the residual and the Newton update stay float64 (see
:func:`_solve_linear`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np
from scipy.sparse.linalg import LinearOperator, lgmres

from .errors import (ConeBreachError, ContinuationError, DataError, DomainError,
                     EllipticityLostError, PreconditionError, UsageError)
from .fields import (FormField, ScalarField, TorusGeometry, _hermitian_rows,
                     _hessian_symbols, _irfft, _pairs, _rfft, _require_kahler, complex_hessian,
                     form_field, hessian_values, integrate, intersections, mixed_density,
                     relative_spectrum_field, resample)
from .hermitian import (_BLOCK2, _check_c, _check_f, _check_geoms, _check_theta0, _cone_margin,
                        _dhym_angle_radius, _dhym_gradient, _dhym_value, _f_bound_dhym,
                        _f_bound_j, _j_value, _reduce_last, _require_positive)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "j_residual",
    "j_linearization_apply",
    "dhym_residual",
    "dhym_linearization_apply",
    "make_j_problem",
    "make_dhym_problem",
    "newton_solve",
    "continuity_path_j",
    "continuity_path_dhym",
    "estimate_peak_bytes",
]

@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-10
    max_newton: int = 30
    path_steps: int = 8
    cone_slack: float = 0.0
    linear_tol: float = 1e-10
    linear_max_iter: int = 400

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance >= 1e-12):
            raise UsageError("tolerance must be finite and >= 1e-12")
        if not 0.0 <= self.linear_tol < 1.0:
            raise UsageError("linear_tol must lie in [0, 1)")
        if self.path_steps < 1:
            raise UsageError("path_steps must be >= 1")
        if self.max_newton < 1 or self.linear_max_iter < 1:
            raise UsageError("iteration limits must be positive")
        if not 0.0 <= self.cone_slack < math.inf:
            raise UsageError("cone_slack must be finite and >= 0")


@dataclass
class SolveReport:
    """Outcome of one Newton solve (or the endpoint of a path)."""

    phi: ScalarField
    residual_history: list[float]
    cone_margin_min: float
    c2_diagnostic: float
    c0_diagnostic: float
    multiplier: float
    status: str
    iterations: int
    path_history: list[dict] = dataclass_field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.status == "converged"

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]

    def to_json_dict(self) -> dict:
        return {key: getattr(self, key) for key in (
            "status", "iterations", "final_residual", "residual_history", "cone_margin_min",
            "c2_diagnostic", "c0_diagnostic", "multiplier", "path_history")}


# Peak memory of a solve per grid point, in float64 grid arrays: the peak RSS
# above the built inputs measured for cold Newton solves of a manufactured J
# instance (about 32 arrays at n = 1, N = 1024; 46 at n = 2, N = 32; 133 at
# n = 3, N = 8, where the forms and the eigh-based coefficient hold complex
# 3 x 3 fields) and for the continuity paths of configs/ at n = 2, N = 32
# (31, inputs included), rounded up for Krylov bases that fill and for the
# temporaries of other data.
PEAK_GRID_ARRAYS = {1: 32, 2: 64, 3: 256}


def estimate_peak_bytes(geom: TorusGeometry) -> int:
    """Estimated peak memory of a solve on ``geom``, from the grid alone."""
    return geom.grid_size * 8 * PEAK_GRID_ARRAYS[geom.n]


# ---------------------------------------------------------------------------
# pointwise residuals


def _lam_field(chi: FormField, omega0: FormField, phi: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """(relative spectrum field, omega_phi values); ``omega_phi`` is summed
    into the Hessian grid, so a step holds one complex matrix grid."""
    omega = hessian_values(phi)
    omega += omega0.values
    return relative_spectrum_field(chi.values, omega), omega


def _residual(problem: _NewtonProblem, phi: ScalarField) -> ScalarField:
    """The residual of ``problem`` at ``phi``, where ``omega_phi`` must be Kahler."""
    ev = problem.evaluate(phi)
    _require_positive(ev.lam[..., 0], "omega_phi")
    return ScalarField(problem.geometry, ev.residual)


def j_residual(chi: FormField, omega0: FormField, phi: ScalarField,
               f: ScalarField, c: float) -> ScalarField:
    """Pointwise ``tr_{omega_phi}(chi) + f * chi^n/omega_phi^n - c``."""
    return _residual(make_j_problem(chi, omega0, f, c), phi)


# Closed-form n = 2 kernels.  A Hermitian 2 x 2 field is held as the triple
# (real diagonal 0, real diagonal 1, complex upper entry); the fields are
# Hermitian by construction, so the lower entry is not read.


def _herm2(m: np.ndarray) -> tuple:
    return m[..., 0, 0].real, m[..., 1, 1].real, m[..., 0, 1]


def _inv2(m: tuple) -> tuple:
    m0, m1, m01 = m
    det = m0 * m1 - (m01.real * m01.real + m01.imag * m01.imag)
    return m1 / det, m0 / det, -m01 / det


def _gxg2(g: tuple, x: tuple) -> tuple:
    """The product ``G X G`` of Hermitian 2 x 2 fields, written out entrywise."""
    g0, g1, g01 = g
    x0, x1, x01 = x
    gx = g01 * np.conj(x01)
    c = 2.0 * gx.real
    gg = g01.real * g01.real + g01.imag * g01.imag
    t0 = g0 * (g0 * x0 + c) + gg * x1
    t1 = g1 * (g1 * x1 + c) + gg * x0
    t01 = g01 * (g0 * x0 + g1 * x1 + gx) + (g0 * g1) * x01
    return t0, t1, t01


def _rows2(block, chi: FormField, omega_vals: np.ndarray, lam: np.ndarray,
           f_vals: np.ndarray) -> np.ndarray:
    """The rows (see :func:`fields._hermitian_rows`) of an n = 2 coefficient,
    written into one array block by block.

    ``block(omega, chi, lam, f)`` maps ``hermitian._BLOCK2`` points of each
    input (the forms as 2 x 2 triples) to the coefficient's triple, so its
    temporaries stay in cache and no full-grid one is made.  A constant
    ``chi`` is read from its base matrix.
    """
    shape = lam.shape[:-1]
    omega = omega_vals.reshape(-1, 2, 2)
    chi = np.broadcast_to(chi.base if chi.potential is None else chi.values,
                          shape + (2, 2)).reshape(-1, 2, 2)
    lam = lam.reshape(-1, 2)
    f_vals = f_vals.reshape(-1)
    rows = np.empty((4, len(lam)))
    for start in range(0, len(lam), _BLOCK2):
        part = slice(start, start + _BLOCK2)
        m0, m1, m01 = block(_herm2(omega[part]), _herm2(chi[part]), lam[part], f_vals[part])
        rows[0, part], rows[1, part] = m0, m1
        rows[2, part], rows[3, part] = 2.0 * m01.real, 2.0 * m01.imag
    return rows.reshape((4,) + shape)


def _coefficient_rows(M: np.ndarray) -> np.ndarray:
    """The rows (see :func:`fields._hermitian_rows`) of the Hermitian part of ``M``."""
    n = M.shape[-1]
    return _hermitian_rows([M[..., i, i].real for i in range(n)],
                           [0.5 * (M[..., i, j] + np.conj(M[..., j, i])) for i, j in _pairs(n)])


def _j_rows(chi: FormField, omega_vals: np.ndarray, lam: np.ndarray,
            f_vals: np.ndarray) -> np.ndarray:
    """Rows of the Hermitian W with ``d(j_residual)(u) = -tr(W Hess u)``.

    ``W = G chi G + q G`` with ``G = omega^-1`` and ``q = f chi^n/omega^n``;
    written out entrywise at n = 2, block by block (:func:`_rows2`).
    """
    if chi.geometry.n == 2:
        def block(omega, chi2, lam, f):
            g = _inv2(omega)
            q = f / _reduce_last(np.multiply, lam)
            t0, t1, t01 = _gxg2(g, chi2)
            return t0 + q * g[0], t1 + q * g[1], t01 + q * g[2]

        return _rows2(block, chi, omega_vals, lam, f_vals)
    q = f_vals / _reduce_last(np.multiply, lam)
    gi = np.linalg.inv(omega_vals)
    return _coefficient_rows(gi @ np.ascontiguousarray(chi.values) @ gi
                             + q[..., None, None] * gi)


def _dhym_rows(chi: FormField, omega_vals: np.ndarray, lam: np.ndarray,
               f_vals: np.ndarray, theta0: float) -> np.ndarray:
    """Rows of the projector sum ``M = sum_i w(lam_i) v_i v_i^H`` with
    ``d(dhym_residual)(u) = tr(M Hess u)``, where ``omega v_i = lam_i chi v_i``,
    ``v_i^H chi v_j = delta_ij`` and ``w(lam) = (C + g*lam)/(lam^2 + 1)``.

    ``C = cos(theta0 - sum arctan(1/lam_i))`` and ``g = f cos(theta0)/prod
    sqrt(lam_i^2 + 1)`` are symmetric in the eigenvalues, so the weights
    coincide on clusters and ``M`` is continuous through eigenvalue
    crossings.  At n = 2 the sum is ``a chi^-1 + b chi^-1 omega chi^-1`` with
    ``b`` the divided difference of the weights and ``a = w_1 - b*lam_1``,
    block by block (:func:`_rows2`); otherwise the pairs ``(lam_i, v_i)``
    come from ``eigh`` in the Cholesky frame of ``chi`` and the weights from
    ``hermitian._dhym_gradient``.
    """
    if chi.geometry.n == 2:
        def block(omega, chi2, lam, f):
            chi_inv = _inv2(chi2)
            l1, l2 = lam[..., 0], lam[..., 1]
            q1, q2 = l1 * l1 + 1.0, l2 * l2 + 1.0
            s, r = _dhym_angle_radius(lam)
            C = np.cos(theta0 - s)
            g = f * math.cos(theta0) / r
            b = (g * (1.0 - l1 * l2) - C * (l1 + l2)) / (q1 * q2)
            a = (C + g * l1) / q1 - b * l1
            t0, t1, t01 = _gxg2(chi_inv, omega)
            return a * chi_inv[0] + b * t0, a * chi_inv[1] + b * t1, a * chi_inv[2] + b * t01

        return _rows2(block, chi, omega_vals, lam, f_vals)
    Linv = np.linalg.inv(np.linalg.cholesky(chi.base if chi.potential is None
                                            else chi.values))
    lam, U = np.linalg.eigh(Linv @ omega_vals @ Linv.conj().swapaxes(-1, -2))
    V = Linv.conj().swapaxes(-1, -2) @ U
    w = _dhym_gradient(lam, f_vals, theta0)
    return _coefficient_rows(np.einsum("...ik,...k,...jk->...ij", V, w.astype(complex),
                                       np.conj(V)))


def _tr_m_hessian(geom: TorusGeometry, coef: np.ndarray, phat: np.ndarray) -> np.ndarray:
    """``tr(M Hess u)`` from ``rfftn(u)`` and the rows of M, without the Hessian.

    Computed in the precision of ``coef``: float32 rows take the symbols
    rounded to float32 inside the product (no cached copy) and a complex64
    ``phat``, and give a float32 result.
    """
    out = np.zeros(geom.shape, coef.dtype)
    spectral = np.result_type(coef.dtype, np.complex64)
    for row, sym in zip(coef, _hessian_symbols(geom)):
        e = _irfft(geom, np.multiply(sym, phat, dtype=spectral))
        e *= row
        out += e
    return out


def _apply_rows(geom: TorusGeometry, rows: np.ndarray, sign: float,
                u: ScalarField) -> ScalarField:
    """``sign * tr(M Hess u)`` with M given by its rows."""
    if not np.all(np.isfinite(u.values)):
        raise DataError("direction contains non-finite values")
    return ScalarField(geom, sign * _tr_m_hessian(geom, rows, _rfft(u.values)))


def j_linearization_apply(chi: FormField, omega0: FormField, phi: ScalarField,
                          f: ScalarField, u: ScalarField,
                          c: float | None = None) -> ScalarField:
    """Directional derivative of :func:`j_residual` at ``phi`` along ``u``.

    Elliptic (definite Fourier symbol) exactly when the coefficient
    ``W = G (chi + q omega) G`` is positive, i.e. when ``1 + q*lam_i > 0``
    for every relative eigenvalue; the strict c-subsolution condition
    guarantees it, and ``c`` enables that explicit cone check when provided.
    """
    geom = _check_geoms(chi, omega0, phi, f, u)
    lam, omega_vals = _lam_field(chi, omega0, phi)
    if c is not None and _cone_margin(1.0 / lam, c) <= 0.0:
        raise EllipticityLostError("iterate is not a strict c-subsolution")
    q = f.values / _reduce_last(np.multiply, lam)
    if float(np.min(np.minimum(1.0 + q * lam[..., 0], 1.0 + q * lam[..., -1]))) <= 0.0:
        raise EllipticityLostError("linearized coefficient lost positivity")
    return _apply_rows(geom, _j_rows(chi, omega_vals, lam, f.values), -1.0, u)


def dhym_residual(chi: FormField, omega0: FormField, phi: ScalarField,
                  f: ScalarField, theta0: float, form: str = "angle") -> ScalarField:
    """Pointwise dHYM defect.

    ``form='angle'`` evaluates through the relative spectrum; ``form='wedge'``
    evaluates independently through the complex determinant of
    ``omega_phi + i*chi`` (imaginary/real parts of the top wedge).  The two
    agree identically up to rounding.
    """
    problem = make_dhym_problem(chi, omega0, f, theta0)
    if form == "angle":
        return _residual(problem, phi)
    if form != "wedge":
        raise UsageError("form must be 'angle' or 'wedge'")
    det = np.linalg.det((omega0 + complex_hessian(phi)).values + 1j * chi.values)
    det_chi = np.linalg.det(chi.values).real
    vals = -math.cos(theta0) * (det.imag + f.values * det_chi
                                - math.tan(theta0) * det.real) / np.abs(det)
    return ScalarField(problem.geometry, vals)


def dhym_linearization_apply(chi: FormField, omega0: FormField, phi: ScalarField,
                             f: ScalarField, theta0: float, u: ScalarField) -> ScalarField:
    """Directional derivative of :func:`dhym_residual` at ``phi`` along ``u``.

    Applies the spectral-projector coefficient of :func:`_dhym_rows`, the
    derivative of a symmetric function of the relative spectrum; it is
    continuous through eigenvalue crossings, so degenerate spectra need no
    special treatment.
    """
    geom = _check_geoms(chi, omega0, phi, f, u)
    lam, omega_vals = _lam_field(chi, omega0, phi)
    return _apply_rows(geom, _dhym_rows(chi, omega_vals, lam, f.values, float(theta0)), 1.0, u)


# ---------------------------------------------------------------------------
# Newton problems

@dataclass
class _Eval:
    """One iterate's evaluation.

    ``omega_vals`` (``omega_phi``, one complex matrix grid) and ``lam`` (its
    relative spectrum) are what the coefficient rows are built from;
    :func:`newton_solve` sets both to ``None`` once the rows are assembled,
    so the Krylov solve and the next line-search candidate do not overlap
    them.  ``c2`` is ``max sum(lam_i)``, the report's ``c2_diagnostic``, kept
    as a float for that reason.
    """

    phi: ScalarField
    omega_vals: np.ndarray | None
    lam: np.ndarray | None
    c2: float
    kahler_margin: float
    cone_margin: float
    residual: np.ndarray | None
    weight: np.ndarray | None


@dataclass
class _NewtonProblem:
    """Bundle of closures consumed by :func:`newton_solve`."""

    geometry: TorusGeometry
    evaluate: Callable[[ScalarField], _Eval]
    # (rows of M as in fields._hermitian_rows, sign): d(residual)(u) = sign * tr(M Hess u)
    linear_coefficient: Callable[[_Eval], tuple[np.ndarray, float]]
    gauge_weight: np.ndarray


def _chi_mean(f: ScalarField | None, chi: FormField) -> float:
    """``mean(f det chi) = int(f chi^n)/n!``; ``f = None`` stands for 1."""
    n = chi.geometry.n
    return integrate(f, [chi] * n) / math.factorial(n)


def _newton_problem(chi: FormField, omega0: FormField, f: ScalarField, param: float,
                    value: Callable, cone_terms: Callable, rows: Callable,
                    sign: float) -> _NewtonProblem:
    """The Newton problem of ``value(lam, f, param) = 0`` for one equation.

    ``value`` is ``hermitian._j_value`` (``param = c``) or
    ``hermitian._dhym_value`` (``param = theta0``); the volume ratio it also
    returns, times ``det chi``, weights the residual's mean.  The cone margin
    is ``param`` minus the worst leave-one-out sum of ``cone_terms(lam)``;
    the terms' sum is taken once, for the margin and for ``value``.
    ``rows(ev)`` are the linearization's coefficient rows, applied with ``sign``.
    """
    geom = chi.geometry
    det_chi = mixed_density([chi.values] * geom.n) / math.factorial(geom.n)
    gauge = mixed_density([omega0.values] * geom.n)

    def evaluate(phi: ScalarField) -> _Eval:
        lam, omega_vals = _lam_field(chi, omega0, phi)
        c2 = float(np.max(_reduce_last(np.add, lam)))
        kahler = float(np.min(lam[..., 0]))
        if kahler <= 0.0:
            return _Eval(phi, omega_vals, lam, c2, kahler, -math.inf, None, None)
        terms = cone_terms(lam)
        total = _reduce_last(np.add, terms)
        cone = _cone_margin(terms, param, total)
        del terms  # not beside the value's temporaries
        res, ratio = value(lam, f.values, param, total)
        return _Eval(phi, omega_vals, lam, c2, kahler, cone, res, det_chi * ratio)

    def linear_coefficient(ev: _Eval):
        return rows(ev), sign

    return _NewtonProblem(geom, evaluate, linear_coefficient, gauge)


def _j_checked(chi: FormField, omega0: FormField, f: ScalarField, c: float) -> float:
    """``c``, once the J hypotheses on ``(chi, omega0, f, c)`` hold."""
    n = _check_geoms(chi, omega0, f).n
    _require_kahler(chi, "chi")
    _require_kahler(omega0, "omega0")
    c = _check_c(c)
    _check_f(f.values, _f_bound_j(n, c))
    return c


def make_j_problem(chi: FormField, omega0: FormField, f: ScalarField,
                   c: float) -> _NewtonProblem:
    c = _j_checked(chi, omega0, f, c)
    return _newton_problem(chi, omega0, f, c, _j_value, lambda lam: 1.0 / lam,
                           lambda ev: _j_rows(chi, ev.omega_vals, ev.lam, f.values), -1.0)


def _dhym_checked(chi: FormField, omega0: FormField, f: ScalarField,
                  theta0: float) -> float:
    """``theta0``, once the dHYM hypotheses on ``(chi, omega0, f, theta0)`` hold."""
    n = _check_geoms(chi, omega0, f).n
    _require_kahler(chi, "chi")
    _require_kahler(omega0, "omega0")
    theta0 = _check_theta0(theta0)
    _check_f(f.values, _f_bound_dhym(n))
    return theta0


def make_dhym_problem(chi: FormField, omega0: FormField, f: ScalarField,
                      theta0: float) -> _NewtonProblem:
    theta0 = _dhym_checked(chi, omega0, f, theta0)
    return _newton_problem(
        chi, omega0, f, theta0, _dhym_value, lambda lam: np.arctan(1.0 / lam),
        lambda ev: _dhym_rows(chi, ev.omega_vals, ev.lam, f.values, theta0), 1.0)


# ---------------------------------------------------------------------------
# linear solve machinery


class _KrylovBudget(Exception):
    """Raised by the Krylov operator when ``linear_max_iter`` is used up."""


# Krylov solves asked for a relative residual of at least this apply their
# operator in float32 (see _solve_linear)
FLOAT32_RTOL = 1e-4


def _solve_linear(geom: TorusGeometry, coef: np.ndarray, rhs: np.ndarray,
                  config: SolverConfig, rtol: float | None = None) -> tuple[np.ndarray, int]:
    """Solve ``tr(M Hess u) = rhs`` on mean-zero functions; M given by its rows.

    With ``A v = tr(M Hess v) - mean`` and ``P`` the inverse Fourier symbol of
    the mean coefficient, ``lgmres`` solves ``(A P) y = b`` (P folds into the
    spectrum A computes anyway) and ``u = P y``; it stops on the true residual
    ``|b - A u| <= rtol |b|`` (default ``linear_tol``).  Asking for more than
    ``linear_max_iter`` applications of ``A`` ends the solve.  Returns ``u``
    and the ``lgmres`` info (non-zero, with ``u`` unusable, on failure).

    Precision: when ``rtol >= FLOAT32_RTOL`` the operator ``A P`` (the
    transform, ``inv_sym``, the rows and symbols, the mean projection) runs
    in float32 on float32 copies of the rows and ``inv_sym``; ``y`` is cast
    in and the result back to float64.  ``lgmres`` and its basis, ``b``,
    ``u = P y`` and the caller's residual, gauge and update stay float64,
    and tighter solves are float64 throughout.  The float32 operator is
    ``A P`` to a relative 2.5e-7 (white noise at n = 2, N = 32), more than
    two orders below the tightest residual it serves, so the solve still
    meets its forcing term, which is all an inexact Newton step needs
    (Kelley, "Newton's method in mixed precision", SIAM Review 64, 2022).
    """
    G = geom.grid_size
    shape = geom.shape
    rtol = config.linear_tol if rtol is None else rtol
    # the half-spectrum symbol of u -> tr(Mbar Hess u), Mbar the grid mean of M;
    # negative away from the mean
    sym = np.zeros(geom.shape[:-1] + (geom.N // 2 + 1,))
    for c, part in zip(coef.reshape(len(coef), -1).mean(axis=1), _hessian_symbols(geom)):
        sym += c * part
    # zero symbol = modes the discrete operator annihilates (mean, Nyquist);
    # P suppresses them and the projection handles the mean
    scale = float(np.max(np.abs(sym)))
    dead = np.abs(sym) <= 1e-14 * max(scale, 1.0)
    inv_sym = np.where(dead, 0.0, 1.0 / np.where(dead, 1.0, sym))
    budget = iter(range(config.linear_max_iter))  # one item per application of A
    dtype = np.float32 if rtol >= FLOAT32_RTOL else np.float64
    op_coef, op_inv = coef.astype(dtype, copy=False), inv_sym.astype(dtype, copy=False)

    # every Hessian symbol vanishes at k = 0, so A P needs only its output
    # projected; inv_sym is 0 there, so u = P y is mean-zero
    def matvec(y):
        if not y.any():  # lgmres applies A to its zero initial guess: free, no budget
            return np.zeros_like(y)
        if next(budget, None) is None:
            raise _KrylovBudget
        vhat = _rfft(y.reshape(shape).astype(dtype, copy=False))
        vhat *= op_inv
        out = _tr_m_hessian(geom, op_coef, vhat)
        out -= out.mean()
        return out.reshape(-1).astype(np.float64, copy=False)

    # drop unresolvable (annihilated-mode) content from the right-hand side;
    # it is quadrature junk and would otherwise stall the Krylov iteration
    bhat = np.where(dead, 0.0, _rfft(rhs))
    b = _irfft(geom, bhat).reshape(-1)
    # matvec reads only inv_sym, so the rest need not sit on the Krylov peak
    del bhat, dead, sym
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(shape), 0
    # each restart cycle applies A, so the budget ends a solve before maxiter
    try:
        y, info = lgmres(LinearOperator((G, G), matvec=matvec, dtype=float), b,
                         rtol=rtol, atol=0.0,
                         inner_m=min(30, config.linear_max_iter),
                         maxiter=config.linear_max_iter)
    except _KrylovBudget:
        return np.zeros(shape), config.linear_max_iter
    return _irfft(geom, inv_sym * _rfft(y.reshape(shape))), int(info)


def _weighted_mean(values: np.ndarray, weight: np.ndarray) -> float:
    return float(np.sum(values * weight) / np.sum(weight))


ETA_MAX = 1e-2  # Eisenstat-Walker forcing terms: the cap of eta_k
ETA_GAMMA = 0.9  # and its factor


def newton_solve(problem: _NewtonProblem, phi0: ScalarField, config: SolverConfig, *,
                 min_steps: int = 0) -> SolveReport:
    """Damped inexact Newton with cone clamping and solvability projection.

    Step ``k`` solves the linearization to the relative Krylov residual of the
    forcing term ``eta_0 = ETA_MAX``, ``eta_k = min(ETA_MAX, ETA_GAMMA * (r_k /
    r_{k-1})**2)`` from the sup residuals ``r`` (Eisenstat & Walker, SIAM J.
    Sci. Comput. 17, 1996, choice 2), floored at ``linear_tol``.

    Every accepted iterate stays strictly inside the cone (positivity plus
    the strict subsolution margin, deepened by ``config.cone_slack``);
    violations trigger step halving, and 30 failed halvings raise
    :class:`ConeBreachError`.  Success requires the sup-norm residual below
    ``tolerance``, the projection magnitude below ``10 * tolerance`` and a
    final cone margin above ``tolerance``, after at least ``min_steps`` steps.
    A continuity march asks for one step from a predicted start (the
    corrector, see :func:`_march`): a secant prediction can land just under
    ``tolerance``, and accepting it as it stands would leave the path's
    residual there instead of at rounding level.

    Array lifetime: a step holds the iterate's ``omega_phi`` and relative
    spectrum only until its coefficient rows are assembled, then releases
    them (see :class:`_Eval`); the Krylov solve and the line-search candidate
    run beside the rows and the iterate's potential, residual and weight.
    """
    geom = problem.geometry
    slack = config.cone_slack
    ev = problem.evaluate(phi0)
    if ev.kahler_margin <= 0.0 or ev.cone_margin <= slack:
        raise ConeBreachError(
            f"initial iterate outside the cone (kahler margin {ev.kahler_margin:.3e}, "
            f"cone margin {ev.cone_margin:.3e}, required slack {slack:.3e})")
    history: list[float] = []
    margin_min = math.inf
    while True:
        history.append(float(np.max(np.abs(ev.residual))))
        margin_min = min(margin_min, ev.cone_margin)
        multiplier = abs(_weighted_mean(ev.residual, ev.weight))
        if (len(history) > min_steps and history[-1] <= config.tolerance
                and multiplier <= 10.0 * config.tolerance):
            status = "converged" if ev.cone_margin > config.tolerance else "marginal-cone"
            break
        if len(history) > config.max_newton:
            status = "no-convergence"
            break
        coef, sign = problem.linear_coefficient(ev)
        ev.omega_vals = ev.lam = None  # the rows replace them
        eta = ETA_MAX if len(history) == 1 else min(
            ETA_MAX, ETA_GAMMA * (history[-1] / history[-2]) ** 2)
        # Newton step: sign * tr(M Hess u) = -residual, to relative residual eta
        u, info = _solve_linear(geom, coef, -sign * ev.residual, config,
                                max(eta, config.linear_tol))
        if info != 0:
            status = "krylov-failure"
            break
        u = u - _weighted_mean(u, problem.gauge_weight)  # mean-zero gauge against omega_0^n
        for _ in range(30):
            cand = problem.evaluate(ScalarField(geom, ev.phi.values + u))
            if cand.kahler_margin > 0.0 and cand.cone_margin > slack:
                break
            u = 0.5 * u
        else:
            raise ConeBreachError("step halving exhausted without re-entering the cone",
                                  report=_build_report(ev, history, margin_min, multiplier,
                                                       "cone-breach"))
        ev = cand
    return _build_report(ev, history, margin_min, multiplier, status)


def _build_report(ev: _Eval, history: list[float], margin_min, multiplier,
                  status) -> SolveReport:
    """The report of the iterate ``ev``; ``history`` holds one residual per iterate."""
    return SolveReport(phi=ev.phi, residual_history=history,
                       cone_margin_min=float(margin_min),
                       c2_diagnostic=ev.c2,
                       c0_diagnostic=ev.phi.oscillation(), multiplier=float(multiplier),
                       status=status, iterations=len(history) - 1)


# ---------------------------------------------------------------------------
# continuity paths


# halvings allowed per target gap of a continuity stage
PATH_HALVINGS = 8
# the coarsest grid of a nested continuity path (the smallest TorusGeometry)
COARSEST_N = 8


def _path_entry(stage: str, t: float, start: str, report: SolveReport) -> dict:
    """The ``path_history`` entry of an accepted solve at ``t``, with its grid ``N``
    and its ``start``: ``"warm"``, ``"predicted"`` or ``"prolonged"``."""
    return {
        "stage": stage, "t": t, "N": report.phi.geometry.N, "start": start,
        "iterations": report.iterations,
        "residual": report.final_residual, "cone_margin": report.cone_margin_min,
        "multiplier": report.multiplier,
    }


def _secant(t: float, t_prev: float, phi: ScalarField,
            before: tuple[float, ScalarField] | None) -> ScalarField | None:
    """The secant prediction at ``t`` through ``before = (t_b, phi_b)`` and the
    last accepted ``(t_prev, phi)``, or ``None`` without a secant: no earlier
    iterate, or one equal to ``phi``."""
    if before is None or np.array_equal(before[1].values, phi.values):
        return None
    t_b, phi_b = before
    return ScalarField(phi.geometry,
                       phi.values + (t - t_prev) / (t_prev - t_b) * (phi.values - phi_b.values))


def _corrected(problem: _NewtonProblem, phi: ScalarField, predicted: ScalarField | None,
               config: SolverConfig) -> tuple[SolveReport, str]:
    """The report of ``newton_solve`` on ``problem`` and the start it ran from:
    ``predicted``, with at least one step, or the warm start ``phi`` when
    there is no prediction or the cone refuses it (a :class:`ConeBreachError`
    without a report)."""
    if predicted is not None:
        try:
            return newton_solve(problem, predicted, config, min_steps=1), "predicted"
        except ConeBreachError as exc:
            if exc.report is not None:
                raise
    return newton_solve(problem, phi, config), "warm"


def _march(make_problem, phi: ScalarField, config: SolverConfig, t_start: float,
           targets, stage: str, history: list) -> tuple[ScalarField, SolveReport]:
    """Predictor-corrector marching over a grid of ``targets``, with step
    doubling and bisection on step failure.

    Each solve at ``t`` starts from the secant prediction ``phi_k + (t -
    t_k)/(t_k - t_{k-1}) (phi_k - phi_{k-1})`` through the last two accepted
    iterates, the stage's start counting as the first, and takes at least
    one Newton step, the corrector (Allgower & Georg, *Introduction to
    Numerical Continuation Methods*, SIAM Classics 45, 2003, ch. 2).  Without
    a secant (before the stage accepts its first target, or when the two
    iterates are equal) or when the cone refuses the prediction, it starts
    from the last accepted iterate (the warm start); that retry belongs to
    the same solve.  Each ``path_history`` entry records the start it
    converged from.

    The march steps over the grid with a stride, at first one target.  A
    target reached without bisection from the prediction in exactly its one
    forced step, or from the warm start in no step, doubles the stride for
    the next step (the step-length control of ibid., ch. 6: the step grows
    where the corrector contracts at once, or where the iterate does not
    move and there is no secant to predict with); any other warm solve, a
    second step or a bisection resets it to one.  The last target is always
    solved.

    A failed step inserts the midpoint of the gap from the last accepted
    ``t`` (after a doubled step, a grid target it skipped).  Each target
    allows ``PATH_HALVINGS`` such halvings, and the stage allows ``2 *
    (len(targets) + PATH_HALVINGS)`` Newton solves in all (twice the plain
    march plus one full chain of halvings, each of which costs a midpoint and
    a retry); past either budget the stage raises :class:`ContinuationError`.
    It carries the last report, with the path history so far and the cause
    of the failure as its status.
    """
    targets = [float(t) for t in targets]
    budget = 2 * (len(targets) + PATH_HALVINGS)
    solves = 0
    t_prev = float(t_start)
    before = None  # the accepted (t, phi) before (t_prev, phi)
    report = None
    index, stride = -1, 1  # the last grid target reached, and the step in targets

    def abort(message: str, t: float, cause: str) -> ContinuationError:
        if report is not None:
            report.path_history, report.status = history, cause
        return ContinuationError(message, stage=stage, t=t, cause=cause, report=report)

    while index < len(targets) - 1:
        index = min(index + stride, len(targets) - 1)
        pending = [targets[index]]
        halvings = 0
        while pending:
            t = pending[-1]
            if solves >= budget:
                raise abort(f"stage {stage} used its {budget} solves before t = {t:.6g}",
                            t, "solve-budget")
            solves += 1
            problem = make_problem(t)
            failure = None
            try:
                report, start = _corrected(problem, phi, _secant(t, t_prev, phi, before),
                                           config)
                if not report.success:
                    failure = report.status
            except ConeBreachError as exc:
                failure = "cone-breach"
                report = exc.report
            if failure is not None:
                if halvings >= PATH_HALVINGS:
                    raise abort(f"stage {stage} failed at t = {t:.6g} ({failure})", t, failure)
                halvings += 1
                pending.append(0.5 * (t_prev + t))
                continue
            before = (t_prev, phi)
            phi = report.phi
            history.append(_path_entry(stage, t, start, report))
            t_prev = t
            pending.pop()
        # a predicted target in its one forced step, or a warm one in no step
        easy = report.iterations == (1 if start == "predicted" else 0)
        stride = 2 * stride if halvings == 0 and easy else 1
    return phi, report


def _restrict(coarse: TorusGeometry, chi: FormField, omega0: FormField, f: ScalarField,
              mass: Callable[[FormField, FormField], float]):
    """``chi``, ``omega0`` and ``f`` on the ``coarse`` grid.

    Each potential is restricted by :func:`fields.resample` (a form stays a
    base plus a potential, so it stays closed).  Truncation moves the
    integrals of the integrability identity, so ``f``'s constant is shifted
    until ``mean(f det chi)`` equals ``mass(chi, omega0)`` of the coarse data.
    """
    chi_c, omega_c = (form_field(coarse, form.base, None if form.potential is None
                                 else resample(form.potential, coarse))
                      for form in (chi, omega0))
    f_c = resample(f, coarse)
    shift = (mass(chi_c, omega_c) - _chi_mean(f_c, chi_c)) / _chi_mean(None, chi_c)
    return chi_c, omega_c, f_c + shift


def _continuity(path, chi: FormField, omega0: FormField, f: ScalarField, param: float,
                config: SolverConfig) -> SolveReport:
    """A predictor-corrector continuity path, nested over grids (Brandt, Math.
    Comp. 31, 1977).

    ``path(chi, omega0, f, param)`` (:func:`_j_path` or :func:`_dhym_path`)
    checks the hypotheses on the given grid and returns the stages ``(name,
    t_start, t_end, problem(t))``, the ``mass`` that :func:`_restrict` keeps
    and a builder of the target problem, which equals the last stage's
    problem at ``t_end``.  When ``N/2 >= COARSEST_N`` the path runs on the
    data restricted to ``N/2``, itself nested; its endpoint, prolonged by
    :func:`fields.resample`, starts one :func:`newton_solve` of the target
    problem, built only here and recorded as the last target of the last
    stage with the start ``"prolonged"`` (by mesh independence, Allgower,
    Boehmer, Potra & Rheinboldt, SIAM J. Numer. Anal. 23, 1986, that start
    lies in the fine quadratic basin).  On the coarsest grid, after a coarse
    ``DomainError``, ``ConeBreachError`` or ``ContinuationError`` and after
    an unconverged fine solve, each stage is marched from zero on this grid
    by :func:`_march` (secant predictor, Newton corrector, step doubling)
    over a grid of ``path_steps`` equal targets, whose spacing is also the
    first step, following the coarse entries accepted so far.  A spatially
    constant ``f`` makes the last stage a single target at its end: its two
    ends then differ by a constant that integrability holds to ``1e-8``, so
    one warm solve covers it (and bisects if it fails).
    """
    stages, mass, target = path(chi, omega0, f, param)
    geom = chi.geometry
    history: list[dict] = []
    if geom.N // 2 >= COARSEST_N:
        try:
            coarse = _continuity(path, *_restrict(TorusGeometry(geom.n, geom.N // 2), chi,
                                                  omega0, f, mass), param, config)
            history = coarse.path_history
            report = newton_solve(target(), resample(coarse.phi, geom), config)
            if report.success:
                name, _, t_end, _ = stages[-1]
                report.path_history = history + [_path_entry(name, t_end, "prolonged", report)]
                return report
        except ContinuationError as exc:
            if exc.report is not None:
                history = exc.report.path_history
        except (DomainError, ConeBreachError):
            pass
    phi = ScalarField.zeros(geom)
    last = len(stages) - 1
    for k, (name, t_start, t_end, problem) in enumerate(stages):
        steps = 1 if k == last and np.ptp(f.values) == 0.0 else config.path_steps
        phi, report = _march(problem, phi, config, t_start,
                             np.linspace(t_start, t_end, steps + 1)[1:], name, history)
    report.path_history = history
    return report


def _check_integrability(required: float, given: float, scale: float, what: str) -> None:
    """The integrability hypotheses of a path: the class data ask for a
    non-negative ``required`` (to ``1e-10 * scale``), and ``given``, ``what``
    computed from ``f``, equals it (to ``1e-8 * scale``)."""
    if required < -1e-10 * scale:
        raise PreconditionError(
            f"integrability sign fails: the class data require {what} = {required:.6e} < 0")
    if abs(given - required) > 1e-8 * scale:
        raise PreconditionError(
            f"integrability identity fails: {what} = {given:.10e} but the class data "
            f"require {required:.10e}")


def _j_class_rhs(chi: FormField, omega0: FormField, c: float) -> tuple[float, float]:
    """``c a_0/n! - a_1/(n-1)!`` of the intersection vector ``a_k = int chi^k ^
    omega0^(n-k)``, the value the integrability identity asks of
    ``int(f chi^n)/n! = mean(f det chi)``, and the scale of its checks."""
    n = chi.geometry.n
    a = intersections(chi, omega0)
    vol_omega = a[0] / math.factorial(n)
    return c * vol_omega - a[1] / math.factorial(n - 1), max(1.0, abs(c) * vol_omega)


def _j_path(chi: FormField, omega0: FormField, f: ScalarField, c: float):
    """The stages of :func:`continuity_path_j` on the grid of its data."""
    c = _j_checked(chi, omega0, f, c)
    geom = chi.geometry
    n = geom.n
    rhs_int, scale = _j_class_rhs(chi, omega0, c)
    _check_integrability(rhs_int, _chi_mean(f, chi), scale, "int(f chi^n)/n!")

    def tilt(t: float):
        chi_t = t * chi + (1.0 - t) * (c / n) * omega0
        f_t = ScalarField.constant(geom, t * rhs_int / _chi_mean(None, chi_t))
        return make_j_problem(chi_t, omega0, f_t, c)

    f1 = rhs_int / _chi_mean(None, chi)
    return ([("j-stage1", 0.0, 1.0, tilt),
             ("j-stage2", 0.0, 1.0, lambda s: make_j_problem(
                 chi, omega0, ScalarField(geom, (1.0 - s) * f1 + s * f.values), c))],
            lambda ch, om: _j_class_rhs(ch, om, c)[0],
            lambda: make_j_problem(chi, omega0, f, c))


def continuity_path_j(chi: FormField, omega0: FormField, f_target: ScalarField,
                      c: float, config: SolverConfig) -> SolveReport:
    """Two-stage predictor-corrector continuity method for the J-type
    equation, nested over grids.

    Stage 1 tilts the reference form from ``(c/n) * omega0`` to ``chi`` with
    the constant right-hand side recomputed from the integrability identity
    at each step; stage 2 interpolates that constant to the target ``f``.
    Each stage marches by secant predictions and Newton corrections over a
    grid of ``config.path_steps`` targets, whose spacing is the first step
    and which step doubling may skip (see :func:`_march`); a constant
    target ``f`` makes stage 2 one target (see :func:`_continuity`).

    The hypotheses are checked on the given grid first.  For ``N >= 16`` the
    path then runs on the data restricted to ``N/2`` (recursively, down to
    ``COARSEST_N = 8``) and one Newton solve of the target problem finishes
    on this grid, or falls back to the single-level march from zero (see
    :func:`_continuity`).  Every ``path_history`` entry records its grid ``N``.
    """
    return _continuity(_j_path, chi, omega0, f_target, c, config)


def _dhym_class_const(chi: FormField, theta0: float) -> Callable[[FormField], float]:
    """``omega ->`` the constant ``f`` that the dHYM integrability identity
    gives for ``(chi, omega)``: ``(tan(theta0) Re z - Im z) n!/a_n`` with
    ``a = intersections(chi, omega)`` and ``z = mean det(omega + i chi) =
    sum_k i^k a_k/(k!(n-k)!)``."""
    def const(omega_form: FormField) -> float:
        a = intersections(chi, omega_form)
        n = len(a) - 1
        z = sum(1j ** k * a[k] / (math.factorial(k) * math.factorial(n - k))
                for k in range(n + 1))
        return (math.tan(theta0) * z.real - z.imag) / (a[n] / math.factorial(n))

    return const


def _dhym_path(chi: FormField, omega0: FormField, f: ScalarField, theta0: float):
    """The stages of :func:`continuity_path_dhym` on the grid of its data."""
    theta0 = _dhym_checked(chi, omega0, f, theta0)
    geom = chi.geometry
    n = geom.n
    lam0 = relative_spectrum_field(chi.values, omega0.values)
    gamma_margin = _cone_margin(np.arctan(1.0 / lam0), theta0)
    if gamma_margin <= 0.0:
        raise PreconditionError(f"omega0 target violates the subsolution hypothesis "
                                f"(Gamma margin {gamma_margin:.3e})")
    class_const = _dhym_class_const(chi, theta0)
    rhs = class_const(omega0)
    _check_integrability(rhs, _chi_mean(f, chi) / _chi_mean(None, chi),
                         max(1.0, abs(rhs)), "mean(f det chi)/mean(det chi)")
    cot_n = 1.0 / math.tan(theta0 / n)
    kappa = cot_n / float(np.min(lam0[..., 0])) + 1.0

    def with_class_f(omega_t: FormField):
        return make_dhym_problem(chi, omega_t, ScalarField.constant(geom, class_const(omega_t)),
                                 theta0)

    def mass(ch: FormField, om: FormField) -> float:
        return _dhym_class_const(ch, theta0)(om) * _chi_mean(None, ch)

    return ([("dhym-stage1", 1.0, 0.0,
              lambda t: with_class_f(t * cot_n * chi + (1.0 - t) * kappa * omega0)),
             ("dhym-stage2", kappa, 1.0, lambda t: with_class_f(t * omega0)),
             ("dhym-stage3", 0.0, 1.0, lambda s: make_dhym_problem(
                 chi, omega0, ScalarField(geom, (1.0 - s) * rhs + s * f.values), theta0))],
            mass, lambda: make_dhym_problem(chi, omega0, f, theta0))


def continuity_path_dhym(chi: FormField, omega0_target: FormField,
                         f_target: ScalarField, theta0: float,
                         config: SolverConfig) -> SolveReport:
    """Three-stage predictor-corrector continuity method for the dHYM
    equation, nested over grids.

    Starts at the exactly solvable ``omega0 = cot(theta0/n) * chi, f = 0``,
    tilts to an enlarged multiple of the target form, scales that multiple
    back down to 1, then interpolates the constant right-hand side to the
    target ``f``.  The constant along stages 1-2 comes from the
    integrability identity and stays non-negative.  Each stage marches by
    secant predictions and Newton corrections over a grid of
    ``config.path_steps`` targets, whose spacing is the first step and which
    step doubling may skip (see :func:`_march`); a constant target ``f``
    makes stage 3 one target (see :func:`_continuity`).

    The hypotheses are checked on the given grid first; the grids are then
    nested as in :func:`continuity_path_j`, the fine solve being recorded as
    the last target of stage 3.
    """
    return _continuity(_dhym_path, chi, omega0_target, f_target, theta0, config)
