"""Residuals, linearizations, damped Newton, and the continuity paths.

Both equations are solved for a potential ``phi`` with ``omega_phi =
omega_0 + i d dbar(phi)`` and are driven by the relative eigenvalues
``lam_i`` of ``omega_phi`` against ``chi``:

* J-type: ``sum(1/lam_i) + f / prod(lam_i) - c = 0`` pointwise,
* dHYM:   ``sin(theta0 - sum arctan(1/lam_i)) - f cos(theta0)/prod sqrt(lam_i^2+1) = 0``.

The linearized operators annihilate constants, so each Newton step solves
``A u = b`` on the modes they reach: a restarted GMRES of this module
(:func:`_solve_linear`) solves ``(A P) y = b`` on weighted half spectra, one
mask dropping the mean and the other unreachable modes, with ``P`` the
inverse constant-coefficient Fourier symbol; each restart runs on the float64
residual, and ``u = P y`` takes one inverse transform.  The component of the
residual outside the numerical range (its volume-weighted mean) is surfaced
as ``multiplier`` instead of silently absorbed.
Newton is inexact: a step's Krylov tolerance is an Eisenstat-Walker forcing
term, capped near the solution by the term that finishes the solve in one
step, with ``linear_tol`` as its floor (see :func:`newton_solve`).  While
that term is at least ``FLOAT32_RTOL`` the Krylov operator runs in float32;
the basis, the residual and the Newton update stay float64, and a solve that
reports ``"converged"`` meets the term in the float64 residual (see
:func:`_solve_linear`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import (ConeBreachError, ContinuationError, DataError, DomainError,
                     EllipticityLostError, PreconditionError, UsageError)
from .fields import (FormField, ScalarField, TorusGeometry, _hessian_parts,
                     _hessian_symbols, _irfft, _rfft, _require_kahler, complex_hessian,
                     form_field, integrate, intersections, resample)
from .hermitian import (_blocks, _check_c, _check_f, _check_geoms, _check_integer, _check_theta0,
                        _cone_margin, _det, _det_adj, _dhym_value, _eigvals, _entries,
                        _f_bound_dhym, _f_bound_j, _flatten, _frame, _j_value, _pairs,
                        _product, _reduce_last, _relative_eigvals, _require_positive, _take)

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

# the most targets of a continuity stage, whose march may take twice as many Newton solves
MAX_PATH_STEPS = 2 ** 12


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-10
    max_newton: int = 30
    path_steps: int = 8
    cone_slack: float = 0.0
    linear_tol: float = 1e-10
    linear_max_iter: int = 400

    def __post_init__(self):
        for name in ("max_newton", "path_steps", "linear_max_iter"):
            object.__setattr__(self, name, _check_integer(getattr(self, name), name))
        if not (math.isfinite(self.tolerance) and self.tolerance >= 1e-12):
            raise UsageError("tolerance must be finite and >= 1e-12")
        if not 0.0 <= self.linear_tol < 1.0:
            raise UsageError("linear_tol must lie in [0, 1)")
        if not 1 <= self.path_steps <= MAX_PATH_STEPS:
            raise UsageError(f"path_steps must lie in [1, {MAX_PATH_STEPS}]")
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


# Peak memory of a solve per grid point, in float64 grid arrays, inputs
# included: an upper bound on the peak resident memory of a cold Newton solve
# or a continuity path at each n, with room for Krylov bases that fill
PEAK_GRID_ARRAYS = {1: 64, 2: 80, 3: 256}


def estimate_peak_bytes(geom: TorusGeometry) -> int:
    """Estimated peak memory of a solve on ``geom``, from the grid alone."""
    return geom.grid_size * 8 * PEAK_GRID_ARRAYS[geom.n]


# ---------------------------------------------------------------------------
# pointwise residuals


def _residual(problem: _NewtonProblem, phi: ScalarField) -> ScalarField:
    """The residual of ``problem`` at ``phi``, where ``omega_phi`` must be Kahler."""
    ev = problem.evaluate(phi)
    _require_positive(ev.lam[..., 0], "omega_phi")
    return ScalarField(problem.geometry, ev.residual)


def j_residual(chi: FormField, omega0: FormField, phi: ScalarField,
               f: ScalarField, c: float) -> ScalarField:
    """Pointwise ``tr_{omega_phi}(chi) + f * chi^n/omega_phi^n - c``."""
    return _residual(make_j_problem(chi, omega0, f, c), phi)


def _coefficient_rows(block, omega: np.ndarray, chi: list, det_chi: np.ndarray,
                      f_vals: np.ndarray) -> np.ndarray:
    """The real rows of a linearization's Hermitian coefficient ``M`` at
    ``omega``, given as its real parts (``hermitian._parts``, one ``(n*n,) +
    grid`` array), paired one to one with :func:`fields._hessian_symbols`:
    the n diagonal entries ``M_ii``, then for each pair ``i < j`` of
    ``hermitian._pairs`` ``2 Re M_ij`` and ``2 Im M_ij``, so that for
    Hermitian ``X`` ``tr(M X) = sum_k row_k * part_k(X)``.

    ``block(omega, chi, f, det_chi)`` maps ``hermitian._BLOCK2`` points of
    each input (both forms as their real parts; ``chi``'s parts and ``det
    chi`` come flattened, :func:`_chi_terms`) to ``M``'s diagonal and the
    upper entries of ``2 M``, so its temporaries stay in cache and no
    full-grid one is made.
    """
    count = len(omega)
    n = math.isqrt(count)
    shape = omega.shape[1:]
    omega = list(omega.reshape(count, -1))
    f_vals = f_vals.reshape(-1)
    rows = np.empty((count, len(f_vals)))
    for part in _blocks(len(f_vals)):
        diag, upper = block(_take(omega, part), _take(chi, part), f_vals[part], det_chi[part])
        for row, value in zip(rows, diag):
            row[part] = value
        for k, value in enumerate(upper):
            rows[n + 2 * k, part] = value.real
            rows[n + 2 * k + 1, part] = value.imag
    return rows.reshape((count,) + shape)


def _j_block(omega: list, chi: list, f: np.ndarray, det_chi: np.ndarray) -> tuple:
    """The J coefficient ``W`` with ``d(j_residual)(u) = -tr(W Hess u)``, in
    the form of :func:`_coefficient_rows`'s blocks.

    ``W = G (chi + q omega) G`` with ``G = adj(omega)/det(omega)`` and ``q =
    f det(chi)/det(omega) = f/prod(lam_i)``; as ``omega adj(omega) =
    det(omega) I``, ``W = adj(omega) (chi adj(omega) + f det(chi) I)
    adj(omega) / det(omega)^2``.
    """
    det, adj = _det_adj(_entries(omega))
    chi = _entries(chi)
    idx = range(len(adj))
    t = [[_product(chi, adj, i, j) for j in idx] for i in idx]
    fd = f * det_chi
    for i in idx:
        t[i][i] += fd
    scale = 1.0 / (det.real * det.real)
    return ([_product(adj, t, i, i).real * scale for i in idx],
            [_product(adj, t, i, j) * (2.0 * scale) for i, j in _pairs(len(adj))])


def _dhym_block(omega: list, chi: list, f: np.ndarray, det_chi: np.ndarray,
                theta0: float) -> tuple:
    """The dHYM coefficient ``M`` with ``d(dhym_residual)(u) = tr(M Hess u)``,
    in the form of :func:`_coefficient_rows`'s blocks.

    ``M = sum_i w(lam_i) v_i v_i^H`` with ``omega v_i = lam_i chi v_i``,
    ``v_i^H chi v_j = delta_ij`` and ``w(lam) = (C + g lam)/(lam^2 + 1)``
    (``hermitian._dhym_gradient``), ``C = cos(theta0 - s)`` and ``g = f
    cos(theta0)/r``.  With ``A = omega + i chi``, ``Z = A^-1 = sum (lam_i -
    i)/(lam_i^2 + 1) v_i v_i^H`` and ``z = det(A)/det(chi) = prod(lam_i + i)
    = r e^(i s)``, that is the Hermitian part ``g (Z + Z^H)/2 + C i (Z -
    Z^H)/2`` of ``(g + i C) adj(A)/det(A)``, where ``r = |z|`` and ``C = (cos
    theta0 Re z + sin theta0 Im z)/r``: no eigenvalue and no ``arctan``, so
    ``M`` is continuous through eigenvalue crossings and the 2 pi branch of
    ``arg z`` cannot matter.
    """
    det, adj = _det_adj([[o + 1j * c for o, c in zip(row_o, row_c)]
                         for row_o, row_c in zip(_entries(omega), _entries(chi))])
    cos, sin = math.cos(theta0), math.sin(theta0)
    mod = np.abs(det)
    # (g + i C)/det(A) = (g + i C) conj(det(A))/|det(A)|^2, with |det(A)| = r det(chi)
    w = ((f * det_chi * cos + 1j * (cos * det.real + sin * det.imag)) * np.conj(det)
         * (1.0 / (mod * mod * mod)))
    idx = range(len(adj))
    return ([(w * adj[i][i]).real for i in idx],
            [w * adj[i][j] + np.conj(w * adj[j][i]) for i, j in _pairs(len(adj))])


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


def _chi_terms(chi: FormField) -> tuple:
    """``chi``'s real parts and ``det chi``, flattened to one point axis
    (``hermitian._flatten``): what the coefficient rows read of ``chi``."""
    shape = chi.geometry.shape
    det_chi = _det([chi.parts] * chi.geometry.n)
    return _flatten(chi.parts, shape), np.broadcast_to(det_chi, shape).reshape(-1)


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
    parts = _hessian_parts(phi, base=omega0.parts)
    lam = _relative_eigvals(chi.parts, list(parts))
    if c is not None and _cone_margin(1.0 / lam, c) <= 0.0:
        raise EllipticityLostError("iterate is not a strict c-subsolution")
    q = f.values / _reduce_last(np.multiply, lam)
    if float(np.min(np.minimum(1.0 + q * lam[..., 0], 1.0 + q * lam[..., -1]))) <= 0.0:
        raise EllipticityLostError("linearized coefficient lost positivity")
    return _apply_rows(geom, _coefficient_rows(_j_block, parts, *_chi_terms(chi), f.values),
                       -1.0, u)


def dhym_residual(chi: FormField, omega0: FormField, phi: ScalarField,
                  f: ScalarField, theta0: float, form: str = "angle") -> ScalarField:
    """Pointwise dHYM defect.

    ``form='angle'`` evaluates through the relative spectrum; ``form='wedge'``
    evaluates independently through the complex determinant of
    ``omega_phi + i*chi`` (imaginary/real parts of the top wedge).  The two
    agree identically up to rounding.
    """
    if form == "angle":
        return _residual(make_dhym_problem(chi, omega0, f, theta0), phi)
    theta0 = _hypotheses(chi, omega0, f, theta0, *_DHYM)
    if form != "wedge":
        raise UsageError("form must be 'angle' or 'wedge'")
    det = np.linalg.det((omega0 + complex_hessian(phi)).values + 1j * chi.values)
    det_chi = np.linalg.det(chi.values).real
    vals = -math.cos(theta0) * (det.imag + f.values * det_chi
                                - math.tan(theta0) * det.real) / np.abs(det)
    return ScalarField(chi.geometry, vals)


def dhym_linearization_apply(chi: FormField, omega0: FormField, phi: ScalarField,
                             f: ScalarField, theta0: float, u: ScalarField) -> ScalarField:
    """Directional derivative of :func:`dhym_residual` at ``phi`` along ``u``.

    Applies the coefficient of :func:`_dhym_block`, the derivative of a
    symmetric function of the relative spectrum built from ``(omega_phi + i
    chi)^-1`` without the spectrum; it is continuous through eigenvalue
    crossings, so degenerate spectra need no special treatment.
    """
    geom = _check_geoms(chi, omega0, phi, f, u)
    rows = _coefficient_rows(partial(_dhym_block, theta0=float(theta0)),
                             _hessian_parts(phi, base=omega0.parts), *_chi_terms(chi),
                             f.values)
    return _apply_rows(geom, rows, 1.0, u)


# ---------------------------------------------------------------------------
# Newton problems

@dataclass
class _Eval:
    """One iterate's evaluation.

    ``parts`` (the ``n*n`` real parts of ``omega_phi`` in the order of
    ``hermitian._parts``, one ``(n*n,) + grid`` float64 array) are what the
    coefficient rows are built from, and ``lam`` is its relative spectrum
    (grid + ``(n,)``); :func:`newton_solve` sets both to ``None`` once the
    rows are assembled, so the Krylov solve and the next line-search
    candidate do not overlap them.  ``c2`` is ``max sum(lam_i)``, the report's
    ``c2_diagnostic``, kept as a float for that reason.  The margins are
    floats; ``residual`` and ``weight`` (the residual's volume weight, ``det
    chi`` times the equation's volume ratio) are grids, ``None`` when a
    relative eigenvalue is not positive (``kahler_margin <= 0``).
    """

    phi: ScalarField
    parts: np.ndarray | None
    lam: np.ndarray | None
    c2: float
    kahler_margin: float
    cone_margin: float
    residual: np.ndarray | None
    weight: np.ndarray | None


@dataclass
class _NewtonProblem:
    """Bundle of closures consumed by :func:`newton_solve`.

    ``coarse()`` builds the same problem on the data restricted to ``N/2``
    (:func:`_restrict`), on which :func:`newton_solve` nests a constant start
    (:func:`_nested`).  It is ``None`` for the problems of a continuity
    path, which nests its own grids (:func:`_continuity`).
    """

    geometry: TorusGeometry
    evaluate: Callable[[ScalarField], _Eval]
    # (rows of M as in _coefficient_rows, sign): d(residual)(u) = sign * tr(M Hess u)
    linear_coefficient: Callable[[_Eval], tuple[np.ndarray, float]]
    gauge_weight: np.ndarray
    coarse: Callable[[], _NewtonProblem] | None = None


def _newton_problem(chi: FormField, omega0: FormField, f: ScalarField, param: float,
                    value: Callable, cone_terms: Callable, block: Callable,
                    sign: float, make: Callable, class_f: Callable) -> _NewtonProblem:
    """The Newton problem of ``value(lam, f, param) = 0`` for one equation.

    ``value`` is ``hermitian._j_value`` (``param = c``) or
    ``hermitian._dhym_value`` (``param = theta0``); the volume ratio it also
    returns, times ``det chi``, weights the residual's mean.  The cone margin
    is ``param`` minus the worst leave-one-out sum of ``cone_terms(lam)``;
    the terms' sum is taken once, for the margin and for ``value``.  The
    linearization's coefficient rows are ``block``'s
    (:func:`_coefficient_rows`), applied with ``sign``.  The coarse builder
    is ``make`` (the factory calling this) on the data restricted with the
    class constant ``class_f``.

    The problem reads the real parts (``FormField.parts``) of ``omega0`` and
    of ``chi`` where the forms hold them, and holds ``chi``'s frame
    (``hermitian._frame``, of the unflattened parts: one matrix for a
    constant ``chi``), ``det chi`` and the gauge weight ``det omega0`` (both
    by ``hermitian._det``).  An evaluation writes the parts of ``omega_phi`` (one
    transform loop, ``fields._hessian_parts``, with ``omega0``'s added),
    then makes one pass over the grid in blocks of ``hermitian._BLOCK2``
    points that gives the relative spectrum, ``c2``, both margins, the value
    and the weight.  A block after the first non-positive relative
    eigenvalue gives only its spectrum and ``c2``.
    """
    geom = chi.geometry
    n, shape = geom.n, geom.shape
    chi_parts, det_chi = _chi_terms(chi)
    frame = _flatten(_frame(chi.parts), shape)
    gauge = np.broadcast_to(_det([omega0.parts] * n), shape)
    f_vals = f.values.reshape(-1)

    def evaluate(phi: ScalarField) -> _Eval:
        parts = _hessian_parts(phi, base=omega0.parts)
        flat = list(parts.reshape(n * n, -1))
        lam = np.empty((geom.grid_size, n))
        res, weight = np.empty(geom.grid_size), np.empty(geom.grid_size)
        c2, kahler, cone = -math.inf, math.inf, math.inf
        for part in _blocks(geom.grid_size):
            block = lam[part]
            _eigvals(_take(frame, part), _take(flat, part), block)
            c2 = max(c2, float(np.max(_reduce_last(np.add, block))))
            kahler = min(kahler, float(np.min(block[:, 0])))
            if kahler <= 0.0:
                continue
            terms = cone_terms(block)
            total = _reduce_last(np.add, terms)
            cone = min(cone, _cone_margin(terms, param, total))
            value_part, ratio = value(block, f_vals[part], param, total)
            res[part] = value_part
            np.multiply(det_chi[part], ratio, out=weight[part])
        lam = lam.reshape(shape + (n,))
        if kahler <= 0.0:
            return _Eval(phi, parts, lam, c2, kahler, -math.inf, None, None)
        return _Eval(phi, parts, lam, c2, kahler, cone, res.reshape(shape), weight.reshape(shape))

    def linear_coefficient(ev: _Eval):
        return _coefficient_rows(block, ev.parts, chi_parts, det_chi, f_vals), sign

    def coarse() -> _NewtonProblem:
        return make(*_restrict(TorusGeometry(geom.n, geom.N // 2), chi, omega0, f, class_f),
                    param)

    return _NewtonProblem(geom, evaluate, linear_coefficient, gauge, coarse)


def _hypotheses(chi: FormField, omega0: FormField, f: ScalarField, param: float,
                check_param: Callable, f_bound: Callable) -> float:
    """``param``, once a theorem's hypotheses hold, in this order: one grid, ``chi`` and
    ``omega0`` Kahler, ``check_param(param)``, ``f > f_bound(n, param)`` (``_J``, ``_DHYM``)."""
    n = _check_geoms(chi, omega0, f).n
    _require_kahler(chi, "chi")
    _require_kahler(omega0, "omega0")
    param = check_param(param)
    _check_f(f.values, f_bound(n, param))
    return param


_J = (_check_c, _f_bound_j)  # the J theorem: c > 0
_DHYM = (_check_theta0, lambda n, theta0: _f_bound_dhym(n))  # dHYM: theta0 in (0, pi/4)


def make_j_problem(chi: FormField, omega0: FormField, f: ScalarField,
                   c: float) -> _NewtonProblem:
    c = _hypotheses(chi, omega0, f, c, *_J)
    return _newton_problem(chi, omega0, f, c, _j_value, lambda lam: 1.0 / lam, _j_block,
                           -1.0, make_j_problem, partial(_j_class_f, c=c))


def make_dhym_problem(chi: FormField, omega0: FormField, f: ScalarField,
                      theta0: float) -> _NewtonProblem:
    theta0 = _hypotheses(chi, omega0, f, theta0, *_DHYM)
    return _newton_problem(
        chi, omega0, f, theta0, _dhym_value, lambda lam: np.arctan(1.0 / lam),
        partial(_dhym_block, theta0=theta0), 1.0, make_dhym_problem,
        partial(_dhym_class_f, theta0=theta0))


# ---------------------------------------------------------------------------
# linear solve machinery


# Krylov solves asked for a relative residual of at least this apply their
# operator in float32 (see _solve_linear)
FLOAT32_RTOL = 3e-6
# the GMRES restart length: the most operator applications of one cycle
RESTART = 30


@dataclass(frozen=True)
class _KrylovStats:
    """What one :func:`_solve_linear` did: its ``applications`` of ``tr(M
    Hess .)`` (``_tr_m_hessian`` calls, the float64 checks included), the
    operator's ``dtype``, the ``status`` (``"converged"``; ``"budget"`` once
    ``linear_max_iter`` is used up; ``"unconverged"`` when a cycle does not
    lower the float64 residual) and ``rtol_reached``, the float64 ``|b - A
    u| / |b|`` of the returned ``u``."""

    applications: int
    dtype: np.dtype
    status: str
    rtol_reached: float


def _gmres(apply: Callable[[np.ndarray], np.ndarray], b: np.ndarray, atol: float,
           budget: int) -> np.ndarray:
    """``y`` from one GMRES cycle for ``apply(y) = b`` from ``y = 0`` (Saad &
    Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) of at most ``budget``
    applications, fewer once its least-squares residual is at most ``atol``;
    ``b`` is not zero.

    The cycle grows its basis of float64 vectors by one per application
    (modified Gram-Schmidt) and stops on the least-squares residual that its
    Givens rotations carry; ``y`` is summed from the scaled basis.
    """
    beta = float(np.linalg.norm(b))
    basis, g, rotations, cols = [b / beta], [beta], [], []
    for _ in range(budget):
        w = apply(basis[-1])
        h = []
        for v in basis:
            h.append(float(np.dot(w, v)))
            w -= h[-1] * v
        norm = float(np.linalg.norm(w))
        for k, (c, s) in enumerate(rotations):
            h[k], h[k + 1] = c * h[k] + s * h[k + 1], c * h[k + 1] - s * h[k]
        rho = math.hypot(h[-1], norm)
        rotations.append((h[-1] / rho, norm / rho))
        h[-1] = rho
        g.append(-g[-1] * norm / rho)
        g[-2] *= rotations[-1][0]
        cols.append(h)
        if abs(g[-1]) <= atol:
            break
        w /= norm
        basis.append(w)
    z = [0.0] * len(cols)
    for k in reversed(range(len(cols))):
        z[k] = (g[k] - sum(cols[j][k] * z[j] for j in range(k + 1, len(cols)))) / cols[k][k]
    y = np.zeros_like(b)
    for zk, v in zip(z, basis):
        v *= zk
        y += v
    return y


def _solve_linear(geom: TorusGeometry, coef: np.ndarray, rhs: np.ndarray,
                  config: SolverConfig, rtol: float | None = None
                  ) -> tuple[np.ndarray, _KrylovStats]:
    """Solve ``tr(M Hess u) = rhs`` on mean-zero functions; M given by its rows.

    The Krylov vectors are float64 views of half spectra times ``weight``:
    ``sqrt(2)`` on the last axis's modes ``1..N/2-1``, 1 on its modes 0 and
    ``N/2`` (so the Euclidean norm is a constant times the grid 2-norm), and 0
    on the modes the mean coefficient's symbol annihilates, the mean among
    them.  That one mask drops them from ``b = weight * rfft(rhs)`` and from
    the output of ``A P: v -> weight * rfft(tr(M Hess P v))``, ``P`` the
    inverse of the weighted symbol.  Restarted GMRES(``RESTART``) solves
    ``(A P) y = b`` to ``rtol |b|`` (default ``linear_tol``), each restart a
    float64 refinement step (GMRES-based iterative refinement: Carson &
    Higham, SIAM J. Sci. Comput. 40, 2018): a :func:`_gmres` cycle of at most
    ``RESTART`` applications runs on the float64 residual ``r`` (``b`` to
    begin with), its ``y`` is summed, and the same operator in float64 gives
    ``r -= A P y``; ``u = P y`` of the sum takes one inverse transform.
    Returns ``u`` and its :class:`_KrylovStats`.  The status is
    ``"converged"`` exactly when the float64 residual meets ``rtol``, float32
    operator or not, which is all an inexact Newton step needs (Kelley,
    "Newton's method in mixed precision", SIAM Review 64, 2022), and
    ``"unconverged"`` as soon as a cycle does not lower ``|r|``.  At most
    ``linear_max_iter`` applications of ``A`` run, checks included; when they
    are used up the solve ends at once with status ``"budget"`` and the last
    checked ``u`` (zero before the first check).

    Precision: when ``rtol >= FLOAT32_RTOL`` the GMRES operator runs in
    float32 on float32 copies of the rows and ``P``, from ``v`` cast to
    complex64 to the transformed output.  The Krylov basis, ``b``, ``u``,
    the check and the caller's residual, gauge and update stay float64, and
    tighter solves are float64 throughout.
    """
    rtol = config.linear_tol if rtol is None else rtol
    # the half-spectrum symbol of u -> tr(Mbar Hess u), Mbar the grid mean of M;
    # negative away from the mean
    sym = np.zeros(geom.shape[:-1] + (geom.N // 2 + 1,))
    for c, part in zip(coef.reshape(len(coef), -1).mean(axis=1), _hessian_symbols(geom)):
        sym += c * part
    # zero symbol = modes the discrete operator annihilates (mean, Nyquist),
    # which the weight masks; the last axis's inner modes stand for their
    # conjugates too
    scale = float(np.max(np.abs(sym)))
    dead = np.abs(sym) <= 1e-14 * max(scale, 1.0)
    weight = np.where(dead, 0.0, math.sqrt(2.0))
    weight[..., [0, -1]] /= math.sqrt(2.0)
    inv = np.where(dead, 0.0, 1.0 / np.where(dead, 1.0, weight * sym))
    del dead, sym  # off the Krylov peak
    dtype = np.dtype(np.float32 if rtol >= FLOAT32_RTOL else np.float64)
    spent = 0  # applications of A, checks included

    # A P in the precision of rows and p (P = inv), on float64 views of spectra
    def operator(rows, p):
        spectral = np.result_type(p.dtype, np.complex64)

        def apply(v):
            nonlocal spent
            spent += 1
            vhat = np.multiply(p, v.view(np.complex128).reshape(p.shape), dtype=spectral)
            return (weight * _rfft(_tr_m_hessian(geom, rows, vhat))).view(np.float64).reshape(-1)
        return apply

    apply = operator(coef.astype(dtype, copy=False), inv.astype(dtype, copy=False))
    check = operator(coef, inv)
    r = (weight * _rfft(rhs)).view(np.float64).reshape(-1)  # the residual of u, b to begin with
    bnorm = float(np.linalg.norm(r))
    if bnorm == 0.0:
        return np.zeros(geom.shape), _KrylovStats(0, dtype, "converged", 0.0)
    # one cycle per pass on the float64 residual r, until r meets rtol, a
    # cycle does not lower |r| or the budget is spent (a cycle that spends it
    # goes unchecked, and u stays the last checked one)
    y, norm, last, atol = np.zeros_like(r), bnorm, math.inf, rtol * bnorm
    while atol < norm < last and spent < config.linear_max_iter:
        step = _gmres(apply, r, atol, min(RESTART, config.linear_max_iter - spent))
        if spent == config.linear_max_iter:
            break
        y += step
        r -= check(step)
        last, norm = norm, float(np.linalg.norm(r))
    status = "converged" if norm <= atol else "unconverged" if norm >= last else "budget"
    u = _irfft(geom, inv * y.view(np.complex128).reshape(inv.shape))
    return u, _KrylovStats(spent, dtype, status, norm / bnorm)


def _weighted_mean(values: np.ndarray, weight: np.ndarray) -> float:
    return float(np.sum(values * weight) / np.sum(weight))


ETA_MAX = 1e-2  # Eisenstat-Walker forcing terms: the cap of eta_k
ETA_GAMMA = 0.9  # and its factor
# the terminal forcing term asks for a step residual of REACH * tolerance
REACH = 1e-3
# the coarsest grid of a nested solve or continuity path (the smallest TorusGeometry)
COARSEST_N = 8


def newton_solve(problem: _NewtonProblem, phi0: ScalarField, config: SolverConfig, *,
                 min_steps: int = 0) -> SolveReport:
    """Damped inexact Newton with cone clamping and solvability projection.

    Step ``k`` solves the linearization to the relative Krylov residual of the
    forcing term ``eta_0 = ETA_MAX``, ``eta_k = min(ETA_MAX, ETA_GAMMA * (r_k /
    r_{k-1})**2)`` from the sup residuals ``r`` (Eisenstat & Walker, SIAM J.
    Sci. Comput. 17, 1996, choice 2), floored at ``linear_tol``.  Near the
    solution, ``0 < r_k**2 <= ETA_MAX * tolerance`` (the step's quadratic
    term is then a small part of ``tolerance``), the term is capped at
    ``max(FLOAT32_RTOL, REACH * tolerance / r_k)``: the step's residual is
    bounded by ``eta_k r_k`` plus that quadratic term (Dembo, Eisenstat &
    Steihaug, SIAM J. Numer. Anal. 19, 1982), so one step, with a float32
    operator, finishes a solve that starts that close.  The cap only
    tightens the term.

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

    A constant ``phi0`` carries no information, since both equations are
    invariant under constants, so with ``problem.coarse`` set such a solve
    is nested (:func:`_nested`): ``problem.coarse()`` is solved from zero,
    and this grid's solve starts from that solution, prolonged and shifted
    to ``phi0``'s constant in the gauge, with ``path_history`` listing each
    coarser level's solve, coarsest first; ``iterations`` counts this grid's
    steps only.  A prolonged start the cone refuses, like any other failure
    of the nesting, falls back to the solve from ``phi0`` on this grid
    alone, which is also how a non-constant start is solved.

    Array lifetime: a step holds the parts of the iterate's ``omega_phi`` and
    its relative spectrum only until its coefficient rows are assembled, then releases
    them (see :class:`_Eval`); the Krylov solve and the line-search candidate
    run beside the rows and the iterate's potential, residual and weight.
    """
    geom = problem.geometry
    if phi0.geometry != geom:
        raise UsageError(f"start is on {phi0.geometry}, the problem on {geom}")
    min_steps = _check_integer(min_steps, "min_steps")
    if min_steps < 0:
        raise UsageError("min_steps must be >= 0")
    if problem.coarse is not None and np.ptp(phi0.values) == 0.0:
        def fine(start: ScalarField) -> SolveReport:
            shift = phi0.values.flat[0] - _weighted_mean(start.values, problem.gauge_weight)
            return newton_solve(replace(problem, coarse=None), start + shift, config,
                                min_steps=min_steps)

        report, _ = _nested(
            geom, lambda grid: newton_solve(problem.coarse(), ScalarField.zeros(grid), config),
            fine, lambda low, _: _path_entry("newton", 1.0, "prolonged" if low.path_history
                                             else "cold", low))
        if report is not None:
            return report
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
        ev.parts = ev.lam = None  # the rows replace them
        eta = ETA_MAX if len(history) == 1 else min(
            ETA_MAX, ETA_GAMMA * (history[-1] / history[-2]) ** 2)
        if 0.0 < history[-1] <= math.sqrt(ETA_MAX * config.tolerance):
            eta = min(eta, max(FLOAT32_RTOL, REACH * config.tolerance / history[-1]))
        # Newton step: sign * tr(M Hess u) = -residual, to relative residual eta
        u, krylov = _solve_linear(geom, coef, -sign * ev.residual, config,
                                  max(eta, config.linear_tol))
        if krylov.status != "converged":
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


def _build_report(ev: _Eval, history: list[float], margin_min, multiplier, status) -> SolveReport:
    """The report of the iterate ``ev``; ``history`` holds one residual per iterate."""
    return SolveReport(phi=ev.phi, residual_history=history, cone_margin_min=float(margin_min),
                       c2_diagnostic=ev.c2, c0_diagnostic=ev.phi.oscillation(),
                       multiplier=float(multiplier), status=status, iterations=len(history) - 1)


def _nested(geom: TorusGeometry, coarse: Callable[[TorusGeometry], SolveReport],
            fine: Callable[[ScalarField], SolveReport],
            entry: Callable[[SolveReport, SolveReport], dict]
            ) -> tuple[SolveReport | None, list[dict]]:
    """Nested iteration over grids (Brandt, Math. Comp. 31, 1977) on ``geom``:
    the report of ``fine`` started from the solution of ``coarse``, or
    ``None`` for the caller's solve on ``geom`` alone, with the coarse
    ``path_history`` entries accepted so far.

    When ``N/2 >= COARSEST_N``, ``coarse(grid)`` solves on the ``N/2`` grid
    (nesting itself the same way), giving the report ``low``, and, if that
    converges, ``fine`` solves on ``geom`` from ``low.phi`` prolonged by
    :func:`fields.resample`.  Newton's step count is mesh independent
    (Allgower, Boehmer, Potra & Rheinboldt, SIAM J. Numer. Anal. 23, 1986),
    so the prolonged start lies in the fine quadratic basin and the coarse
    grids take the steps far from the solution.  A converged fine report
    gets the coarse history plus ``entry(low, report)`` as its
    ``path_history``.  Anything else (a coarser grid below ``COARSEST_N``,
    either solve unconverged or raising :class:`DomainError`,
    :class:`ConeBreachError` or :class:`ContinuationError`) gives ``None``.
    """
    history: list[dict] = []
    if geom.N // 2 < COARSEST_N:
        return None, history
    try:
        low = coarse(TorusGeometry(geom.n, geom.N // 2))
        history = low.path_history
        if low.success:
            report = fine(resample(low.phi, geom))
            if report.success:
                report.path_history = history + [entry(low, report)]
                return report, report.path_history
    except (DomainError, ConeBreachError, ContinuationError) as exc:
        if isinstance(exc, ContinuationError) and exc.report is not None:
            history = exc.report.path_history  # the entries the coarse path accepted
    return None, history


# ---------------------------------------------------------------------------
# continuity paths


# halvings allowed per target gap of a continuity stage
PATH_HALVINGS = 8


def _path_entry(stage: str, t: float, start: str, report: SolveReport) -> dict:
    """The ``path_history`` entry of an accepted solve at ``t``, with its grid ``N``
    and its ``start``: ``"warm"``, ``"predicted"``, ``"prolonged"`` or, on
    the coarsest level of a nested :func:`newton_solve`, ``"cold"``."""
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


def _f_mean(f: ScalarField, chi: FormField) -> float:
    """``mean(f det chi)/mean(det chi)``, the mean of ``f`` that the
    integrability identity fixes."""
    n = chi.geometry.n
    return integrate(f, [chi] * n) / integrate(None, [chi] * n)


def _restrict(coarse: TorusGeometry, chi: FormField, omega0: FormField, f: ScalarField,
              class_f: Callable[[FormField, FormField], float]):
    """``chi``, ``omega0`` and ``f`` on the ``coarse`` grid.

    Each potential is restricted by :func:`fields.resample` (a form stays a
    base plus a potential, so it stays closed).  Truncation moves the
    integrals of the integrability identity, so ``f``'s constant is shifted
    until :func:`_f_mean` equals ``class_f(chi, omega0)`` of the coarse data.
    """
    chi_c, omega_c = (form_field(coarse, form.base, None if form.potential is None
                                 else resample(form.potential, coarse))
                      for form in (chi, omega0))
    f_c = resample(f, coarse)
    return chi_c, omega_c, f_c + (class_f(chi_c, omega_c) - _f_mean(f_c, chi_c))


def _continuity(path, chi: FormField, omega0: FormField, f: ScalarField, param: float,
                config: SolverConfig) -> SolveReport:
    """A predictor-corrector continuity path, nested over grids (:func:`_nested`).

    ``path(chi, omega0, f, param)`` (:func:`_j_path` or :func:`_dhym_path`)
    checks the hypotheses on the given grid and returns what :func:`_stages`
    builds: the stages ``(name, t_start, t_end, problem(t))``, the class
    constant that :func:`_restrict` keeps and a builder of the target
    problem, which equals the last stage's problem at ``t_end``.  The coarse
    solve is this path on the data restricted to ``N/2``, and the fine solve
    one :func:`newton_solve` of the target problem, built only there and
    recorded as the last target of the last stage with the start
    ``"prolonged"``.  Without that nesting, each stage is marched from zero
    on this grid by :func:`_march` (secant predictor, Newton corrector, step
    doubling) over a grid of ``path_steps`` equal targets, whose spacing is
    also the first step, following the coarse entries accepted so far.  A
    spatially constant ``f`` makes the last stage a single target at its
    end: its two ends then differ by a constant that integrability holds to
    ``1e-8``, so one warm solve covers it (and bisects if it fails).
    """
    stages, class_f, target = path(chi, omega0, f, param)
    geom = chi.geometry
    name, _, t_end, _ = stages[-1]
    report, history = _nested(
        geom, lambda grid: _continuity(path, *_restrict(grid, chi, omega0, f, class_f), param,
                                       config),
        lambda start: newton_solve(target(), start, config),
        lambda low, fine: _path_entry(name, t_end, "prolonged", fine))
    if report is not None:
        return report
    phi = ScalarField.zeros(geom)
    last = len(stages) - 1
    for k, (name, t_start, t_end, problem) in enumerate(stages):
        steps = 1 if k == last and np.ptp(f.values) == 0.0 else config.path_steps
        phi, report = _march(problem, phi, config, t_start,
                             np.linspace(t_start, t_end, steps + 1)[1:], name, history)
    report.path_history = history
    return report


def _check_integrability(required: float, given: float) -> None:
    """The integrability hypotheses of a path, in units of ``f``: the class
    data ask for a non-negative constant ``required`` (to ``1e-10 * scale``),
    and ``given = mean(f det chi)/mean(det chi)`` equals it (to ``1e-8 *
    scale``), where ``scale = max(1, |required|)``."""
    scale = max(1.0, abs(required))
    if required < -1e-10 * scale:
        raise PreconditionError("integrability sign fails: the class data require "
                                f"mean(f det chi)/mean(det chi) = {required:.6e} < 0")
    if abs(given - required) > 1e-8 * scale:
        raise PreconditionError(
            f"integrability identity fails: mean(f det chi)/mean(det chi) = {given:.10e} "
            f"but the class data require {required:.10e}")


def _stages(make: Callable, class_f: Callable[[FormField, FormField], float], chi: FormField,
            omega0: FormField, f: ScalarField, param: float, form_stages, last: str):
    """The continuity path of one equation, whose hypotheses other than
    integrability hold: ``(stages, class_f, target)`` for :func:`_continuity`.

    ``make`` is :func:`make_j_problem` or :func:`make_dhym_problem` and
    ``class_f(chi, omega)`` the constant ``f`` that the equation's
    integrability identity fixes for the forms (:func:`_j_class_f`,
    :func:`_dhym_class_f`).  Integrability is checked here, once.  Each form
    stage ``(name, t_start, t_end, forms)`` moves the forms ``forms(t) =
    (chi_t, omega_t)`` with ``f = class_f(chi_t, omega_t)``; the stage
    ``last`` then carries ``f1 = class_f(chi, omega0)`` to the target by
    ``(1 - s) f1 + s f``, and ``target()`` builds its problem at ``s = 1``.
    Every problem is built without its coarse builder, so each of its
    solves stays on its grid: the path nests the grids itself.
    """
    geom = chi.geometry
    f1 = class_f(chi, omega0)
    _check_integrability(f1, _f_mean(f, chi))

    def flat(chi_t: FormField, omega_t: FormField, f_t: ScalarField) -> _NewtonProblem:
        problem = make(chi_t, omega_t, f_t, param)
        problem.coarse = None
        return problem

    def problem(forms, t: float):
        chi_t, omega_t = forms(t)
        return flat(chi_t, omega_t, ScalarField.constant(geom, class_f(chi_t, omega_t)))

    stages = [(name, t_start, t_end, partial(problem, forms))
              for name, t_start, t_end, forms in form_stages]
    stages.append((last, 0.0, 1.0, lambda s: flat(
        chi, omega0, ScalarField(geom, (1.0 - s) * f1 + s * f.values))))
    return stages, class_f, lambda: flat(chi, omega0, f)


def _j_class_f(chi: FormField, omega: FormField, c: float) -> float:
    """``(c a_0 - n a_1)/a_n`` of the intersection vector ``a_k = int chi^k ^
    omega^(n-k)``: the constant ``f`` that the J integrability identity
    ``int(f chi^n) = c int omega^n - n int chi ^ omega^(n-1)`` gives."""
    a = intersections(chi, omega)
    return (c * a[0] - (len(a) - 1) * a[1]) / a[-1]


def _j_path(chi: FormField, omega0: FormField, f: ScalarField, c: float):
    """The stages of :func:`continuity_path_j` on the grid of its data."""
    c = _hypotheses(chi, omega0, f, c, *_J)
    n = chi.geometry.n
    return _stages(make_j_problem, partial(_j_class_f, c=c), chi, omega0, f, c,
                   [("j-stage1", 0.0, 1.0,
                     lambda t: (t * chi + (1.0 - t) * (c / n) * omega0, omega0))], "j-stage2")


def continuity_path_j(chi: FormField, omega0: FormField, f_target: ScalarField,
                      c: float, config: SolverConfig) -> SolveReport:
    """Two-stage predictor-corrector continuity method for the J-type
    equation, nested over grids.

    Stage 1 tilts the reference form from ``(c/n) * omega0``, where the
    class constant vanishes, to ``chi``, with ``f`` the class constant of the
    tilted forms at each step (see :func:`_stages`); stage 2 interpolates
    that constant to the target ``f``.
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


def _dhym_class_f(chi: FormField, omega: FormField, theta0: float) -> float:
    """The constant ``f`` that the dHYM integrability identity gives for
    ``(chi, omega)``: ``(tan(theta0) Re z - Im z) n!/a_n`` with ``a =
    intersections(chi, omega)`` and ``z = mean det(omega + i chi) = sum_k
    i^k a_k/(k!(n-k)!)``."""
    a = intersections(chi, omega)
    n = len(a) - 1
    z = sum(1j ** k * a[k] / (math.factorial(k) * math.factorial(n - k)) for k in range(n + 1))
    return (math.tan(theta0) * z.real - z.imag) / (a[n] / math.factorial(n))


def _dhym_path(chi: FormField, omega0: FormField, f: ScalarField, theta0: float):
    """The stages of :func:`continuity_path_dhym` on the grid of its data."""
    theta0 = _hypotheses(chi, omega0, f, theta0, *_DHYM)
    lam0 = _relative_eigvals(chi.parts, omega0.parts)
    gamma_margin = _cone_margin(np.arctan(1.0 / lam0), theta0)
    if gamma_margin <= 0.0:
        raise PreconditionError(f"omega0 target violates the subsolution hypothesis "
                                f"(Gamma margin {gamma_margin:.3e})")
    cot_n = 1.0 / math.tan(theta0 / chi.geometry.n)
    kappa = cot_n / float(np.min(lam0[..., 0])) + 1.0
    return _stages(make_dhym_problem, partial(_dhym_class_f, theta0=theta0), chi, omega0, f,
                   theta0,
                   [("dhym-stage1", 1.0, 0.0,
                     lambda t: (chi, t * cot_n * chi + (1.0 - t) * kappa * omega0)),
                    ("dhym-stage2", kappa, 1.0, lambda t: (chi, t * omega0))], "dhym-stage3")


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
