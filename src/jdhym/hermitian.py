"""Pointwise Hermitian-matrix algebra for the two cone conditions.

Hermitian matrices are plain complex ndarrays.  Everything here is a pure
function of small dense matrices (n <= 6); grid-sized batched variants live
in :mod:`jdhym.fields` and :mod:`jdhym.solver`.

Conventions.  ``SpectrumRel`` holds the ascending roots of
``det(omega - lam * chi) = 0`` for positive Hermitian ``chi``, ``omega``.
The two cone conditions are phrased through leave-one-out sums over the
reciprocals ``1/lam_i``:

* J-cone:  every leave-one-out sum of ``1/lam_i`` stays below ``c``
  (equivalently ``c*omega^{n-1} - (n-1)*chi ^ omega^{n-2} > 0``),
* dHYM cone (the Gamma region): every leave-one-out sum of
  ``arctan(1/lam_i)`` stays below ``theta0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError

__all__ = [
    "SpectrumRel",
    "ConeSpec",
    "hermitian_defect",
    "ensure_hermitian",
    "is_positive_definite",
    "relative_spectrum",
    "trace_relative",
    "p_level",
    "p_level_arctan",
    "q_level",
    "cone_test_j",
    "cone_test_dhym",
    "j_cone_margin",
    "gamma_margin",
    "schur_complement",
    "f_value",
    "f_gradient",
    "f_hessian",
    "truncate_spectrum",
]

# Positivity checks are relative to the largest entry at this tolerance.
POSITIVITY_RTOL = 1e-12


def hermitian_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation of ``a`` from its Hermitian part."""
    a = np.asarray(a)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def ensure_hermitian(a: np.ndarray, *, rtol: float = 1e-10) -> np.ndarray:
    """Validate that ``a`` is square and Hermitian; return it as complex."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise UsageError(f"expected a square matrix, got shape {a.shape}")
    scale = max(float(np.max(np.abs(a))), 1.0)
    if hermitian_defect(a) > rtol * scale:
        raise UsageError("matrix is not Hermitian to tolerance")
    return a


def is_positive_definite(a: np.ndarray) -> bool:
    a = np.asarray(a, dtype=complex)
    scale = max(float(np.max(np.abs(a))), 1.0)
    eigs = np.linalg.eigvalsh(a)
    return bool(eigs[0] > POSITIVITY_RTOL * scale)


@dataclass(frozen=True)
class SpectrumRel:
    """Ascending positive eigenvalues of ``omega`` relative to ``chi``."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) == 0:
            raise UsageError("spectrum must be non-empty")
        if any(not math.isfinite(v) or v <= 0.0 for v in vals):
            raise DomainError("relative eigenvalues must be finite and positive")
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            raise UsageError("relative eigenvalues must be ascending")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class ConeSpec:
    """Cone data: either J-cone ``{c, slack}`` or dHYM-cone ``{theta0, slack}``."""

    kind: str
    c: float | None = None
    theta0: float | None = None
    slack: float = 0.0

    def __post_init__(self):
        if self.kind not in ("J", "dHYM"):
            raise UsageError(f"unknown cone kind {self.kind!r}")
        if self.slack < 0.0:
            raise UsageError("slack must be non-negative")
        if self.kind == "J":
            if self.c is None or self.c <= 0.0:
                raise UsageError("J cone requires c > 0")
        else:
            if self.theta0 is None or not (0.0 < self.theta0 < math.pi / 4):
                raise UsageError("dHYM cone requires theta0 in (0, pi/4)")

    @classmethod
    def j(cls, c: float, slack: float = 0.0) -> "ConeSpec":
        return cls(kind="J", c=float(c), slack=float(slack))

    @classmethod
    def dhym(cls, theta0: float, slack: float = 0.0) -> "ConeSpec":
        return cls(kind="dHYM", theta0=float(theta0), slack=float(slack))


def _check_positive_pair(chi: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    chi = ensure_hermitian(chi)
    omega = ensure_hermitian(omega)
    if chi.shape != omega.shape:
        raise UsageError(f"dimension mismatch: {chi.shape} vs {omega.shape}")
    if not is_positive_definite(chi):
        raise DomainError("chi must be positive definite")
    if not is_positive_definite(omega):
        raise DomainError("omega must be positive definite")
    return chi, omega


def relative_spectrum(chi: np.ndarray, omega: np.ndarray) -> SpectrumRel:
    """Roots of ``det(omega - lam*chi) = 0`` for a positive Hermitian pair.

    Reduces by the Cholesky factor of ``chi`` and solves the standard
    Hermitian eigenproblem; congruence-invariant by construction.
    """
    chi, omega = _check_positive_pair(chi, omega)
    L = np.linalg.cholesky(chi)
    Linv = np.linalg.inv(L)
    reduced = Linv @ omega @ Linv.conj().T
    eigs = np.linalg.eigvalsh(reduced)
    return SpectrumRel(tuple(float(v) for v in eigs))


def trace_relative(spec: SpectrumRel) -> float:
    """``tr_omega(chi) = sum(1/lam_i)``."""
    return float(np.sum(1.0 / spec.as_array()))


def p_level(spec: SpectrumRel) -> float:
    """Largest leave-one-out sum of reciprocals; 0 for n = 1 (empty sum)."""
    if spec.n == 1:
        return 0.0
    recip = 1.0 / spec.as_array()
    # values ascending => smallest reciprocal is dropped
    return float(np.sum(recip) - recip[-1])


def q_level(spec: SpectrumRel) -> float:
    """``sum(arctan(1/lam_i))``, in ``(0, n*pi/2)``."""
    return float(np.sum(np.arctan(1.0 / spec.as_array())))


def p_level_arctan(spec: SpectrumRel) -> float:
    """Largest leave-one-out sum of ``arctan(1/lam_i)``; 0 for n = 1."""
    if spec.n == 1:
        return 0.0
    terms = np.arctan(1.0 / spec.as_array())
    return float(np.sum(terms) - terms[-1])


def cone_test_j(spec: SpectrumRel, cone: ConeSpec, p: int, *, strict: bool = False) -> bool:
    """Whether every p-subset sum of reciprocals stays within ``c - (n-p)*slack``.

    The worst subset consists of the p largest reciprocals.  ``strict``
    toggles ``<`` versus ``<=`` (solutions use strict, stability hypotheses
    non-strict).
    """
    if cone.kind != "J":
        raise UsageError("cone_test_j requires a J cone")
    if not 1 <= p <= spec.n:
        raise UsageError(f"p must be in 1..{spec.n}, got {p}")
    recip = np.sort(1.0 / spec.as_array())[::-1]
    worst = float(np.sum(recip[:p]))
    bound = cone.c - (spec.n - p) * cone.slack
    return worst < bound if strict else worst <= bound


def cone_test_dhym(spec: SpectrumRel, cone: ConeSpec, *, strict: bool = True) -> bool:
    """Gamma-region test: worst leave-one-out arctan sum below ``theta0 - slack``."""
    if cone.kind != "dHYM":
        raise UsageError("cone_test_dhym requires a dHYM cone")
    worst = p_level_arctan(spec)
    bound = cone.theta0 - cone.slack
    return worst < bound if strict else worst <= bound


def j_cone_margin(spec: SpectrumRel, c: float) -> float:
    """``c`` minus the worst leave-one-out reciprocal sum (positive inside)."""
    return float(c) - p_level(spec)


def gamma_margin(spec: SpectrumRel, theta0: float) -> float:
    """``theta0`` minus the worst leave-one-out arctan sum (positive inside)."""
    return float(theta0) - p_level_arctan(spec)


def schur_complement(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``A - C B^{-1} C^H`` for Hermitian ``A``, positive Hermitian ``B``."""
    a = ensure_hermitian(a)
    b = ensure_hermitian(b)
    c = np.asarray(c, dtype=complex)
    if c.ndim != 2 or c.shape != (a.shape[0], b.shape[0]):
        raise UsageError(f"C must have shape {(a.shape[0], b.shape[0])}, got {c.shape}")
    if not is_positive_definite(b):
        raise DomainError("B must be positive definite")
    out = a - c @ np.linalg.solve(b, c.conj().T)
    return 0.5 * (out + out.conj().T)


def _check_f_range(f: float, n: int) -> float:
    f = float(f)
    if f <= -1.0 / (100.0 * n):
        raise DomainError(f"f must exceed -1/(100n) = {-1.0 / (100.0 * n):.3e}, got {f}")
    return f


def _check_theta0(theta0: float) -> float:
    theta0 = float(theta0)
    if not (0.0 < theta0 < math.pi / 4):
        raise DomainError(f"theta0 must lie in (0, pi/4), got {theta0}")
    return theta0


def f_value(f: float, spec: SpectrumRel, theta0: float) -> float:
    """``sin(theta0 - sum arctan(1/lam)) - f*cos(theta0)/prod(sqrt(lam^2+1))``.

    Zero exactly at pointwise dHYM solutions; strictly decreasing in ``f``.
    """
    theta0 = _check_theta0(theta0)
    f = _check_f_range(f, spec.n)
    lam = spec.as_array()
    s = float(np.sum(np.arctan(1.0 / lam)))
    r = float(np.prod(np.sqrt(lam * lam + 1.0)))
    return math.sin(theta0 - s) - f * math.cos(theta0) / r


def f_gradient(f: float, spec: SpectrumRel, theta0: float) -> np.ndarray:
    """Partial derivatives of :func:`f_value` in each eigenvalue.

    All components are strictly positive on the Gamma region for admissible
    ``f``, and weakly decreasing along the ascending eigenvalue order.
    """
    theta0 = _check_theta0(theta0)
    f = _check_f_range(f, spec.n)
    if gamma_margin(spec, theta0) <= 0.0:
        raise DomainError("spectrum lies outside the Gamma region")
    lam = spec.as_array()
    s = float(np.sum(np.arctan(1.0 / lam)))
    r = float(np.prod(np.sqrt(lam * lam + 1.0)))
    g = f * math.cos(theta0) / r
    return math.cos(theta0 - s) / (lam * lam + 1.0) + g * lam / (lam * lam + 1.0)


def f_hessian(f: float, spec: SpectrumRel, theta0: float) -> np.ndarray:
    """Second derivatives of :func:`f_value` in the eigenvalues (n x n)."""
    theta0 = _check_theta0(theta0)
    f = _check_f_range(f, spec.n)
    lam = spec.as_array()
    s = float(np.sum(np.arctan(1.0 / lam)))
    r = float(np.prod(np.sqrt(lam * lam + 1.0)))
    g = f * math.cos(theta0) / r
    w = lam * lam + 1.0
    hess = -math.sin(theta0 - s) / np.outer(w, w) - g * np.outer(lam / w, lam / w)
    diag = -math.cos(theta0 - s) * 2.0 * lam / (w * w) + g * (1.0 - lam * lam) / (w * w)
    hess[np.diag_indices_from(hess)] += diag
    return hess


def truncate_spectrum(spec: SpectrumRel, cap: float) -> SpectrumRel:
    """Cap each eigenvalue at ``cap``; shifts p_level by at most ``(n-1)/cap``."""
    cap = float(cap)
    if cap <= 0.0:
        raise UsageError("cap must be positive")
    return SpectrumRel(tuple(min(v, cap) for v in spec.values))
