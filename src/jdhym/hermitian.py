"""Pointwise Hermitian-matrix algebra for the two cone conditions.

Hermitian matrices are plain complex ndarrays.  Everything here is a pure
function of small dense matrices (n <= 6).  The private kernels (relative
spectrum, determinant and wedge density, leave-one-out sum, the two
equations' values, the dHYM derivatives) act on leading batch axes, so they
serve one matrix, a whole grid and a batch of random trials alike; together
with the one check per hypothesis they are what the other modules call.
Grid kernels read a Hermitian field as its ``n*n`` real parts
(:func:`_parts`), in blocks of ``_BLOCK2`` points.

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

import collections
import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, NotKahlerError, UsageError

__all__ = [
    "SpectrumRel",
    "ConeSpec",
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


def ensure_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate that ``a`` is square and Hermitian to 1e-10 relative; return it as complex."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise UsageError(f"expected a square matrix, got shape {a.shape}")
    scale = max(float(np.max(np.abs(a))), 1.0)
    if np.max(np.abs(a - a.conj().T)) > 1e-10 * scale:
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
            if self.c is None:
                raise UsageError("J cone requires c")
            _check_c(self.c)
        else:
            if self.theta0 is None:
                raise UsageError("dHYM cone requires theta0")
            _check_theta0(self.theta0)

    @classmethod
    def j(cls, c: float, slack: float = 0.0) -> "ConeSpec":
        return cls(kind="J", c=float(c), slack=float(slack))

    @classmethod
    def dhym(cls, theta0: float, slack: float = 0.0) -> "ConeSpec":
        return cls(kind="dHYM", theta0=float(theta0), slack=float(slack))


def relative_spectrum(chi: np.ndarray, omega: np.ndarray) -> SpectrumRel:
    """Roots of ``det(omega - lam*chi) = 0`` for a positive Hermitian pair."""
    chi = ensure_hermitian(chi)
    omega = ensure_hermitian(omega)
    if chi.shape != omega.shape:
        raise UsageError(f"dimension mismatch: {chi.shape} vs {omega.shape}")
    if not is_positive_definite(chi):
        raise DomainError("chi must be positive definite")
    if not is_positive_definite(omega):
        raise DomainError("omega must be positive definite")
    return SpectrumRel(tuple(float(v) for v in _relative_eigvals(_parts(chi), _parts(omega))))


@functools.lru_cache(maxsize=4)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Off-diagonal index pairs ``i < j``, in the order of :func:`_parts`."""
    return tuple(itertools.combinations(range(n), 2))


def _parts(m: np.ndarray) -> list[np.ndarray]:
    """The ``n*n`` real parts of Hermitian matrices (last two axes), as views of
    ``m``: the ``n`` diagonal entries, then the real and the imaginary part of
    each upper entry ``(i, j)`` of :func:`_pairs`.  This is the order of
    ``fields._hessian_symbols``; the lower triangle is not read."""
    n = m.shape[-1]
    out = [m[..., i, i].real for i in range(n)]
    for i, j in _pairs(n):
        out += [m[..., i, j].real, m[..., i, j].imag]
    return out


def _matrix(parts) -> np.ndarray:
    """The Hermitian matrices whose real parts (:func:`_parts`) are ``parts``,
    over the broadcast leading shape of the parts."""
    n = math.isqrt(len(parts))
    m = np.zeros(np.broadcast_shapes(*(np.shape(p) for p in parts)) + (n, n), dtype=complex)
    for dst, p in zip(_parts(m), parts):
        dst[...] = p
    for i, j in _pairs(n):
        np.conj(m[..., i, j], out=m[..., j, i])
    return m


def _entries(parts) -> list:
    """The entries of Hermitian matrices given by their real parts
    (:func:`_parts`), as an ``n x n`` nested list of complex arrays."""
    n = math.isqrt(len(parts))
    m = [[parts[i].astype(complex) if i == j else None for j in range(n)] for i in range(n)]
    for k, (i, j) in enumerate(_pairs(n)):
        m[i][j] = parts[n + 2 * k].astype(complex)
        m[i][j].imag = parts[n + 2 * k + 1]
        m[j][i] = np.conj(m[i][j])
    return m


def _product(a: list, b: list, i: int, j: int):
    """The entry ``(i, j)`` of the product ``a b`` of nested-list matrices."""
    out = a[i][0] * b[0][j]
    for k in range(1, len(b)):
        out += a[i][k] * b[k][j]
    return out


def _minor(m: list, rows: list, cols: list):
    """The determinant of the submatrix ``rows x cols`` of the nested-list
    matrix ``m`` (1 when empty), by Laplace expansion along its first row."""
    if len(rows) <= 1:
        return m[rows[0]][cols[0]] if rows else 1.0
    out = None
    for k, col in enumerate(cols):
        term = m[rows[0]][col] * _minor(m, rows[1:], cols[:k] + cols[k + 1:])
        out = term if out is None else out - term if k % 2 else out + term
    return out


def _det_adj(m: list) -> tuple:
    """The determinant and the adjugate (``adj(m) m = det(m) I``) of an
    ``n x n`` matrix given as a nested list of entries (arrays over the same
    points), by cofactor expansion, which suits the n <= 3 of the grid
    kernels."""
    others = [[k for k in range(len(m)) if k != i] for i in range(len(m))]
    adj = [[(-1.0) ** (i + j) * _minor(m, others[j], others[i]) for j in range(len(m))]
           for i in range(len(m))]
    return _product(m, adj, 0, 0), adj


def _frame(chi: list) -> list | np.ndarray:
    """What the relative spectrum reads of ``chi``, given by its real parts:
    the parts themselves at n <= 2, the inverse of its Cholesky factor above
    (the relative spectrum is then that of ``L^-1 omega L^-H``)."""
    if len(chi) <= 4:
        return chi
    return np.linalg.inv(np.linalg.cholesky(_matrix(chi)))


def _flatten(a, shape: tuple) -> list | np.ndarray | None:
    """Parts (a list or tuple) or matrices (an array, last two axes: the
    frame of :func:`_frame` at n = 3) broadcast to the leading ``shape`` and
    flattened to one point axis; ``None`` stays."""
    if a is None:
        return None
    if isinstance(a, (list, tuple)):
        return [np.broadcast_to(p, shape).reshape(-1) for p in a]
    return np.broadcast_to(a, shape + a.shape[-2:]).reshape((-1,) + a.shape[-2:])


def _take(a, part: slice):
    """The points ``part`` of flattened parts or matrices (:func:`_flatten`)."""
    if a is None:
        return None
    return [p[part] for p in a] if isinstance(a, list) else a[part]


# points per block of a blocked pass; the temporaries of a block stay in cache
_BLOCK2 = 4096


def _blocks(size: int):
    """Slices of ``_BLOCK2`` consecutive points covering ``range(size)``."""
    return (slice(start, start + _BLOCK2) for start in range(0, size, _BLOCK2))


def _det(factors) -> np.ndarray:
    """The sum, over the distinct ways of taking each row ``i`` from one of
    the ``n`` factors, of the determinant of the rows taken, over the
    broadcast leading shape of the factors' real parts (:func:`_parts`; a
    repeated factor is passed as the same object): ``det A`` for one factor
    passed ``n`` times.  The cofactor expansion of :func:`_minor`, in blocks
    of ``_BLOCK2`` points."""
    distinct = list({id(p): p for p in factors}.values())
    label = {id(p): k for k, p in enumerate(distinct)}
    choices = sorted(set(itertools.permutations(label[id(p)] for p in factors)))
    shape = np.broadcast_shapes(*(np.shape(q) for p in distinct for q in p))
    flat = [_flatten(p, shape) for p in distinct]
    idx = list(range(len(factors)))
    out = np.empty(math.prod(shape))
    for part in _blocks(out.size):
        rows = [_entries(_take(p, part)) for p in flat]
        total = None
        for choice in choices:
            term = _minor([rows[k][i] for i, k in enumerate(choice)], idx, idx)
            total = term if total is None else total + term
        out[part] = total.real
    return out.reshape(shape)


def _density(factors) -> np.ndarray:
    """The wedge density ``D(A_1,..,A_n)`` (``fields`` states the
    convention) of factors given as in :func:`_det`.

    ``D = sum_s det(row i of A_s(i))`` over the ``n!`` assignments ``s`` of
    factors to rows; a factor repeated ``k`` times gives each distinct
    assignment ``k!`` times, so ``D`` is ``prod k!`` times :func:`_det`.
    n = 2 is real arithmetic on the parts, ``D(A, B) = a0 b1 + a1 b0 - 2
    Re(a01 conj(b01))``.
    """
    if len(factors) == 2:
        (a0, a1, ar, ai), (b0, b1, br, bi) = factors
        return np.asarray(a0 * b1 + a1 * b0 - 2.0 * (ar * br + ai * bi))
    repeats = collections.Counter(id(p) for p in factors).values()
    return math.prod(map(math.factorial, repeats)) * _det(factors)


def _relative_eigvals(chi: list | None, omega: list) -> np.ndarray:
    """Ascending roots of ``det(omega - lam*chi) = 0`` over the broadcast
    leading shape of the real parts (:func:`_parts`) ``chi`` and ``omega``.

    ``chi`` is positive definite; ``None`` stands for the identity, which
    gives the ordinary spectrum.  :func:`_eigvals` reads ``chi`` through its
    frame (:func:`_frame`), in blocks.
    """
    shape = np.broadcast_shapes(*(np.shape(p) for p in [*omega, *(chi or ())]))
    frame = None if chi is None else _flatten(_frame(chi), shape)
    omega = _flatten(omega, shape)
    out = np.empty((math.prod(shape), math.isqrt(len(omega))))
    for part in _blocks(len(out)):
        _eigvals(_take(frame, part), _take(omega, part), out[part])
    return out.reshape(shape + out.shape[-1:])


def _eigvals(frame, omega, out: np.ndarray) -> None:
    """Write into ``out`` (points x n) the ascending roots of ``det(omega -
    lam*chi) = 0``, ``omega`` given by its real parts and ``chi`` by its
    ``frame`` (:func:`_frame`; ``None`` for the identity).

    n = 1 divides and n > 2 calls ``eigvalsh`` in the Cholesky frame of
    ``chi`` (congruence-invariant).  n = 2 takes the roots ``(tr K -+
    sqrt(disc)) / (2 det chi)``, ``K = adj(chi) omega``, with the
    discriminant ``(K00 - K11)^2 + 4 K01 K10`` assembled from small factors,
    ``a^2 - 4 Im(conj(c) w)^2 + 4 Re(u conj(v))`` with ``a = c1 o0 - c0 o1``,
    ``u = c1 w - c o1`` and ``v = c0 w - c o0`` (``c``, ``w`` the upper
    entries of ``chi``, ``omega``), so it keeps its relative accuracy as the
    two roots merge, where ``tr(K)^2 - 4 det(K)`` cancels to nothing.  The
    identity drops every term with ``c``.
    """
    n = out.shape[-1]
    if n > 2:
        m = _matrix(omega)
        if frame is not None:
            m = frame @ m @ frame.conj().swapaxes(-1, -2)
        out[...] = np.linalg.eigvalsh(m)
        return
    if n == 1:
        out[:, 0] = omega[0] if frame is None else omega[0] / frame[0]
        return
    o0, o1, wr, wi = omega
    if frame is None:
        a, im, trace, det2 = o0 - o1, 0.0, o0 + o1, 2.0
        uv = wr * wr + wi * wi
    else:
        c0, c1, cr, ci = frame
        a = c1 * o0 - c0 * o1
        ur, ui = c1 * wr - cr * o1, c1 * wi - ci * o1
        vr, vi = c0 * wr - cr * o0, c0 * wi - ci * o0
        im = cr * wi - ci * wr
        uv = ur * vr + ui * vi
        trace = c1 * o0 + c0 * o1 - 2.0 * (cr * wr + ci * wi)
        det2 = 2.0 * (c0 * c1 - (cr * cr + ci * ci))
    root = np.sqrt(np.maximum(a * a - 4.0 * im * im + 4.0 * uv, 0.0))
    out[:, 0] = (trace - root) / det2
    out[:, 1] = (trace + root) / det2


def trace_relative(spec: SpectrumRel) -> float:
    """``tr_omega(chi) = sum(1/lam_i)``."""
    return float(np.sum(1.0 / spec.as_array()))


def _reduce_last(op: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``op.reduce(a, axis=-1)`` for ``op`` ``np.add`` or ``np.multiply``, bit for bit.

    A numpy reduction along the short last axis of a grid is several times
    slower than arithmetic on its slices.  One or two terms give the same
    bits in any order, so they are combined slice-wise; longer axes keep
    numpy's reduction, whose order of operations is its own.
    """
    n = a.shape[-1]
    if n > 2:
        return op.reduce(a, axis=-1)
    return op(a[..., 0], a[..., 1]) if n == 2 else a[..., 0].copy()


def _loo_max(terms: np.ndarray, total: np.ndarray | None = None) -> np.ndarray:
    """Largest leave-one-out sum over the last axis: the total minus the
    smallest term, 0 for a single term (the empty sum).  ``total`` is the
    terms' sum when the caller has it already."""
    # the smallest term from elementwise minima of the n slices: a reduction
    # along the short last axis of a grid is an order of magnitude slower
    low = terms[..., 0].copy()
    for i in range(1, terms.shape[-1]):
        np.minimum(low, terms[..., i], out=low)
    if total is None:
        total = _reduce_last(np.add, terms)
    return np.subtract(total, low, out=low)


def p_level(spec: SpectrumRel) -> float:
    """Largest leave-one-out sum of reciprocals; 0 for n = 1 (empty sum)."""
    return float(_loo_max(1.0 / spec.as_array()))


def q_level(spec: SpectrumRel) -> float:
    """``sum(arctan(1/lam_i))``, in ``(0, n*pi/2)``."""
    return float(np.sum(np.arctan(1.0 / spec.as_array())))


def p_level_arctan(spec: SpectrumRel) -> float:
    """Largest leave-one-out sum of ``arctan(1/lam_i)``; 0 for n = 1."""
    return float(_loo_max(np.arctan(1.0 / spec.as_array())))


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


def cone_test_dhym(spec: SpectrumRel, cone: ConeSpec) -> bool:
    """Gamma-region test: worst leave-one-out arctan sum strictly below ``theta0 - slack``."""
    if cone.kind != "dHYM":
        raise UsageError("cone_test_dhym requires a dHYM cone")
    return p_level_arctan(spec) < cone.theta0 - cone.slack


def _cone_margin(terms: np.ndarray, bound: float, total: np.ndarray | None = None) -> float:
    """``bound`` minus the worst leave-one-out sum of ``terms`` (last axis) over
    all leading axes, positive inside the cone: the J-cone for ``1/lam`` and
    ``c``, the Gamma region for ``arctan(1/lam)`` and ``theta0``.  ``total``
    is as in :func:`_loo_max`."""
    return float(bound) - float(np.max(_loo_max(terms, total)))


def j_cone_margin(spec: SpectrumRel, c: float) -> float:
    """``c`` minus the worst leave-one-out reciprocal sum (positive inside)."""
    return _cone_margin(1.0 / spec.as_array(), c)


def gamma_margin(spec: SpectrumRel, theta0: float) -> float:
    """``theta0`` minus the worst leave-one-out arctan sum (positive inside)."""
    return _cone_margin(np.arctan(1.0 / spec.as_array()), theta0)


def schur_complement(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``A - C B^{-1} C^H`` for Hermitian ``A``, positive Hermitian ``B``."""
    a = ensure_hermitian(a)
    b = ensure_hermitian(b)
    c = np.asarray(c, dtype=complex)
    if c.ndim != 2 or c.shape != (a.shape[0], b.shape[0]):
        raise UsageError(f"C must have shape {(a.shape[0], b.shape[0])}, got {c.shape}")
    if not is_positive_definite(b):
        raise DomainError("B must be positive definite")
    return _schur(a, b, c)


def _schur(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Hermitian part of ``A - C B^{-1} C^H`` over the leading batch axes."""
    out = a - c @ np.linalg.solve(b, c.conj().swapaxes(-1, -2))
    return 0.5 * (out + out.conj().swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# hypothesis checks: each raises DomainError (a non-finite f DataError), the
# grid checks UsageError and NotKahlerError


def _check_theta0(theta0: float) -> float:
    """``theta0`` in ``(0, pi/4)``, the angle range of the dHYM theorem."""
    theta0 = float(theta0)
    if not 0.0 < theta0 < math.pi / 4:
        raise DomainError(f"theta0 must lie in (0, pi/4), got {theta0}")
    return theta0


def _check_c(c: float) -> float:
    """``c > 0``, the constant of the J-equation."""
    c = float(c)
    if not c > 0.0:
        raise DomainError(f"c must be positive, got {c}")
    return c


def _check_integer(value, what: str) -> int:
    """``value``, an integer (numpy's too, not a bool) or an integral float,
    as an int; a size or count is refused rather than truncated."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise UsageError(f"{what} must be an integer, got {value!r}")


def _f_bound_j(n: int, c: float) -> float:
    """The J theorem's lower bound ``-(1/2n) (1/c)^(n-1)`` on ``f``."""
    return -(1.0 / (2.0 * n)) * (1.0 / c) ** (n - 1)


def _f_bound_dhym(n: int) -> float:
    """The dHYM theorem's lower bound ``-1/(100n)`` on ``f``."""
    return -1.0 / (100.0 * n)


def _check_f(f, bound: float):
    """``f``, a number or an array of finite values (``DataError``
    otherwise), strictly above ``bound`` everywhere."""
    if not np.all(np.isfinite(f)):
        raise DataError("f contains non-finite values")
    low = float(np.min(f))
    if low <= bound:
        raise DomainError(f"f must exceed {bound:.6e} pointwise, got {low:.6e}")
    return f


def _check_geoms(*objs):
    """The one grid geometry of the given fields, forms and geometries, if any."""
    geoms = {getattr(o, "geometry", o) for o in objs if o is not None}
    if len(geoms) > 1:
        raise UsageError("all fields must share one grid")
    return next(iter(geoms), None)


def _require_positive(margins: np.ndarray, what: str) -> None:
    """Raise :class:`NotKahlerError` at the grid point of the smallest margin
    (a smallest eigenvalue) unless that margin is positive; a nan margin,
    where ``argmin`` stops, is not."""
    flat = int(np.argmin(margins))
    margin = float(margins.reshape(-1)[flat])
    if not margin > 0.0:
        idx = tuple(int(i) for i in np.unravel_index(flat, margins.shape))
        raise NotKahlerError(f"{what} is not positive at grid index {idx} (margin {margin:.3e})",
                             grid_index=idx, margin=margin)


# ---------------------------------------------------------------------------
# the two equations as functions of the relative spectrum (last axis)


def _j_value(lam: np.ndarray, f, c: float, total: np.ndarray) -> tuple:
    """The J value ``total + f/prod(lam_i) - c``, zero at solutions, and the
    volume ratio ``prod(lam_i) = omega^n / chi^n``; ``total`` is
    ``sum(1/lam_i)``, which the caller has from the cone margin."""
    prod = _reduce_last(np.multiply, lam)
    return total + f / prod - c, prod


def _dhym_angle_radius(lam: np.ndarray, s: np.ndarray | None = None) -> tuple:
    """``s = sum arctan(1/lam_i)`` (computed unless the caller has it) and
    ``r = prod sqrt(lam_i^2 + 1)``."""
    if s is None:
        s = _reduce_last(np.add, np.arctan(1.0 / lam))
    return s, _reduce_last(np.multiply, np.sqrt(lam * lam + 1.0))


def _dhym_value(lam: np.ndarray, f, theta0, s: np.ndarray | None = None) -> tuple:
    """The dHYM value ``sin(theta0 - s) - f cos(theta0)/r``, zero at
    solutions, and the volume ratio ``r = |det(omega + i chi)| / det(chi)``
    (``s, r`` as in :func:`_dhym_angle_radius`)."""
    s, r = _dhym_angle_radius(lam, s)
    return np.sin(theta0 - s) - f * np.cos(theta0) / r, r


def _dhym_gradient(lam: np.ndarray, f, theta0) -> np.ndarray:
    """Derivatives ``(cos(theta0 - s) + g*lam_i)/(lam_i^2 + 1)`` of
    :func:`_dhym_value` in the eigenvalues, ``g = f cos(theta0)/r``."""
    s, r = _dhym_angle_radius(lam)
    g = f * np.cos(theta0) / r
    return (np.cos(theta0 - s)[..., None] + g[..., None] * lam) / (lam * lam + 1.0)


def _dhym_hessian(lam: np.ndarray, f, theta0) -> np.ndarray:
    """Second derivatives of :func:`_dhym_value` in the eigenvalues (last two axes)."""
    s, r = _dhym_angle_radius(lam)
    g = (f * np.cos(theta0) / r)[..., None, None]
    w = lam * lam + 1.0
    x = lam / w
    hess = (-np.sin(theta0 - s)[..., None, None] / (w[..., :, None] * w[..., None, :])
            - g * (x[..., :, None] * x[..., None, :]))
    i = np.arange(lam.shape[-1])
    hess[..., i, i] += (-np.cos(theta0 - s)[..., None] * 2.0 * lam
                        + g[..., 0] * (1.0 - lam * lam)) / (w * w)
    return hess


def f_value(f: float, spec: SpectrumRel, theta0: float) -> float:
    """``sin(theta0 - sum arctan(1/lam)) - f*cos(theta0)/prod(sqrt(lam^2+1))``.

    Zero exactly at pointwise dHYM solutions; strictly decreasing in ``f``.
    """
    theta0 = _check_theta0(theta0)
    f = _check_f(float(f), _f_bound_dhym(spec.n))
    return float(_dhym_value(spec.as_array(), f, theta0)[0])


def f_gradient(f: float, spec: SpectrumRel, theta0: float) -> np.ndarray:
    """Partial derivatives of :func:`f_value` in each eigenvalue.

    All components are strictly positive on the Gamma region for admissible
    ``f``, and weakly decreasing along the ascending eigenvalue order.
    """
    theta0 = _check_theta0(theta0)
    f = _check_f(float(f), _f_bound_dhym(spec.n))
    if gamma_margin(spec, theta0) <= 0.0:
        raise DomainError("spectrum lies outside the Gamma region")
    return _dhym_gradient(spec.as_array(), f, theta0)


def f_hessian(f: float, spec: SpectrumRel, theta0: float) -> np.ndarray:
    """Second derivatives of :func:`f_value` in the eigenvalues (n x n)."""
    theta0 = _check_theta0(theta0)
    f = _check_f(float(f), _f_bound_dhym(spec.n))
    return _dhym_hessian(spec.as_array(), f, theta0)


def truncate_spectrum(spec: SpectrumRel, cap: float) -> SpectrumRel:
    """Cap each eigenvalue at ``cap``; shifts p_level by at most ``(n-1)/cap``."""
    cap = float(cap)
    if cap <= 0.0:
        raise UsageError("cap must be positive")
    return SpectrumRel(tuple(min(v, cap) for v in spec.values))
