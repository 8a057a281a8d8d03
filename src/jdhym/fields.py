"""Periodic grid fields on the flat complex torus, and their calculus.

Geometry.  The torus is ``C^n / (Z^n + i Z^n)`` with unit period in each of
the ``2n`` real coordinates.  Grid arrays carry the axes
``(x_1, ..., x_n, y_1, ..., y_n)`` with ``N`` points per axis, where
``z_j = x_j + i y_j``.  Matrix-valued fields append two axes of length ``n``.

Differentiation is spectral.  For the mode ``exp(2*pi*i*(k.x + l.y))`` the
symbol of ``d/dz_j = (d/dx_j - i d/dy_j)/2`` is ``zeta_j = pi*(l_j + i*k_j)``,
so the complex Hessian entry ``(i, j)`` has multiplier ``-zeta_i*conj(zeta_j)``.
Potentials are real, so the transforms are real (``rfftn``/``irfftn``) and
the multipliers live on the half spectrum, which halves the last axis.  Each
multiplier splits into real parts that are even in the frequency, and each
part gives one real inverse transform.  Diagonal symbols ``-|zeta_i|^2`` keep
their Nyquist content; odd-order symbols have the Nyquist frequency zeroed
(its sign is ambiguous there), so the Hessian is exactly Hermitian.  All
exactness claims are for band-limited data (max frequency < N/2).

Density convention (fixed once, used everywhere): a wedge of ``n``
(1,1)-forms with coefficient matrices ``A_1..A_n`` is the measure
``D(A_1,..,A_n) * dLeb`` with

    D(A_1,..,A_n) = sum_{sigma,tau} sgn(sigma) sgn(tau) prod_k A_k[sigma(k), tau(k)],

so ``omega^n`` has density ``n! * det(g)`` and the grid integral of a field
``s`` against a wedge is the plain grid mean of ``s * D``.  Total volume is 1.
``hermitian._density`` evaluates ``D`` (:func:`mixed_density`).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.fft as sfft

from .errors import DataError, DomainError, UsageError
from .hermitian import (_check_geoms, _check_integer, _density, _matrix, _pairs, _parts,
                        _relative_eigvals, _require_positive, ensure_hermitian,
                        is_positive_definite)

__all__ = [
    "TorusGeometry",
    "ScalarField",
    "FormField",
    "form_field",
    "constant_form",
    "field_from_modes",
    "resample",
    "random_bandlimited",
    "complex_hessian",
    "hessian_values",
    "kahler_form",
    "mixed_density",
    "integrate",
    "intersections",
    "complex_gradient",
    "relative_spectrum_field",
    "min_eigenvalue_field",
    "smooth_array",
    "mollify",
    "mollifier_profile",
    "mollifier_normalization",
    "regularized_max",
    "save_scalar_field",
    "load_scalar_field",
]


@dataclass(frozen=True)
class TorusGeometry:
    """Complex dimension ``n`` (1..3) and grid resolution ``N`` per real axis."""

    n: int
    N: int

    def __post_init__(self):
        n, N = _check_integer(self.n, "n"), _check_integer(self.N, "N")
        if not 1 <= n <= 3:
            raise UsageError(f"complex dimension must be 1..3, got {n}")
        if N < 8 or (N & (N - 1)) != 0:
            raise UsageError(f"N must be a power of two >= 8, got {N}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * (2 * self.n)

    @property
    def grid_size(self) -> int:
        return self.N ** (2 * self.n)

    def coordinates(self) -> list[np.ndarray]:
        """The 2n broadcastable coordinate arrays in [0, 1)."""
        axes = np.arange(self.N) / self.N
        return list(np.meshgrid(*([axes] * (2 * self.n)), indexing="ij", sparse=True))


def _frequencies(geom: TorusGeometry, half: bool = False,
                 odd: bool = False) -> list[np.ndarray]:
    """Broadcastable integer frequencies ``(k_1..k_n, l_1..l_n)`` of the FFT grid.

    ``half`` lays the last axis out as ``rfftn`` does (``0..N/2``); ``odd``
    zeroes the Nyquist frequency, whose sign is ambiguous in odd-order symbols.
    """
    N = geom.N
    m = 2 * geom.n
    out = []
    for a in range(m):
        f = sfft.rfftfreq(N, d=1.0 / N) if half and a == m - 1 else sfft.fftfreq(N, d=1.0 / N)
        if odd:
            f[N // 2] = 0.0
        out.append(f.reshape((1,) * a + (-1,) + (1,) * (m - a - 1)))
    return out


@functools.lru_cache(maxsize=8)
def _axis_laplace(geom: TorusGeometry) -> np.ndarray:
    """Symbols of |d/dz_j|^2 per axis pair on the full grid; even in k, so Nyquist-safe."""
    f = _frequencies(geom)
    n = geom.n
    out = np.stack([np.broadcast_to(math.pi ** 2 * (f[j] * f[j] + f[n + j] * f[n + j]),
                                    geom.shape) for j in range(n)])
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=8)
def _hessian_symbols(geom: TorusGeometry) -> tuple[np.ndarray, ...]:
    """The ``n*n`` real half-spectrum multipliers of the complex Hessian.

    First the diagonal symbols ``-|zeta_i|^2``; then, for each pair of
    ``hermitian._pairs``, the real and the imaginary part of
    ``-zeta_i*conj(zeta_j)`` (Nyquist zeroed): the order of the real parts
    of a Hermitian matrix (``hermitian._parts``).  Every multiplier is real
    and even in k, so for real ``u`` with ``uhat = rfftn(u)`` the diagonal
    entry is
    ``irfftn(S_ii * uhat)`` and ``H_ij = irfftn(Re * uhat) + i*irfftn(Im * uhat)``.
    Arrays broadcast to the half grid; each depends only on its axes.
    """
    n = geom.n
    f = _frequencies(geom, half=True)
    g = _frequencies(geom, half=True, odd=True)
    pi2 = math.pi ** 2
    out = [-pi2 * (f[i] * f[i] + f[n + i] * f[n + i]) for i in range(n)]
    for i, j in _pairs(n):
        ki, li, kj, lj = g[i], g[n + i], g[j], g[n + j]
        out += [-pi2 * (li * lj + ki * kj), -pi2 * (ki * lj - li * kj)]
    for a in out:
        a.setflags(write=False)
    return tuple(out)


def _rfft(values: np.ndarray) -> np.ndarray:
    """Half spectrum (last axis ``0..N/2``) of a real grid array.

    Every real transform of the package goes through this function and
    :func:`_irfft`.  Both run serially (no ``workers``).  Both look
    ``sfft.<name>`` up at each call, so that a stand-in for the module sees
    every transform.  Both keep the input's precision: float32 values give a
    complex64 spectrum and a complex64 spectrum gives float32 values, which
    the float32 Krylov operator of ``solver._solve_linear`` relies on.
    """
    return sfft.rfftn(values)


def _irfft(geom: TorusGeometry, spectrum: np.ndarray) -> np.ndarray:
    """Real grid values of a half spectrum that is Hermitian in the full one
    (serial, as :func:`_rfft` states)."""
    return sfft.irfftn(spectrum, s=geom.shape)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ScalarField:
    """Real function sampled on the periodic grid."""

    geometry: TorusGeometry
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.geometry.shape:
            raise UsageError(f"values shape {vals.shape} != grid shape {self.geometry.shape}")
        object.__setattr__(self, "values", _readonly(vals))

    @classmethod
    def zeros(cls, geom: TorusGeometry) -> "ScalarField":
        return cls(geom, np.zeros(geom.shape))

    @classmethod
    def constant(cls, geom: TorusGeometry, value: float) -> "ScalarField":
        return cls(geom, np.full(geom.shape, float(value)))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def oscillation(self) -> float:
        return float(np.max(self.values) - np.min(self.values))

    def __add__(self, other):
        if isinstance(other, ScalarField):
            _check_geoms(self, other)
            return ScalarField(self.geometry, self.values + other.values)
        return ScalarField(self.geometry, self.values + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        return ScalarField(self.geometry, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.geometry, -self.values)


def field_from_modes(geom: TorusGeometry, modes) -> ScalarField:
    """Build ``sum_m amp * cos(2*pi*(freq . u) + phase)`` from mode triples.

    ``modes`` is an iterable of ``(freq, amp)`` or ``(freq, amp, phase)``
    with ``freq`` a vector of 2n integers over ``(x_1..x_n, y_1..y_n)``; a
    non-integral frequency is refused (``UsageError``), not truncated.
    """
    coords = geom.coordinates()
    vals = np.zeros(geom.shape)
    for mode in modes:
        freq, amp, *rest = mode
        phase = float(rest[0]) if rest else 0.0
        freq = [_check_integer(f, "mode frequency") for f in freq]
        if len(freq) != 2 * geom.n:
            raise UsageError(f"frequency vector must have length {2 * geom.n}")
        if max(abs(f) for f in freq) >= geom.N // 2:
            raise UsageError("mode frequency at or above Nyquist")
        arg = np.zeros(geom.shape)
        for f, u in zip(freq, coords):
            if f:
                arg = arg + (2.0 * math.pi * f) * u
        vals += float(amp) * np.cos(arg + phase)
    return ScalarField(geom, vals)


def resample(phi: ScalarField, geom: TorusGeometry) -> ScalarField:
    """``phi`` on the grid of ``geom`` by spectral truncation or zero-padding.

    Keeps the modes with every ``|k_i| < min(N_src, N_dst) / 2`` (the smaller
    grid's Nyquist frequency is dropped, its sign being ambiguous), so
    restriction after prolongation is exact and a band-limited field is
    reproduced on any grid that resolves it.
    """
    src = phi.geometry
    if src.n != geom.n:
        raise UsageError(f"cannot resample n = {src.n} onto n = {geom.n}")
    m = min(src.N, geom.N) // 2
    keep_src = [np.r_[0:m, src.N - m + 1:src.N]] * (2 * src.n - 1) + [np.arange(m)]
    keep_dst = [np.r_[0:m, geom.N - m + 1:geom.N]] * (2 * geom.n - 1) + [np.arange(m)]
    out = np.zeros(geom.shape[:-1] + (geom.N // 2 + 1,), dtype=complex)
    out[np.ix_(*keep_dst)] = _rfft(phi.values)[np.ix_(*keep_src)]
    return ScalarField(geom, _irfft(geom, out) * (geom.grid_size / src.grid_size))


def random_bandlimited(geom: TorusGeometry, rng: np.random.Generator,
                       kmax: int = 2, amplitude: float = 0.01) -> ScalarField:
    """Random small trig polynomial of four modes with frequencies bounded by ``kmax``."""
    modes = []
    for _ in range(4):
        freq = rng.integers(-kmax, kmax + 1, size=2 * geom.n)
        if not np.any(freq):
            freq[rng.integers(0, 2 * geom.n)] = 1
        modes.append((freq, amplitude * rng.uniform(-1.0, 1.0), rng.uniform(0, 2 * math.pi)))
    return field_from_modes(geom, modes)


# ---------------------------------------------------------------------------
# spectral calculus


def hessian_values(phi: ScalarField) -> np.ndarray:
    """Complex Hessian ``(d^2 phi / dz_i dzbar_j)`` as a grid of n x n matrices.

    Diagonal entries use the even per-axis Laplace symbol so they keep
    Nyquist content; off-diagonal symbols are Nyquist-zeroed (sign-ambiguous
    there).  Exact for band-limited potentials either way.  The output is
    exactly Hermitian: ``H_ji`` is the conjugate of ``H_ij`` and the diagonal
    is real.
    """
    return _matrix(_hessian_parts(phi))


def _hessian_parts(phi: ScalarField, base=None) -> np.ndarray:
    """The ``n*n`` real parts of the complex Hessian of ``phi``
    (``hermitian._parts``), each plus its entry of ``base`` (a form's
    parts) when given, as one new ``(n*n,) + grid`` float64 array.

    The one transform loop: one forward transform and one inverse transform
    per part.
    """
    if not np.all(np.isfinite(phi.values)):
        raise DataError("potential contains non-finite values")
    geom = phi.geometry
    out = np.empty((geom.n ** 2,) + geom.shape)
    phat = _rfft(phi.values)
    for k, sym in enumerate(_hessian_symbols(geom)):
        entry = _irfft(geom, sym * phat)
        if base is None:
            out[k] = entry
        else:
            np.add(entry, base[k], out=out[k])
    return out


def complex_gradient(phi: ScalarField) -> np.ndarray:
    """``(d phi / dz_j)`` as a grid of n complex components (last axis)."""
    geom = phi.geometry
    n = geom.n
    g = _frequencies(geom, half=True, odd=True)
    phat = _rfft(phi.values)
    out = np.empty(geom.shape + (n,), dtype=complex)
    for j in range(n):
        # zeta_j = pi*(l_j + i*k_j): i*pi*k_j is Hermitian and gives the real
        # part; pi*l_j = i*(-i*pi*l_j) gives i times a real field
        out[..., j].real = _irfft(geom, (1j * math.pi) * g[j] * phat)
        out[..., j].imag = _irfft(geom, (-1j * math.pi) * g[n + j] * phat)
    return out


@dataclass(frozen=True)
class FormField:
    """Closed (1,1)-form: constant Hermitian base plus a potential's Hessian.

    The only constructors are :func:`form_field` and linear combinations, so
    closedness holds by construction.  ``parts`` are the form's ``n*n``
    read-only real parts (``hermitian._parts``): grids, or for a constant
    form 0-d arrays of its base.
    """

    geometry: TorusGeometry
    base: np.ndarray
    potential: ScalarField | None
    parts: tuple[np.ndarray, ...]

    def __post_init__(self):
        base = np.asarray(self.base, dtype=complex)
        if base.shape != (self.geometry.n, self.geometry.n):
            raise UsageError(f"base must be {self.geometry.n} x {self.geometry.n}")
        object.__setattr__(self, "base", _readonly(base))
        parts = tuple(np.asarray(p) for p in self.parts)
        for p in parts:
            p.setflags(write=False)
        object.__setattr__(self, "parts", parts)

    @property
    def values(self) -> np.ndarray:
        """The read-only matrices, shape grid + (n, n), built on each access:
        for a constant form a broadcast view of ``base``."""
        if self.potential is None:
            return np.broadcast_to(self.base, self.geometry.shape + self.base.shape)
        vals = _matrix(self.parts)
        vals.setflags(write=False)
        return vals

    def __add__(self, other: "FormField") -> "FormField":
        _check_geoms(self, other)
        p, q = self.potential, other.potential
        pot = q if p is None else p if q is None else p + q
        return FormField(self.geometry, self.base + other.base, pot,
                         tuple(a + b for a, b in zip(self.parts, other.parts)))

    def __mul__(self, scalar) -> "FormField":
        s = float(scalar)
        pot = None if self.potential is None else self.potential * s
        return FormField(self.geometry, self.base * s, pot, tuple(p * s for p in self.parts))

    __rmul__ = __mul__

    def min_eigenvalue(self) -> float:
        """Smallest pointwise eigenvalue over the grid (positivity margin)."""
        return float(np.min(_relative_eigvals(None, self.parts)[..., 0]))


def form_field(geom: TorusGeometry, base: np.ndarray,
               potential: ScalarField | None = None) -> FormField:
    """The (1,1)-form ``base + i d dbar(potential)``."""
    base = ensure_hermitian(base)
    if base.shape != (geom.n, geom.n):
        raise UsageError(f"base must be {geom.n} x {geom.n}")
    if potential is None:
        parts = [np.array(p) for p in _parts(base)]
    else:
        _check_geoms(potential, geom)
        parts = _hessian_parts(potential, base=_parts(base))
    return FormField(geom, base, potential, parts)


def constant_form(geom: TorusGeometry, base: np.ndarray) -> FormField:
    return form_field(geom, base, None)


def complex_hessian(phi: ScalarField) -> FormField:
    """The exact form ``i d dbar(phi)`` (zero base)."""
    return form_field(phi.geometry, np.zeros((phi.geometry.n,) * 2), phi)


def kahler_form(geom: TorusGeometry, base: np.ndarray, phi: ScalarField | None) -> FormField:
    """``base + i d dbar(phi)`` with a positivity check over the grid.

    The Hermitian ``base`` must be positive definite to
    ``hermitian.POSITIVITY_RTOL`` (else :class:`DomainError`); the form
    must then be positive at every grid point (:func:`_require_kahler`).
    """
    if not is_positive_definite(ensure_hermitian(base)):
        raise DomainError("base matrix must be positive definite")
    form = form_field(geom, base, phi)
    return form if phi is None else _require_kahler(form, "form")


def _require_kahler(form: FormField, what: str) -> FormField:
    """``form``, once its smallest eigenvalue is positive at every grid point;
    otherwise :class:`NotKahlerError` names the grid point of the smallest."""
    margin = _relative_eigvals(None, form.parts)[..., 0]
    _require_positive(np.broadcast_to(margin, form.geometry.shape), what)
    return form


# ---------------------------------------------------------------------------
# batched small-matrix kernels


def min_eigenvalue_field(mats: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of every matrix of a grid (the relative spectrum against I)."""
    return _relative_eigvals(None, _parts(np.asarray(mats)))[..., 0]


def relative_spectrum_field(chi: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``omega`` relative to positive definite
    ``chi`` at every grid point, over the broadcast leading shape of the two
    Hermitian arrays; the one spectrum kernel, which the pointwise
    ``hermitian.relative_spectrum`` shares."""
    return _relative_eigvals(_parts(np.asarray(chi)), _parts(np.asarray(omega)))


# ---------------------------------------------------------------------------
# wedge densities and integration


def mixed_density(mats) -> np.ndarray:
    """Density ``D(A_1,..,A_n)`` of the wedge of n (1,1)-forms.

    Each entry of ``mats`` is a :class:`FormField` or a Hermitian array
    broadcastable to grid + (n, n), n the number of entries, and their real
    parts (``hermitian._parts``; a constant form's are 0-d) broadcast
    together (``UsageError`` otherwise); the result is real with ``D(A,..,A)
    = n! det(A)``.  ``hermitian._density`` evaluates it, and an entry passed
    more than once reaches it as one factor: real arithmetic on the parts at
    n = 2, the cofactor determinants of ``hermitian._det`` otherwise.
    """
    shapes = [m.geometry.shape + m.base.shape if isinstance(m, FormField) else np.shape(m)
              for m in mats]
    n = len(mats)
    if n == 0 or any(s[-2:] != (n, n) for s in shapes):
        raise UsageError(f"need n factor forms of n x n matrices, got {n} factors of shapes "
                         f"{shapes}")
    seen = {}
    parts = [seen.setdefault(id(m), m.parts if isinstance(m, FormField)
                             else _parts(np.asarray(m))) for m in mats]
    try:
        np.broadcast_shapes(*(np.shape(q) for p in parts for q in p))
    except ValueError:
        raise UsageError(f"factor grids of shapes {shapes} do not broadcast") from None
    return _density(parts)


def integrate(field: ScalarField | None, weights) -> float:
    """Integral of a scalar against a wedge of forms: the grid mean of
    ``field * D(weights)`` (unit total volume).

    ``weights`` is a list of ``n`` :class:`FormField`, raw matrix grids or
    constant matrices.  ``field`` and the forms may fix at most one grid;
    otherwise ``UsageError``.
    """
    _check_geoms(field, *(w for w in weights if isinstance(w, FormField)))
    dens = mixed_density(weights)
    if field is not None:
        dens = dens * field.values
    return float(np.mean(dens))


def intersections(chi, omega) -> np.ndarray:
    """The intersection vector ``a_k = int chi^k ^ omega^(n-k)``, ``k = 0..n``, of
    two forms, matrix grids or constant matrices (see :func:`integrate`)."""
    n = np.shape(chi.base if isinstance(chi, FormField) else chi)[-1]
    return np.array([integrate(None, [chi] * k + [omega] * (n - k)) for k in range(n + 1)])


# ---------------------------------------------------------------------------
# mollification


def mollifier_profile(r: np.ndarray) -> np.ndarray:
    """Unnormalized radial bump: 1 on [0, 1/4], smooth cutoff, 0 beyond 1."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    out[r <= 0.25] = 1.0
    mid = (r > 0.25) & (r < 1.0)
    q = (r[mid] - 0.25) / 0.75
    a = np.exp(-1.0 / (1.0 - q))
    b = np.exp(-1.0 / q)
    out[mid] = a / (a + b)
    return out


@functools.lru_cache(maxsize=8)
def mollifier_normalization(n: int) -> float:
    """Constant making ``int_0^1 rho(t) t^(2n-1) Vol(dB_1) dt = 1`` in C^n."""
    ts = np.linspace(0.0, 1.0, 20001)
    sphere_area = 2.0 * math.pi ** n / math.gamma(n)
    integrand = mollifier_profile(ts) * ts ** (2 * n - 1) * sphere_area
    return 1.0 / float(np.trapezoid(integrand, ts))


@functools.lru_cache(maxsize=32)
def _mollify_transfer(geom: TorusGeometry, delta: float) -> np.ndarray:
    coords = geom.coordinates()
    r2 = np.zeros(geom.shape)
    for u in coords:
        d = np.minimum(u, 1.0 - u)
        r2 = r2 + d * d
    transfer = sfft.fftn(mollifier_profile(np.sqrt(r2) / delta))
    transfer = transfer / transfer.flat[0].real  # unit mass, so constants are kept exactly
    transfer.setflags(write=False)
    return transfer


def smooth_array(geom: TorusGeometry, values: np.ndarray, delta: float) -> np.ndarray:
    """Periodic convolution of a (possibly matrix-valued) grid array with the kernel.

    Trailing axes beyond the grid are convolved componentwise.
    """
    if not 0.0 < delta < 0.25:
        raise UsageError("mollification radius must lie in (0, 1/4)")
    transfer = _mollify_transfer(geom, float(delta))
    grid_axes = tuple(range(2 * geom.n))
    extra = values.ndim - 2 * geom.n
    mult = transfer.reshape(geom.shape + (1,) * extra) if extra else transfer
    out = sfft.ifftn(sfft.fftn(values, axes=grid_axes) * mult, axes=grid_axes)
    return out.real if np.isrealobj(values) else out


def mollify(phi: ScalarField, delta: float) -> ScalarField:
    """Convolution against the radial kernel scaled to radius ``delta``.

    Commutes with :func:`complex_hessian` (both act diagonally in Fourier).
    """
    return ScalarField(phi.geometry, smooth_array(phi.geometry, phi.values, delta))


# ---------------------------------------------------------------------------
# regularized maximum


@functools.lru_cache(maxsize=4)
def _reg_max_nodes(order: int = 32):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    dens = np.exp(-1.0 / np.maximum(1.0 - nodes * nodes, 1e-300))
    dens[np.abs(nodes) >= 1.0] = 0.0
    weights = weights * dens
    weights = weights / np.sum(weights)
    return nodes, weights


def regularized_max(f1: ScalarField, f2: ScalarField, eta: float) -> ScalarField:
    """Smooth, convex regularization of ``max(f1, f2)``.

    Convolves ``max`` against a product bump at scale ``eta``; the output
    lies in ``[max, max + eta]`` and equals ``max`` wherever
    ``|f1 - f2| >= 2*eta``.
    """
    _check_geoms(f1, f2)
    eta = float(eta)
    if eta <= 0.0:
        raise UsageError("eta must be positive")
    nodes, weights = _reg_max_nodes()
    d = f2.values - f1.values
    acc = np.zeros_like(d)
    for h1, w1 in zip(nodes, weights):
        inner = np.maximum(eta * h1, d[..., None] + eta * nodes)
        acc += w1 * (inner @ weights)
    return ScalarField(f1.geometry, f1.values + acc)


# ---------------------------------------------------------------------------
# serialization: JSON header + raw little-endian float64 (C order)


# the payload layout that save_scalar_field writes and load_scalar_field reads
_PAYLOAD = {"dtype": "float64", "byte_order": "little-endian", "order": "C", "format": "binary"}


def save_scalar_field(path: str | Path, phi: ScalarField,
                      base: np.ndarray | None = None) -> Path:
    """Write ``<path>.json`` header plus ``<path>.bin`` payload, little-endian
    float64 in C order (round-trips float64 exactly)."""
    path = Path(path)
    geom = phi.geometry
    data_name = path.name + ".bin"
    header = {
        "n": geom.n,
        "N": geom.N,
        "base": None if base is None else
            [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(base, dtype=complex)],
        **_PAYLOAD,
        "values_file": data_name,
    }
    header_path = path.with_name(path.name + ".json")
    header_path.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
    flat = np.ascontiguousarray(phi.values, dtype="<f8").reshape(-1)
    path.with_name(data_name).write_bytes(flat.tobytes())
    return header_path


def load_scalar_field(header_path: str | Path) -> tuple[ScalarField, np.ndarray | None]:
    """Inverse of :func:`save_scalar_field`; returns the field and base matrix."""
    header_path = Path(header_path)
    try:
        header = json.loads(header_path.read_text())
        geom = TorusGeometry(header["n"], header["N"])
        for key, value in _PAYLOAD.items():
            if header.get(key, value) != value:
                raise ValueError(f"unknown {key} {header[key]!r}")
        flat = np.frombuffer(header_path.with_name(header["values_file"]).read_bytes(),
                             dtype="<f8")
        base = header.get("base")
        base_mat = None if base is None else np.array([[complex(re, im) for re, im in row]
                                                       for row in base])
        if base_mat is not None and base_mat.shape != (geom.n, geom.n):
            raise ValueError(f"base is {base_mat.shape}, expected {geom.n} x {geom.n}")
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise DataError(f"cannot load field from {header_path}: {exc}") from exc
    if flat.size != geom.grid_size:
        raise DataError(f"payload has {flat.size} values, expected {geom.grid_size}")
    return ScalarField(geom, flat.reshape(geom.shape).copy()), base_mat
