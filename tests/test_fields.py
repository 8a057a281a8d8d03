import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft
import scipy.linalg

from jdhym.errors import DataError, DomainError, NotKahlerError, UsageError
from jdhym.fields import (ScalarField, TorusGeometry, _axis_laplace,
                          complex_gradient, complex_hessian, constant_form,
                          field_from_modes,
                          form_field, hessian_values, integrate, intersections,
                          kahler_form, load_scalar_field, min_eigenvalue_field,
                          mixed_density, mollifier_profile,
                          mollifier_normalization, mollify,
                          random_bandlimited, regularized_max, resample,
                          relative_spectrum_field, save_scalar_field,
                          smooth_array)
from jdhym.hermitian import _matrix, _parts


@pytest.fixture
def g1():
    return TorusGeometry(1, 32)


@pytest.fixture
def g2():
    return TorusGeometry(2, 8)


class TestGeometry:
    def test_validation(self):
        with pytest.raises(UsageError):
            TorusGeometry(0, 16)
        with pytest.raises(UsageError):
            TorusGeometry(4, 16)
        with pytest.raises(UsageError):
            TorusGeometry(1, 12)
        with pytest.raises(UsageError):
            TorusGeometry(1, 4)

    @pytest.mark.parametrize("n, N", [(2, 16.5), (2.7, 8), (2, "16"), (2, math.nan),
                                      (2, math.inf), (True, 8), (1, True)])
    def test_non_integral_size_is_refused(self, n, N):
        # refused rather than truncated (16.5 to 16, 2.7 to 2)
        with pytest.raises(UsageError, match="must be an integer"):
            TorusGeometry(n, N)

    @pytest.mark.parametrize("n, N", [(np.int64(2), np.int32(16)), (2.0, 16.0)])
    def test_integral_sizes_of_any_type(self, n, N):
        geom = TorusGeometry(n, N)
        assert (geom.n, geom.N) == (2, 16)
        assert type(geom.n) is int and type(geom.N) is int

    def test_shape(self, g2):
        assert g2.shape == (8, 8, 8, 8)
        assert g2.grid_size == 8 ** 4


class TestScalarField:
    def test_finite_shape_checks(self, g1):
        with pytest.raises(UsageError):
            ScalarField(g1, np.zeros((4, 4)))

    def test_non_integral_mode_frequency_is_refused(self, g1):
        # refused rather than truncated to mode 1
        with pytest.raises(UsageError, match="mode frequency must be an integer, got 1.5"):
            field_from_modes(g1, [((1.5, 0), 0.1)])
        assert np.array_equal(field_from_modes(g1, [((1.0, np.int64(2)), 0.1)]).values,
                              field_from_modes(g1, [((1, 2), 0.1)]).values)


class TestComplexHessian:
    def test_constant_gives_zero(self, g1):
        H = hessian_values(ScalarField.constant(g1, 4.2))
        assert np.max(np.abs(H)) == 0.0

    def test_single_mode_analytic(self, g1):
        phi = field_from_modes(g1, [((1, 0), 1.0)])
        H = hessian_values(phi)
        assert np.allclose(H[..., 0, 0].real, -math.pi ** 2 * phi.values, atol=1e-12)
        assert np.max(np.abs(H[..., 0, 0].imag)) < 1e-14

    def test_linearity(self, g1):
        a = field_from_modes(g1, [((1, 0), 0.7)])
        b = field_from_modes(g1, [((0, 2), 0.4)])
        H = hessian_values(a + b)
        assert np.allclose(H, hessian_values(a) + hessian_values(b), atol=1e-13)

    def test_spectral_exactness_n2(self, g2):
        # cos(2 pi (x1 + y2)): mode k = (1,0), l = (0,1); zeta = pi*(l + i k)
        # entry (i,j) of the Hessian carries -zeta_i conj(zeta_j) per exponential
        phi = field_from_modes(g2, [((1, 0, 0, 1), 1.0)])
        H = hessian_values(phi)
        x = g2.coordinates()
        # the multiplier takes the same value at the +/- mode pair, so each
        # entry is (complex multiplier) * cos(arg)
        c = np.cos(2 * math.pi * (x[0] + x[3])) + 0 * x[1] + 0 * x[2]
        zeta = np.array([math.pi * 1j, math.pi])
        for i in range(2):
            for j in range(2):
                mult = -zeta[i] * np.conj(zeta[j])
                assert np.allclose(H[..., i, j], mult * c, atol=1e-10), (i, j)
        assert np.max(np.abs(H - H.conj().swapaxes(-1, -2))) < 1e-12

    def test_rejects_nonfinite(self, g1):
        vals = np.zeros(g1.shape)
        vals[0, 0] = np.nan
        with pytest.raises(DataError):
            hessian_values(ScalarField(g1, vals))


# Complex-FFT reference for the real-transform calculus: full spectrum,
# Nyquist-zeroed odd symbols, diagonal Laplace symbols with Nyquist kept.
REAL_FFT_RTOL = 1e-12  # fixed before the comparison; the arithmetic order differs


def reference_zeta(geom):
    N = geom.N
    freq = sfft.fftfreq(N, d=1.0 / N)
    freq[N // 2] = 0.0
    out = np.zeros((geom.n,) + geom.shape, dtype=complex)
    for j in range(geom.n):
        kx = freq.reshape((1,) * j + (N,) + (1,) * (2 * geom.n - j - 1))
        ky = freq.reshape((1,) * (geom.n + j) + (N,) + (1,) * (geom.n - j - 1))
        out[j] = math.pi * (ky + 1j * kx)
    return out


def reference_hessian(phi):
    geom = phi.geometry
    zeta = reference_zeta(geom)
    lap = _axis_laplace(geom)
    phat = sfft.fftn(phi.values)
    n = geom.n
    out = np.empty(geom.shape + (n, n), dtype=complex)
    for i in range(n):
        out[..., i, i] = sfft.ifftn(-lap[i] * phat).real
        for j in range(i + 1, n):
            entry = sfft.ifftn(-zeta[i] * np.conj(zeta[j]) * phat)
            out[..., i, j] = entry
            out[..., j, i] = np.conj(entry)
    return out


def reference_gradient(phi):
    zeta = reference_zeta(phi.geometry)
    phat = sfft.fftn(phi.values)
    return np.stack([sfft.ifftn(z * phat) for z in zeta], axis=-1)


def relative_error(a, ref):
    return float(np.max(np.abs(a - ref)) / np.max(np.abs(ref)))


class TestRealTransformCalculus:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hessian_matches_complex_reference(self, n):
        # white noise is not band-limited, so Nyquist content is exercised
        geom = TorusGeometry(n, 8)
        phi = ScalarField(geom, np.random.default_rng(n).standard_normal(geom.shape))
        assert relative_error(hessian_values(phi), reference_hessian(phi)) <= REAL_FFT_RTOL

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hessian_exactly_hermitian(self, n):
        geom = TorusGeometry(n, 8)
        phi = ScalarField(geom, np.random.default_rng(10 + n).standard_normal(geom.shape))
        H = hessian_values(phi)
        assert np.array_equal(H, H.conj().swapaxes(-1, -2))
        assert np.all(np.diagonal(H, axis1=-2, axis2=-1).imag == 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gradient_matches_complex_reference(self, n):
        geom = TorusGeometry(n, 8)
        phi = ScalarField(geom, np.random.default_rng(20 + n).standard_normal(geom.shape))
        assert relative_error(complex_gradient(phi), reference_gradient(phi)) <= REAL_FFT_RTOL

    def test_one_transform_entry_point(self, monkeypatch):
        """Serial transforms give the bits threaded ones give, and every real
        transform of ``fields`` and ``solver`` goes through ``fields.sfft``."""
        from jdhym import fields, solver

        class ThreadedFFT:
            """``scipy.fft`` with the real transforms threaded and counted."""

            def __init__(self):
                self.calls = []

            def __getattr__(self, name):
                fn = getattr(sfft, name)
                if name not in ("rfftn", "irfftn"):
                    return fn

                def call(*args, **kwargs):
                    self.calls.append(name)
                    return fn(*args, workers=-1, **kwargs)
                return call

        geom = TorusGeometry(2, 8)
        rng = np.random.default_rng(30)
        phi = ScalarField(geom, rng.standard_normal(geom.shape))
        u = ScalarField(geom, rng.standard_normal(geom.shape))
        rows = rng.standard_normal((4,) + geom.shape)

        def outputs():
            return (hessian_values(phi), complex_gradient(phi),
                    solver._apply_rows(geom, rows, -1.0, u).values)

        serial = outputs()
        threaded = ThreadedFFT()
        monkeypatch.setattr(fields, "sfft", threaded)
        for a, b in zip(serial, outputs()):
            assert np.array_equal(a, b)
        # one forward and n^2 = 4 inverse transforms each (the gradient's 2n = 4)
        assert threaded.calls.count("rfftn") == 3
        assert threaded.calls.count("irfftn") == 12
        assert not hasattr(solver, "sfft")


class TestKahlerForm:
    def test_constant_margin(self, g2):
        form = kahler_form(g2, np.diag([2.0, 5.0]), None)
        assert form.min_eigenvalue() == pytest.approx(2.0)

    def test_small_mode_positive(self, g1):
        eps = 0.5 / math.pi ** 2
        phi = field_from_modes(g1, [((1, 0), eps)])
        form = kahler_form(g1, np.eye(1), phi)
        assert form.min_eigenvalue() == pytest.approx(1.0 - eps * math.pi ** 2, rel=1e-9)

    def test_large_mode_raises_with_location(self, g1):
        phi = field_from_modes(g1, [((1, 0), 1.0)])
        with pytest.raises(NotKahlerError) as exc:
            kahler_form(g1, np.eye(1), phi)
        assert exc.value.grid_index is not None
        assert exc.value.margin < 0.0

    def test_grid_index_is_plain_ints(self, g1):
        phi = field_from_modes(g1, [((1, 0), 1.0)])
        with pytest.raises(NotKahlerError, match=r"at grid index \(0, 0\) \(margin") as exc:
            kahler_form(g1, np.eye(1), phi)
        assert all(type(i) is int for i in exc.value.grid_index)

    def test_nan_margin_is_not_positive(self):
        from jdhym.hermitian import _require_positive
        with pytest.raises(NotKahlerError, match=r"at grid index \(1, 0\) \(margin nan\)"):
            _require_positive(np.array([[1.0, 2.0], [math.nan, 3.0]]), "form")

    @pytest.mark.parametrize("low", [0.0, 1e-13, -1e-3])
    def test_base_positive_to_the_relative_tolerance(self, g2, low):
        # the base is tested as hermitian.is_positive_definite tests a matrix:
        # smallest eigenvalue above 1e-12 times max(1, largest entry)
        with pytest.raises(DomainError, match="base matrix must be positive definite"):
            kahler_form(g2, np.diag([low, 5.0]), None)
        assert kahler_form(g2, np.diag([1e-11, 5.0]), None).min_eigenvalue() > 0.0

    def test_non_hermitian_base_is_a_usage_error(self, g2):
        # tested as given, not through its Hermitian part (which is singular here)
        with pytest.raises(UsageError, match="not Hermitian"):
            kahler_form(g2, np.array([[1.0, 2.0], [0.0, 1.0]]), None)

    def test_form_linear_combination_tracks_potentials(self, g1):
        a = form_field(g1, np.array([[1.0]]), field_from_modes(g1, [((1, 0), 0.01)]))
        b = form_field(g1, np.array([[2.0]]), field_from_modes(g1, [((0, 1), 0.01)]))
        combo = 0.25 * a + 0.5 * b
        assert np.allclose(combo.base, np.array([[1.25]]))
        assert np.allclose(combo.values, 0.25 * a.values + 0.5 * b.values)
        assert np.allclose(combo.potential.values,
                           0.25 * a.potential.values + 0.5 * b.potential.values)


class TestFormParts:
    """A form stores its real parts (``hermitian._parts``); its matrix grid is
    built when ``values`` is read."""

    def test_a_form_holds_its_parts_only(self):
        # n^2 = 4 float64 grid arrays (the complex matrix grid would be 8);
        # the bound was fixed before measuring
        geom = TorusGeometry(2, 16)
        phi = random_bandlimited(geom, np.random.default_rng(1))
        form_field(geom, np.eye(2), phi)  # fills the caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            form = form_field(geom, np.eye(2), phi)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(form.parts) == 4
        assert held / (8 * geom.grid_size) <= 4.5

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_values_are_the_matrices_of_the_parts(self, n):
        geom = TorusGeometry(n, 8)
        rng = np.random.default_rng(n)
        base = random_hpd(rng, n)
        form = form_field(geom, base, random_bandlimited(geom, rng, amplitude=0.005))
        values = form.values
        assert not values.flags.writeable
        assert not any(p.flags.writeable for p in form.parts)
        assert np.array_equal(values, _matrix(form.parts))
        const = constant_form(geom, base)
        assert all(p.shape == () for p in const.parts)
        assert const.values.shape == geom.shape + (n, n)
        assert np.shares_memory(const.values, const.base)
        assert const.values.strides[:2 * n] == (0,) * (2 * n)

    def test_linear_combinations_act_part_by_part(self, g2):
        # equal to the real and imaginary parts of the complex arithmetic
        rng = np.random.default_rng(5)
        a, b = (form_field(g2, random_hpd(rng, 2), random_bandlimited(g2, rng, amplitude=0.005))
                for _ in range(2))
        c = constant_form(g2, random_hpd(rng, 2))
        for form, want in [(a + b, a.values + b.values), (a + c, a.values + c.values),
                           (c + a, c.values + a.values), (c + c, c.values + c.values),
                           (0.3 * a, 0.3 * a.values), (c * -1.7, c.values * -1.7)]:
            for got, part in zip(form.parts, _parts(want)):
                assert np.array_equal(np.broadcast_to(got, part.shape), part)


class TestIntegration:
    def test_volume_convention(self, g2):
        omega = constant_form(g2, np.eye(2))
        assert integrate(None, [omega, omega]) == pytest.approx(2.0)  # n! det

    def test_orthogonality(self, g2):
        s = field_from_modes(g2, [((1, 0, 0, 0), 1.0)])
        omega = constant_form(g2, np.eye(2))
        assert integrate(s, [omega, omega]) == pytest.approx(0.0, abs=1e-14)

    def test_mixed_determinant_oracle_n2(self):
        # D(A, B) against the explicit permutation expansion
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a = a + a.conj().T
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = b + b.conj().T
            d = float(mixed_density([a, b]))
            oracle = (a[0, 0] * b[1, 1] + a[1, 1] * b[0, 0]
                      - a[0, 1] * b[1, 0] - a[1, 0] * b[0, 1]).real
            assert d == pytest.approx(oracle, rel=1e-12)

    def test_mixed_determinant_oracle_n3(self):
        # symmetric multilinear expansion: D(A,B,B) = d/dt|0 det(B+tA) * 2
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = a + a.conj().T
        b = random_hpd3(rng)
        d = float(mixed_density([a, b, b]))
        oracle = 2.0 * np.linalg.det(b).real * np.trace(np.linalg.solve(b, a)).real
        assert d == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("factors, shapes", [
        ([], "[]"),
        ([np.eye(2), np.eye(3)], "[(2, 2), (3, 3)]"),
        ([np.eye(2)] * 3, "[(2, 2), (2, 2), (2, 2)]"),
        ([np.ones(2)], "[(2,)]"),
        ([np.zeros((4, 2, 2)), np.zeros((3, 2, 2))], "[(4, 2, 2), (3, 2, 2)]"),
    ], ids=["none", "mixed-sizes", "too-many", "not-a-matrix", "grids-do-not-broadcast"])
    def test_bad_factor_lists_name_their_shapes(self, factors, shapes):
        with pytest.raises(UsageError, match=re.escape(f"of shapes {shapes}")):
            mixed_density(factors)

    def test_integrate_refuses_a_raw_grid_of_another_size(self, g2):
        form = form_field(g2, np.eye(2), field_from_modes(g2, [((1, 0, 0, 0), 0.01)]))
        other = np.broadcast_to(np.eye(2), TorusGeometry(2, 16).shape + (2, 2))
        with pytest.raises(UsageError, match=re.escape(
                "of shapes [(8, 8, 8, 8, 2, 2), (16, 16, 16, 16, 2, 2)]")):
            integrate(None, [form, other])

    def test_integrate_refuses_an_empty_wedge(self):
        with pytest.raises(UsageError, match="got 0 factors"):
            integrate(None, [])

    def test_cohomology_invariance(self, g2):
        rng = np.random.default_rng(7)
        base_chi = np.diag([1.0, 3.0])
        base_om = np.eye(2)
        ref = None
        for _ in range(4):
            chi = form_field(g2, base_chi, random_bandlimited(g2, rng, amplitude=0.005))
            om = form_field(g2, base_om, random_bandlimited(g2, rng, amplitude=0.005))
            val = integrate(None, [chi, om])
            if ref is None:
                ref = integrate(None, [constant_form(g2, base_chi), constant_form(g2, base_om)])
            assert val == pytest.approx(ref, abs=1e-11)

    def test_geometry_mismatch(self, g1, g2):
        with pytest.raises(UsageError):
            integrate(ScalarField.zeros(g1), [constant_form(g2, np.eye(2))] * 2)

    def test_intersections_of_forms_and_constant_matrices(self, g2):
        chi, om = np.diag([1.0, 2.0]), np.eye(2)
        # a_k = D(chi^k, omega^(2-k)): D(I,I) = 2, D(chi,I) = 3, D(chi,chi) = 4
        assert intersections(chi, om).tolist() == [2.0, 3.0, 4.0]
        assert intersections(constant_form(g2, chi), constant_form(g2, om)).tolist() == \
            [2.0, 3.0, 4.0]
        grid = np.broadcast_to(chi, g2.shape + (2, 2))
        assert intersections(grid, om).tolist() == [2.0, 3.0, 4.0]


def permutation_density(mats):
    """The reference density, the convention's definition written out: the
    double permutation sum ``sum_{s,t} sgn(s) sgn(t) prod_k A_k[s(k), t(k)]``
    over matrix arrays (last two axes)."""
    n = len(mats)
    perms = list(itertools.permutations(range(n)))
    signs = [(-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
             for p in perms]
    total = 0.0
    for s, ss in zip(perms, signs):
        for t, st in zip(perms, signs):
            term = ss * st
            for k in range(n):
                term = term * mats[k][..., s[k], t[k]]
            total = total + term
    return np.real(total)


def density_factors(n, pattern):
    """The factor list of ``pattern``: a lower-case letter is a grid form, an
    upper-case one a constant form, one object per distinct letter."""
    geom = TorusGeometry(n, 8)
    rng = np.random.default_rng(len(pattern) + 7 * sum(map(ord, pattern)))
    made = {}
    for letter in pattern:
        if letter not in made:
            base = np.eye(n) + 0.3 * (random_hpd(rng, n) - 0.5 * np.eye(n))
            made[letter] = form_field(geom, base, None if letter.isupper()
                                      else random_bandlimited(geom, rng, amplitude=0.02))
    return [made[letter] for letter in pattern]


def matrix_factors(forms):
    """The forms' matrix grids, one array object per distinct form."""
    values = {id(f): f.values for f in forms}
    return [values[id(f)] for f in forms]


class TestDensityKernel:
    """``mixed_density`` (``hermitian._density``) against the double
    permutation sum, to 1e-13 relative."""

    @pytest.mark.parametrize("n, pattern", [
        (1, "a"), (1, "A"), (2, "ab"), (2, "aa"), (2, "aB"), (2, "AB"),
        (3, "abc"), (3, "aab"), (3, "aba"), (3, "aaa"), (3, "aBB"), (3, "abC"), (3, "ABC")])
    def test_matches_the_permutation_sum(self, n, pattern):
        factors = density_factors(n, pattern)
        got = mixed_density(factors)
        mats = matrix_factors(factors)
        ref = permutation_density(mats)
        assert got.shape == (() if pattern.isupper() else factors[0].geometry.shape)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        # a raw matrix grid passed twice is one factor, like a form
        assert np.max(np.abs(mixed_density(mats) - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n, pattern", [(2, "aa"), (3, "aab"), (3, "aaa")])
    def test_equal_distinct_objects_are_one_factor_passed_twice(self, n, pattern):
        factors = density_factors(n, pattern)
        same = mixed_density(factors)
        twin = [factors[0] * 1.0 if k == 1 else f for k, f in enumerate(factors)]
        assert twin[1] is not twin[0] and np.array_equal(twin[1].values, twin[0].values)
        assert np.max(np.abs(mixed_density(twin) - same)) <= 1e-13 * np.max(np.abs(same))
        mats = matrix_factors(factors)
        raw = [m.copy() if k == 1 else m for k, m in enumerate(mats)]
        assert np.max(np.abs(mixed_density(raw) - same)) <= 1e-13 * np.max(np.abs(same))


def random_hpd3(rng):
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return g @ g.conj().T / 3 + 0.1 * np.eye(3)


def random_hpd(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T / n + 0.05 * np.eye(n)


class TestRelativeSpectrumField:
    def test_matches_pointwise_eigh(self, g2):
        rng = np.random.default_rng(5)
        chi = form_field(g2, np.diag([1.0, 2.0]),
                         random_bandlimited(g2, rng, kmax=1, amplitude=0.002))
        om = form_field(g2, np.eye(2),
                        random_bandlimited(g2, rng, kmax=1, amplitude=0.002))
        lam = relative_spectrum_field(chi.values, om.values)
        from jdhym.hermitian import relative_spectrum
        for idx in [(0, 0, 0, 0), (3, 2, 1, 0), (7, 7, 7, 7), (1, 5, 2, 6)]:
            oracle = relative_spectrum(chi.values[idx], om.values[idx]).as_array()
            assert np.allclose(lam[idx], oracle, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_scipy_generalized_eigh(self, n):
        # independent oracle: LAPACK's generalized Hermitian eigensolver
        geom = TorusGeometry(n, 8)
        rng = np.random.default_rng(40 + n)
        chi = form_field(geom, 0.5 * np.eye(n) + random_hpd(rng, n),
                         random_bandlimited(geom, rng, kmax=1, amplitude=0.002))
        om = form_field(geom, np.eye(n) + random_hpd(rng, n),
                        random_bandlimited(geom, rng, kmax=1, amplitude=0.002))
        lam = relative_spectrum_field(chi.values, om.values)
        flat_chi = chi.values.reshape(-1, n, n)
        flat_om = om.values.reshape(-1, n, n)
        for k in rng.choice(geom.grid_size, size=64, replace=False):
            oracle = scipy.linalg.eigh(flat_om[k], flat_chi[k], eigvals_only=True)
            assert np.allclose(lam.reshape(-1, n)[k], oracle, rtol=1e-12, atol=0.0)

    def test_n2_accurate_near_a_double_eigenvalue(self):
        # the gap of omega = diag(1, 1 + 1e-9) against chi = I survives
        om = np.diag([1.0, 1.0 + 1e-9]).astype(complex)
        lam = relative_spectrum_field(np.eye(2, dtype=complex), om)
        assert lam[1] - lam[0] == pytest.approx(om[1, 1].real - 1.0, rel=1e-6)
        # random pairs, half of them near multiples omega = k chi + tiny
        rng = np.random.default_rng(9)
        chis, oms = [], []
        for k in range(400):
            chi = random_hpd(rng, 2)
            om = (rng.uniform(0.2, 5.0) * chi + 10.0 ** rng.uniform(-12, -4) * random_hpd(rng, 2)
                  if k % 2 else random_hpd(rng, 2))
            chis.append(chi)
            oms.append(om)
        lam = relative_spectrum_field(np.array(chis), np.array(oms))
        oracle = np.array([scipy.linalg.eigh(o, c, eigvals_only=True) for c, o in zip(chis, oms)])
        assert np.max(np.abs(lam - oracle) / oracle) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_min_eigenvalue_field_matches_eigvalsh(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(4, 5, n, n)) + 1j * rng.normal(size=(4, 5, n, n))
        mats = a + np.conj(np.swapaxes(a, -1, -2))
        got = min_eigenvalue_field(mats)
        assert got.shape == (4, 5)
        np.testing.assert_allclose(got, np.linalg.eigvalsh(mats)[..., 0], rtol=1e-12, atol=1e-12)


class TestMollify:
    def test_profile_shape(self):
        assert mollifier_profile(np.array([0.0, 0.2, 0.25]))[0] == 1.0
        assert mollifier_profile(np.array([1.0, 1.5]))[-1] == 0.0
        r = np.linspace(0, 1.2, 200)
        vals = mollifier_profile(r)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_normalization_constraint(self):
        # int_0^1 rho(t) t^(2n-1) Vol(S^(2n-1)) dt = 1
        for n in (1, 2):
            rho0 = mollifier_normalization(n)
            ts = np.linspace(0, 1, 40001)
            area = 2.0 * math.pi ** n / math.gamma(n)
            val = np.trapezoid(rho0 * mollifier_profile(ts) * ts ** (2 * n - 1) * area, ts)
            assert val == pytest.approx(1.0, rel=1e-6)

    def test_constant_unchanged(self, g1):
        c = ScalarField.constant(g1, 2.5)
        assert np.allclose(mollify(c, 0.1).values, 2.5, atol=1e-14)

    def test_commutes_with_hessian(self, g1):
        phi = field_from_modes(g1, [((1, 0), 0.3), ((2, 1), 0.2)])
        lhs = hessian_values(mollify(phi, 0.08))
        rhs = smooth_array(g1, hessian_values(phi), 0.08)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_single_mode_multiplier_against_radial_transform(self, g1):
        # n=1: K_hat(k) = 2 pi int rho_delta(r) J0(2 pi |k| r) r dr
        from scipy.special import j0
        delta = 0.12
        phi = field_from_modes(g1, [((1, 0), 1.0)])
        out = mollify(phi, delta)
        num = float(np.vdot(phi.values, out.values) / np.vdot(phi.values, phi.values))
        rs = np.linspace(0.0, delta, 20001)
        kern = mollifier_normalization(1) * mollifier_profile(rs / delta) / delta ** 2
        oracle = 2 * math.pi * np.trapezoid(kern * j0(2 * math.pi * 1.0 * rs) * rs, rs)
        assert 0.0 < num <= 1.0 + 1e-12
        assert num == pytest.approx(oracle, rel=2e-3)  # discrete vs continuum kernel

    def test_positivity_preserved_on_margins(self, g1):
        phi = field_from_modes(g1, [((1, 0), 0.03), ((0, 1), 0.02)])
        m0 = kahler_form(g1, np.eye(1), phi).min_eigenvalue()
        m1 = kahler_form(g1, np.eye(1), mollify(phi, 0.1)).min_eigenvalue()
        assert m1 >= m0 - 1e-10

    def test_radius_bound(self, g1):
        with pytest.raises(UsageError):
            mollify(ScalarField.zeros(g1), 0.3)


class TestRegularizedMax:
    def test_equal_inputs_offset(self, g1):
        f = field_from_modes(g1, [((1, 0), 0.2)])
        out = regularized_max(f, f, 0.05)
        d = out.values - f.values
        assert np.all(d >= -1e-15) and np.all(d <= 0.05 + 1e-15)
        assert np.ptp(d) < 1e-12  # constant offset by symmetry

    def test_equals_max_when_far(self, g1):
        f1 = field_from_modes(g1, [((1, 0), 0.3)])
        f2 = f1 - 5.0
        out = regularized_max(f1, f2, 0.1)
        assert np.max(np.abs(out.values - f1.values)) < 1e-14

    def test_bounds_and_symmetry(self, g1):
        rng = np.random.default_rng(10)
        f1 = random_bandlimited(g1, rng, amplitude=0.3)
        f2 = random_bandlimited(g1, rng, amplitude=0.3)
        eta = 0.07
        out = regularized_max(f1, f2, eta)
        m = np.maximum(f1.values, f2.values)
        assert np.all(out.values >= m - 1e-12)
        assert np.all(out.values <= m + eta + 1e-12)
        swapped = regularized_max(f2, f1, eta)
        assert np.max(np.abs(out.values - swapped.values)) < 1e-12

    def test_convexity_on_linear_slice(self):
        # two linear-in-x inputs cross at x = 0.5; the regularization must be
        # convex there (non-negative second differences away from the wrap)
        geom = TorusGeometry(1, 64)
        x = np.broadcast_to(geom.coordinates()[0], geom.shape)
        f1 = ScalarField(geom, (x - 0.5) * 0.4)
        f2 = ScalarField(geom, -(x - 0.5) * 0.5)
        out = regularized_max(f1, f2, 0.02)
        sl = out.values[:, 0]
        interior = sl[8:56]
        second = interior[2:] - 2 * interior[1:-1] + interior[:-2]
        assert np.min(second) > -1e-12


class TestSerialization:
    def test_round_trip_binary(self, tmp_path, g2):
        rng = np.random.default_rng(2)
        phi = random_bandlimited(g2, rng)
        header = save_scalar_field(tmp_path / "field", phi, base=np.diag([1.0, 2.0]))
        loaded, base = load_scalar_field(header)
        assert np.array_equal(loaded.values, phi.values)
        assert np.allclose(base, np.diag([1.0, 2.0]))

    def test_header_format_other_than_binary_is_refused(self, tmp_path, g1):
        header = save_scalar_field(tmp_path / "f", ScalarField.zeros(g1))
        doc = json.loads(header.read_text())
        assert doc["format"] == "binary"
        # a valid text payload, one value per line
        (tmp_path / "f.csv").write_text("0\n" * g1.grid_size)
        header.write_text(json.dumps({**doc, "format": "csv", "values_file": "f.csv"}))
        with pytest.raises(DataError, match="unknown format 'csv'"):
            load_scalar_field(header)

    def test_non_integral_header_size_is_refused(self, tmp_path, g1):
        # not truncated to the N = 32 that the payload fits
        header = save_scalar_field(tmp_path / "f", ScalarField.zeros(g1))
        header.write_text(json.dumps({**json.loads(header.read_text()), "N": 32.5}))
        with pytest.raises(DataError, match="N must be an integer, got 32.5"):
            load_scalar_field(header)

    @pytest.mark.parametrize("edit", [
        lambda doc: [doc],
        lambda doc: {**doc, "values_file": 5},
        lambda doc: {**doc, "base": [[1]]},
        lambda doc: {**doc, "n": 2, "N": 8, "values_file": "f8.bin", "base": [[[1, 0]]]},
        lambda doc: {**doc, "base": [[[1, 0], [0, 0]]]},
        lambda doc: {**doc, "dtype": "float32"},
        lambda doc: {**doc, "byte_order": "big-endian"},
        lambda doc: {**doc, "order": "F"},
    ], ids=["list-header", "values-file-not-a-string", "malformed-base", "base-not-n-by-n",
            "base-row-too-long", "float32-payload", "big-endian-payload",
            "fortran-order-payload"])
    def test_malformed_header_is_a_data_error(self, tmp_path, g1, edit):
        header = save_scalar_field(tmp_path / "f", ScalarField.zeros(g1), base=np.eye(1))
        # a payload that fits n = 2, N = 8, so only the header can be at fault
        save_scalar_field(tmp_path / "f8", ScalarField.zeros(TorusGeometry(2, 8)))
        header.write_text(json.dumps(edit(json.loads(header.read_text()))))
        with pytest.raises(DataError, match=f"^cannot load field from {re.escape(str(header))}: "):
            load_scalar_field(header)

    def test_corrupt_payload(self, tmp_path, g1):
        phi = ScalarField.zeros(g1)
        header = save_scalar_field(tmp_path / "f", phi)
        (tmp_path / "f.bin").write_bytes(b"123")
        with pytest.raises(DataError):
            load_scalar_field(header)


class TestResample:
    def test_restriction_after_prolongation_is_exact(self):
        rng = np.random.default_rng(7)
        for n, N in ((1, 16), (2, 8)):
            coarse = TorusGeometry(n, N)
            fine = TorusGeometry(n, 2 * N)
            # a coarse field without Nyquist content, which no resampling keeps
            u = resample(ScalarField(fine, rng.standard_normal(fine.shape)), coarse)
            back = resample(resample(u, fine), coarse)
            assert np.max(np.abs(back.values - u.values)) <= 1e-12 * np.max(np.abs(u.values))

    def test_prolongation_reproduces_band_limited_modes(self):
        modes = [((1, 0, 0, 2), 0.3, 0.4), ((0, -3, 1, 0), 0.2, 1.1), ((2, 2, -1, 3), 0.1)]
        coarse, fine = TorusGeometry(2, 8), TorusGeometry(2, 32)
        up = resample(field_from_modes(coarse, modes), fine)
        ref = field_from_modes(fine, modes)
        assert np.max(np.abs(up.values - ref.values)) <= 1e-12 * np.max(np.abs(ref.values))
        down = resample(ref, coarse)
        assert np.max(np.abs(down.values - field_from_modes(coarse, modes).values)) <= 1e-12

    def test_restriction_drops_unresolved_modes(self):
        fine, coarse = TorusGeometry(1, 32), TorusGeometry(1, 8)
        u = field_from_modes(fine, [((1, 2), 0.5), ((4, 0), 0.7), ((0, 9), 0.2)])
        down = resample(u, coarse)
        assert np.max(np.abs(down.values
                             - field_from_modes(coarse, [((1, 2), 0.5)]).values)) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(UsageError):
            resample(ScalarField.zeros(TorusGeometry(1, 8)), TorusGeometry(2, 8))
