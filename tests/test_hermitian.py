import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdhym import hermitian, properties
from jdhym.errors import DomainError, UsageError
from jdhym.hermitian import (ConeSpec, SpectrumRel, cone_test_dhym,
                             cone_test_j, f_gradient, f_hessian, f_value,
                             gamma_margin, j_cone_margin, p_level,
                             p_level_arctan, q_level, relative_spectrum,
                             schur_complement, trace_relative,
                             truncate_spectrum, _reduce_last)
from jdhym.properties import sample_gamma_point


def random_hpd(rng, n, shift=0.05):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T / n + shift * np.eye(n)


spectrum_lists = st.lists(st.floats(min_value=0.05, max_value=50.0), min_size=1, max_size=6)


class TestRelativeSpectrum:
    def test_already_diagonal(self):
        spec = relative_spectrum(np.eye(2), np.diag([2.0, 3.0]))
        assert spec.values == (2.0, 3.0)

    def test_scalar_ratio(self):
        spec = relative_spectrum(2.0 * np.eye(1), np.eye(1))
        assert spec.values[0] == pytest.approx(0.5, rel=1e-14)

    def test_matches_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            chi = random_hpd(rng, 3)
            omega = random_hpd(rng, 3)
            spec = relative_spectrum(chi, omega)
            # oracle: roots of det(omega - lam*chi) via the companion polynomial
            coeffs = np.poly(np.linalg.solve(chi, omega))
            roots = np.sort(np.roots(coeffs).real)
            assert np.allclose(spec.as_array(), roots, atol=1e-10, rtol=1e-10)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            chi = random_hpd(rng, n)
            omega = random_hpd(rng, n)
            s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            s += 3.0 * np.eye(n)  # keep invertible
            a = relative_spectrum(chi, omega).as_array()
            b = relative_spectrum(s.conj().T @ chi @ s, s.conj().T @ omega @ s).as_array()
            assert np.max(np.abs(a - b) / np.maximum(np.abs(a), 1.0)) < 1e-10

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            relative_spectrum(np.diag([1.0, -1.0]), np.eye(2))
        with pytest.raises(DomainError):
            relative_spectrum(np.eye(2), np.diag([1.0, 0.0]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(UsageError):
            relative_spectrum(np.eye(2), np.eye(3))


class TestScalarLevels:
    def test_trace_relative(self):
        assert trace_relative(SpectrumRel((1.0, 2.0, 3.0))) == pytest.approx(11.0 / 6.0)
        assert trace_relative(SpectrumRel((0.25,) * 4)) == pytest.approx(16.0)

    def test_trace_matches_inverse_oracle(self):
        rng = np.random.default_rng(5)
        chi = random_hpd(rng, 3)
        omega = random_hpd(rng, 3)
        spec = relative_spectrum(chi, omega)
        oracle = np.trace(np.linalg.inv(omega) @ chi).real
        assert trace_relative(spec) == pytest.approx(oracle, rel=1e-10)

    def test_p_level_examples(self):
        assert p_level(SpectrumRel((1.0, 2.0, 3.0))) == pytest.approx(1.5)
        assert p_level(SpectrumRel((5.0,))) == 0.0

    def test_p_level_is_max_over_coordinate_subspaces(self):
        rng = np.random.default_rng(9)
        vals = tuple(sorted(rng.uniform(0.2, 4.0, size=4)))
        spec = SpectrumRel(vals)
        subs = []
        for drop in range(4):
            subs.append(sum(1.0 / v for i, v in enumerate(vals) if i != drop))
        assert p_level(spec) == pytest.approx(max(subs))

    def test_q_level_examples(self):
        assert q_level(SpectrumRel((1.0, 1.0))) == pytest.approx(math.pi / 2)
        assert q_level(SpectrumRel((1e6, 1e6))) == pytest.approx(2e-6, rel=1e-6)

    @given(spectrum_lists)
    @settings(max_examples=60, deadline=None)
    def test_q_level_per_term_sum(self, vals):
        spec = SpectrumRel(tuple(sorted(vals)))
        oracle = sum(math.atan(1.0 / v) for v in spec.values)
        assert abs(q_level(spec) - oracle) < 1e-12


class TestConeTests:
    def test_j_examples(self):
        spec = SpectrumRel((1.0, 2.0))
        assert cone_test_j(spec, ConeSpec.j(1.6), p=2)
        assert not cone_test_j(spec, ConeSpec.j(1.4), p=2)
        assert cone_test_j(SpectrumRel((0.5,)), ConeSpec.j(2.0), p=1)

    def test_j_subset_enumeration(self):
        import itertools
        rng = np.random.default_rng(2)
        for _ in range(120):
            n = int(rng.integers(1, 7))
            vals = tuple(sorted(rng.uniform(0.1, 5.0, size=n)))
            spec = SpectrumRel(vals)
            p = int(rng.integers(1, n + 1))
            c = float(rng.uniform(0.2, 12.0))
            slack = float(rng.uniform(0.0, 0.3))
            bound = c - (n - p) * slack
            oracle = max(np.sum(np.sort(1.0 / np.array(vals))[::-1][list(idx)])
                         for idx in itertools.combinations(range(n), p))
            assert cone_test_j(spec, ConeSpec.j(c, slack), p) == (oracle <= bound)

    def test_j_out_of_range_p(self):
        with pytest.raises(UsageError):
            cone_test_j(SpectrumRel((1.0, 2.0)), ConeSpec.j(1.0), p=3)

    def test_strict_mode_matches_p_level(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            spec = SpectrumRel(tuple(sorted(rng.uniform(0.1, 5.0, size=n))))
            c = float(rng.uniform(0.5, 8.0))
            assert cone_test_j(spec, ConeSpec.j(c), n - 1, strict=True) == \
                (p_level(spec) < c)

    def test_dhym_interior_and_boundary(self):
        for n in (2, 3, 5):
            theta0 = 0.5
            inside = SpectrumRel((1.0 / math.tan(theta0 / n),) * n)
            assert cone_test_dhym(inside, ConeSpec.dhym(theta0))
            boundary = SpectrumRel((1.0 / math.tan(theta0 / (n - 1)),) * n)
            assert not cone_test_dhym(boundary, ConeSpec.dhym(theta0))

    def test_dhym_leave_one_out_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            vals = tuple(sorted(rng.uniform(0.5, 20.0, size=n)))
            spec = SpectrumRel(vals)
            theta0 = float(rng.uniform(0.1, math.pi / 4 - 0.01))
            sums = [sum(math.atan(1.0 / v) for j, v in enumerate(vals) if j != k)
                    for k in range(n)] or [0.0]
            expected = (max(sums) if n > 1 else 0.0) < theta0
            assert cone_test_dhym(spec, ConeSpec.dhym(theta0)) == expected

    def test_margins_signs(self):
        spec = SpectrumRel((1.0, 2.0))
        assert j_cone_margin(spec, 3.0) == pytest.approx(2.0)
        assert gamma_margin(spec, 0.7) == pytest.approx(0.7 - math.atan(1.0))

    def test_one_margin_for_both_cones(self):
        # the pointwise margins are the grid margin of one spectrum
        lam = np.array([[1.0, 2.0, 4.0], [0.5, 3.0, 3.0]])
        for row in lam:
            spec = SpectrumRel(tuple(row))
            assert j_cone_margin(spec, 3.0) == hermitian._cone_margin(1.0 / row, 3.0)
            assert gamma_margin(spec, 0.7) == hermitian._cone_margin(np.arctan(1.0 / row), 0.7)
        assert hermitian._cone_margin(1.0 / lam, 3.0) == 3.0 - (1.0 / 0.5 + 1.0 / 3.0)

    def test_gamma_sample_n1(self):
        # n = 1: the leave-one-out sum is empty, so the sampler pins arctan(1/lam)
        # itself below theta0
        rng = np.random.default_rng(11)
        for theta0 in (0.05, 0.4, math.pi / 4 - 0.01):
            spec = sample_gamma_point(rng, 1, theta0)
            assert spec.n == 1 and spec.values[0] > 0.0
            assert math.atan(1.0 / spec.values[0]) < theta0


class TestSchurComplement:
    def test_zero_c_is_identity(self):
        a = np.diag([2.0, 3.0])
        out = schur_complement(a, np.eye(2), np.zeros((2, 2)))
        assert np.allclose(out, a)

    def test_scalar(self):
        out = schur_complement(np.array([[3.0]]), np.array([[2.0]]), np.array([[1.0]]))
        assert out[0, 0] == pytest.approx(2.5)

    def test_positive_when_block_positive(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            adim = int(rng.integers(1, 4))
            bdim = int(rng.integers(1, 4))
            block = random_hpd(rng, adim + bdim)
            out = schur_complement(block[:adim, :adim], block[adim:, adim:],
                                   block[:adim, adim:])
            assert np.all(np.linalg.eigvalsh(out) > 0)

    def test_rejects_singular_b(self):
        with pytest.raises(DomainError):
            schur_complement(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_batched_kernel_matches_each_matrix_bit_for_bit(self):
        # the lemma fuzz runs the kernel behind schur_complement on whole batches
        rng = np.random.default_rng(9)
        for adim, bdim in [(1, 1), (1, 4), (2, 3), (3, 2), (4, 4)]:
            blocks = np.stack([random_hpd(rng, adim + bdim) for _ in range(6)])
            a, b, c = blocks[:, :adim, :adim], blocks[:, adim:, adim:], blocks[:, :adim, adim:]
            batch = hermitian._schur(a, b, c)
            for k in range(len(blocks)):
                assert np.array_equal(batch[k], schur_complement(a[k], b[k], c[k]))


class TestFOperator:
    def test_zero_on_angle_locus(self):
        theta0 = 0.6
        n = 3
        lam = (1.0 / math.tan(theta0 / n),) * n
        assert f_value(0.0, SpectrumRel(lam), theta0) == pytest.approx(0.0, abs=1e-15)

    def test_boundary_point_negative(self):
        for n in (2, 3, 4):
            theta0 = 0.6
            spec = SpectrumRel((1.0 / math.tan(theta0 / (n - 1)),) * n)
            f = -1.0 / (100.0 * n) + 1e-9
            assert f_value(f, spec, theta0) < 0.0

    def test_monotone_decreasing_in_f(self):
        spec = SpectrumRel((2.0, 3.0, 4.0))
        assert f_value(0.1, spec, 0.5) > f_value(0.8, spec, 0.5)

    def test_f_range_enforced(self):
        with pytest.raises(DomainError):
            f_value(-1.0, SpectrumRel((2.0, 3.0)), 0.5)

    def test_gradient_positive_and_ordered(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            theta0 = float(rng.uniform(0.1, math.pi / 4 - 0.02))
            spec = sample_gamma_point(rng, n, theta0)
            f = float(rng.uniform(-0.9 / (100 * n), 1.0))
            grad = f_gradient(f, spec, theta0)
            assert np.all(grad > 0)
            assert np.all(np.diff(grad) <= 1e-12)

    def test_gradient_outside_gamma_rejected(self):
        theta0 = 0.3
        outside = SpectrumRel((0.5, 0.6))  # arctan sums far above theta0
        with pytest.raises(DomainError):
            f_gradient(0.0, outside, theta0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            theta0 = float(rng.uniform(0.1, math.pi / 4 - 0.02))
            spec = sample_gamma_point(rng, n, theta0)
            f = float(rng.uniform(-0.9 / (100 * n), 1.0))
            lam = spec.as_array()
            grad = f_gradient(f, spec, theta0)
            fd = np.empty(n)
            for i in range(n):
                h = 1e-6 * max(1.0, lam[i])
                up, dn = lam.copy(), lam.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (_raw_f(f, up, theta0) - _raw_f(f, dn, theta0)) / (2 * h)
            assert np.linalg.norm(grad - fd) / np.linalg.norm(grad) < 1e-6

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            theta0 = float(rng.uniform(0.15, math.pi / 4 - 0.02))
            spec = sample_gamma_point(rng, n, theta0)
            f = float(rng.uniform(0.0, 0.5))
            lam = spec.as_array()
            hess = f_hessian(f, spec, theta0)
            for i in range(n):
                h = 1e-5 * max(1.0, lam[i])
                up, dn = lam.copy(), lam.copy()
                up[i] += h
                dn[i] -= h
                fd_row = (np.asarray(f_gradient(f, SpectrumRel(tuple(np.sort(up))), theta0))[np.argsort(np.argsort(up))]
                          - np.asarray(f_gradient(f, SpectrumRel(tuple(np.sort(dn))), theta0))[np.argsort(np.argsort(dn))]) / (2 * h)
                assert np.allclose(hess[i], fd_row, rtol=1e-5, atol=1e-8)


def _raw_f(f, lam, theta0):
    s = float(np.sum(np.arctan(1.0 / lam)))
    r = float(np.prod(np.sqrt(lam * lam + 1.0)))
    return math.sin(theta0 - s) - f * math.cos(theta0) / r


class TestTruncation:
    def test_identity_above_max(self):
        spec = SpectrumRel((1.0, 2.0, 3.0))
        assert truncate_spectrum(spec, 10.0).values == spec.values

    def test_caps(self):
        out = truncate_spectrum(SpectrumRel((1.0, 10.0, 100.0)), 5.0)
        assert out.values == (1.0, 5.0, 5.0)

    @given(spectrum_lists, st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=80, deadline=None)
    def test_p_level_shift_bound(self, vals, cap):
        spec = SpectrumRel(tuple(sorted(vals)))
        shifted = truncate_spectrum(spec, cap)
        n = spec.n
        assert p_level(shifted) - p_level(spec) <= (n - 1) / cap + 1e-12


class TestSubadditivityLemmas:
    def test_trace_lemma_small_fuzz(self):
        from jdhym.properties import fuzz_schur_trace
        res = fuzz_schur_trace(300, np.random.default_rng(21))
        assert res["holds"], res

    def test_arctan_lemma_small_fuzz(self):
        from jdhym.properties import fuzz_schur_arctan
        res = fuzz_schur_arctan(300, np.random.default_rng(22))
        assert res["holds"], res

    def test_nondegeneracy_margin(self):
        from jdhym.properties import suite_nondegeneracy
        res = suite_nondegeneracy(300, np.random.default_rng(23))
        assert res["holds"], res

    def test_nondegeneracy_fails_under_a_wrong_f_bound(self, monkeypatch):
        from jdhym import properties
        monkeypatch.setattr(properties, "_f_bound_j", lambda n, c: -10.0)
        res = properties.suite_nondegeneracy(300, np.random.default_rng(23))
        assert not res["holds"], res

    # (suite, the kernel it reads from jdhym.properties, a wrong stand-in for that kernel)
    WRONG_KERNELS = [
        ("fuzz_schur_trace", "_loo_max", lambda t: -hermitian._loo_max(t)),
        ("fuzz_schur_arctan", "_loo_max", lambda t: -hermitian._loo_max(t)),
        ("suite_gradient_positivity", "_dhym_gradient",
         lambda *a: -hermitian._dhym_gradient(*a)),
        ("suite_gradient_ordering", "_dhym_gradient",
         lambda *a: -hermitian._dhym_gradient(*a)),
        ("suite_gradient_fd", "_dhym_gradient", lambda *a: -hermitian._dhym_gradient(*a)),
        ("suite_hessian_zero_slice", "_dhym_hessian",
         lambda lam, *a: hermitian._dhym_hessian(lam, *a) + np.eye(lam.shape[-1])),
        ("suite_boundary_negative", "_dhym_value",
         lambda *a: (hermitian._dhym_value(*a)[0] + 1.0, None)),
        ("suite_nondegeneracy", "_f_bound_j", lambda n, c: hermitian._f_bound_j(n, 1.0 / c)),
        ("fuzz_schur_trace", "_schur", lambda *a: 0.5 * hermitian._schur(*a)),
        ("fuzz_schur_arctan", "_schur", lambda *a: 0.5 * hermitian._schur(*a)),
    ]

    @pytest.mark.parametrize("suite, kernel, wrong", WRONG_KERNELS,
                             ids=[s + ("-schur" if k == "_schur" else "")
                                  for s, k, _ in WRONG_KERNELS])
    def test_every_suite_fails_under_a_wrong_kernel(self, monkeypatch, suite, kernel, wrong):
        monkeypatch.setattr(properties, kernel, wrong)
        res = getattr(properties, suite)(200, np.random.default_rng(25))
        assert not res["holds"], res

    @pytest.mark.parametrize("trials", [1, 3, properties._CHUNK + 1])
    def test_small_and_uneven_trial_counts(self, trials):
        results = properties.run_property_suites(trials, 1)
        assert len(results) == 8
        assert all(r["trials"] == trials and r["holds"] for r in results), results

    def test_hessian_bound_on_zero_slice(self):
        from jdhym.properties import suite_hessian_zero_slice
        res = suite_hessian_zero_slice(200, np.random.default_rng(24))
        assert res["holds"], res


class TestShortAxisReduction:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_identical_to_numpy(self, n):
        rng = np.random.default_rng(n)
        for shape in [(), (5,), (8,) * (2 * n), (3, 1, 4)]:
            a = rng.normal(size=shape + (n,)) * 10.0 ** rng.uniform(-3, 3, size=shape + (n,))
            for op, ref in ((np.add, np.sum), (np.multiply, np.prod)):
                got = np.asarray(_reduce_last(op, a), dtype=float)
                want = np.asarray(ref(a, axis=-1), dtype=float)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestLayering:
    def test_hermitian_import_loads_no_other_layer(self):
        # the package re-exports nothing, so the pointwise algebra loads alone
        src = str(Path(hermitian.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        heavy = ["scipy.fft", "scipy.sparse.linalg", "jdhym.fields", "jdhym.solver"]
        code = f"import sys, jdhym.hermitian; print([m for m in {heavy!r} if m in sys.modules])"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"
