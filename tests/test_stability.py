import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdhym.errors import BranchUndefinedError, UsageError
from jdhym.stability import (AngleBranch, IntersectionData, angle_branch,
                             branch_polynomial, coordinate_subtorus_data,
                             dhym_hypothesis_check, max_uniform_epsilon,
                             slope_test)


class TestIntersectionData:
    def test_validation(self):
        with pytest.raises(UsageError):
            IntersectionData(p=0, n=2, a=(1.0,))
        with pytest.raises(UsageError):
            IntersectionData(p=3, n=2, a=(1.0,) * 4)
        with pytest.raises(UsageError):
            IntersectionData(p=1, n=2, a=(1.0,))

    def test_kahler_warnings_not_fatal(self):
        d = IntersectionData(p=1, n=2, a=(-1.0, 2.0), label="w")
        assert d.kahler_warnings()


class TestSlopeTest:
    def test_top_dimension_equality_at_c0(self):
        # V = M, p = n: c0 * int(omega0^n) - n * int(chi ^ omega0^(n-1)) = 0
        a = (2.0, 3.0, 4.0)  # n = 2 constant forms diag(1,2) vs I
        d = IntersectionData(p=2, n=2, a=a, label="V=M")
        c0 = 2 * a[1] / a[0]
        assert slope_test(d, c0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_coordinate_subtorus_margins(self):
        ds = coordinate_subtorus_data(np.diag([1.0, 4.0]), np.eye(2))
        by_label = {d.label: d for d in ds}
        c = 5.5
        assert slope_test(by_label["V[1]"], c, 0.0) == pytest.approx(c - 1.0)
        assert slope_test(by_label["V[2]"], c, 0.0) == pytest.approx(c - 4.0)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, s):
        d = IntersectionData(p=1, n=3, a=(1.0, 0.7))
        ds = IntersectionData(p=1, n=3, a=(s * 1.0, s * 0.7))
        m = slope_test(d, 2.0, 0.1)
        assert slope_test(ds, 2.0, 0.1) == pytest.approx(s * m, rel=1e-12)


class TestMaxUniformEpsilon:
    def test_zero_margin_dataset(self):
        d = IntersectionData(p=1, n=2, a=(1.0, 2.0))
        assert max_uniform_epsilon([d], 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_strictly_passing_and_closure(self):
        ds = coordinate_subtorus_data(np.diag([1.0, 2.0]), np.eye(2))
        eps = max_uniform_epsilon(ds, 3.0)
        assert eps == pytest.approx(1.0)
        for d in ds:
            assert slope_test(d, 3.0, eps) >= -1e-12

    def test_infeasible(self):
        d = IntersectionData(p=1, n=2, a=(1.0, 4.0))
        assert max_uniform_epsilon([d], 3.0) is None

    def test_scale_invariance(self):
        ds = coordinate_subtorus_data(np.diag([1.0, 2.0]), np.eye(2))
        scaled = [IntersectionData(p=d.p, n=d.n, a=tuple(7.3 * x for x in d.a))
                  for d in ds]
        a = max_uniform_epsilon(ds, 3.0)
        b = max_uniform_epsilon(scaled, 3.0)
        assert abs(a - b) < 1e-12

    def test_top_dimension_only_is_unconstrained(self):
        d = IntersectionData(p=2, n=2, a=(2.0, 3.0, 4.0))
        assert max_uniform_epsilon([d], 4.0) == math.inf

    def test_datasets_must_share_n(self):
        ds = coordinate_subtorus_data(np.diag([1.0, 2.0]), np.eye(2))
        with pytest.raises(UsageError, match="disagree on n"):
            max_uniform_epsilon(ds + [IntersectionData(p=1, n=3, a=(1.0, 1.0))], 3.0)


class TestAngleBranch:
    def test_p1_arctan_formula(self):
        d = IntersectionData(p=1, n=2, a=(1.0, 1.3))
        br = angle_branch(d, t_max=1e4, samples=512)
        expected = np.arctan(br.t_samples * d.a[0] / d.a[1])
        assert np.max(np.abs(br.theta - expected)) < 1e-12
        assert br.terminal_deviation < 2e-4
        assert br.theta_min >= br.theta[0] - 1e-12  # increasing here

    def test_p2_proportional(self):
        d = IntersectionData(p=2, n=2, a=(1.0, 1.0, 1.0))
        br = angle_branch(d, t_max=1e4, samples=512)
        expected = 2.0 * np.arctan(br.t_samples)
        assert np.max(np.abs(br.theta - expected)) < 1e-12

    def test_p_le_2_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            p = int(rng.integers(1, 3))
            a = tuple(rng.uniform(0.2, 3.0, size=p + 1))
            d = IntersectionData(p=p, n=3, a=a)
            br = angle_branch(d, t_max=1e3, samples=256)
            assert np.all(np.diff(br.theta) > -1e-12)

    def test_sample_halving_stability(self):
        # a (2k-1)-point log grid nests the k-point grid, so every coarse
        # sample must be reproduced by the refined branch
        d = IntersectionData(p=3, n=3, a=(1.0, 0.9, 1.1, 1.2))
        a = angle_branch(d, t_max=1e4, samples=256)
        b = angle_branch(d, t_max=1e4, samples=511)
        assert np.max(np.abs(b.theta[::2] - a.theta)) < 1e-9

    def test_constructed_zero_detected(self):
        a0, a1, a3 = 1.0, 0.5, 2.0
        a2 = a0 * a3 / (9 * a1)  # forces a real zero at t* = sqrt(a3/(3 a1))
        d = IntersectionData(p=3, n=3, a=(a0, a1, a2, a3))
        with pytest.raises(BranchUndefinedError) as exc:
            angle_branch(d, t_max=100.0)
        t_star = math.sqrt(a3 / (3 * a1))
        lo, hi = exc.value.t_interval
        assert lo <= t_star <= hi

    def test_zero_free_violating_data_tracks_fine(self):
        # inequality a0 a3 < 9 a1 a2 violated but no real zero
        d = IntersectionData(p=3, n=3, a=(1.5, 0.1, 0.1, 1.8))
        br = angle_branch(d, t_max=1e3, samples=512)
        assert np.all(np.isfinite(br.theta))

    def test_polynomial_coefficients(self):
        d = IntersectionData(p=3, n=3, a=(2.0, 3.0, 5.0, 7.0))
        coeffs = branch_polynomial(d)
        # z(t) = a3 + 3 i t a2 - 3 t^2 a1 - i t^3 a0
        t = 1.7
        direct = (d.a[3] + 3j * t * d.a[2] - 3 * t * t * d.a[1] - 1j * t ** 3 * d.a[0])
        assert np.polyval(coeffs, t) == pytest.approx(direct)


class TestHypothesisCheck:
    def test_proportional_forms_consistency(self):
        # omega0 = cot(theta0/n) chi: theta_M(1) = n pi/2 - theta0 = theta_hat
        n = 2
        theta0 = math.pi / 5
        s = 1.0 / math.tan(theta0 / n)
        ds = coordinate_subtorus_data(np.eye(n), s * np.eye(n))
        theta_hat = n * math.pi / 2 - theta0
        out = dhym_hypothesis_check(ds, theta_hat, epsilon=0.01)
        assert out["overall"]
        vm = next(r for r in out["datasets"] if r["label"] == "V=M")
        assert vm["theta_start"] == pytest.approx(theta_hat, abs=1e-10)

    def test_datasets_must_share_n(self):
        # each dataset's interval depends on n; the first dataset's n would judge them all
        n, theta0 = 2, math.pi / 5
        ds = coordinate_subtorus_data(np.eye(n), np.eye(n) / math.tan(theta0 / n))
        odd = IntersectionData(p=1, n=3, a=(1.0 / math.tan(theta0 / n), 1.0))
        with pytest.raises(UsageError, match="disagree on n"):
            dhym_hypothesis_check(ds + [odd], n * math.pi / 2 - theta0, epsilon=0.0)

    def test_p1_interval_reduces_to_endpoint(self):
        # p = 1: branch increases, so only theta(1) can violate the interval
        n = 2
        theta_hat = n * math.pi / 2 - 0.4
        good = IntersectionData(p=1, n=n, a=(1.0, 0.4), label="good")
        out = dhym_hypothesis_check([good], theta_hat, epsilon=0.0)
        rec = out["datasets"][0]
        lower = theta_hat - math.pi / 2
        assert rec["ok"] == (rec["theta_start"] >= lower)

    def test_epsilon_monotone_violation(self):
        n = 2
        theta_hat = n * math.pi / 2 - 0.4
        d = IntersectionData(p=1, n=n, a=(1.0, 0.3), label="d")
        base = dhym_hypothesis_check([d], theta_hat, epsilon=0.0)
        assert base["datasets"][0]["ok"]
        theta1 = base["datasets"][0]["theta_start"]
        lower0 = theta_hat - math.pi / 2
        eps_break = (theta1 - lower0) + 0.01
        out = dhym_hypothesis_check([d], theta_hat, epsilon=eps_break)
        assert not out["datasets"][0]["ok"]
        assert "outside" in out["datasets"][0]["reason"]

    def test_branch_error_propagates_to_verdict(self):
        a0, a1, a3 = 1.0, 0.5, 2.0
        a2 = a0 * a3 / (9 * a1)
        bad = IntersectionData(p=3, n=3, a=(a0, a1, a2, a3), label="zero")
        theta_hat = 3 * math.pi / 2 - 0.5
        out = dhym_hypothesis_check([bad], theta_hat, epsilon=0.0)
        assert not out["overall"]
        assert "branch undefined" in out["datasets"][0]["reason"]

    def test_vanishing_polynomial_is_an_undefined_branch(self):
        d = IntersectionData(p=1, n=1, a=(0.0, 0.0), label="zero")
        with pytest.raises(BranchUndefinedError, match="vanishes near t = 1"):
            angle_branch(d)
        rec = dhym_hypothesis_check([d], 1.0, epsilon=0.0)["datasets"][0]
        assert not rec["ok"]
        assert rec["reason"] == "branch undefined: intersection polynomial vanishes near t = 1"

    def test_terminal_deviation_reason(self):
        # arctan(2t) at t_max = 2 is still 0.245 short of pi/2
        d = IntersectionData(p=1, n=2, a=(1.0, 0.5), label="short")
        rec = dhym_hypothesis_check([d], 2.5, epsilon=0.0, t_max=2.0)["datasets"][0]
        assert not rec["ok"]
        assert rec["terminal_deviation"] == pytest.approx(math.pi / 2 - math.atan(4.0))
        assert rec["reason"] == "terminal deviation 2.450e-01 exceeds 1.0e-02"

    def test_full_dimension_start_reason(self):
        # p = n: the branch must start at theta_hat; arctan(10) is not 1
        d = IntersectionData(p=1, n=1, a=(1.0, 0.1), label="V=M")
        out = dhym_hypothesis_check([d], 1.0, epsilon=0.0)
        rec = out["datasets"][0]
        assert not rec["ok"] and not out["overall"]
        assert rec["reason"] == (f"theta(1) = {math.atan(10.0):.12g} differs from "
                                 f"theta_hat = 1")

    def test_vm_dataset_mandatory(self):
        n = 2
        theta_hat = n * math.pi / 2 - 0.4
        only_sub = IntersectionData(p=1, n=n, a=(1.0, 0.3), label="V1")
        out = dhym_hypothesis_check([only_sub], theta_hat, epsilon=0.0)
        assert not out["overall"] and not out["vm_present"]

    def test_no_datasets_is_a_usage_error(self):
        with pytest.raises(UsageError, match="at least one dataset"):
            max_uniform_epsilon([], 3.0)
        with pytest.raises(UsageError, match="at least one dataset"):
            dhym_hypothesis_check([], 2.5, epsilon=0.0)

    def test_theta_hat_range_enforced(self):
        d = IntersectionData(p=1, n=2, a=(1.0, 1.0))
        with pytest.raises(UsageError):
            dhym_hypothesis_check([d], 0.3, epsilon=0.0)


class TestCoordinateSubtori:
    def test_count_and_labels(self):
        ds = coordinate_subtorus_data(np.diag([1.0, 2.0, 3.0]), np.eye(3))
        assert len(ds) == 7  # 3 + 3 + 1 nonempty subsets
        labels = {d.label for d in ds}
        assert "V=M" in labels and "V[1,3]" in labels

    def test_full_torus_vector(self):
        ds = coordinate_subtorus_data(np.diag([1.0, 2.0]), np.eye(2))
        vm = next(d for d in ds if d.label == "V=M")
        # a_k = D(chi^k, omega^(2-k)): D(I,I)=2, D(chi,I)=3, D(chi,chi)=4
        assert vm.a == (2.0, 3.0, 4.0)
