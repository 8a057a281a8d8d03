import numpy as np
import pytest

from jdhym import functionals
from jdhym.errors import DomainError, NotKahlerError
from jdhym.fields import (FormField, ScalarField, TorusGeometry, constant_form,
                          field_from_modes, form_field, random_bandlimited)
from jdhym.functionals import (aubin_i, coercivity_probe, compute_c0,
                               j_chi_derivative, j_chi_functional,
                               j_omega0_functional, monge_ampere_energy)


@pytest.fixture
def setup_n2():
    geom = TorusGeometry(2, 16)
    chi = form_field(geom, np.diag([1.0, 2.0]),
                     field_from_modes(geom, [((1, 0, 0, 0), 0.02)]))
    omega0 = form_field(geom, np.eye(2),
                        field_from_modes(geom, [((0, 1, 0, 0), 0.015)]))
    return geom, chi, omega0


class TestC0:
    def test_chi_equals_omega(self):
        geom = TorusGeometry(2, 8)
        om = constant_form(geom, np.diag([1.3, 0.7]))
        assert compute_c0(om, om) == pytest.approx(2.0, rel=1e-12)

    def test_n1_ratio(self):
        geom = TorusGeometry(1, 16)
        chi = constant_form(geom, np.array([[3.0]]))
        om = constant_form(geom, np.array([[2.0]]))
        assert compute_c0(chi, om) == pytest.approx(1.5, rel=1e-12)

    def test_constant_2x2_against_wedge_expansion(self):
        geom = TorusGeometry(2, 8)
        chi = constant_form(geom, np.diag([1.0, 4.0]))
        om = constant_form(geom, np.eye(2))
        # n * D(chi, om) / D(om, om) = 2 * (1 + 4) / 2 = 5 = tr(om^-1 chi)
        assert compute_c0(chi, om) == pytest.approx(5.0, rel=1e-12)

    def test_depends_only_on_classes(self, setup_n2):
        geom, chi, omega0 = setup_n2
        bare = compute_c0(constant_form(geom, chi.base), constant_form(geom, omega0.base))
        assert compute_c0(chi, omega0) == pytest.approx(bare, abs=1e-11)


class TestJChi:
    def test_zero_potential(self, setup_n2):
        geom, chi, omega0 = setup_n2
        c0 = compute_c0(chi, omega0)
        assert j_chi_functional(chi, omega0, ScalarField.zeros(geom), c0) == 0.0

    def test_shift_invariance(self, setup_n2):
        geom, chi, omega0 = setup_n2
        c0 = compute_c0(chi, omega0)
        rng = np.random.default_rng(0)
        phi = random_bandlimited(geom, rng, kmax=1, amplitude=0.003)
        a = j_chi_functional(chi, omega0, phi, c0)
        b = j_chi_functional(chi, omega0, phi + 5.0, c0)
        assert abs(a - b) < 1e-9

    def test_ray_derivative_identity(self, setup_n2):
        geom, chi, omega0 = setup_n2
        c0 = compute_c0(chi, omega0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            phi = random_bandlimited(geom, rng, kmax=1, amplitude=0.003)
            t = float(rng.uniform(0.2, 0.9))
            h = 1e-4
            fd = (j_chi_functional(chi, omega0, (t + h) * phi, c0)
                  - j_chi_functional(chi, omega0, (t - h) * phi, c0)) / (2 * h)
            an = j_chi_derivative(chi, omega0, t * phi, phi, c0)
            assert abs(fd - an) <= 1e-6 * max(abs(an), 1e-6)

    def test_rejects_non_kahler(self, setup_n2):
        geom, chi, omega0 = setup_n2
        phi = field_from_modes(geom, [((1, 0, 0, 0), 1.0)])
        with pytest.raises(NotKahlerError):
            j_chi_functional(chi, omega0, phi, 3.0)


class TestAubinI:
    def test_constant_zero(self, setup_n2):
        geom, chi, omega0 = setup_n2
        assert aubin_i(omega0, ScalarField.constant(geom, 1.7)) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_and_representations_agree(self, setup_n2):
        geom, chi, omega0 = setup_n2
        rng = np.random.default_rng(2)
        for _ in range(8):
            phi = random_bandlimited(geom, rng, kmax=1, amplitude=0.003)
            direct = aubin_i(omega0, phi)
            grad = aubin_i(omega0, phi, form="gradient")
            assert direct >= -1e-10
            assert abs(direct - grad) < 1e-8

    def test_shift_invariance(self, setup_n2):
        geom, chi, omega0 = setup_n2
        phi = field_from_modes(geom, [((1, 0, 0, 0), 0.004)])
        assert abs(aubin_i(omega0, phi) - aubin_i(omega0, phi + 2.0)) < 1e-9


class TestJOmega0:
    def test_constant_zero(self, setup_n2):
        geom, chi, omega0 = setup_n2
        assert j_omega0_functional(omega0, ScalarField.constant(geom, 0.4)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_representations_agree(self, setup_n2):
        geom, chi, omega0 = setup_n2
        rng = np.random.default_rng(3)
        for _ in range(6):
            phi = random_bandlimited(geom, rng, kmax=1, amplitude=0.003)
            a = j_omega0_functional(omega0, phi, t_steps=32)
            b = j_omega0_functional(omega0, phi, t_steps=32, form="gradient")
            assert a >= -1e-12
            assert abs(a - b) < 1e-7

    def test_ratio_to_aubin_i_bracketed(self, setup_n2):
        # constants comparing the two energies exist; record an empirical
        # bracket rather than assert any specific constant
        geom, chi, omega0 = setup_n2
        rng = np.random.default_rng(4)
        ratios = []
        for _ in range(10):
            phi = random_bandlimited(geom, rng, kmax=1, amplitude=0.003)
            i_val = aubin_i(omega0, phi)
            j_val = j_omega0_functional(omega0, phi, t_steps=16)
            if j_val > 1e-14:
                ratios.append(i_val / j_val)
        assert ratios
        assert all(0.05 < r < 30.0 for r in ratios), (min(ratios), max(ratios))

    def test_names_first_bad_t(self):
        geom = TorusGeometry(1, 32)
        omega0 = constant_form(geom, np.eye(1))
        phi = field_from_modes(geom, [((1, 0), 0.5)])  # leaves the cone inside (0,1]
        with pytest.raises(DomainError, match="first at t"):
            j_omega0_functional(omega0, phi, t_steps=8)

    def test_first_bad_t_carries_its_grid_point(self):
        geom = TorusGeometry(1, 32)
        omega0 = constant_form(geom, np.eye(1))
        phi = field_from_modes(geom, [((1, 0), 0.5)])
        with pytest.raises(NotKahlerError, match=r"first at t = 0\.25\)") as exc:
            j_omega0_functional(omega0, phi, t_steps=8)
        # omega_t = 1 + t Hess(phi) is smallest where cos(2 pi x) = 1, at x = 0
        assert exc.value.grid_index == (0, 0)
        assert exc.value.margin == pytest.approx(1.0 - 0.25 * 0.5 * np.pi ** 2)


    def test_a_kahler_ray_tests_only_its_ends(self, monkeypatch):
        # omega_t is affine in t, so its smallest eigenvalue is concave in t
        geom = TorusGeometry(2, 8)
        omega0 = constant_form(geom, np.eye(2))
        phi = field_from_modes(geom, [((1, 0, 0, 0), 0.01)])
        calls, grids = [], []
        margin = FormField.min_eigenvalue
        spectrum = functionals.min_eigenvalue_field
        monkeypatch.setattr(FormField, "min_eigenvalue",
                            lambda form: calls.append(1) or margin(form))
        monkeypatch.setattr(functionals, "min_eigenvalue_field",
                            lambda mats: grids.append(1) or spectrum(mats))
        j_omega0_functional(omega0, phi, t_steps=8)
        # a passing ray reads its ends' parts and builds no matrix grid
        assert len(calls) == 2 and not grids

    @pytest.mark.parametrize("form", ["potential", "gradient"])
    def test_a_kahler_ray_makes_one_hessian(self, monkeypatch, form):
        # the ray check's omega_phi also serves the potential form's energy
        geom = TorusGeometry(2, 8)
        omega0 = constant_form(geom, np.eye(2))
        phi = field_from_modes(geom, [((1, 0, 0, 0), 0.01)])
        calls = []

        def counting(name):
            real = getattr(functionals, name)
            return lambda *args: calls.append(name) or real(*args)

        for name in ("complex_hessian", "hessian_values", "_require_kahler"):
            if hasattr(functionals, name):
                monkeypatch.setattr(functionals, name, counting(name))
        j_omega0_functional(omega0, phi, t_steps=8, form=form)
        assert sum(c != "_require_kahler" for c in calls) == 1
        assert "_require_kahler" not in calls

    # (n, seed): samples on which a t-quadrature's rounding shows in the last bits
    RAYS = [(1, 1), (2, 3), (3, 2)]

    @staticmethod
    def ray_sample(n, seed):
        geom = TorusGeometry(n, 8)
        omega0 = form_field(geom, np.eye(n),
                            field_from_modes(geom, [((1,) + (0,) * (2 * n - 1), 0.01)]))
        return omega0, random_bandlimited(geom, np.random.default_rng(seed), kmax=1,
                                          amplitude=0.003)

    @pytest.mark.parametrize("n, seed", RAYS)
    def test_value_independent_of_t_steps(self, n, seed):
        # the energy is integrated exactly; t_steps only spaces the ray scan
        omega0, phi = self.ray_sample(n, seed)
        for form in ("potential", "gradient"):
            values = {j_omega0_functional(omega0, phi, t_steps=t, form=form)
                      for t in (2, 32, 256)}
            assert len(values) == 1, (form, values)

    @pytest.mark.parametrize("n, seed", RAYS)
    def test_gradient_form_is_chi_energy_at_omega0(self, n, seed):
        # J_omega0 is the chi-energy at chi = omega0, where c0 = n
        omega0, phi = self.ray_sample(n, seed)
        assert j_omega0_functional(omega0, phi, form="gradient") == \
            pytest.approx(j_chi_functional(omega0, omega0, phi, n), rel=1e-13)


class TestCoercivityProbe:
    def test_j_identity_instance(self):
        # chi = (c0/n) omega0: the equation holds at phi = 0, where the
        # energy attains its minimum 0; away from it the energy is positive
        geom = TorusGeometry(2, 8)
        omega0 = constant_form(geom, np.diag([1.0, 2.0]))
        chi = 1.7 * omega0
        c0 = compute_c0(chi, omega0)
        rng = np.random.default_rng(5)
        phis = [ScalarField.zeros(geom)]
        phis += [random_bandlimited(geom, rng, kmax=1, amplitude=0.003) for _ in range(4)]
        recs = coercivity_probe(chi, omega0, phis, c0=c0, t_steps=8)
        assert recs[0]["j_chi"] == 0.0
        for r in recs:
            assert r["error"] is None
            assert r["j_chi"] >= -1e-12
            assert r["j_omega0"] >= -1e-12

    def test_zero_sample(self, setup_n2):
        geom, chi, omega0 = setup_n2
        recs = coercivity_probe(chi, omega0, [ScalarField.zeros(geom)], t_steps=8)
        assert recs[0]["j_omega0"] == 0.0 and recs[0]["j_chi"] == 0.0

    def test_errors_collected_not_fatal(self, setup_n2):
        geom, chi, omega0 = setup_n2
        bad = field_from_modes(geom, [((1, 0, 0, 0), 5.0)])
        good = field_from_modes(geom, [((1, 0, 0, 0), 0.003)])
        recs = coercivity_probe(chi, omega0, [bad, good], t_steps=8)
        assert recs[0]["error"] is not None
        assert recs[1]["error"] is None

    def test_normalization_shifts_reported(self, setup_n2):
        geom, chi, omega0 = setup_n2
        phi = field_from_modes(geom, [((1, 0, 0, 0), 0.004)])
        rec = coercivity_probe(chi, omega0, [phi], t_steps=8)[0]
        assert rec["sup_shift"] == pytest.approx(float(np.max(phi.values)))
        # energy shift moves one-for-one with a constant shift
        rec2 = coercivity_probe(chi, omega0, [phi + 1.0], t_steps=8)[0]
        assert rec2["energy_shift"] - rec["energy_shift"] == pytest.approx(1.0, rel=1e-9)
        # the scatter pair itself is shift-invariant
        assert rec2["j_chi"] == pytest.approx(rec["j_chi"], abs=1e-9)
        assert rec2["j_omega0"] == pytest.approx(rec["j_omega0"], abs=1e-9)


    def test_one_hessian_per_sample(self, setup_n2, monkeypatch):
        # one omega_phi per sample serves j_omega0, j_chi and the energy shift
        geom, chi, omega0 = setup_n2
        rng = np.random.default_rng(6)
        phis = [random_bandlimited(geom, rng, kmax=1, amplitude=0.003) for _ in range(3)]
        calls = []
        for name in ("complex_hessian", "hessian_values"):
            if hasattr(functionals, name):
                real = getattr(functionals, name)
                monkeypatch.setattr(functionals, name,
                                    lambda *args, real=real: calls.append(1) or real(*args))
        recs = coercivity_probe(chi, omega0, phis, t_steps=8)
        assert all(r["error"] is None for r in recs)
        assert len(calls) == len(phis)

    def test_one_ladder_per_sample_and_one_volume(self, setup_n2, monkeypatch):
        # at n = 2 a sample takes 2 + 2 integrals for the chi-energies' chi
        # ladders and 3 for the shared Monge-Ampere ladder; the volume is one
        geom, chi, omega0 = setup_n2
        rng = np.random.default_rng(8)
        phis = [random_bandlimited(geom, rng, kmax=1, amplitude=0.003) for _ in range(3)]
        c0 = compute_c0(chi, omega0)
        calls = []
        real = functionals.integrate
        monkeypatch.setattr(functionals, "integrate",
                            lambda *args: calls.append(1) or real(*args))
        recs = coercivity_probe(chi, omega0, phis, c0=c0, t_steps=8)
        assert all(r["error"] is None for r in recs)
        assert len(calls) == 7 * len(phis) + 1

    def test_records_equal_the_public_energies(self, setup_n2):
        geom, chi, omega0 = setup_n2
        c0 = compute_c0(chi, omega0)
        rng = np.random.default_rng(7)
        phis = [ScalarField.zeros(geom)]
        phis += [random_bandlimited(geom, rng, kmax=1, amplitude=0.003) + 0.5 for _ in range(3)]
        for phi, rec in zip(phis, coercivity_probe(chi, omega0, phis, c0=c0, t_steps=8)):
            assert rec["j_omega0"] == j_omega0_functional(omega0, phi, 8)
            assert rec["j_chi"] == j_chi_functional(chi, omega0, phi, c0)
            assert rec["energy_shift"] == monge_ampere_energy(omega0, phi)
            assert rec["sup_shift"] == float(np.max(phi.values))
            assert rec["error"] is None

    def test_out_of_cone_sample_carries_the_ray_error(self, setup_n2):
        geom, chi, omega0 = setup_n2
        bad = field_from_modes(geom, [((1, 0, 0, 0), 5.0)])
        with pytest.raises(NotKahlerError) as exc:
            j_omega0_functional(omega0, bad, t_steps=8)
        rec = coercivity_probe(chi, omega0, [bad], t_steps=8)[0]
        assert rec == {"sample": 0, "j_omega0": None, "j_chi": None, "sup_shift": None,
                       "energy_shift": None, "error": str(exc.value)}


class TestMongeAmpereEnergy:
    def test_shift_moves_by_constant(self, setup_n2):
        geom, chi, omega0 = setup_n2
        phi = field_from_modes(geom, [((0, 1, 0, 0), 0.004)])
        a = monge_ampere_energy(omega0, phi)
        b = monge_ampere_energy(omega0, phi + 3.0)
        assert b - a == pytest.approx(3.0, rel=1e-10)
