"""Randomized property suites behind ``verify-lemmas``.

Each suite draws seeded random instances and returns its worst observed
slack; a property holds when the worst slack stays above the stated
threshold.  Slacks are oriented so that larger is better.
"""

from __future__ import annotations

import math

import numpy as np

from .hermitian import (SpectrumRel, _dhym_angle_radius, _dhym_value, _f_bound_dhym,
                        _f_bound_j, _loo_max, f_gradient, f_hessian)

__all__ = [
    "random_positive_block",
    "sample_gamma_point",
    "fuzz_schur_trace",
    "fuzz_schur_arctan",
    "suite_gradient_positivity",
    "suite_gradient_ordering",
    "suite_gradient_fd",
    "suite_hessian_zero_slice",
    "suite_boundary_negative",
    "suite_nondegeneracy",
    "run_property_suites",
]


def random_positive_block(rng: np.random.Generator, a_dim: int, b_dim: int,
                          shift: float = 0.0):
    """Random Hermitian positive block [[A, C], [C^H, B]], optionally > shift*I."""
    m = a_dim + b_dim
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    block = g @ g.conj().T / m + (0.05 + shift) * np.eye(m)
    if shift:
        block += shift * 0.05 * np.eye(m)  # keep strictly above shift*I
    A = block[:a_dim, :a_dim]
    B = block[a_dim:, a_dim:]
    C = block[:a_dim, a_dim:]
    return block, A, B, C


def _fuzz_schur(trials: int, rng: np.random.Generator, max_block: int, term,
                shift: float, name: str) -> dict:
    """``P(schur) + sum(term(B)) <= P(block)`` on random positive blocks, with
    ``P`` the worst leave-one-out sum of ``term`` over the eigenvalues."""
    worst = math.inf
    for _ in range(trials):
        a_dim = int(rng.integers(1, max_block + 1))
        b_dim = int(rng.integers(1, max_block + 1))
        block, A, B, C = random_positive_block(rng, a_dim, b_dim, shift=shift)
        schur = A - C @ np.linalg.solve(B, C.conj().T)
        lhs = float(_loo_max(term(np.linalg.eigvalsh(0.5 * (schur + schur.conj().T)))))
        lhs += float(np.sum(term(np.linalg.eigvalsh(B))))
        rhs = float(_loo_max(term(np.linalg.eigvalsh(block))))
        worst = min(worst, rhs - lhs)
    return _result(name, trials, worst, -1e-10, strict=False)


def fuzz_schur_trace(trials: int, rng: np.random.Generator,
                     max_block: int = 5) -> dict:
    """Subadditivity ``P(schur) + tr(B^-1) <= P(block)`` on random positive blocks."""
    return _fuzz_schur(trials, rng, max_block, lambda lam: 1.0 / lam, 0.0,
                       "schur-trace-subadditivity")


def fuzz_schur_arctan(trials: int, rng: np.random.Generator,
                      max_block: int = 5) -> dict:
    """Arctan subadditivity ``P(schur) + Q(B) <= P(block)`` for blocks > I."""
    return _fuzz_schur(trials, rng, max_block, lambda lam: np.arctan(1.0 / lam), 1.0,
                       "schur-arctan-subadditivity")


def sample_gamma_point(rng: np.random.Generator, n: int, theta0: float) -> SpectrumRel:
    """Random point of the Gamma region for (n, theta0), strictly interior.

    Draws angles ``t_i = arctan(1/lam_i)`` with the worst leave-one-out sum
    pinned to a random fraction of ``theta0``.
    """
    u = rng.uniform(0.05, 1.0, size=n)
    r = rng.uniform(0.3, 0.995)
    if n == 1:
        t = np.array([rng.uniform(0.05, 0.95) * theta0])
    else:
        t = u * (r * theta0 / _loo_max(u))
    lam = 1.0 / np.tan(t)
    return SpectrumRel(tuple(sorted(float(v) for v in lam)))


def _result(name: str, trials: int, worst: float, threshold: float, strict: bool) -> dict:
    """A suite's record: the property holds when ``worst`` exceeds
    ``threshold``, or reaches it unless ``strict``."""
    return {"property": name, "trials": trials, "worst_slack": worst, "threshold": threshold,
            "holds": worst > threshold if strict else worst >= threshold}


def _dhym_draw(rng: np.random.Generator) -> tuple[int, float]:
    """The ``(n, theta0)`` of one dHYM trial."""
    return int(rng.integers(2, 6)), float(rng.uniform(0.05, math.pi / 4 - 0.02))


def _random_f(rng: np.random.Generator, n: int) -> float:
    return float(rng.uniform(_f_bound_dhym(n) * 0.999, 1.0))


def _gamma_draws(trials: int, rng: np.random.Generator):
    """``(n, theta0, spectrum, f)`` per trial: a Gamma point and an admissible f."""
    for _ in range(trials):
        n, theta0 = _dhym_draw(rng)
        spec = sample_gamma_point(rng, n, theta0)
        yield n, theta0, spec, _random_f(rng, n)


def suite_gradient_positivity(trials: int, rng: np.random.Generator) -> dict:
    worst = math.inf
    for _, theta0, spec, f in _gamma_draws(trials, rng):
        worst = min(worst, float(np.min(f_gradient(f, spec, theta0))))
    return _result("gradient-positivity", trials, worst, 0.0, strict=True)


def suite_gradient_ordering(trials: int, rng: np.random.Generator) -> dict:
    worst = math.inf
    for _, theta0, spec, f in _gamma_draws(trials, rng):
        grad = f_gradient(f, spec, theta0)
        # ascending eigenvalues => gradient components weakly decreasing
        worst = min(worst, float(np.min(grad[:-1] - grad[1:])))
    return _result("gradient-ordering", trials, worst, -1e-12, strict=False)


def suite_gradient_fd(trials: int, rng: np.random.Generator) -> dict:
    """Relative agreement with central finite differences, target 1e-6."""
    worst_err = 0.0
    for n, theta0, spec, f in _gamma_draws(trials, rng):
        grad = f_gradient(f, spec, theta0)
        lam = spec.as_array()
        fd = np.empty_like(grad)
        for i in range(n):
            h = 1e-6 * max(1.0, abs(lam[i]))
            up = lam.copy(); up[i] += h
            dn = lam.copy(); dn[i] -= h
            fd[i] = (_dhym_value(up, f, theta0)[0] - _dhym_value(dn, f, theta0)[0]) / (2.0 * h)
        err = float(np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-300))
        worst_err = max(worst_err, err)
    # 1e-6 - err >= 0 exactly when err <= 1e-6 (float subtraction keeps the sign)
    return _result("gradient-fd-agreement", trials, 1e-6 - worst_err, 0.0, strict=False)


def suite_hessian_zero_slice(trials: int, rng: np.random.Generator) -> dict:
    """Concavity bound on the F = 0 slice with 1e-8 slack.

    Solves for the ``f`` putting each sampled point on the zero set and
    contracts the analytic Hessian with random unit vectors.
    """
    worst = math.inf
    done = 0
    while done < trials:
        n, theta0 = _dhym_draw(rng)
        spec = sample_gamma_point(rng, n, theta0)
        lam = spec.as_array()
        s, r = _dhym_angle_radius(lam)
        f = math.sin(theta0 - s) * r / math.cos(theta0)
        if not (_f_bound_dhym(n) < f <= 1.0):
            continue
        hess = f_hessian(f, spec, theta0)
        xi = rng.normal(size=n)
        xi /= np.linalg.norm(xi)
        quad = float(xi @ hess @ xi)
        bound = -math.cos(theta0) * float(
            np.sum(lam * xi * xi / (2.0 * (lam * lam + 1.0) ** 2)))
        worst = min(worst, bound - quad)
        done += 1
    return _result("hessian-zero-slice-bound", trials, worst, -1e-8, strict=False)


def suite_boundary_negative(trials: int, rng: np.random.Generator) -> dict:
    """F < 0 on the boundary ray ``lam_i = cot(theta0/(n-1))`` for admissible f."""
    worst = math.inf
    for _ in range(trials):
        n, theta0 = _dhym_draw(rng)
        lam = np.full(n, 1.0 / math.tan(theta0 / (n - 1)))
        f = _random_f(rng, n)
        worst = min(worst, -float(_dhym_value(lam, f, theta0)[0]))
    return _result("boundary-F-negative", trials, worst, 0.0, strict=True)


def suite_nondegeneracy(trials: int, rng: np.random.Generator) -> dict:
    """No J solution with admissible f lies on the cone boundary.

    Puts a random spectrum on the boundary (``c`` its worst leave-one-out
    reciprocal sum), solves the equation for ``f`` and checks that ``f``
    falls below ``_f_bound_j(n, c)`` (``f`` is minus one over the product of
    all reciprocals but the smallest, below the bound by AM-GM), so solutions
    keep a strict cone margin.

    Equation and bound alone do not put a spectrum inside the cone: at
    ``lam = (0.2, 0.2, 0.2)``, ``f = -0.112`` gives ``c = 1`` and admissible
    ``f``, but a margin of -9.
    """
    worst = math.inf
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        recip = 1.0 / rng.uniform(0.2, 5.0, size=n)
        c = float(_loo_max(recip))
        f = (c - float(np.sum(recip))) / float(np.prod(recip))
        worst = min(worst, _f_bound_j(n, c) - f)
    return _result("solution-nondegeneracy-margin", trials, worst, 0.0, strict=True)


def run_property_suites(trials: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [
        fuzz_schur_trace(trials, rng),
        fuzz_schur_arctan(trials, rng),
        suite_gradient_positivity(trials, rng),
        suite_gradient_ordering(trials, rng),
        suite_gradient_fd(trials, rng),
        suite_hessian_zero_slice(trials, rng),
        suite_boundary_negative(trials, rng),
        suite_nondegeneracy(trials, rng),
    ]
