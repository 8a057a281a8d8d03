"""Randomized property suites behind ``verify-lemmas``.

Each suite draws seeded random instances as arrays, one group per matrix
size, evaluates them with the batched kernels of :mod:`jdhym.hermitian` that
the solver runs, and returns its worst observed slack; a property holds when
the worst slack stays above the stated threshold.  Slacks are oriented so
that larger is better.
"""

from __future__ import annotations

import numpy as np

from .hermitian import (SpectrumRel, _dhym_angle_radius, _dhym_gradient, _dhym_hessian,
                        _dhym_value, _f_bound_dhym, _f_bound_j, _loo_max, _schur)

__all__ = [
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

# trials per pass of a suite, and candidates per pass of the zero-slice rejection
_CHUNK = 4096


def _suite(name: str, trials: int, rng: np.random.Generator, slacks, threshold: float,
           strict: bool) -> dict:
    """A suite's record: the worst of ``slacks(rng, k)`` over passes of at most
    ``_CHUNK`` trials; the property holds when it exceeds ``threshold``, or
    reaches it unless ``strict``."""
    worst = np.inf
    for done in range(0, trials, _CHUNK):
        # np.minimum keeps a NaN slack, which then fails the property
        worst = float(np.minimum(worst, np.min(slacks(rng, min(_CHUNK, trials - done)))))
    return {"property": name, "trials": trials, "worst_slack": worst, "threshold": threshold,
            "holds": worst > threshold if strict else worst >= threshold}


def _fuzz_schur(trials: int, rng: np.random.Generator, max_block: int, term,
                shift: float, name: str) -> dict:
    """``P(schur) + sum(term(B)) <= P(block)`` on random blocks ``[[A, C], [C^H, B]]``
    above ``shift*I`` with sizes in ``1..max_block``, ``P`` the worst
    leave-one-out sum of ``term`` over the eigenvalues."""
    def slacks(rng, k):
        dims, counts = np.unique(rng.integers(1, max_block + 1, size=(k, 2)), axis=0,
                                 return_counts=True)
        out = []
        for (a_dim, b_dim), cnt in zip(dims, counts):
            m = a_dim + b_dim
            g = rng.normal(size=(cnt, m, m)) + 1j * rng.normal(size=(cnt, m, m))
            # 0.05*shift more than shift keeps the blocks strictly above shift*I
            block = g @ g.conj().swapaxes(-1, -2) / m + (0.05 + 1.05 * shift) * np.eye(m)
            A, B, C = block[:, :a_dim, :a_dim], block[:, a_dim:, a_dim:], block[:, :a_dim, a_dim:]
            lhs = _loo_max(term(np.linalg.eigvalsh(_schur(A, B, C))))
            lhs = lhs + np.sum(term(np.linalg.eigvalsh(B)), axis=-1)
            out.append(_loo_max(term(np.linalg.eigvalsh(block))) - lhs)
        return np.concatenate(out)
    return _suite(name, trials, rng, slacks, -1e-10, strict=False)


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


def _gamma_points(rng: np.random.Generator, n: int, theta0: np.ndarray) -> np.ndarray:
    """Random points of the Gamma regions for ``(n, theta0[j])``, strictly
    interior: one ascending spectrum (a row) per angle.

    Draws angles ``t_i = arctan(1/lam_i)`` with the worst leave-one-out sum
    pinned to a random fraction of ``theta0``.
    """
    k = len(theta0)
    if n == 1:
        t = rng.uniform(0.05, 0.95, size=(k, 1)) * theta0[:, None]
    else:
        u = rng.uniform(0.05, 1.0, size=(k, n))
        t = u * (rng.uniform(0.3, 0.995, size=k) * theta0 / _loo_max(u))[:, None]
    return np.sort(1.0 / np.tan(t), axis=-1)


def sample_gamma_point(rng: np.random.Generator, n: int, theta0: float) -> SpectrumRel:
    """Random point of the Gamma region for (n, theta0), strictly interior."""
    return SpectrumRel(tuple(_gamma_points(rng, n, np.array([float(theta0)]))[0]))


def _dhym_draws(rng: np.random.Generator, k: int) -> list:
    """``(n, theta0, f)`` per n in 2..5 of ``k`` dHYM trials, ``f`` admissible."""
    n = rng.integers(2, 6, size=k)
    theta0 = rng.uniform(0.05, np.pi / 4 - 0.02, size=k)
    f = rng.uniform(_f_bound_dhym(n) * 0.999, 1.0)
    return [(m, theta0[n == m], f[n == m]) for m in range(2, 6)]


def _gamma_groups(rng: np.random.Generator, k: int):
    """``(n, lam, f, theta0)`` per group of :func:`_dhym_draws`, ``lam`` Gamma points."""
    for n, theta0, f in _dhym_draws(rng, k):
        yield n, _gamma_points(rng, n, theta0), f, theta0


def suite_gradient_positivity(trials: int, rng: np.random.Generator) -> dict:
    def slacks(rng, k):
        return np.concatenate([np.min(_dhym_gradient(lam, f, theta0), axis=-1)
                               for _, lam, f, theta0 in _gamma_groups(rng, k)])
    return _suite("gradient-positivity", trials, rng, slacks, 0.0, strict=True)


def suite_gradient_ordering(trials: int, rng: np.random.Generator) -> dict:
    def slacks(rng, k):
        # ascending eigenvalues => gradient components weakly decreasing
        grads = [_dhym_gradient(lam, f, theta0) for _, lam, f, theta0 in _gamma_groups(rng, k)]
        return np.concatenate([np.min(g[:, :-1] - g[:, 1:], axis=-1) for g in grads])
    return _suite("gradient-ordering", trials, rng, slacks, -1e-12, strict=False)


def suite_gradient_fd(trials: int, rng: np.random.Generator) -> dict:
    """Relative agreement with central finite differences, target 1e-6."""
    def slacks(rng, k):
        out = []
        for n, lam, f, theta0 in _gamma_groups(rng, k):
            grad = _dhym_gradient(lam, f, theta0)
            fd = np.empty_like(grad)
            for i in range(n):
                h = 1e-6 * np.maximum(1.0, np.abs(lam[:, i]))
                up = lam.copy(); up[:, i] += h
                dn = lam.copy(); dn[:, i] -= h
                fd[:, i] = (_dhym_value(up, f, theta0)[0]
                            - _dhym_value(dn, f, theta0)[0]) / (2.0 * h)
            norm = np.maximum(np.linalg.norm(grad, axis=-1), 1e-300)
            err = np.linalg.norm(grad - fd, axis=-1) / norm
            # 1e-6 - err >= 0 exactly when err <= 1e-6 (float subtraction keeps the sign)
            out.append(1e-6 - err)
        return np.concatenate(out)
    return _suite("gradient-fd-agreement", trials, rng, slacks, 0.0, strict=False)


def suite_hessian_zero_slice(trials: int, rng: np.random.Generator) -> dict:
    """Concavity bound on the F = 0 slice with 1e-8 slack.

    Solves for the ``f`` putting each sampled point on the zero set, keeps
    the ``_CHUNK`` candidates of a pass where it is admissible and contracts
    the analytic Hessian with random unit vectors.
    """
    def slacks(rng, k):
        out, found = [], 0
        while found < k:
            for n, lam, _, theta0 in _gamma_groups(rng, _CHUNK):
                s, r = _dhym_angle_radius(lam)
                f = np.sin(theta0 - s) * r / np.cos(theta0)
                keep = (_f_bound_dhym(n) < f) & (f <= 1.0)
                lam, f, theta0 = lam[keep], f[keep], theta0[keep]
                xi = rng.normal(size=lam.shape)
                xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
                quad = np.einsum("ki,kij,kj->k", xi, _dhym_hessian(lam, f, theta0), xi)
                bound = -np.cos(theta0) * np.sum(lam * xi * xi / (2.0 * (lam * lam + 1.0) ** 2),
                                                 axis=-1)
                out.append(bound - quad)
                found += len(lam)
        return np.concatenate(out)[:k]
    return _suite("hessian-zero-slice-bound", trials, rng, slacks, -1e-8, strict=False)


def suite_boundary_negative(trials: int, rng: np.random.Generator) -> dict:
    """F < 0 on the boundary ray ``lam_i = cot(theta0/(n-1))`` for admissible f."""
    def slacks(rng, k):
        out = []
        for n, theta0, f in _dhym_draws(rng, k):
            lam = np.repeat(1.0 / np.tan(theta0 / (n - 1))[:, None], n, axis=-1)
            out.append(-_dhym_value(lam, f, theta0)[0])
        return np.concatenate(out)
    return _suite("boundary-F-negative", trials, rng, slacks, 0.0, strict=True)


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
    def slacks(rng, k):
        sizes = rng.integers(2, 7, size=k)
        out = []
        for n in range(2, 7):
            recip = 1.0 / rng.uniform(0.2, 5.0, size=(np.count_nonzero(sizes == n), n))
            c = _loo_max(recip)
            f = (c - np.sum(recip, axis=-1)) / np.prod(recip, axis=-1)
            out.append(_f_bound_j(n, c) - f)
        return np.concatenate(out)
    return _suite("solution-nondegeneracy-margin", trials, rng, slacks, 0.0, strict=True)


def run_property_suites(trials: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [suite(trials, rng) for suite in (
        fuzz_schur_trace, fuzz_schur_arctan, suite_gradient_positivity, suite_gradient_ordering,
        suite_gradient_fd, suite_hessian_zero_slice, suite_boundary_negative,
        suite_nondegeneracy)]
