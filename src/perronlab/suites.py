"""Seeded property suites shared by the CLI `verify` verb and the test
battery.  Each suite runs `trials` samples in one loop; sample i draws from
its own generator, seeded by (seed, i), so every failure is reported by the
index that reproduces it."""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .lattice import lattice_power, independence_preserved, vec
from .operators import op, spectral_radius
from .schemes import SchemeKind, Verdict, builtin_scheme, check_ws1, \
    check_ws2, check_ws3
from .sampling import random_markov_reducible, random_nonneg, random_stochastic
from .spectral import daec_check, dim_estimate_check, eigen, is_cyclic, \
    peripheral_spectrum
from .fixedspace import fixed_space_handle, sup_in_fixed_space

__all__ = ["SuiteResult", "run_suite", "suite_names"]


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    trials: int
    passed: int
    failures: tuple[tuple[int, str], ...]

    @property
    def ok(self) -> bool:
        return self.passed == self.trials

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "passed": self.passed,
            "failures": [{"index": i, "reason": r} for i, r in self.failures],
        }


def _trial_perron(rng: np.random.Generator, n: int) -> str | None:
    size = int(rng.integers(2, n + 1))
    T = random_nonneg(rng, size)
    pairs = eigen(T)
    r = spectral_radius(T)
    best = min(pairs, key=lambda p: abs(abs(p.value) - r))
    if abs(abs(best.value) - r) > 1e-8 * max(1.0, r):
        return f"r(T)={r} not matched by an eigenvalue"
    # some peripheral eigenvalue must be (close to) r itself with a
    # nonnegative eigenvector
    for p in pairs:
        if abs(p.value - r) <= 1e-8 * max(1.0, r):
            for b in p.basis:
                v = b.entries
                idx = int(np.argmax(np.abs(v)))
                u = v / v[idx]
                if np.abs(u.imag).max() <= 1e-7 and u.real.min() >= -1e-7:
                    return None
            return "no nonnegative eigenvector at r(T)"
    return "r(T) itself is not an eigenvalue"


def _trial_cyclicity(rng: np.random.Generator, n: int) -> str | None:
    size = int(rng.integers(2, n + 1))
    T = random_nonneg(rng, size)
    r = spectral_radius(T)
    if r <= 1e-12:
        return None  # nilpotent sample: empty peripheral check
    S = op(T.entries / r, T.model.norm_tag)
    per = peripheral_spectrum(eigen(S), 1e-8)
    res = is_cyclic([p.value for p in per], 1.0, tol=1e-8, q_max=64)
    if res.verdict != "cyclic":
        return f"verdict {res.verdict}, witness {res.witness}"
    return None


def _trial_markov_dim(rng: np.random.Generator, n: int) -> str | None:
    size = int(rng.integers(2, n + 1))
    T = random_stochastic(rng, size)
    for v in dim_estimate_check(T, tol=1e-8, n_range=range(-6, 7)):
        if not v.ok:
            return (f"violation theta={v.theta} n={v.n} "
                    f"{v.dim_source} > {v.dim_target}")
    return None


def _trial_daec_implies_cyclic(rng: np.random.Generator, n: int) -> str | None:
    size = int(rng.integers(2, n + 1))
    T = random_nonneg(rng, size)
    r = spectral_radius(T)
    if r <= 1e-12:
        return None
    S = op(T.entries / r, T.model.norm_tag)
    pairs = eigen(S)
    per = peripheral_spectrum(pairs, 1e-8)
    for p in per:
        theta = cmath.phase(p.value)
        try:
            res = daec_check(S, 1.0, theta, search_budget=20)
        except ValueError:
            continue
        if res.verdict != "holds":
            continue
        for k in range(-6, 7):
            target = cmath.exp(1j * k * theta)
            if min(abs(q.value - target) for q in pairs) > 1e-8:
                return f"holds at theta={theta} but power {k} missing"
    return None


def _fixed_upper_bound_min(B: np.ndarray, G: np.ndarray, i: int) -> float:
    """LP oracle: minimal i-th coordinate over all fixed vectors dominating
    every column of G (variables are coefficients in the fixed-space basis)."""
    n, d = B.shape
    A_ub = []
    b_ub = []
    for g in G.T:
        A_ub.append(-B)
        b_ub.append(-g)
    res = linprog(
        c=B[i], A_ub=np.vstack(A_ub), b_ub=np.concatenate(b_ub),
        bounds=[(None, None)] * d, method="highs",
    )
    if not res.success:
        return np.inf  # solver failure: no certificate, do not flag
    return float(res.fun)


def _trial_fixed_space(rng: np.random.Generator, n: int) -> str | None:
    size = int(rng.integers(4, n + 1))
    T = random_markov_reducible(rng, size, blocks=2)
    h = fixed_space_handle(T)
    B = np.vstack([b.entries.real for b in h.basis]).T
    d = B.shape[1]
    G = B @ rng.standard_normal((d, 2))
    gs = [vec(G[:, 0]), vec(G[:, 1])]
    sup = sup_in_fixed_space(h, gs).entries.real
    if np.min(sup[:, None] - G) < -1e-8:
        return "computed supremum does not dominate the inputs"
    for i in range(size):
        lo = _fixed_upper_bound_min(B, G, i)
        if sup[i] > lo + 1e-6:
            return f"coordinate {i}: sup {sup[i]} exceeds LP optimum {lo}"
    return None


def _trial_lattice_powers(rng: np.random.Generator, n: int) -> str | None:
    size = int(rng.integers(1, n + 1))
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v[rng.random(size) < 0.2] = 0.0
    if not np.abs(v).max():
        v[0] = 1.0
    f = vec(v)
    a, b = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
    fa = lattice_power(f, a).entries
    fb = lattice_power(f, b).entries
    fab = lattice_power(f, a + b).entries
    mod = np.abs(v)
    if np.abs(np.abs(fa) - mod).max() > 1e-12 * max(1.0, mod.max()):
        return "modulus not preserved"
    supp = mod > 0
    lhs = fa[supp] * fb[supp] / mod[supp]
    if np.abs(lhs - fab[supp]).max() > 1e-12 * max(1.0, mod.max()):
        return "exponent additivity fails on the support"
    return None


def _trial_independence(rng: np.random.Generator, n: int) -> str | None:
    size = int(rng.integers(2, n + 1))
    count = int(rng.integers(1, min(4, size) + 1))
    # independent family without zero entries in the reduced rows is
    # generic; sample until full rank
    for _ in range(20):
        M = rng.standard_normal((count, size)) + 1j * rng.standard_normal(
            (count, size)
        )
        if np.linalg.matrix_rank(M) == count:
            break
    G = [vec(M[k]) for k in range(count)]
    p = int(rng.integers(-3, 4))
    if not independence_preserved(G, p):
        return f"rank lost under lattice power {p}"
    return None


def _suite_ws_coeffs(trials: int, seed: int, n: int) -> SuiteResult:
    """Deterministic: the built-in schemes must pass the normalization,
    positivity, and columnwise-decay checks."""
    failures = []
    kinds = [SchemeKind.POWERS, SchemeKind.ABEL_NET, SchemeKind.ABEL_POWERS,
             SchemeKind.CESARO, SchemeKind.EXPONENTIAL]
    for i, kind in enumerate(kinds):
        fam = builtin_scheme(kind)
        for s in fam.streams():
            if check_ws1(s) is not Verdict.PASS:
                failures.append((i, f"{kind.value}: normalization failed"))
                break
            if check_ws2(s) is not Verdict.PASS:
                failures.append((i, f"{kind.value}: negativity detected"))
                break
        else:
            if check_ws3(fam) not in (Verdict.PASS, Verdict.PASS_ON_PREFIX):
                failures.append((i, f"{kind.value}: columnwise decay failed"))
    total = len(kinds)
    return SuiteResult("ws-coeffs", total, total - len(failures),
                       tuple(failures))


_TRIALS = {
    "perron": _trial_perron,
    "cyclicity": _trial_cyclicity,
    "markov-dim": _trial_markov_dim,
    "daec-implies-cyclic": _trial_daec_implies_cyclic,
    "fixed-space": _trial_fixed_space,
    "lattice-powers": _trial_lattice_powers,
    "independence": _trial_independence,
}


def suite_names() -> list[str]:
    return list(_TRIALS) + ["ws-coeffs"]


def _run_indexed(suite: str, trials: int, seed: int, n: int
                 ) -> list[tuple[int, str]]:
    trial = _TRIALS[suite]
    failures = []
    for i in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        reason = trial(rng, n)
        if reason is not None:
            failures.append((i, reason))
    return failures


def run_suite(suite: str, trials: int = 100, seed: int = 0, n: int = 8
              ) -> SuiteResult:
    """Run a named suite over the sample indices 0..trials-1."""
    if suite == "ws-coeffs":
        return _suite_ws_coeffs(trials, seed, n)
    if suite not in _TRIALS:
        raise KeyError(f"unknown suite: {suite}")
    failures = _run_indexed(suite, trials, seed, n)
    return SuiteResult(suite, trials, trials - len(failures), tuple(failures))
