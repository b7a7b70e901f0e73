"""Analytic-weight calculus: coefficient streams, scheme families, the
normalization/positivity/decay checks and the boundedness probes."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .operators import OperatorMatrix, _pole_order, op_norm, power_sums, \
    spectral_radius

__all__ = [
    "Verdict",
    "CoeffStream",
    "SchemeKind",
    "SchemeFamily",
    "builtin_scheme",
    "check_ws1",
    "check_ws2",
    "check_ws3",
    "ProbeReport",
    "ws_bounded_probe",
    "weighted_scalar_sum",
    "pole_order_at",
]


class Verdict(str, enum.Enum):
    PASS = "pass"
    PASS_ON_PREFIX = "pass-on-prefix"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CoeffStream:
    """Coefficient sequence a_k of an analytic weight.

    `coeff(k)` returns a_k; `tail_bound(K)`, when available, bounds the mass
    beyond index K (needed to certify normalization from a finite prefix).
    """

    coeff: Callable[[int], float]
    tail_bound: Callable[[int], float] | None = None
    description: str = ""

    def coeffs(self, K: int) -> np.ndarray:
        return np.array([self.coeff(k) for k in range(K + 1)])


class SchemeKind(str, enum.Enum):
    POWERS = "powers"
    ABEL_NET = "abel_net"
    ABEL_POWERS = "abel_powers"
    CESARO = "cesaro"
    EXPONENTIAL = "exponential"
    CUSTOM = "custom"


@dataclass(frozen=True)
class SchemeFamily:
    """Indexed family of coefficient streams (a weighting scheme)."""

    index_set: tuple
    stream: Callable[[object], CoeffStream]
    kind: SchemeKind = SchemeKind.CUSTOM

    def streams(self) -> list[CoeffStream]:
        return [self.stream(j) for j in self.index_set]


def _powers_stream(j: int) -> CoeffStream:
    return CoeffStream(
        coeff=lambda k, j=j: 1.0 if k == j else 0.0,
        tail_bound=lambda K, j=j: 0.0 if K >= j else 1.0,
        description=f"monomial z^{j}",
    )


def _abel_stream(lam: float) -> CoeffStream:
    if lam <= 1.0:
        raise ValueError("Abel parameter must be > 1")
    return CoeffStream(
        coeff=lambda k, lam=lam: (lam - 1.0) / lam ** (k + 1),
        tail_bound=lambda K, lam=lam: lam ** (-(K + 1)),
        description=f"Abel weight, lambda={lam}",
    )


def _abel_powers_stream(lam: float, j: int) -> CoeffStream:
    if lam <= 1.0:
        raise ValueError("Abel parameter must be > 1")
    if j == 0:
        return _powers_stream(0)

    # binomial(j+k-1, k) * (lam-1)^j / lam^(j+k), multiplicative recurrence;
    # the products computed so far are kept, so a row of K+1 costs O(K)
    prefix = [((lam - 1.0) / lam) ** j]

    def coeff(k: int) -> float:
        for i in range(len(prefix), k + 1):
            prefix.append(prefix[-1] * ((j + i - 1) / i / lam))
        return prefix[k]

    def tail_bound(K: int, lam=lam, j=j) -> float:
        # ratio a_{k+1}/a_k = (j+k)/(k+1)/lam; geometric tail once ratio < 1
        q = (j + K + 1) / (K + 2) / lam
        if q >= 1.0:
            return 1.0
        return coeff(K + 1) / (1.0 - q)

    return CoeffStream(coeff, tail_bound, f"Abel weight power, lambda={lam}, j={j}")


def _cesaro_stream(j: int) -> CoeffStream:
    if j < 1:
        raise ValueError("Cesaro index must be >= 1")
    return CoeffStream(
        coeff=lambda k, j=j: 1.0 / j if k < j else 0.0,
        tail_bound=lambda K, j=j: 0.0 if K >= j - 1 else (j - 1 - K) / j,
        description=f"Cesaro mean of order {j}",
    )


def _exponential_stream(t: float) -> CoeffStream:
    if t < 0.0:
        raise ValueError("exponential parameter must be >= 0")

    def coeff(k: int, t=t) -> float:
        return math.exp(-t + k * math.log(t) - math.lgamma(k + 1)) if t > 0 else (
            1.0 if k == 0 else 0.0
        )

    def tail_bound(K: int, t=t) -> float:
        if t == 0.0:
            return 0.0
        if t >= K + 2:
            return 1.0
        return coeff(K + 1) / (1.0 - t / (K + 2))

    return CoeffStream(coeff, tail_bound, f"Poisson weight, t={t}")


def builtin_scheme(kind: SchemeKind | str, params: dict | None = None) -> SchemeFamily:
    """The five built-in scheme families with their coefficient formulas."""
    kind = SchemeKind(kind)
    params = dict(params or {})
    if kind is SchemeKind.POWERS:
        count = int(params.get("count", 20))
        return SchemeFamily(tuple(range(count)), lambda j: _powers_stream(j), kind)
    if kind is SchemeKind.ABEL_NET:
        if "lambdas" in params:
            lams = tuple(float(l) for l in params["lambdas"])
        else:
            count = int(params.get("count", 20))
            lams = tuple(1.0 + 1.0 / j for j in range(1, count + 1))
        if any(l <= 1.0 for l in lams):
            raise ValueError("Abel net parameters must be > 1")
        return SchemeFamily(lams, lambda lam: _abel_stream(lam), kind)
    if kind is SchemeKind.ABEL_POWERS:
        lam = float(params.get("lam", 2.0))
        count = int(params.get("count", 20))
        return SchemeFamily(
            tuple(range(count)), lambda j, lam=lam: _abel_powers_stream(lam, j), kind
        )
    if kind is SchemeKind.CESARO:
        count = int(params.get("count", 20))
        return SchemeFamily(
            tuple(range(1, count + 1)), lambda j: _cesaro_stream(j), kind
        )
    if kind is SchemeKind.EXPONENTIAL:
        if "t" in params:
            ts = tuple(float(t) for t in params["t"])
        else:
            count = int(params.get("count", 20))
            ts = tuple(float(j) for j in range(1, count + 1))
        if any(t < 0 for t in ts):
            raise ValueError("exponential parameters must be >= 0")
        if list(ts) != sorted(ts):
            raise ValueError("exponential parameters must be nondecreasing")
        return SchemeFamily(ts, lambda t: _exponential_stream(t), kind)
    raise ValueError("custom schemes are constructed directly, not via builtin_scheme")


def check_ws1(s: CoeffStream, K: int = 200, tol: float = 1e-10) -> Verdict:
    """Partial sums plus tail bound must bracket 1."""
    if K < 0:
        raise ValueError("K must be >= 0")
    if s.tail_bound is None:
        return Verdict.INCONCLUSIVE
    total = float(s.coeffs(K).sum())
    if abs(total - 1.0) <= tol + s.tail_bound(K):
        return Verdict.PASS
    return Verdict.FAIL


def check_ws2(s: CoeffStream, K: int = 200, tol: float = 1e-10) -> Verdict:
    if K < 0:
        raise ValueError("K must be >= 0")
    return Verdict.PASS if float(s.coeffs(K).min()) >= -tol else Verdict.FAIL


def check_ws3(fam: SchemeFamily, k_max: int = 10, tol: float = 0.1) -> Verdict:
    """Columnwise decay over the finite index prefix: for each k the sequence
    j -> a_{j,k} must be non-increasing on the tail half and end below tol.
    A limit statement cannot be decided from a prefix, so a positive result
    is reported as pass-on-prefix."""
    if len(fam.index_set) < 3:
        raise ValueError("index prefix must have length >= 3")
    streams = fam.streams()
    verdict = Verdict.PASS_ON_PREFIX
    for k in range(k_max + 1):
        col = np.array([s.coeff(k) for s in streams])
        tail = col[len(col) // 2 :]
        nonincreasing = bool(np.all(np.diff(tail) <= 1e-12))
        if tail[-1] > tol and not nonincreasing:
            return Verdict.FAIL
        if tail[-1] > tol and nonincreasing and tail[0] - tail[-1] <= 1e-12:
            # constant above tolerance: certain failure of decay
            return Verdict.FAIL
        if tail[-1] > tol or not nonincreasing:
            verdict = Verdict.INCONCLUSIVE
    return verdict


@dataclass(frozen=True)
class ProbeReport:
    """Finite-prefix evidence about boundedness of {f_j(T)}; never a proof."""

    indices: tuple
    norms: tuple[float, ...]
    max_norm: float
    growth_slope: float
    verdict: str  # bounded-evidence | growth-evidence | inconclusive


def ws_bounded_probe(T: OperatorMatrix, fam: SchemeFamily, K: int = 200,
                     budget: int = 20) -> ProbeReport:
    """Evaluate ||f_j(T)|| along the family prefix and classify the trend.

    The verdict is evidence only.  Polynomial growth n^(m-1) keeps a steady
    log-log slope, while a bounded family approaching a large limit shows a
    decaying slope; so the probe compares the slope over the late window
    against the earlier one and calls growth only when a slope >= 0.5
    persists."""
    if K < 0 or budget < 1:
        raise ValueError(f"need K >= 0 and budget >= 1, got {K} and {budget}")
    r = spectral_radius(T)
    # defective eigenvalues on the unit circle overshoot by ~eps^(1/m)
    if r > 1.0 + 1e-4:
        raise ValueError("spectral radius exceeds 1")
    indices = fam.index_set[:budget]
    if fam.kind is SchemeKind.CESARO:
        # unit rows divided by their order reproduce the running mean exactly
        sums = power_sums(T, [np.ones(j) for j in indices])
        sums = [acc / j for acc, j in zip(sums, indices)]
    else:
        # a row ends at its last nonzero coefficient: the walk stops there
        sums = power_sums(T, [np.trim_zeros(fam.stream(j).coeffs(K), "b")
                              for j in indices])
    norms = [op_norm(OperatorMatrix(acc, T.model)) for acc in sums]
    arr = np.array(norms)
    n = len(arr)
    if n < 6:
        return ProbeReport(tuple(indices), tuple(norms), float(arr.max()), 0.0,
                           "inconclusive")

    def _slope(lo: int, hi: int) -> float:
        js = np.arange(1, n + 1)[lo:hi]
        vals = np.maximum(arr[lo:hi], 1e-300)
        return float(np.polyfit(np.log(js), np.log(vals), 1)[0])

    tail_start = max(2, n // 5)
    mid = max(tail_start + 2, n // 2)
    slope = _slope(tail_start, n)
    early = _slope(tail_start, mid)
    late = _slope(mid, n)
    growing = late >= 0.5 and late >= 0.75 * early
    verdict = "growth-evidence" if growing else "bounded-evidence"
    return ProbeReport(tuple(indices), tuple(norms), float(arr.max()), slope, verdict)


def weighted_scalar_sum(fam: SchemeFamily, r_seq: Sequence[float], K: int
                        ) -> list[float]:
    """Per-index sums sum_{k<=K} a_{j,k} r_k for a nondecreasing r_k >= 0."""
    rs = np.asarray(r_seq, dtype=float)
    if rs.shape[0] < K + 1:
        raise ValueError("r_seq must cover indices 0..K")
    if np.any(np.diff(rs[: K + 1]) < 0):
        raise ValueError("r_seq must be nondecreasing")
    if rs.min() < 0:
        raise ValueError("r_seq must be nonnegative")
    out = []
    for j in fam.index_set:
        a = fam.stream(j).coeffs(K)
        out.append(float(a @ rs[: K + 1]))
    return out


def pole_order_at(T: OperatorMatrix, lam0: complex) -> int:
    """Resolvent pole order at an eigenvalue: smallest m with
    rank((lam0 - T)^m) = rank((lam0 - T)^(m+1)) (largest Jordan block), from
    the Weyr staircase of one SVD of lam0 - T.

    lam0 is an eigenvalue when lam0 - T is rank deficient at the cut
    n*eps*1e3 * (|lam0| + ||lam0 - T||_2), rounding at the size of T
    (||T||_2 is at most that sum); every step of the staircase uses the same
    cut.  A cut at ||lam0 - T||_2 alone would read rounding as rank when T is
    lam0 times the identity up to rounding."""
    n = T.dim
    B = lam0 * np.eye(n) - T.entries
    _, s, vh = np.linalg.svd(B)
    order = _pole_order(B, s, vh,
                        n * np.finfo(float).eps * 1e3 * (abs(lam0) + s[0]), n)
    if order == 0:
        raise ValueError("lambda not in spectrum")
    return order
