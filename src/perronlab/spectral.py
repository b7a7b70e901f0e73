"""Eigenstructure, peripheral sets, cyclicity, eigenspace-dimension
estimates, mean ergodic projections, dominated-eigenvector checks and the
resolvent-growth-ratio probe."""
from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .lattice import LatticeVector
from .operators import OperatorMatrix, numerical_rank, op_norm, resolvent, \
    restrict_to_ideal
from .schemes import _pole_order

__all__ = [
    "EigenPair",
    "SpectralReport",
    "eigen",
    "analyze",
    "peripheral_spectrum",
    "rational_angle",
    "CyclicResult",
    "is_cyclic",
    "DimVerdict",
    "constrained_kernel",
    "dim_estimate_check",
    "dim_estimate_verdicts",
    "dim_estimate_check_in_ideal",
    "rational_peripheral_point_spectrum",
    "mean_ergodic_projection",
    "DaecResult",
    "daec_check",
    "daec_check_adjoint",
    "resolvent_growth_ratio",
]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class EigenPair:
    value: complex
    alg_mult: int
    geo_mult: int
    basis: tuple[LatticeVector, ...]
    pole_order: int

    def to_json(self) -> dict:
        return {
            "value": {"re": self.value.real, "im": self.value.imag},
            "alg_mult": self.alg_mult,
            "geo_mult": self.geo_mult,
            "pole_order": self.pole_order,
            "basis": [v.to_json() for v in self.basis],
        }


def _cluster_eigenvalues(w: np.ndarray, scale: float,
                         cluster_tol: float) -> list[np.ndarray]:
    """Agglomerative clustering of computed eigenvalues.

    Starts from the base tolerance and then merges groups whose distance is
    compatible with the eps^(1/k) perturbation of a defective cluster of
    combined size k; repeated eigenvalues in a Jordan block would otherwise
    split into a ring and be reported with the wrong multiplicity.

    Each cluster's mean is cached but always taken with `np.mean` over its
    members, and distances use `np.hypot`, which equals the scalar complex
    `abs` bit for bit (`np.abs` on a complex array may not).
    """
    def dist(z: np.ndarray) -> np.ndarray:
        return np.hypot(z.real, z.imag)

    order = np.argsort(w.real * 1e6 + w.imag)  # deterministic ordering
    clusters: list[list] = []
    means = np.empty(len(w), dtype=w.dtype)
    for lam in w[order]:
        hit = np.flatnonzero(dist(means[:len(clusters)] - lam) <= cluster_tol)
        i = hit[0] if hit.size else len(clusters)
        if i == len(clusters):
            clusters.append([])
        clusters[i].append(lam)
        means[i] = np.mean(clusters[i])
    n = len(clusters)
    # distances of means i < j; a merged-away cluster keeps its index with
    # an infinite mean, so the others keep their row-major order
    means = means[:n]
    D = dist(means[:, None] - means[None, :])
    D[np.tril_indices(n)] = np.inf
    for _ in range(n - 1):
        i, j = divmod(int(np.argmin(D)), n)  # the first closest pair
        k = len(clusters[i]) + len(clusters[j])
        # a defective cluster of size >= k+1 scatters like eps^(1/(k+1));
        # the cap keeps genuinely separated eigenvalues apart
        defect_radius = min(
            30.0 * k * (_EPS * max(1.0, scale)) ** (1.0 / (k + 1)), 5e-3
        )
        if not D[i, j] <= max(cluster_tol, defect_radius):
            break
        clusters[i] += clusters[j]
        clusters[j] = []
        means[i], means[j] = np.mean(clusters[i]), np.inf
        row = dist(means[i] - means)
        D[j, :] = D[:, j] = np.inf
        D[i, i + 1:], D[:i, i] = row[i + 1:], row[:i]
    return [np.array(c) for c in clusters if c]


def eigen(T: OperatorMatrix, cluster_tol: float | None = None) -> list[EigenPair]:
    """All eigenvalues with algebraic/geometric multiplicities, geometric
    bases (via SVD kernels) and resolvent pole orders (rank stabilization)."""
    A = T.entries
    n = T.dim
    w = np.linalg.eigvals(A)
    r = float(np.abs(w).max()) if n else 0.0
    scale = max(1.0, float(np.abs(A).max()))
    if cluster_tol is None:
        cluster_tol = 1e-7 * max(1.0, r)
    pairs = []
    for cluster in _cluster_eigenvalues(w, scale, cluster_tol):
        value = complex(np.mean(cluster))
        alg = len(cluster)
        B = value * np.eye(n) - A
        thresh = max(1e-8 * scale, n * _EPS * scale * 1e3)
        _, s, vh = np.linalg.svd(B)
        # at full rank, fall back to the best near-null direction
        kern = vh[min(numerical_rank(s, thresh), n - 1):].conj().T
        geo = min(kern.shape[1], alg)
        basis = tuple(LatticeVector(kern[:, j], T.model) for j in range(geo))
        # the pole order is at most the algebraic multiplicity
        pairs.append(EigenPair(value, alg, geo, basis, _pole_order(B, alg)))
    pairs.sort(key=lambda p: (-abs(p.value), cmath.phase(p.value)))
    return pairs


@dataclass(frozen=True)
class CyclicResult:
    verdict: str  # cyclic | not_cyclic | inconclusive
    witness: complex | None = None


@dataclass(frozen=True)
class DimVerdict:
    theta: float
    n: int
    dim_source: int
    dim_target: int
    ok: bool

    def to_json(self) -> dict:
        return {"theta": self.theta, "n": self.n, "dim_source": self.dim_source,
                "dim_target": self.dim_target, "ok": self.ok}


@dataclass(frozen=True)
class SpectralReport:
    pairs: tuple[EigenPair, ...]
    spectral_radius: float
    peripheral: tuple[EigenPair, ...]
    cyclic: CyclicResult | None = None
    dim_verdicts: tuple[DimVerdict, ...] = ()

    def to_json(self) -> dict:
        out = {
            "spectral_radius": self.spectral_radius,
            "pairs": [p.to_json() for p in self.pairs],
            "peripheral": [
                {"re": p.value.real, "im": p.value.imag} for p in self.peripheral
            ],
        }
        if self.cyclic is not None:
            out["cyclic"] = {
                "verdict": self.cyclic.verdict,
                "witness": None
                if self.cyclic.witness is None
                else {"re": self.cyclic.witness.real, "im": self.cyclic.witness.imag},
            }
        out["dim_verdicts"] = [v.to_json() for v in self.dim_verdicts]
        return out


def peripheral_spectrum(pairs: Sequence[EigenPair],
                        band_tol: float = 1e-8) -> list[EigenPair]:
    if not pairs:
        return []
    r = max(abs(p.value) for p in pairs)
    return [p for p in pairs if abs(p.value) >= r - band_tol]


def analyze(T: OperatorMatrix, band_tol: float = 1e-8, q_max: int = 64,
            tol: float = 1e-8, n_range: Sequence[int] | None = None,
            dim_check: bool = False) -> SpectralReport:
    """Full spectral report: eigen data, peripheral set, cyclicity verdict
    and (optionally) the eigenspace-dimension estimates."""
    pairs = eigen(T)
    r = max(abs(p.value) for p in pairs)
    per = peripheral_spectrum(pairs, band_tol * max(1.0, r))
    cyc = is_cyclic([p.value for p in per], r, tol=max(tol, band_tol), q_max=q_max)
    verdicts = ()
    if dim_check:
        if n_range is None:
            n_range = range(-6, 7)
        verdicts = tuple(_dim_verdicts_from_pairs(pairs, r, tol, n_range, q_max))
    return SpectralReport(tuple(pairs), r, tuple(per), cyc, verdicts)


def rational_angle(theta: float, q_max: int = 64,
                   window: float = 1e-9) -> Fraction | None:
    """Recover theta/2pi as p/q with q <= q_max via continued fractions;
    None when no convergent lands inside the acceptance window."""
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    t = (theta / (2.0 * math.pi)) % 1.0
    frac = Fraction(t).limit_denominator(q_max)
    diff = abs(t - float(frac))
    diff = min(diff, 1.0 - diff)  # wrap-around at 0 ~ 1
    if diff < window:
        return Fraction(frac.numerator % frac.denominator, frac.denominator) \
            if frac.denominator > 1 else Fraction(0, 1)
    return None


def is_cyclic(values: Sequence[complex], r: float, tol: float = 1e-8,
              q_max: int = 64) -> CyclicResult:
    """Closure check for a finite set on the circle of radius r: every
    element's integer angle powers must stay in the set."""
    vals = [complex(v) for v in values]
    if not vals:
        return CyclicResult("cyclic")
    if r <= tol:
        return CyclicResult("inconclusive")
    for v in vals:
        if abs(abs(v) - r) > tol * max(1.0, r):
            raise ValueError("set not contained in the circle of radius r")
    for v in vals:
        frac = rational_angle(cmath.phase(v / r), q_max=q_max)
        if frac is None:
            # a finite set cannot contain all powers of an irrational angle
            return CyclicResult("not_cyclic", v)
        q = frac.denominator
        for n in range(2, q + 1):
            target = r * cmath.exp(2j * math.pi * n * frac.numerator / q)
            if min(abs(t - target) for t in vals) > tol * max(1.0, r):
                return CyclicResult("not_cyclic", target)
    return CyclicResult("cyclic")


def _dim_verdicts_from_pairs(pairs: Sequence[EigenPair], r: float, tol: float,
                             n_range: Sequence[int], q_max: int
                             ) -> list[DimVerdict]:
    per = peripheral_spectrum(pairs, max(tol, 1e-8) * max(1.0, r))
    angle_dims = []
    for p in per:
        theta = cmath.phase(p.value / r)
        frac = rational_angle(theta, q_max=q_max)
        if frac is not None:
            theta = 2.0 * math.pi * float(frac)
        angle_dims.append((theta, p.geo_mult))
    return dim_estimate_verdicts(angle_dims, pairs, r, tol, n_range)


def dim_estimate_verdicts(angle_dims: Sequence[tuple[float, int]],
                          pairs: Sequence[EigenPair], r: float, tol: float,
                          n_range: Sequence[int]) -> list[DimVerdict]:
    """Compare geometric dimensions at angle theta against every power
    n*theta; an absent eigenvalue counts as dimension zero."""
    out = []
    for theta, d in angle_dims:
        for n in n_range:
            target = r * cmath.exp(1j * n * theta)
            dn = 0
            for p in pairs:
                if abs(p.value - target) <= max(tol, 1e-8) * max(1.0, r):
                    dn = p.geo_mult
                    break
            out.append(DimVerdict(theta, n, d, dn, d <= dn))
    return out


def constrained_kernel(T: OperatorMatrix, lam: complex,
                       constraints: np.ndarray,
                       tol: float = 1e-8) -> tuple[int, np.ndarray, float]:
    """Kernel of (lam - T) intersected with extra linear constraint rows
    (used to model decay/continuity conditions that a plain truncation
    cannot express).

    The bare numerical kernel is computed first; the constraints are then
    solved inside it.  Returns (dimension, basis columns, certificate):
    the certificate is the smallest singular value of the constraint map
    restricted to the bare kernel (bounded away from zero exactly when the
    constraints kill the whole kernel), or of (lam - T) itself when the
    bare kernel is already trivial."""
    A = lam * np.eye(T.dim) - T.entries
    _, s, vh = np.linalg.svd(A)
    V = vh[numerical_rank(s, tol, tol):].conj().T  # bare kernel, columns
    if V.shape[1] == 0:
        return 0, V, float(s[-1])
    return _constrain(V, constraints, tol)


def _constrain(V: np.ndarray, constraints: np.ndarray,
               tol: float) -> tuple[int, np.ndarray, float]:
    """The constraint step of constrained_kernel on a nonempty bare kernel
    with orthonormal columns V."""
    C = np.atleast_2d(constraints) @ V
    _, sc, vc = np.linalg.svd(C)
    sc = np.concatenate([sc, np.zeros(V.shape[1] - len(sc))])
    basis = V @ vc[numerical_rank(sc, tol, tol):].conj().T
    certificate = float(sc.min())
    return basis.shape[1], basis, certificate


def dim_estimate_check(T: OperatorMatrix, tol: float = 1e-8,
                       n_range: Sequence[int] | None = None,
                       q_max: int = 64,
                       constraints: np.ndarray | None = None
                       ) -> list[DimVerdict]:
    """Peripheral eigenspace-dimension estimates for an operator normalized
    to spectral radius 1 (the caller rescales).

    Optional constraint rows restrict every kernel before counting
    dimensions; this is how tail-decay conditions enter at truncation."""
    pairs = eigen(T)
    r = max(abs(p.value) for p in pairs)
    if r <= tol:
        raise ValueError("spectral radius is zero")
    if n_range is None:
        n_range = range(-6, 7)
    if constraints is not None:
        pairs = [
            dataclasses.replace(
                p, geo_mult=constrained_kernel(T, p.value, constraints,
                                               tol=max(tol, 1e-8))[0]
            )
            for p in pairs
        ]
        pairs = [p for p in pairs if p.geo_mult > 0 or abs(p.value) < r - 1e-8]
    return _dim_verdicts_from_pairs(pairs, r, tol, n_range, q_max)


def dim_estimate_check_in_ideal(T: OperatorMatrix, x: LatticeVector,
                                tol: float = 1e-8,
                                n_range: Sequence[int] | None = None
                                ) -> list[DimVerdict]:
    """Dimension estimates inside the principal ideal generated by a
    nonnegative fixed vector x of T (eigenvalue r recovered from x)."""
    Tx = T.entries @ x.entries
    xr = np.abs(x.entries)
    supp = xr > tol * max(1.0, xr.max())
    ratios = (Tx[supp] / x.entries[supp]).real
    r = float(np.mean(ratios))
    if np.max(np.abs(Tx - r * x.entries)) > max(tol, 1e-8) * max(1.0, r) * max(
        1.0, xr.max()
    ):
        raise ValueError("x is not a fixed vector (up to scaling)")
    sub = restrict_to_ideal(T, x, tol=tol)
    scaled = OperatorMatrix(sub.entries / r, sub.model)
    return dim_estimate_check(scaled, tol=tol, n_range=n_range)


def rational_peripheral_point_spectrum(pairs: Sequence[EigenPair],
                                       q_max: int = 64,
                                       band_tol: float = 1e-8) -> list[complex]:
    """Peripheral eigenvalues whose angle is a rational multiple of 2pi."""
    per = peripheral_spectrum(pairs, band_tol)
    if not per:
        return []
    r = max(abs(p.value) for p in per)
    out = []
    for p in per:
        if rational_angle(cmath.phase(p.value / r), q_max=q_max) is not None:
            out.append(p.value)
    return out


def mean_ergodic_projection(T: OperatorMatrix, tol: float = 1e-9
                            ) -> tuple[OperatorMatrix | None, str]:
    """Limit of the Cesaro means, when it exists.

    Exists iff every peripheral (unimodular) eigenvalue is a first-order
    resolvent pole; then it is the spectral projection onto ker(1-T) along
    range(1-T).  Returns (None, diagnostic) otherwise."""
    pairs = eigen(T)
    r = max(abs(p.value) for p in pairs)
    if r > 1.0 + max(tol, 1e-8):
        raise ValueError("spectral radius exceeds 1")
    for p in pairs:
        if abs(abs(p.value) - 1.0) <= 1e-8 and p.pole_order > 1:
            return None, (
                f"peripheral eigenvalue {p.value:.6g} has resolvent pole order "
                f"{p.pole_order}; Cesaro means diverge"
            )
    n = T.dim
    fixed = [p for p in pairs if abs(p.value - 1.0) <= 1e-8]
    if not fixed:
        return OperatorMatrix(np.zeros((n, n)), T.model), "no fixed space"
    U = np.column_stack([v.entries for v in fixed[0].basis])
    B = np.eye(n) - T.entries
    # column space of (1 - T): complement of the fixed space
    q, s, _ = np.linalg.svd(B)
    c = n * _EPS * 1e3
    W = q[:, :numerical_rank(s, max(tol, c), c)]
    M = np.linalg.solve(np.column_stack([U, W]), np.eye(n))
    P = U @ M[: U.shape[1], :]
    return OperatorMatrix(P, T.model), "ok"


@dataclass(frozen=True)
class DaecResult:
    verdict: str  # holds | fails | inconclusive
    witness: tuple[LatticeVector, LatticeVector] | None
    provable: bool


def _find_pair(pairs: Sequence[EigenPair], value: complex,
               tol: float) -> EigenPair | None:
    best = None
    for p in pairs:
        d = abs(p.value - value)
        if d <= tol and (best is None or d < abs(best.value - value)):
            best = p
    return best


def _real_nonneg_representative(v: np.ndarray, tol: float) -> np.ndarray | None:
    """Rotate a vector by a global phase to make it entrywise >= 0, if
    possible (up to tol)."""
    idx = int(np.argmax(np.abs(v)))
    phase = v[idx] / abs(v[idx])
    u = v / phase
    if np.max(np.abs(u.imag)) > tol or u.real.min() < -tol:
        return None
    return np.maximum(u.real, 0.0)


def _dominating_fixed_vector(X: np.ndarray, target: np.ndarray,
                             tol: float) -> np.ndarray | None:
    """LP feasibility: find a real vector in the column span of X that
    dominates `target` entrywise (target >= 0)."""
    n, d = X.shape
    # variables: real and imaginary parts of the d complex coefficients
    A_re = np.hstack([X.real, -X.imag])
    A_im = np.hstack([X.imag, X.real])
    res = linprog(
        c=np.zeros(2 * d),
        A_ub=-A_re,
        b_ub=-(target + 0.0),
        A_eq=A_im,
        b_eq=np.zeros(n),
        bounds=[(None, None)] * (2 * d),
        method="highs",
    )
    if not res.success:
        return None
    x = A_re @ res.x
    if x.min() < -tol:
        return None
    return x


def daec_check(T: OperatorMatrix, r: float, theta: float, tol: float = 1e-8,
               search_budget: int = 200, seed: int = 0) -> DaecResult:
    """Dominated-eigenvector check between the eigenvalues r*e^(i*theta)
    and r: look for eigenvectors z, x with x >= 0 and |z| <= x.

    Exact (provable either way) when both eigenspaces are one-dimensional;
    otherwise a bounded randomized feasibility search whose failures report
    `inconclusive`."""
    pairs = eigen(T)
    lam = r * cmath.exp(1j * theta)
    match_tol = max(tol, 1e-7) * max(1.0, r)
    pz = _find_pair(pairs, lam, match_tol)
    px = _find_pair(pairs, complex(r), match_tol)
    if pz is None or px is None:
        raise ValueError("eigenvalue absent")
    Z = np.column_stack([v.entries for v in pz.basis])
    X = np.column_stack([v.entries for v in px.basis])
    scale_tol = max(tol, 1e-9)

    if Z.shape[1] == 1 and X.shape[1] == 1:
        z = Z[:, 0]
        x = _real_nonneg_representative(X[:, 0], scale_tol)
        if x is None:
            return DaecResult("fails", None, True)
        az = np.abs(z)
        supp_z = az > scale_tol * az.max()
        if np.any(x[supp_z] <= scale_tol * max(1.0, x.max())):
            return DaecResult("fails", None, True)
        beta = float(np.max(az[supp_z] / x[supp_z]))
        wit_x = beta * x
        return DaecResult(
            "holds",
            (LatticeVector(z, T.model), LatticeVector(wit_x.astype(complex), T.model)),
            True,
        )

    rng = np.random.default_rng(seed)
    for trial in range(search_budget):
        if trial == 0:
            c = np.ones(Z.shape[1], dtype=complex)
        else:
            c = rng.standard_normal(Z.shape[1]) + 1j * rng.standard_normal(Z.shape[1])
        z = Z @ c
        if np.abs(z).max() <= 0:
            continue
        z = z / np.abs(z).max()
        x = _dominating_fixed_vector(X, np.abs(z), scale_tol)
        if x is not None:
            return DaecResult(
                "holds",
                (LatticeVector(z, T.model),
                 LatticeVector(x.astype(complex), T.model)),
                False,
            )
    return DaecResult("inconclusive", None, False)


def daec_check_adjoint(T: OperatorMatrix, r: float, theta: float,
                       tol: float = 1e-8, search_budget: int = 200,
                       seed: int = 0) -> DaecResult:
    """The dominated-eigenvector check for the (finite-dimensional) adjoint."""
    Tad = OperatorMatrix(T.entries.conj().T, T.model)
    return daec_check(Tad, r, theta, tol=tol, search_budget=search_budget,
                      seed=seed)


def resolvent_growth_ratio(T: OperatorMatrix, theta: float,
                           r_schedule: Sequence[float]
                           ) -> tuple[list[tuple[float, float]], float]:
    """Ratios ||R(r e^(i theta), T)|| / ||R(r, T)|| along a schedule of radii
    decreasing to 1; the limsup is estimated by the max over the tail half."""
    rs = list(r_schedule)
    if any(r <= 1.0 for r in rs):
        raise ValueError("schedule must stay strictly above 1")
    if any(b >= a for a, b in zip(rs, rs[1:])) and len(rs) > 1:
        if not all(b < a for a, b in zip(rs, rs[1:])):
            raise ValueError("schedule must be strictly decreasing")
    out = []
    for r in rs:
        num = op_norm(resolvent(T, r * cmath.exp(1j * theta)))
        den = op_norm(resolvent(T, r))
        out.append((float(r), float(num / den)))
    tail = out[len(out) // 2 :]
    limsup = max(ratio for _, ratio in tail)
    return out, limsup
