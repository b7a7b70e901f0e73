"""Dense operators on the coordinate models: norms, powers, Cesaro means,
resolvents, ideal restriction and the shift-multiplication blocks."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import LatticeVector, NormTag, SpaceModel

__all__ = [
    "OperatorMatrix",
    "op",
    "identity",
    "is_positive",
    "is_markov",
    "op_norm",
    "power",
    "cesaro_mean",
    "power_sums",
    "spectral_radius",
    "numerical_rank",
    "resolvent",
    "restrict_to_ideal",
    "ShiftMultSpec",
    "shift_mult_block",
    "symbol",
    "symbol_power",
    "cesaro_lower_bound",
    "direct_sum",
]

POS_TOL = 1e-12


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex square matrix attached to a SpaceModel."""

    entries: np.ndarray
    model: SpaceModel

    def __post_init__(self):
        A = np.array(self.entries, dtype=complex)
        n = self.model.dimension
        if A.shape != (n, n):
            raise ValueError(f"matrix shape {A.shape} != ({n}, {n})")
        A.setflags(write=False)
        object.__setattr__(self, "entries", A)

    @property
    def dim(self) -> int:
        return self.model.dimension

    def apply(self, v: LatticeVector) -> LatticeVector:
        if v.model != self.model:
            raise ValueError("model mismatch")
        return LatticeVector(self.entries @ v.entries, self.model)

    def to_json(self) -> dict:
        return {
            "model": self.model.to_json(),
            "entries": [
                [{"re": float(z.real), "im": float(z.imag)} for z in row]
                for row in self.entries
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "OperatorMatrix":
        model = SpaceModel.from_json(obj["model"])
        A = np.array(
            [[complex(e["re"], e.get("im", 0.0)) for e in row] for row in obj["entries"]]
        )
        if not np.isfinite(A).all():
            raise ValueError("operator entries must be finite")
        return OperatorMatrix(A, model)


def op(entries, norm_tag: NormTag = NormTag.SUP,
       model: SpaceModel | None = None) -> OperatorMatrix:
    """Build an OperatorMatrix, defaulting the model from the matrix size.
    OperatorMatrix makes the complex copy."""
    A = np.asarray(entries)
    if model is None:
        model = SpaceModel(A.shape[0], norm_tag)
    return OperatorMatrix(A, model)


def identity(n: int, norm_tag: NormTag = NormTag.SUP) -> OperatorMatrix:
    return op(np.eye(n), norm_tag)


def is_positive(T: OperatorMatrix, tol: float = POS_TOL) -> bool:
    A = T.entries
    return bool(np.max(np.abs(A.imag)) <= tol and A.real.min() >= -tol)


def is_markov(T: OperatorMatrix, tol: float = POS_TOL) -> bool:
    """Positive and row sums equal to 1; only meaningful on the C(K) model."""
    if T.model.norm_tag is not NormTag.SUP:
        raise ValueError("Markov check requires C(K) model")
    if not is_positive(T, tol):
        return False
    return bool(np.max(np.abs(T.entries.real.sum(axis=1) - 1.0)) <= tol)


def op_norm(T: OperatorMatrix) -> float:
    """Exact induced norm: max abs row sum (sup) or max abs column sum (one)."""
    A = np.abs(T.entries)
    if T.model.norm_tag is NormTag.SUP:
        return float(A.sum(axis=1).max())
    return float(A.sum(axis=0).max())


def power(T: OperatorMatrix, n: int) -> OperatorMatrix:
    if n < 0:
        raise ValueError("n must be >= 0")
    return OperatorMatrix(np.linalg.matrix_power(T.entries, n), T.model)


# doubles in the temporary a[k] * T^k of one chunk of rows: a cache budget
_CHUNK_DOUBLES = 2 ** 15


def power_sums(T: OperatorMatrix, rows: Sequence[np.ndarray]) -> np.ndarray:
    """Weighted power sums sum_k a[k] T^k, one n x n slice per real
    coefficient row a, from one walk over T^0..T^L (L + 1 the longest row).
    Sorted longest first, the rows still active at power k are a prefix, and
    they take a[k] T^k in chunks on the real view of the sums.  Every sum
    adds its terms in index order with two roundings per entry, so it does
    not depend on the other rows beside it."""
    R, n = len(rows), T.dim
    order = sorted(range(R), key=lambda i: -len(rows[i]))
    ends = [len(rows[i]) for i in order]
    C = np.zeros((R, ends[0] if R else 0))
    for r, i in enumerate(order):
        C[r, :ends[r]] = rows[i]
    sums = np.zeros((R, n, n), dtype=complex)
    flat = sums.view(float).reshape(R, 2 * n * n)
    step = max(1, _CHUNK_DOUBLES // (2 * n * n))
    active = R
    cur = np.eye(n, dtype=complex)
    for k in range(C.shape[1]):
        if k > 0:
            cur = T.entries @ cur
        while ends[active - 1] <= k:
            active -= 1
        term = cur.view(float).reshape(-1)
        for lo in range(0, active, step):
            hi = min(lo + step, active)
            flat[lo:hi] += C[lo:hi, k, None] * term
    return sums[np.argsort(order)]


def cesaro_mean(T: OperatorMatrix, n: int) -> OperatorMatrix:
    """(1/n) * sum_{k=0}^{n-1} T^k by accumulation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    (acc,) = power_sums(T, [np.ones(n)])
    return OperatorMatrix(acc / n, T.model)


def spectral_radius(T: OperatorMatrix) -> float:
    return float(np.abs(np.linalg.eigvals(T.entries)).max())


def numerical_rank(s: np.ndarray, atol: float = 0.0, rtol: float = 0.0) -> int:
    """How many of the nonincreasing singular values s exceed
    max(atol, rtol * s[0]).  This is the one rule for which singular values
    count as zero: vh[rank:] spans a kernel and u[:, :rank] a range."""
    if s.size == 0:
        return 0
    return int((s > max(atol, rtol * s[0])).sum())


def _pole_order(B: np.ndarray, s: np.ndarray, vh: np.ndarray, atol: float,
                cap: int) -> int:
    """Resolvent pole order at lam for B = lam - T, given B's SVD (s, vh):
    the number of nonzero steps of the Weyr staircase, at most cap.

    A step takes the nullity of M (first M = B) under numerical_rank at atol
    and compresses M onto its row space, M <- W M W^H with W = vh[:rank].
    The nullities are dim ker B^k - dim ker B^(k-1), read without forming a
    power of B, whose rounding would count as rank (Kagstrom & Ruhe 1980)."""
    order = 0
    while (rank := numerical_rank(s, atol)) < len(s):
        order += 1
        if order == cap:
            break
        W = vh[:rank]
        B = W @ B @ W.conj().T
        _, s, vh = np.linalg.svd(B)
    return order


def resolvent(T: OperatorMatrix, lam: complex) -> OperatorMatrix:
    """(lam - T)^(-1) by dense solve; rejects lam numerically in the spectrum."""
    A = lam * np.eye(T.dim) - T.entries
    I = np.eye(T.dim)
    try:
        R = np.linalg.solve(A, I)
    except np.linalg.LinAlgError as exc:
        raise ValueError("lambda in spectrum (numerically)") from exc
    residual = np.abs(A @ R - I).max()
    scale = max(1.0, np.abs(R).max() * np.abs(A).max())
    if not np.isfinite(R).all() or residual > 1e-8 * scale:
        raise ValueError("lambda in spectrum (numerically)")
    return OperatorMatrix(R, T.model)


def restrict_to_ideal(T: OperatorMatrix, x: LatticeVector,
                      tol: float = 1e-10) -> OperatorMatrix:
    """Submatrix of T on the support of x >= 0, provided that support is
    T-invariant.  The result carries a sup-norm model (AM-space with unit x)."""
    if x.model != T.model:
        raise ValueError("model mismatch")
    xr = x.entries.real
    if np.max(np.abs(x.entries.imag)) > tol or xr.min() < -tol:
        raise ValueError("ideal generator must be nonnegative")
    supp = xr > tol
    if not supp.any():
        raise ValueError("ideal generator must be nonzero")
    off = ~supp
    if off.any() and np.abs(T.entries[np.ix_(off, supp)]).max() > tol:
        raise ValueError("ideal not T-invariant")
    sub = T.entries[np.ix_(supp, supp)]
    labels = None
    if T.model.index_labels is not None:
        labels = tuple(l for l, s in zip(T.model.index_labels, supp) if s)
    return OperatorMatrix(sub, SpaceModel(int(supp.sum()), NormTag.SUP, labels))


# --- shift-multiplication blocks -------------------------------------------

@dataclass(frozen=True)
class ShiftMultSpec:
    """Block index m and truncation length N (>= m!+1) for the right-shift
    composed with the three-case multiplication symbol on l1."""

    m: int
    N: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.N < math.factorial(self.m) + 1:
            raise ValueError("N must be >= m!+1")


def symbol(spec: ShiftMultSpec) -> np.ndarray:
    """Multiplication symbol a_l (l = 1..N): 2^(1/(m-1)!) below m!, 2^(-m)
    at m!, 1 above."""
    m, N = spec.m, spec.N
    mf = math.factorial(m)
    base = 2.0 ** (1.0 / math.factorial(m - 1))
    a = np.ones(N)
    a[: mf - 1] = base
    a[mf - 1] = 2.0 ** (-m)
    return a


def symbol_power(spec: ShiftMultSpec, j: int) -> LatticeVector:
    """Closed-form symbol of the j-th power: the shifted-and-multiplied block
    factors as (shift^j) times a multiplication with this symbol."""
    if j < 0:
        raise ValueError("j must be >= 0")
    m, N = spec.m, spec.N
    mf = math.factorial(m)
    mm1f = math.factorial(m - 1)
    ls = np.arange(1, N + 1)
    a = np.ones(N)
    first = ls <= mf - j
    second = (ls > mf - j) & (ls <= mf)
    a[first] = 2.0 ** (j / mm1f)
    a[second] = 2.0 ** ((mf - ls[second]) / mm1f - m)
    model = SpaceModel(N, NormTag.ONE)
    return LatticeVector(a.astype(complex), model)


def shift_mult_block(spec: ShiftMultSpec) -> OperatorMatrix:
    """Truncated matrix of (right shift) . (multiplication by the symbol)."""
    N = spec.N
    a = symbol(spec)
    A = np.zeros((N, N))
    for i in range(N - 1):
        A[i + 1, i] = a[i]
    return op(A, NormTag.ONE)


def cesaro_lower_bound(m: int) -> float:
    """Closed-form lower bound c(m) for the Cesaro-mean norms of block m."""
    mm1f = math.factorial(m - 1)
    return (2.0 ** m - 1.0) / ((m + 1) * m) / (mm1f * (2.0 ** (1.0 / mm1f) - 1.0))


def direct_sum(blocks: Sequence[OperatorMatrix]) -> OperatorMatrix:
    """Block-diagonal sum; all blocks must share a norm tag."""
    if len(blocks) == 0:
        raise ValueError("empty direct sum")
    tag = blocks[0].model.norm_tag
    if any(b.model.norm_tag is not tag for b in blocks):
        raise ValueError("mixed norm tags in direct sum")
    n = sum(b.dim for b in blocks)
    A = np.zeros((n, n), dtype=complex)
    pos = 0
    for b in blocks:
        A[pos : pos + b.dim, pos : pos + b.dim] = b.entries
        pos += b.dim
    return op(A, tag)
