"""Constructive fixed-space order theory for Markov matrices: suprema inside
F = ker(1-T) by monotone iteration, the AM-norm identities, sublattice
detection and the finite demonstration that suprema can fail to exist in the
non-order-complete extension."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeVector, NormTag, SpaceModel, entrywise_sup, modulus
from .operators import OperatorMatrix, is_markov, op

__all__ = [
    "FixedSpaceHandle",
    "fixed_space_handle",
    "sup_in_fixed_space",
    "f_modulus",
    "AmIdentityReport",
    "am_identity_check",
    "is_fixed_space_sublattice",
    "extended_markov_operator",
    "WitnessStep",
    "no_supremum_witness",
]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class FixedSpaceHandle:
    """A Markov matrix together with a real basis of its fixed space."""

    T: OperatorMatrix
    basis: tuple[LatticeVector, ...]
    tol: float

    @property
    def dim(self) -> int:
        return len(self.basis)


def _real_kernel_basis(A: np.ndarray, tol: float) -> np.ndarray:
    """Real row basis of ker(A) for real A, in reduced echelon form with
    max-abs pivoting (rows are pivot-normalized for canonical witnesses)."""
    _, s, vh = np.linalg.svd(A)
    s = np.concatenate([s, np.zeros(A.shape[1] - s.shape[0])])
    thresh = max(tol, A.shape[1] * _EPS * max(1.0, s[0] if s.size else 0.0) * 1e3)
    kern = vh[s <= thresh]
    # the kernel of a real matrix splits into real and imaginary parts
    rows = np.vstack([kern.real, kern.imag])
    # reduced echelon form with leftmost-column pivoting: gives a canonical
    # spanning set independent of the SVD's choice of kernel vectors
    work = rows.copy()
    m, d = work.shape
    r = 0
    for j in range(d):
        if r >= m:
            break
        i = r + int(np.argmax(np.abs(work[r:, j])))
        if abs(work[i, j]) <= 1e-9:
            continue
        work[[r, i]] = work[[i, r]]
        work[r] = work[r] / work[r, j]
        for k in range(m):
            if k != r:
                work[k] = work[k] - work[k, j] * work[r]
        r += 1
    return work[:r] if r else np.zeros((0, d))


def fixed_space_handle(T: OperatorMatrix, tol: float = 1e-9) -> FixedSpaceHandle:
    """Validate the Markov property and compute a real fixed-space basis."""
    if not is_markov(T, tol=max(tol, 1e-9)):
        raise ValueError("operator is not Markov")
    A = np.eye(T.dim) - T.entries.real
    rows = _real_kernel_basis(A, tol)
    basis = tuple(LatticeVector(r.astype(complex), T.model) for r in rows)
    for b in basis:
        if np.abs(T.entries.real @ b.entries.real - b.entries.real).max() > 1e-7:
            raise ValueError("fixed-space basis residual too large")
    return FixedSpaceHandle(T, basis, tol)


def _check_fixed(h: FixedSpaceHandle, g: LatticeVector) -> np.ndarray:
    if g.model != h.T.model:
        raise ValueError("model mismatch")
    if not g.is_real(tol=max(h.tol, 1e-9)):
        raise ValueError("fixed vectors must be real")
    v = g.entries.real
    scale = max(1.0, np.abs(v).max())
    if np.abs(h.T.entries.real @ v - v).max() > max(h.tol, 1e-9) * scale:
        raise ValueError("input vector is not fixed")
    return v


def sup_in_fixed_space(h: FixedSpaceHandle, G, tol: float = 1e-12,
                       max_iter: int = 10 ** 6) -> LatticeVector:
    """Supremum of a family of fixed vectors inside F = ker(1-T).

    The entrywise supremum h0 of the family satisfies h0 <= T h0 (each member
    g = Tg <= T h0), so the orbit T^n h0 is nondecreasing and bounded by
    (max norm) * 1; its limit is a fixed point below every fixed upper bound,
    i.e. the supremum in F.  The power is advanced by repeated squaring."""
    vs = [LatticeVector(_check_fixed(h, g).astype(complex), h.T.model) for g in G]
    cur = entrywise_sup(vs).entries.real
    A = h.T.entries.real
    B = A
    steps = 1
    for _ in range(64):
        nxt = B @ cur
        if np.min(nxt - cur) < -max(tol, 1e-9):
            raise ValueError("iteration lost monotonicity")
        cur = nxt
        if np.abs(A @ cur - cur).max() <= tol:
            return LatticeVector(cur.astype(complex), h.T.model)
        if steps < max_iter:
            B = B @ B
            steps *= 2
    raise ValueError("monotone iteration did not converge")


def f_modulus(h: FixedSpaceHandle, f: LatticeVector, tol: float = 1e-12
              ) -> LatticeVector:
    """Modulus of a fixed vector taken inside F: the F-supremum of +-f."""
    neg = LatticeVector(-f.entries, f.model)
    out = sup_in_fixed_space(h, [f, neg], tol=tol)
    if abs(out.norm() - modulus(f).norm()) > max(1e-8, 100 * tol):
        raise ValueError("modulus norm identity violated")
    return out


@dataclass(frozen=True)
class AmIdentityReport:
    sup_f_norm: float
    pointwise_sup_norm: float
    max_of_norms: float
    ok: bool


def am_identity_check(h: FixedSpaceHandle, g1: LatticeVector, g2: LatticeVector,
                      tol: float = 1e-8) -> AmIdentityReport:
    """AM-norm chain for nonnegative fixed vectors:
    ||g1 v_F g2|| = ||g1 v g2|| = max(||g1||, ||g2||)."""
    for g in (g1, g2):
        v = _check_fixed(h, g)
        if v.min() < -max(h.tol, 1e-9):
            raise ValueError("inputs must be nonnegative")
    sup_f = sup_in_fixed_space(h, [g1, g2])
    a = sup_f.norm()
    b = entrywise_sup([g1, g2]).norm()
    c = max(g1.norm(), g2.norm())
    ok = abs(a - b) <= tol and abs(b - c) <= tol
    return AmIdentityReport(a, b, c, ok)


def is_fixed_space_sublattice(h: FixedSpaceHandle, tol: float = 1e-8
                              ) -> tuple[bool, LatticeVector | None]:
    """True iff the modulus of every spanning vector of F stays in F; the
    witness is the first basis vector whose entrywise modulus leaves F."""
    if not h.basis:
        return True, None
    B = np.vstack([b.entries.real for b in h.basis]).T
    candidates = [b.entries.real for b in h.basis]
    for i in range(len(h.basis)):
        for j in range(i + 1, len(h.basis)):
            candidates.append(candidates[i] + candidates[j])
            candidates.append(candidates[i] - candidates[j])
    for v in candidates:
        m = np.abs(v)
        coeffs, *_ = np.linalg.lstsq(B, m, rcond=None)
        resid = np.abs(B @ coeffs - m).max()
        if resid > tol * max(1.0, np.abs(m).max()):
            return False, LatticeVector(v.astype(complex), h.T.model)
    return True, None


# --- the non-order-complete extension ---------------------------------------

def extended_markov_operator(base: OperatorMatrix, N: int,
                             feed_index: int = 1) -> OperatorMatrix:
    """Markov matrix on 3 + N + N coordinates modelling the extension
    (f, g, h) -> (T f, (f_feed, g_1, ..., g_{N-1}), h) of a base Markov
    operator by two truncated convergent sequences tied at their far ends."""
    if N < 2:
        raise ValueError("N must be >= 2")
    n0 = base.dim
    n = n0 + 2 * N
    A = np.zeros((n, n))
    A[:n0, :n0] = base.entries.real
    A[n0, feed_index] = 1.0
    for k in range(1, N):
        A[n0 + k, n0 + k - 1] = 1.0
    for k in range(N):
        A[n0 + N + k, n0 + N + k] = 1.0
    return op(A, NormTag.SUP)


@dataclass(frozen=True)
class WitnessStep:
    vector: LatticeVector
    decreased_coordinate: int | None
    fixed_residual: float
    tie_defect: float

    def to_json(self) -> dict:
        return {
            "vector": self.vector.to_json(),
            "decreased_coordinate": self.decreased_coordinate,
            "fixed_residual": self.fixed_residual,
            "tie_defect": self.tie_defect,
        }


def no_supremum_witness(h_extended: FixedSpaceHandle, f: LatticeVector,
                        depth: int, base_dim: int = 3) -> list[WitnessStep]:
    """A strictly decreasing chain of fixed upper bounds of +-(f, 0, 0).

    Each chain element keeps the base supremum and the shifted-constant middle
    block but zeroes out one more leading coordinate of the free tail block,
    staying an upper bound; the chain is evidence (at truncation N) that no
    least upper bound exists.  Errors when depth reaches the resolution."""
    n = h_extended.T.dim
    N = (n - base_dim) // 2
    if base_dim + 2 * N != n:
        raise ValueError("handle does not carry an extension operator")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth >= N:
        raise ValueError("depth exceeding truncation resolution")
    if f.model.dimension != base_dim:
        raise ValueError("f must live on the base block")

    base = OperatorMatrix(h_extended.T.entries[:base_dim, :base_dim],
                          SpaceModel(base_dim, NormTag.SUP))
    hb = fixed_space_handle(base)
    neg = LatticeVector(-f.entries, f.model)
    fsup = sup_in_fixed_space(hb, [f, neg]).entries.real
    level = float(fsup[1])

    A = h_extended.T.entries.real
    embedded = np.zeros(n)
    embedded[:base_dim] = np.abs(f.entries.real)
    chain = []
    prev = None
    for d in range(depth):
        v = np.zeros(n)
        v[:base_dim] = fsup
        v[base_dim : base_dim + N] = level
        v[base_dim + N + d :] = level
        resid = float(np.abs(A @ v - v).max())
        tie = float(abs(v[base_dim + N - 1] - v[-1]))
        if np.min(v - embedded) < -1e-12:
            raise ValueError("chain element is not an upper bound")
        if prev is not None and not (
            np.all(v <= prev + 1e-12) and np.min(v - prev) < -1e-12
        ):
            raise ValueError("chain is not strictly decreasing")
        chain.append(
            WitnessStep(
                LatticeVector(v.astype(complex), h_extended.T.model),
                None if d == 0 else base_dim + N + d - 1,
                resid,
                tie,
            )
        )
        prev = v
    return chain
