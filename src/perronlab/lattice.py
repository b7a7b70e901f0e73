"""Finite-dimensional complex vector-lattice primitives.

All spaces are coordinate lattices with the entrywise order.  A C(K)-type
space is modelled by the sup-norm, an l1-type space by the 1-norm.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "NormTag",
    "SpaceModel",
    "LatticeVector",
    "vec",
    "modulus",
    "entrywise_sup",
    "dominates",
    "lattice_power",
    "independence_preserved",
    "is_lattice_homomorphism",
    "vector_norm",
]

DEFAULT_TOL = 1e-10


class NormTag(str, enum.Enum):
    SUP = "sup"
    ONE = "one"


@dataclass(frozen=True)
class SpaceModel:
    """A coordinate space: dimension, norm convention, optional index labels."""

    dimension: int
    norm_tag: NormTag = NormTag.SUP
    index_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.index_labels is not None:
            labels = tuple(self.index_labels)
            if len(labels) != self.dimension:
                raise ValueError("index_labels length must equal dimension")
            if len(set(labels)) != len(labels):
                raise ValueError("index_labels must be distinct")
            object.__setattr__(self, "index_labels", labels)

    def to_json(self) -> dict:
        out = {"dim": self.dimension, "norm": self.norm_tag.value}
        if self.index_labels is not None:
            out["labels"] = list(self.index_labels)
        return out

    @staticmethod
    def from_json(obj: dict) -> "SpaceModel":
        labels = obj.get("labels")
        return SpaceModel(
            dimension=int(obj["dim"]),
            norm_tag=NormTag(obj.get("norm", "sup")),
            index_labels=tuple(labels) if labels is not None else None,
        )


@dataclass(frozen=True)
class LatticeVector:
    """Complex coordinate vector attached to a SpaceModel."""

    entries: np.ndarray
    model: SpaceModel

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex).reshape(-1)
        if arr.shape[0] != self.model.dimension:
            raise ValueError(
                f"vector length {arr.shape[0]} != model dimension {self.model.dimension}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def norm(self) -> float:
        return vector_norm(self.entries, self.model.norm_tag)

    def is_real(self, tol: float = DEFAULT_TOL) -> bool:
        return bool(np.max(np.abs(self.entries.imag)) <= tol)

    def to_json(self) -> list[dict]:
        return [{"re": float(z.real), "im": float(z.imag)} for z in self.entries]

    @staticmethod
    def from_json(entries: list[dict], model: SpaceModel) -> "LatticeVector":
        arr = np.array([complex(e["re"], e.get("im", 0.0)) for e in entries])
        return LatticeVector(arr, model)


def vec(entries: Sequence[complex], model: SpaceModel | None = None,
        norm_tag: NormTag = NormTag.SUP) -> LatticeVector:
    """Build a LatticeVector, defaulting the model from the entry count."""
    arr = np.asarray(entries, dtype=complex).reshape(-1)
    if model is None:
        model = SpaceModel(arr.shape[0], norm_tag)
    return LatticeVector(arr, model)


def vector_norm(entries: np.ndarray, tag: NormTag) -> float:
    a = np.abs(np.asarray(entries))
    return float(a.max()) if tag is NormTag.SUP else float(a.sum())


def _same_model(*vs: LatticeVector) -> SpaceModel:
    model = vs[0].model
    for v in vs[1:]:
        if v.model != model:
            raise ValueError("model mismatch")
    return model


def modulus(v: LatticeVector) -> LatticeVector:
    """Entrywise absolute value; realizes the lattice modulus in coordinates."""
    return LatticeVector(np.abs(v.entries).astype(complex), v.model)


def entrywise_sup(vs: Sequence[LatticeVector]) -> LatticeVector:
    """Coordinatewise maximum of real vectors over a common model."""
    if len(vs) == 0:
        raise ValueError("empty supremum")
    model = _same_model(*vs)
    for v in vs:
        if not v.is_real():
            raise ValueError("entrywise_sup requires real vectors")
    stacked = np.vstack([v.entries.real for v in vs])
    return LatticeVector(stacked.max(axis=0).astype(complex), model)


def dominates(x: LatticeVector, z: LatticeVector, tol: float = DEFAULT_TOL) -> bool:
    """True iff |z_i| <= x_i + tol for every coordinate."""
    _same_model(x, z)
    if not x.is_real():
        raise ValueError("dominating vector must be real")
    return bool(np.all(np.abs(z.entries) <= x.entries.real + tol))


def lattice_power(f: LatticeVector, n: int) -> LatticeVector:
    """Phase-power construction: entry i maps to (f_i/|f_i|)^n |f_i|, 0 on zeros.

    Defined only for f != 0; any integer exponent is allowed.
    """
    a = np.abs(f.entries)
    if not a.any():
        raise ValueError("undefined lattice power of zero")
    out = np.zeros_like(f.entries)
    nz = a > 0
    # real divisions: a complex division by a subnormal modulus overflows
    phase = f.entries[nz].real / a[nz] + 1j * (f.entries[nz].imag / a[nz])
    out[nz] = phase ** n * a[nz]
    return LatticeVector(out, f.model)


def _pivot_basis(vectors: np.ndarray, tol: float) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan reduce rows so each basis row is 1 at its pivot coordinate
    and 0 at every other pivot coordinate.  Returns (rows, pivot indices)."""
    rows = np.array(vectors, dtype=complex)
    m, d = rows.shape
    pivots: list[int] = []
    r = 0
    for _ in range(m):
        if r >= m:
            break
        # choose the largest remaining entry among non-pivot coordinates
        sub = np.abs(rows[r:])
        sub = sub.copy()
        sub[:, pivots] = 0.0
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        if sub[i, j] <= tol:
            break
        i += r
        rows[[r, i]] = rows[[i, r]]
        rows[r] = rows[r] / rows[r, j]
        for k in range(m):
            if k != r:
                rows[k] = rows[k] - rows[k, j] * rows[r]
        pivots.append(int(j))
        r += 1
    return rows[: len(pivots)], pivots


def independence_preserved(G: Sequence[LatticeVector], n: int,
                           tol: float = 1e-9) -> bool:
    """Check that lattice powers of a family keep its rank.

    Follows the constructive pivot argument: reduce the family to vectors
    f_j with f_j = delta_jk at pivot coordinates x_k; their powers keep the
    same delta pattern, so the powered family has rank >= rank(G).
    """
    if len(G) == 0:
        raise ValueError("empty family")
    model = _same_model(*G)
    mat = np.vstack([g.entries for g in G])
    if not np.abs(mat).max(axis=1).all():
        raise ValueError("zero vector in family")
    scale = np.abs(mat).max()
    rank = int(np.linalg.matrix_rank(mat, tol=tol * max(1.0, scale)))
    basis, _ = _pivot_basis(mat, tol=tol * max(1.0, scale))
    powered = np.vstack([
        lattice_power(LatticeVector(row, model), n).entries for row in basis
    ])
    powered_rank = int(np.linalg.matrix_rank(
        powered, tol=tol * max(1.0, np.abs(powered).max())))
    return powered_rank >= rank


def is_lattice_homomorphism(T, tol: float = 1e-12) -> bool:
    """Finite-dimensional criterion: nonnegative entries and at most one
    nonzero entry per row (equivalent to |Tz| = T|z| for all z)."""
    A = np.asarray(getattr(T, "entries", T))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("square matrix expected")
    if np.iscomplexobj(A) and np.max(np.abs(A.imag)) > tol:
        return False
    R = A.real if np.iscomplexobj(A) else A
    if R.min() < -tol:
        return False
    nonzeros_per_row = (np.abs(R) > tol).sum(axis=1)
    return bool(np.all(nonzeros_per_row <= 1))
