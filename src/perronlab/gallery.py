"""Named, parametrized, machine-checked reconstructions of the worked
examples: the 3x3 fixed-space Markov matrix, the 4x4 domination
counterexample, the one-point-compactification shift, the Cesaro-unbounded
shift-multiplication blocks, the subgroup eigenvalue construction and the
coupled rotation/transport semigroup."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from .fixedspace import fixed_space_handle, is_fixed_space_sublattice, \
    sup_in_fixed_space
from .lattice import NormTag, vec
from .operators import OperatorMatrix, ShiftMultSpec, cesaro_lower_bound, \
    cesaro_mean, numerical_rank, op, op_norm, power, shift_mult_block, \
    symbol_power
from .semigroup import SemigroupGrid, boundary_defect, \
    constant_one, generator_residual, grid_function, semigroup_apply
from .spectral import _constrain, constrained_kernel, daec_check, \
    daec_check_adjoint, eigen

__all__ = [
    "CaseParamError",
    "Fact",
    "CaseReport",
    "case_names",
    "run_case",
    "example_markov_3x3",
    "no_daec_matrix",
    "compactification_operator",
    "remark_c0_operator",
    "c0_tail_constraints",
    "continuity_constraint",
    "constrained_kernel",
    "subgroup_operator",
    "subgroup_eigenpair",
    "subgroup_case_measures",
]


class CaseParamError(ValueError):
    """A parameter value a case (or the operator it builds) rejects; the CLI
    maps it to exit code 2, like any other input error."""


@dataclass(frozen=True)
class Fact:
    id: str
    paper_ref: str
    status: str  # pass | fail
    measured: object
    expected: object
    tag: str  # exact | derived | demonstration

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "paper_ref": self.paper_ref,
            "status": self.status,
            "measured": self.measured,
            "expected": self.expected,
            "tag": self.tag,
        }


@dataclass(frozen=True)
class CaseReport:
    name: str
    params: dict
    facts: tuple[Fact, ...]

    @property
    def passed(self) -> bool:
        return all(f.status == "pass" for f in self.facts)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "facts": [f.to_json() for f in self.facts],
        }


def _fact(fid: str, ref: str, ok: bool, measured, expected, tag: str) -> Fact:
    return Fact(fid, ref, "pass" if ok else "fail", measured, expected, tag)


def _number(params: dict, key: str, default, cast=float):
    """A parameter the case reads as one number; a comma list, or a
    non-integral value where the case reads an integer, is rejected here
    instead of failing inside (or being truncated by) the cast."""
    value = params.get(key, default)
    if isinstance(value, (tuple, list)):
        raise CaseParamError(f"{key} takes one number, got {list(value)}")
    if cast is int and isinstance(value, float) and not value.is_integer():
        raise CaseParamError(f"{key} must be an integer, got {value}")
    return cast(value)


# --- builders ----------------------------------------------------------------

def example_markov_3x3() -> OperatorMatrix:
    """The 3x3 Markov matrix whose fixed space is a lattice subspace but not
    a sublattice."""
    return op([[1, 0, 0], [1 / 3, 1 / 3, 1 / 3], [0, 0, 1]])


def no_daec_matrix() -> OperatorMatrix:
    """The 4x4 positive matrix with spectrum {-1, 1} and no dominating
    fixed vector for the (-1)-eigenvector."""
    return op([[0, 1, 0, 1], [1, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]])


def compactification_operator(N: int) -> OperatorMatrix:
    """Markov shift on Z_4 glued to a one-point-compactified half line.

    Coordinates: 4 cyclic-group points, ray nodes 0..N, one infinity node.
    The ray start is fed by the average of the group points 1 and 3."""
    return op(_compactification_sparse(N).toarray(), NormTag.SUP)


def _compactification_sparse(N: int) -> sparse.csr_array:
    """compactification_operator(N) as a CSR matrix, one row per node."""
    if N < 2:
        raise CaseParamError("N must be >= 2")
    n = 4 + (N + 1) + 1
    rows = np.concatenate([np.arange(4), [4, 4], np.arange(5, n)])
    cols = np.concatenate([(np.arange(4) - 1) % 4, [1, 3],
                           np.arange(4, n - 2), [n - 1]])
    data = np.concatenate([np.ones(4), [0.5, 0.5], np.ones(N + 1)])
    return sparse.csr_array((data, (rows, cols)), shape=(n, n))


def _compactification_kernel(N: int, lam: complex) -> np.ndarray:
    """Orthonormal columns spanning ker(lam - T) for
    T = compactification_operator(N) and lam^4 = 1, read off the block
    structure instead of an SVD of the whole matrix.

    T is block lower triangular: the group block G, then the ray shift fed
    by (f(1) + f(3))/2, then the infinity node.  The ray shift is nilpotent,
    so lam - T is invertible on the ray, and every kernel vector is a kernel
    vector f of lam - G carried down the ray by
    f(ray k) = lam^-(k+1) (f(1) + f(3))/2, plus the infinity node when
    lam = 1.  The group kernel comes from a 4x4 SVD with the cut rule of
    constrained_kernel at tol = 1e-8; the singular values of lam - G are
    {0, sqrt 2, sqrt 2, 2}, so the cut is far from every one of them."""
    if lam ** 4 != 1:
        raise ValueError("lam must be a fourth root of unity")
    n = N + 6
    # the group block: G[j, (j - 1) % 4] = 1
    G = np.roll(np.eye(4), -1, axis=1)
    _, s, vh = np.linalg.svd(lam * np.eye(4) - G)
    F = vh[numerical_rank(s, 1e-8, 1e-8):].conj().T
    d = F.shape[1]
    # lam^-m = conj(lam)^(m mod 4), exact for the four roots of unity
    inv_powers = np.array([complex(lam).conjugate() ** m for m in range(4)])
    V = np.zeros((n, d + (lam == 1)), dtype=complex)
    V[:4, :d] = F
    V[4:n - 1, :d] = np.outer(inv_powers[np.arange(1, N + 2) % 4],
                              (F[1] + F[3]) / 2)
    if lam == 1:
        V[n - 1, d] = 1.0
    return np.linalg.qr(V)[0]


def remark_c0_operator(N: int) -> OperatorMatrix:
    """The compactification shift restricted to functions vanishing at
    infinity: 4 cyclic-group points plus ray nodes 0..N, no infinity node.
    The vanishing itself is a tail condition that must be imposed as
    constraint rows (see c0_tail_constraints)."""
    if N < 8:
        raise ValueError("N must be >= 8")
    return op(compactification_operator(N).entries[:-1, :-1], NormTag.SUP)


def c0_tail_constraints(dim: int, k: int) -> np.ndarray:
    """Rows forcing the last k coordinates to vanish (a truncated decay
    condition)."""
    if not 1 <= k <= dim:
        raise ValueError("need 1 <= k <= dim")
    C = np.zeros((k, dim))
    for i in range(k):
        C[i, dim - 1 - i] = 1.0
    return C


def continuity_constraint(N: int) -> np.ndarray:
    """Row expressing continuity at infinity: f(ray N) - f(infinity) = 0."""
    n = 4 + (N + 1) + 1
    row = np.zeros(n)
    row[4 + N] = 1.0
    row[n - 1] = -1.0
    return row


def subgroup_operator(q: int, N: int) -> OperatorMatrix:
    """Cyclic-group shift of order q coupled to the averaged tail recursion
    g_n -> n/(n+1) g_{n+1} + 1/(n+1) f(generator); truncated at length N by
    reusing the last tail coordinate."""
    return op(_subgroup_sparse(q, N).toarray(), NormTag.SUP)


def _subgroup_sparse(q: int, N: int) -> sparse.csr_array:
    """subgroup_operator(q, N) as a CSR matrix, one row per coordinate."""
    if q < 2:
        raise CaseParamError("q must be >= 2")
    if N < 4:
        raise CaseParamError("N must be >= 4")
    n = q + N
    m = np.arange(1, N + 1)
    tail = q + m - 1
    rows = np.concatenate([np.arange(q), tail, tail])
    cols = np.concatenate([(np.arange(q) + 1) % q, np.full(N, 1 % q),
                           np.minimum(q + m, n - 1)])
    data = np.concatenate([np.ones(q), 1.0 / (m + 1), m / (m + 1)])
    return sparse.csr_array((data, (rows, cols)), shape=(n, n))


def _log_series_sum(z: complex) -> complex:
    """Closed form of sum_{k>=2} z^k / (k(k-1)) = z + (1-z) log(1-z)."""
    if abs(1.0 - z) < 1e-14:
        return 1.0
    return z + (1.0 - z) * cmath.log(1.0 - z)


def subgroup_eigenpair(q: int, p: int, N: int) -> tuple[complex, np.ndarray]:
    """Eigenvalue lambda = e^(2 pi i p / q) of the coupled operator and its
    explicit eigenvector: the character on the group block and the tail
    sequence g_n = lambda^n n (conj(lambda) g_1 - lambda sum_{k<=n} ...),
    with g_1 fixed by the closed-form series value."""
    lam = cmath.exp(2j * math.pi * p / q)
    f = np.array([lam ** j for j in range(q)])
    fs0 = f[1 % q]  # value at the generator
    g = np.empty(N, dtype=complex)
    if abs(lam - 1.0) < 1e-14:
        g[:] = 1.0
        return lam, np.concatenate([f, g])
    lb = lam.conjugate()
    g1 = lam * fs0 * _log_series_sum(lb)
    g[0] = g1
    partial = 0.0 + 0.0j
    for n in range(2, N + 1):
        partial += lb ** n / (n * (n - 1))
        g[n - 1] = lam ** n * n * (lb * g1 - fs0 * partial)
    return lam, np.concatenate([f, g])


def subgroup_case_measures(q: int, p: int, N: int) -> tuple[float, float]:
    """(eigen-residual at truncation, far-tail magnitude) for the explicit
    eigenvector of the coupled operator."""
    return _subgroup_measures(_subgroup_sparse(q, N), q, p, N)


def _subgroup_measures(T: sparse.csr_array, q: int, p: int,
                       N: int) -> tuple[float, float]:
    """subgroup_case_measures on a prebuilt T = _subgroup_sparse(q, N)."""
    lam, v = subgroup_eigenpair(q, p, N)
    resid = float(np.abs(T @ v - lam * v).max())
    tail = float(np.abs(v[q + N // 2 :]).max())
    return resid, tail


# --- cases -------------------------------------------------------------------

def _case_fixed_space_3x3(params: dict) -> list[Fact]:
    tol = _number(params, "tol", 1e-10)
    T = example_markov_3x3()
    h = fixed_space_handle(T)
    facts = []

    # fixed space = span{(1,1,1),(1,0,-1)}
    expected_span = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, -1.0]]).T
    B = np.vstack([b.entries.real for b in h.basis]).T
    ok_dim = B.shape[1] == 2
    resid = 0.0
    for col in expected_span.T:
        c, *_ = np.linalg.lstsq(B, col, rcond=None)
        resid = max(resid, float(np.abs(B @ c - col).max()))
    facts.append(_fact(
        "fixed_space_span", "3x3 Markov fixed-space example",
        ok_dim and resid <= 1e-8,
        {"dim": B.shape[1], "span_residual": resid},
        {"dim": 2, "span_residual": 0.0}, "exact"))

    f = vec([1, 0, -1])
    neg = vec([-1, 0, 1])
    sup = sup_in_fixed_space(h, [f, neg])
    err = float(np.abs(sup.entries.real - 1.0).max())
    facts.append(_fact(
        "sup_of_pm", "supremum of the +-(1,0,-1) pair in the fixed space",
        err <= tol, list(sup.entries.real), [1.0, 1.0, 1.0], "exact"))

    is_sub, wit = is_fixed_space_sublattice(h)
    wit_ok = wit is not None and (
        np.abs(np.abs(wit.entries.real) - np.array([1.0, 0.0, 1.0])).max() <= 1e-8
    )
    facts.append(_fact(
        "not_sublattice", "fixed space fails to be a sublattice",
        (not is_sub) and wit_ok,
        {"sublattice": is_sub,
         "witness": list(wit.entries.real) if wit is not None else None},
        {"sublattice": False, "witness": [1.0, 0.0, -1.0]}, "exact"))
    return facts


def _case_no_daec_4x4(params: dict) -> list[Fact]:
    T = no_daec_matrix()
    facts = []
    pairs = eigen(T)
    vals = sorted(round(p.value.real, 6) for p in pairs)
    facts.append(_fact(
        "spectrum", "4x4 example spectrum {-1, 1}",
        vals == [-1.0, 1.0]
        and all(abs(p.value.imag) <= 1e-8 for p in pairs),
        vals, [-1.0, 1.0], "exact"))

    at_one = next(p for p in pairs if abs(p.value - 1.0) <= 1e-6)
    at_neg = next(p for p in pairs if abs(p.value + 1.0) <= 1e-6)
    facts.append(_fact(
        "jordan_structure", "eigenvalue 1: alg 3, geo 1, third-order pole",
        (at_one.alg_mult, at_one.geo_mult, at_one.pole_order) == (3, 1, 3)
        and (at_neg.alg_mult, at_neg.geo_mult) == (1, 1),
        {"one": [at_one.alg_mult, at_one.geo_mult, at_one.pole_order],
         "minus_one": [at_neg.alg_mult, at_neg.geo_mult]},
        {"one": [3, 1, 3], "minus_one": [1, 1]}, "derived"))

    res = daec_check(T, 1.0, math.pi)
    facts.append(_fact(
        "daec_fails", "no fixed vector dominates the (-1)-eigenvector",
        res.verdict == "fails" and res.provable,
        {"verdict": res.verdict, "provable": res.provable},
        {"verdict": "fails", "provable": True}, "exact"))

    res_t = daec_check_adjoint(T, 1.0, math.pi)
    facts.append(_fact(
        "daec_adjoint_fails", "the same failure for the transpose",
        res_t.verdict == "fails" and res_t.provable,
        {"verdict": res_t.verdict, "provable": res_t.provable},
        {"verdict": "fails", "provable": True}, "exact"))
    return facts


def _case_one_point_compactification(params: dict) -> list[Fact]:
    """i is an eigenvalue and -1 is not, at truncation N.

    The bare kernel of -1 - T is one vector v: the alternating vector on the
    group block, carried down the ray with the same modulus, 0 at infinity.
    Continuity at infinity reads Cv = v(ray N) - v(infinity) = v(ray N), so
    in the sup norm of C(K), the paper's norm, the defect |Cv| / ||v||_inf
    is 1 at every N, and the fact is decided on it.  The l2 value
    |Cv| / ||v||_2 = 1/sqrt(N+5), reported as `smallest_sv`, decays only
    because ||v||_2 counts the N+5 equal entries."""
    N = _number(params, "N", 64, int)
    T = _compactification_sparse(N)
    row = continuity_constraint(N)
    facts = []

    dim_i, basis_i, _ = _constrain(_compactification_kernel(N, 1j), row,
                                   1e-8)
    # the stated eigenfunction: (-i)^j on the group block, 0 elsewhere
    g = np.zeros(T.shape[0], dtype=complex)
    g[:4] = [(-1j) ** j for j in range(4)]
    resid_op = float(np.abs(T @ g - 1j * g).max())
    in_kernel = True
    if dim_i >= 1:
        c, *_ = np.linalg.lstsq(basis_i, g, rcond=None)
        in_kernel = float(np.abs(basis_i @ c - g).max()) <= 1e-8
    facts.append(_fact(
        "i_eigenvalue", "i is an eigenvalue; eigenfunction lives on the "
        "group block",
        dim_i == 1 and resid_op <= 1e-12 and in_kernel,
        {"kernel_dim": dim_i, "residual": resid_op},
        {"kernel_dim": 1, "residual": 0.0}, "demonstration"))

    V = _compactification_kernel(N, -1.0)
    dim_m, _, smin = _constrain(V, row, 1e-8)
    sup_defect = float(abs(row @ V[:, 0]) / np.abs(V[:, 0]).max())
    facts.append(_fact(
        "minus_one_not_eigenvalue", "-1 has trivial constrained kernel "
        "(continuity at infinity kills the alternating vector)",
        dim_m == 0 and sup_defect >= 0.1,
        {"kernel_dim": dim_m, "smallest_sv": smin, "sup_defect": sup_defect},
        {"kernel_dim": 0, "sup_defect": ">= 0.1"}, "demonstration"))
    return facts


def _case_cesaro_unbounded_shift(params: dict) -> list[Fact]:
    m_list = params.get("m_list", (2, 3, 4))
    m_list = (m_list,) if np.isscalar(m_list) else tuple(m_list)
    h_max = _number(params, "h_max", 4, int)
    j_max = _number(params, "j_max", 6, int)
    if h_max < 0 or j_max < 0:
        raise CaseParamError("h_max and j_max must be >= 0")
    if any(m not in (2, 3, 4) for m in m_list):
        raise CaseParamError("m_list must be within {2, 3, 4}")
    m_list = tuple(int(m) for m in m_list)
    facts = []

    # closed-form power symbols against brute-force matrix powers
    worst = 0.0
    for m in (2, 3):
        if m not in m_list:
            continue
        N = math.factorial(m) + j_max + 4
        spec = ShiftMultSpec(m, N)
        block = shift_mult_block(spec)
        for j in range(1, j_max + 1):
            P = power(block, j).entries.real
            a = symbol_power(spec, j).entries.real
            for i in range(1, N - j + 1):
                worst = max(worst, abs(P[i + j - 1, i - 1] - a[i - 1]))
    facts.append(_fact(
        "power_symbol", "closed-form symbol of the j-th power",
        worst <= 1e-12, {"max_entry_error": worst}, {"max_entry_error": 0.0},
        "derived"))

    # factorial-indexed powers stay bounded by 2
    max_norm = 0.0
    for m in m_list:
        N = math.factorial(m) + math.factorial(h_max) + 2
        block = shift_mult_block(ShiftMultSpec(m, N))
        for h in range(1, h_max + 1):
            max_norm = max(max_norm, op_norm(power(block, math.factorial(h))))
    facts.append(_fact(
        "factorial_powers_bounded", "norms of the h!-th powers stay <= 2",
        max_norm <= 2.0 + 1e-12, {"max_norm": max_norm}, {"bound": 2.0},
        "exact"))

    # Cesaro lower bound: closed form vs direct summation, increasing in m
    cs = []
    sum_err = 0.0
    for m in m_list:
        direct = sum(
            2.0 ** (k / math.factorial(m - 1)) for k in range(math.factorial(m))
        ) / math.factorial(m + 1)
        c = cesaro_lower_bound(m)
        sum_err = max(sum_err, abs(c - direct))
        cs.append(c)
    increasing = all(b > a for a, b in zip(cs, cs[1:]))
    facts.append(_fact(
        "cesaro_lower_bound", "c(m) closed form matches direct summation "
        "and increases",
        sum_err <= 1e-10 and increasing,
        {"values": cs, "max_error": sum_err},
        {"c2": 0.5, "c3": 7 * (1 + math.sqrt(2)) / 24, "increasing": True},
        "derived"))

    # the Cesaro means actually reach the lower bound
    ok_lb = True
    measured = {}
    for m in m_list:
        j = math.factorial(m + 1)
        N = math.factorial(m) + j + 2
        block = shift_mult_block(ShiftMultSpec(m, N))
        nrm = op_norm(cesaro_mean(block, j))
        measured[str(m)] = nrm
        ok_lb = ok_lb and nrm >= cesaro_lower_bound(m) - 1e-10
    facts.append(_fact(
        "cesaro_norm_exceeds_bound",
        "Cesaro-mean norm at index (m+1)! dominates c(m)",
        ok_lb, measured, {str(m): cesaro_lower_bound(m) for m in m_list},
        "derived"))
    return facts


def _case_subgroup_minus_one(params: dict) -> list[Fact]:
    q = _number(params, "q", 4, int)
    N = _number(params, "N", 256, int)
    if q not in (2, 3, 4, 6):
        raise CaseParamError("q must be one of 2, 3, 4, 6")
    tol = _number(params, "tol", 0.05)
    T = _subgroup_sparse(q, N)
    facts = []
    for p in range(1, q):
        resid, tail = _subgroup_measures(T, q, p, N)
        lam = cmath.exp(2j * math.pi * p / q)
        facts.append(_fact(
            f"eigenvalue_p{p}_of_{q}",
            "explicit eigenvector for a nontrivial root of unity "
            "(vanishing tail)",
            resid <= tol and tail <= tol,
            {"lambda": [lam.real, lam.imag], "residual": resid,
             "tail_max": tail},
            {"residual": f"<= {tol}", "tail_max": f"<= {tol}"},
            "demonstration"))
    resid1, tail1 = _subgroup_measures(T, q, 0, N)
    facts.append(_fact(
        "fixed_vector_tail", "the fixed vector is constant; its tail does "
        "not vanish",
        resid1 <= 1e-12 and abs(tail1 - 1.0) <= 1e-12,
        {"residual": resid1, "tail_max": tail1},
        {"residual": 0.0, "tail_max": 1.0}, "exact"))
    return facts


def _case_markov_semigroup(params: dict) -> list[Fact]:
    M = _number(params, "M", 256, int)
    N = _number(params, "N", 256, int)
    L = _number(params, "L", 2.0)
    t = _number(params, "t", 0.3)
    s = _number(params, "s", 0.4)
    h = _number(params, "h", 1e-3)
    try:
        grid = SemigroupGrid(M, N, L)
    except ValueError as exc:
        raise CaseParamError(str(exc)) from exc
    # the evolution runs to times t, s, t + s and h, all inside [0, L]
    if not (0 <= t and 0 <= s and t + s <= L and 0 < h <= L):
        raise CaseParamError("need t, s >= 0, t + s <= L and 0 < h <= L")
    facts = []

    one = constant_one(grid)
    ident = semigroup_apply(grid, 0.0, one)
    facts.append(_fact(
        "time_zero_identity", "the evolution at t = 0 is the identity",
        ident.sub(one).sup_norm() <= 1e-14,
        ident.sub(one).sup_norm(), 0.0, "exact"))

    markov_defect = semigroup_apply(grid, t + s, one).sub(one).sup_norm()
    facts.append(_fact(
        "markov_property", "constants are fixed (Markov property)",
        markov_defect <= 0.02, markov_defect, "<= 0.02", "demonstration"))

    f_pos = grid_function(grid, lambda x: 1.0 + x.real,
                          lambda r: math.exp(-r), at_infinity=0.0)
    evolved = semigroup_apply(grid, t, f_pos)
    min_val = min(float(evolved.circle.real.min()),
                  float(evolved.ray.real.min()))
    facts.append(_fact(
        "positivity", "nonnegative data stays nonnegative",
        min_val >= -1e-10, min_val, ">= -1e-10", "exact"))

    f_test = grid_function(grid, lambda x: x.real, lambda r: 0.0,
                           at_infinity=0.0)
    two_step = semigroup_apply(grid, t, semigroup_apply(grid, s, f_test))
    one_step = semigroup_apply(grid, t + s, f_test)
    sg_defect = two_step.sub(one_step).sup_norm()
    facts.append(_fact(
        "semigroup_property", "composition agrees with the single step",
        sg_defect <= 0.02, sg_defect, "<= 0.02", "demonstration"))

    g_eig = grid_function(grid, lambda x: 1.0 / x, lambda r: 0.0,
                          at_infinity=0.0)
    resid_i = generator_residual(grid, g_eig, 1j, h, interp="trig")
    facts.append(_fact(
        "generator_eigenvalue_i", "the inverse-coordinate circle function "
        "is a generator eigenfunction for i",
        resid_i <= 0.05, resid_i, "<= 0.05", "demonstration"))

    h_cand = grid_function(grid, lambda x: 1.0 / x ** 2, lambda r: 0.0,
                           at_infinity=0.0)
    defect = boundary_defect(grid, h_cand)
    facts.append(_fact(
        "no_eigenvalue_2i", "the 2i candidate violates the boundary "
        "relation of the generator domain",
        defect >= 0.3, defect, ">= 0.3", "demonstration"))
    return facts


_REGISTRY: dict[str, tuple[Callable[[dict], list[Fact]], dict]] = {
    "fixed_space_3x3": (_case_fixed_space_3x3, {"tol": 1e-10}),
    "no_daec_4x4": (_case_no_daec_4x4, {}),
    "one_point_compactification": (_case_one_point_compactification,
                                   {"N": 64}),
    "cesaro_unbounded_shift": (_case_cesaro_unbounded_shift,
                               {"m_list": (2, 3, 4), "h_max": 4, "j_max": 6}),
    "subgroup_minus_one": (_case_subgroup_minus_one, {"q": 4, "N": 256}),
    "markov_semigroup": (_case_markov_semigroup,
                         {"M": 256, "N": 256, "L": 2.0, "t": 0.3, "s": 0.4,
                          "h": 1e-3}),
}


def case_names() -> list[str]:
    return list(_REGISTRY)


def run_case(name: str, params: dict | None = None) -> CaseReport:
    """Build a registered case and evaluate its machine-checked facts."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown case name: {name}")
    fn, defaults = _REGISTRY[name]
    merged = dict(defaults)
    merged.update(params or {})
    facts = fn(merged)
    merged = {
        k: (list(v) if isinstance(v, tuple) else v) for k, v in merged.items()
    }
    return CaseReport(name, merged, tuple(facts))
