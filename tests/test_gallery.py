import cmath
import math
import tracemalloc

import numpy as np
import pytest

from perronlab.gallery import (
    _compactification_kernel,
    _constrain,
    _subgroup_measures,
    _subgroup_sparse,
    c0_tail_constraints,
    case_names,
    compactification_operator,
    constrained_kernel,
    continuity_constraint,
    no_daec_matrix,
    remark_c0_operator,
    run_case,
    subgroup_case_measures,
    subgroup_eigenpair,
    subgroup_operator,
)
from perronlab.lattice import NormTag
from perronlab.operators import op


def test_case_registry():
    names = case_names()
    assert "fixed_space_3x3" in names
    with pytest.raises(KeyError):
        run_case("nonexistent")


def test_fixed_space_case_passes():
    rep = run_case("fixed_space_3x3")
    assert rep.passed
    ids = [f.id for f in rep.facts]
    assert ids == ["fixed_space_span", "sup_of_pm", "not_sublattice"]
    out = rep.to_json()
    assert all(f["status"] == "pass" for f in out["facts"])


def test_no_daec_case_passes():
    rep = run_case("no_daec_4x4")
    assert rep.passed


def test_compactification_case_passes():
    rep = run_case("one_point_compactification", {"N": 32})
    assert rep.passed


def test_cesaro_case_passes():
    rep = run_case("cesaro_unbounded_shift")
    assert rep.passed


def test_subgroup_case_passes():
    rep = run_case("subgroup_minus_one", {"q": 4, "N": 256})
    assert rep.passed


def test_semigroup_case_passes():
    rep = run_case("markov_semigroup", {"M": 128, "N": 128})
    assert rep.passed


def test_compactification_operator_structure():
    T = compactification_operator(8)
    assert T.dim == 4 + 9 + 1
    assert np.allclose(T.entries.real.sum(axis=1), 1.0)
    # the cyclic block alone has eigenvalues i^k
    w = np.linalg.eigvals(T.entries[:4, :4])
    assert sorted(np.round(np.angle(w) / (math.pi / 2))) == [-1, 0, 1, 2]


def test_constrained_kernel_continuity_row():
    N = 32
    T = compactification_operator(N)
    row = continuity_constraint(N)
    dim_i, basis, _ = constrained_kernel(T, 1j, row)
    assert dim_i == 1
    # the surviving eigenvector lives on the cyclic block
    v = basis[:, 0]
    assert np.abs(v[4:]).max() <= 1e-8 * np.abs(v).max()
    dim_m, _, cert = constrained_kernel(T, -1.0, row)
    assert dim_m == 0
    assert cert >= 0.1


def test_remark_operator_and_tail_constraints():
    T = remark_c0_operator(16)
    assert T.dim == 4 + 17
    C = c0_tail_constraints(T.dim, 3)
    assert C.shape == (3, T.dim)
    assert np.allclose(C.sum(axis=1), 1.0)
    with pytest.raises(ValueError):
        c0_tail_constraints(5, 6)
    with pytest.raises(ValueError):
        remark_c0_operator(4)


def test_subgroup_eigenpair_residual_decays():
    r1, t1 = subgroup_case_measures(4, 1, 128)
    r2, t2 = subgroup_case_measures(4, 1, 256)
    assert r2 <= r1 / 1.8
    assert t2 <= t1 / 1.8


def test_subgroup_fixed_vector():
    lam, v = subgroup_eigenpair(4, 0, 64)
    assert lam == pytest.approx(1.0)
    assert np.allclose(v, 1.0)
    T = subgroup_operator(4, 64)
    assert np.abs(T.entries @ v - v).max() <= 1e-12


def test_no_daec_matrix_positive():
    T = no_daec_matrix()
    assert T.entries.real.min() >= 0
    assert T.dim == 4


def test_run_case_param_merge():
    rep = run_case("subgroup_minus_one", {"N": 128})
    assert rep.params["N"] == 128
    assert rep.params["q"] == 4
    with pytest.raises(ValueError):
        run_case("subgroup_minus_one", {"q": 5})


# --- structured forms of the compactification and subgroup operators ---------

def _compactification_by_loop(N):
    """The dense loop builder that compactification_operator replaced."""
    n = 4 + (N + 1) + 1
    A = np.zeros((n, n))
    for j in range(4):
        A[j, (j - 1) % 4] = 1.0
    A[4, 1] = 0.5
    A[4, 3] = 0.5
    for k in range(1, N + 1):
        A[4 + k, 4 + k - 1] = 1.0
    A[n - 1, n - 1] = 1.0
    return op(A, NormTag.SUP)


def _subgroup_by_loop(q, N):
    """The dense loop builder that subgroup_operator replaced."""
    n = q + N
    A = np.zeros((n, n))
    for j in range(q):
        A[j, (j + 1) % q] = 1.0
    for m in range(1, N + 1):
        row = q + m - 1
        A[row, 1 % q] = 1.0 / (m + 1)
        if m < N:
            A[row, q + m] = m / (m + 1)
        else:
            A[row, q + m - 1] = m / (m + 1)
    return op(A, NormTag.SUP)


def _same_operator(T, ref):
    return (T.model == ref.model
            and T.entries.tobytes() == ref.entries.tobytes())


def test_compactification_operator_matches_the_loop_builder():
    for N in [*range(2, 41), 1024]:
        assert _same_operator(compactification_operator(N),
                              _compactification_by_loop(N)), N
    with pytest.raises(ValueError, match="N must be >= 2"):
        compactification_operator(1)


@pytest.mark.parametrize("q", [2, 3, 4, 6])
def test_subgroup_operator_matches_the_loop_builder(q):
    for N in [*range(4, 41), 256, 1024]:
        assert _same_operator(subgroup_operator(q, N),
                              _subgroup_by_loop(q, N)), N


def test_subgroup_operator_argument_checks():
    with pytest.raises(ValueError, match="q must be >= 2"):
        subgroup_operator(1, 8)
    with pytest.raises(ValueError, match="N must be >= 4"):
        subgroup_operator(4, 3)


def _principal_cosines(B0, B1):
    return np.linalg.svd(B0.conj().T @ B1, compute_uv=False)


@pytest.mark.parametrize("lam", [1.0, 1j, -1.0, -1j])
def test_compactification_kernel_matches_the_dense_kernel(lam):
    for N in [*range(2, 31), 64, 256]:
        T = compactification_operator(N)
        # a zero row keeps the whole bare kernel; the continuity row cuts it
        for row in (np.zeros(T.dim), continuity_constraint(N)):
            dim0, B0, cert0 = constrained_kernel(T, lam, row)
            dim1, B1, cert1 = _constrain(_compactification_kernel(N, lam),
                                         row, 1e-8)
            assert dim1 == dim0, (N, lam)
            if dim0:
                cos = _principal_cosines(B0, B1)
                assert np.abs(cos - 1.0).max() <= 1e-12, (N, lam)
            assert abs(cert1 - cert0) <= 4e-15, (N, lam, cert0, cert1)


@pytest.mark.parametrize("lam", [2.0, 0.5j, cmath.exp(0.3j), 1 + 1e-12])
def test_compactification_kernel_rejects_other_values(lam):
    with pytest.raises(ValueError, match="fourth root of unity"):
        _compactification_kernel(8, lam)


@pytest.mark.parametrize("N", [2, 3, 64, 1024, 16384])
def test_compactification_smallest_sv_is_the_l2_value(N):
    # the alternating kernel vector has N + 5 entries of equal modulus, and
    # the continuity row reads one of them
    expected = 1.0 / math.sqrt(N + 5)
    _, _, smin = _constrain(_compactification_kernel(N, -1.0),
                            continuity_constraint(N), 1e-8)
    assert abs(smin - expected) <= 2 * math.ulp(expected)


@pytest.mark.parametrize("q", [2, 3, 4, 6])
def test_subgroup_sparse_residual_matches_the_dense_product(q):
    for N in (4, 37, 256):
        T = _subgroup_sparse(q, N)
        A = subgroup_operator(q, N).entries
        for p in range(q):
            lam, v = subgroup_eigenpair(q, p, N)
            bound = 8 * np.finfo(float).eps * np.abs(v).max()
            assert np.abs(T @ v - A @ v).max() <= bound, (N, p)
            dense = float(np.abs(A @ v - lam * v).max())
            assert abs(_subgroup_measures(T, q, p, N)[0] - dense) <= bound


def _traced_peak(fn) -> int:
    fn()  # first call outside the trace: lazy imports and caches
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, params", [
    ("subgroup_minus_one", {"N": 4096}),
    ("one_point_compactification", {"N": 16384}),
])
def test_structured_cases_form_no_dense_matrix(name, params):
    # a dense matrix of either operator at these sizes is over 128 MiB
    peak = _traced_peak(lambda: run_case(name, params))
    assert peak < 16 * 2 ** 20, peak
