import math

import numpy as np
import pytest

from perronlab.gallery import (
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
