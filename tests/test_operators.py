import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perronlab.lattice import NormTag, vec
from perronlab.operators import (
    OperatorMatrix,
    ShiftMultSpec,
    cesaro_lower_bound,
    cesaro_mean,
    direct_sum,
    identity,
    is_markov,
    is_positive,
    numerical_rank,
    op,
    op_norm,
    power,
    resolvent,
    restrict_to_ideal,
    shift_mult_block,
    spectral_radius,
    symbol,
    symbol_power,
)


def test_matrix_roundtrip_and_apply():
    T = op([[0, 1], [1, 0]])
    v = vec([1, 2])
    assert np.allclose(T.apply(v).entries, [2, 1])
    back = OperatorMatrix.from_json(T.to_json())
    assert np.allclose(back.entries, T.entries)
    with pytest.raises(ValueError):
        op(np.ones((2, 3)))


def test_positive_and_markov():
    assert is_positive(op([[0.5, 0.5], [1, 0]]))
    assert not is_positive(op([[1j, 0], [0, 1]]))
    assert is_markov(op([[0.5, 0.5], [1, 0]]))
    assert not is_markov(op([[0.5, 0.4], [1, 0]]))
    with pytest.raises(ValueError):
        is_markov(op(np.eye(2), NormTag.ONE))


def test_op_norm_both_models():
    A = [[1, -2], [3, 0.5]]
    assert op_norm(op(A, NormTag.SUP)) == pytest.approx(3.5)  # max row sum
    assert op_norm(op(A, NormTag.ONE)) == pytest.approx(4.0)  # max col sum


def test_power_and_cesaro():
    T = op([[0, 1], [1, 0]])
    assert np.allclose(power(T, 2).entries, np.eye(2))
    C = cesaro_mean(T, 4)
    assert np.allclose(C.entries, 0.5 * np.ones((2, 2)))
    with pytest.raises(ValueError):
        cesaro_mean(T, 0)
    with pytest.raises(ValueError):
        power(T, -1)


def test_spectral_radius_and_resolvent():
    T = op([[0, 1], [1, 0]])
    assert spectral_radius(T) == pytest.approx(1.0)
    R = resolvent(T, 2.0)
    # (2 - T)^(-1) against the explicit inverse of [[2,-1],[-1,2]]
    assert np.allclose(R.entries, np.array([[2, 1], [1, 2]]) / 3.0)
    with pytest.raises(ValueError):
        resolvent(T, 1.0)


def test_restrict_to_ideal():
    T = op([[0.5, 0, 0], [0.2, 0.3, 0], [0, 0, 1]])
    x = vec([1, 1, 0])
    sub = restrict_to_ideal(T, x)
    assert sub.dim == 2
    assert np.allclose(sub.entries, [[0.5, 0], [0.2, 0.3]])
    # support {2} is not invariant under the transpose-style coupling below
    S = op([[0.5, 0, 0.5], [0, 1, 0], [0.3, 0, 0.7]])
    with pytest.raises(ValueError):
        restrict_to_ideal(S, vec([1, 0, 0]))
    with pytest.raises(ValueError):
        restrict_to_ideal(T, vec([-1, 0, 0]))


def test_shift_mult_symbol_values():
    spec = ShiftMultSpec(2, 5)
    a = symbol(spec)
    # m=2: base 2^(1/1!)=2 below 2!, 2^(-2) at 2!, ones after
    assert np.allclose(a, [2.0, 0.25, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        ShiftMultSpec(2, 2)


@pytest.mark.parametrize("m", [2, 3])
def test_symbol_power_matches_matrix_power(m):
    j_max = math.factorial(m)
    N = math.factorial(m) + j_max + 4
    spec = ShiftMultSpec(m, N)
    block = shift_mult_block(spec)
    for j in range(1, j_max + 1):
        P = power(block, j).entries.real
        a = symbol_power(spec, j).entries.real
        for i in range(1, N - j + 1):
            assert abs(P[i + j - 1, i - 1] - a[i - 1]) <= 1e-12


def test_cesaro_lower_bound_closed_form():
    assert cesaro_lower_bound(2) == pytest.approx(0.5, abs=1e-12)
    direct3 = sum(2.0 ** (k / 2.0) for k in range(6)) / 24.0
    assert cesaro_lower_bound(3) == pytest.approx(direct3, abs=1e-12)


def test_norm_submultiplicative_on_samples():
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = op(rng.standard_normal((4, 4)), NormTag.SUP)
        B = op(rng.standard_normal((4, 4)), NormTag.SUP)
        AB = op(A.entries @ B.entries, NormTag.SUP)
        assert op_norm(AB) <= op_norm(A) * op_norm(B) + 1e-12


def test_direct_sum():
    T = direct_sum([identity(2), op([[2.0]])])
    assert T.dim == 3
    assert np.allclose(T.entries, np.diag([1, 1, 2.0]))
    with pytest.raises(ValueError):
        direct_sum([identity(2), op(np.eye(2), NormTag.ONE)])
    with pytest.raises(ValueError):
        direct_sum([])


# --- the singular-value cut -------------------------------------------------

_EPS = np.finfo(float).eps


@st.composite
def _rank_inputs(draw):
    """A matrix and a tolerance: complex n <= 12, an exactly rank-deficient
    product X Y, lam - T on a Jordan block at lam, or a wide constraint map
    (fewer rows than columns)."""
    kind = draw(st.sampled_from(["complex", "product", "jordan", "wide"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))

    def cnormal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind == "complex":
        A = cnormal(n, n)
    elif kind == "product":
        k = draw(st.integers(0, n - 1))
        A = cnormal(n, k) @ cnormal(k, n)
    elif kind == "jordan":
        m = draw(st.integers(1, n))
        lam = complex(draw(st.sampled_from([1.0, -1.0, 1j, 0.5])))
        J = np.diag(np.concatenate([np.full(m, lam),
                                    rng.uniform(0.1, 0.8, n - m)]))
        J[np.arange(m - 1), np.arange(1, m)] = 1.0
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = lam * np.eye(n) - Q @ J @ Q.T
    else:
        A = cnormal(draw(st.integers(1, n)), n + draw(st.integers(1, 4)))
    A = A * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-8, 1e-3]))
    return A, tol


def _clear_of(s, cut):
    # a cut whose product is associated differently may differ by an ulp
    return not np.any(np.abs(s - cut) <= 4 * np.spacing(cut))


@settings(deadline=None, max_examples=300)
@given(_rank_inputs())
def test_numerical_rank_matches_each_old_cut(inp):
    """numerical_rank gives the count of every inline cut it replaced (the
    old expressions verbatim, as ranks)."""
    A, tol = inp
    k, d = A.shape
    s = np.linalg.svd(A, compute_uv=False)
    padded = np.concatenate([s, np.zeros(d - len(s))])

    # constrained_kernel and gallery._compactification_kernel (square) and
    # spectral._constrain (zero-padded, any shape)
    keep = padded <= tol * max(1.0, padded[0] if padded.size else 0.0)
    assert numerical_rank(s, tol, tol) == d - keep.sum()
    assert numerical_rank(padded, tol, tol) == d - keep.sum()

    # fixedspace._real_kernel_basis: zero-padded, on any shape
    c = d * _EPS * 1e3
    thresh = max(tol, d * _EPS * max(1.0, padded[0] if padded.size else 0.0)
                 * 1e3)
    if _clear_of(s, thresh):
        old_rank = d - (padded <= thresh).sum()
        assert numerical_rank(s, max(tol, c), c) == old_rank

    if k != d:
        return
    n = d
    # spectral.eigen, with its full-rank fallback to vh[-1:]
    scale = max(1.0, float(np.abs(A).max()))
    thresh = max(1e-8 * scale, n * _EPS * scale * 1e3)
    _, s_uv, vh = np.linalg.svd(A)
    old = vh[s_uv <= thresh]
    if old.shape[0] == 0:
        old = vh[-1:]
    assert np.array_equal(vh[min(numerical_rank(s_uv, thresh), n - 1):], old)

    # spectral.mean_ergodic_projection
    cut = max(n * _EPS * max(1.0, s[0]) * 1e3, tol)
    if _clear_of(s, cut):
        c = n * _EPS * 1e3
        assert numerical_rank(s, max(tol, c), c) == int((s > cut).sum())

    # schemes.numerical_rank(A, rtol_factor=1e3, s=s), the cut of the
    # formed-power pole order chain that the staircase replaced
    cut = max(A.shape) * _EPS * s[0] * 1e3
    if _clear_of(s, cut):
        old_rank = 0 if s[0] == 0.0 else int((s > cut).sum())
        noise = max(A.shape) * _EPS * 1e3
        assert numerical_rank(s, rtol=noise) == old_rank


def test_numerical_rank_cut_is_strict():
    s = np.array([2.0, 1.0, 0.5, 0.0])
    assert numerical_rank(s) == 3
    assert numerical_rank(s, atol=0.5) == 2
    assert numerical_rank(s, rtol=0.25) == 2
    assert numerical_rank(s, atol=0.75, rtol=0.25) == 2
    assert numerical_rank(s, atol=0.1, rtol=0.5) == 1
    assert numerical_rank(np.zeros(0), 1.0, 1.0) == 0
    assert numerical_rank(np.zeros(3)) == 0
