import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from perronlab import operators
from perronlab.operators import cesaro_mean, numerical_rank, op, op_norm, \
    power_sums, spectral_radius
from perronlab.schemes import (
    SchemeKind,
    Verdict,
    builtin_scheme,
    check_ws1,
    check_ws2,
    check_ws3,
    pole_order_at,
    weighted_scalar_sum,
    ws_bounded_probe,
)
from perronlab.sampling import plant_jordan

ALL_KINDS = [SchemeKind.POWERS, SchemeKind.ABEL_NET, SchemeKind.ABEL_POWERS,
             SchemeKind.CESARO, SchemeKind.EXPONENTIAL]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_builtin_schemes_satisfy_checks(kind):
    fam = builtin_scheme(kind)
    for s in fam.streams():
        assert check_ws1(s) is Verdict.PASS
        assert check_ws2(s) is Verdict.PASS
    assert check_ws3(fam) in (Verdict.PASS, Verdict.PASS_ON_PREFIX)


def test_check_ws3_flags_constant_columns():
    from perronlab.schemes import CoeffStream, SchemeFamily

    const = CoeffStream(lambda k: 1.0 if k == 0 else 0.0,
                        lambda K: 0.0, "point mass at 0")
    fam = SchemeFamily(tuple(range(8)), lambda j: const)
    assert check_ws3(fam) is Verdict.FAIL


def test_abel_net_coefficients_are_geometric():
    fam = builtin_scheme(SchemeKind.ABEL_NET, {"lambdas": (2.0,)})
    s = fam.stream(2.0)
    ks = np.arange(8)
    assert np.allclose(s.coeffs(7), 0.5 ** (ks + 1))


def test_abel_powers_coefficients_match_the_product_loop():
    """coeff(k) carries the recurrence: the same IEEE products as restarting
    from ((lam-1)/lam)^j and multiplying k factors, in any call order."""
    def loop(lam, j, k):
        c = ((lam - 1.0) / lam) ** j
        for i in range(1, k + 1):
            c *= (j + i - 1) / i / lam
        return c

    def tail(lam, j, K):
        q = (j + K + 1) / (K + 2) / lam
        return 1.0 if q >= 1.0 else loop(lam, j, K + 1) / (1.0 - q)

    K = 300
    for lam in (1.01, 1.5, 2.0, 3.0, 7.3):
        fam = builtin_scheme(SchemeKind.ABEL_POWERS, {"lam": lam, "count": 40})
        for j in range(1, 40):
            ref = [loop(lam, j, k) for k in range(K + 1)]
            s = fam.stream(j)
            assert s.coeffs(K).tolist() == ref
            assert [s.tail_bound(k) for k in (0, 7, K)] == \
                [tail(lam, j, k) for k in (0, 7, K)]
            fresh = fam.stream(j)
            assert (fresh.coeff(250), fresh.coeff(3)) == (ref[250], ref[3])
            assert fam.stream(j).tail_bound(K) == tail(lam, j, K)


def test_ws_bounded_probe_rejects_bad_arguments():
    fam = builtin_scheme(SchemeKind.CESARO)
    swap = op([[0, 1], [1, 0]])
    for K, budget in ((-1, 20), (200, 0), (200, -1)):
        with pytest.raises(ValueError, match="need K >= 0 and budget >= 1"):
            ws_bounded_probe(swap, fam, K=K, budget=budget)
    with pytest.raises(ValueError):
        ws_bounded_probe(op([[2.0]]), fam)


def test_ws_bounded_probe_verdicts():
    # symmetric swap: Cesaro means are bounded
    swap = op([[0, 1], [1, 0]])
    fam = builtin_scheme(SchemeKind.CESARO)
    rep = ws_bounded_probe(swap, fam, budget=40)
    assert rep.verdict == "bounded-evidence"
    # Jordan block at 1: Cesaro means grow linearly
    J = op([[1, 1], [0, 1]])
    rep2 = ws_bounded_probe(J, fam, budget=40)
    assert rep2.verdict == "growth-evidence"
    assert rep2.growth_slope == pytest.approx(1.0, abs=0.15)


def test_weighted_scalar_sum_validation():
    fam = builtin_scheme(SchemeKind.CESARO, {"count": 3})
    sums = weighted_scalar_sum(fam, [1.0] * 11, K=10)
    assert np.allclose(sums, 1.0)
    with pytest.raises(ValueError):
        weighted_scalar_sum(fam, [1.0, 0.5] + [1.0] * 9, K=10)
    with pytest.raises(ValueError):
        weighted_scalar_sum(fam, [1.0] * 3, K=10)


def test_numerical_rank():
    # a cut at n*eps*1e3 relative to s[0], the one the formed-power pole
    # order chain used; the staircase takes its caller's absolute cut
    def rank(A):
        s = np.linalg.svd(A, compute_uv=False)
        return numerical_rank(s, rtol=A.shape[0] * np.finfo(float).eps * 1e3)

    assert rank(np.zeros((3, 3))) == 0
    assert rank(np.eye(3)) == 3
    assert rank(np.outer([1.0, 2, 3], [4.0, 5, 6])) == 1


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pole_order_matches_jordan_block(m):
    n = 4
    J = np.eye(n)
    for i in range(m - 1):
        J[i, i + 1] = 1.0
    J[m:, m:] = np.diag(np.linspace(0.2, 0.5, n - m))
    assert pole_order_at(op(J), 1.0) == m
    with pytest.raises(ValueError):
        pole_order_at(op(J), 5.0)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=12)
       .filter(lambda sizes: sum(sizes) <= 12),
       st.integers(0, 2**32 - 1))
def test_pole_order_of_jordan_direct_sums(sizes, seed):
    """Direct sums of Jordan blocks at 1 under an orthogonal similarity: the
    pole order at 1 is the largest block, a rotated identity included."""
    n = sum(sizes)
    J = np.eye(n)
    start = 0
    for m in sizes:
        for i in range(start, start + m - 1):
            J[i, i + 1] = 1.0
        start += m
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    assert pole_order_at(op(Q @ J @ Q.T), 1.0) == max(sizes)


def test_pole_order_of_every_planted_block_size():
    # a formed power of 1 - T reads rounding as rank: that chain was wrong on
    # 21 of these 480, all at m = 9..11
    wrong = [(m, s) for m in range(1, 13) for s in range(40)
             if pole_order_at(plant_jordan(np.random.default_rng(s), 12, m),
                              1.0) != m]
    assert wrong == []


@pytest.mark.parametrize("A", [[[0, 1], [1, 0]], np.diag([1, 0.5, 0.25])],
                         ids=["swap", "diag"])
@pytest.mark.parametrize("delta", [1e-9, 1e-8, 1e-7])
def test_pole_order_near_a_simple_eigenvalue_raises(A, delta):
    # 1 + delta is within 1e-7 of the eigenvalue 1, but 1 + delta - T is
    # nonsingular far above rounding: it is not an eigenvalue
    with pytest.raises(ValueError, match="not in spectrum"):
        pole_order_at(op(A), 1.0 + delta)


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=1.01, max_value=4.0))
def test_abel_stream_normalization_property(lam):
    fam = builtin_scheme(SchemeKind.ABEL_NET, {"lambdas": (lam,)})
    s = fam.stream(lam)
    # geometric series sums to one; prefix + tail bound certificate
    assert check_ws1(s, K=200) is Verdict.PASS
    assert s.coeff(0) == pytest.approx((lam - 1.0) / lam)


def _walk_per_index(T, fam, K, budget):
    """The probe's norms computed one index at a time: a fresh walk over
    T^0..T^K for every index, or one running Cesaro sum divided by n."""
    indices = fam.index_set[:budget]
    A = T.entries
    if fam.kind is SchemeKind.CESARO:
        acc = np.eye(T.dim, dtype=complex)
        cur = np.eye(T.dim, dtype=complex)
        by_n = {}
        for n in range(1, max(indices) + 1):
            if n > 1:
                cur = A @ cur
                acc += cur
            by_n[n] = op_norm(op(acc / n, model=T.model))
        return [by_n[j] for j in indices]
    norms = []
    for j in indices:
        a = fam.stream(j).coeffs(K)
        acc = np.zeros((T.dim, T.dim), dtype=complex)
        cur = np.eye(T.dim, dtype=complex)
        for k in range(K + 1):
            if k > 0:
                cur = A @ cur
            acc += a[k] * cur
        norms.append(op_norm(op(acc, model=T.model)))
    return norms


@st.composite
def _unit_radius_operators(draw):
    n = draw(st.integers(1, 8))
    A = draw(arrays(np.float64, (n, n), elements=st.floats(0.0, 1.0),
                    fill=st.nothing()))
    r = spectral_radius(op(A))
    assume(r > 0.1)
    T = op(A / r)
    assume(spectral_radius(T) <= 1.0 + 1e-4)
    return T


@pytest.mark.parametrize("K", [10, 200])
@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(deadline=None, max_examples=10)
@given(T=_unit_radius_operators())
def test_probe_norms_match_a_walk_per_index(kind, K, T):
    fam = builtin_scheme(kind)
    rep = ws_bounded_probe(T, fam, K=K, budget=20)
    assert list(rep.norms) == _walk_per_index(T, fam, K, 20)


def test_power_sums_rows_of_different_lengths():
    T = op([[0.5, 0.5], [0.2, 0.8]])
    a, b = np.array([0.5, 0.25, 0.25]), np.array([1.0])
    sa, sb = power_sums(T, [a, b])
    assert np.array_equal(sa, power_sums(T, [a])[0])
    assert np.array_equal(sb, np.eye(2))
    expected = 0.5 * np.eye(2) + 0.25 * T.entries + 0.25 * T.entries @ T.entries
    assert np.allclose(sa, expected)


def test_power_sums_all_zero_row():
    T = op([[0.0, 1.0], [1.0, 0.0]])
    s0, s1 = power_sums(T, [np.zeros(0), np.zeros(4)])
    assert not s0.any() and not s1.any()
    assert power_sums(T, []).shape == (0, 2, 2)
    # powers beyond K have no coefficient in 0..K: their sum is zero
    fam = builtin_scheme(SchemeKind.POWERS, {"count": 14})
    rep = ws_bounded_probe(T, fam, K=10, budget=14)
    assert rep.norms[11:] == (0.0, 0.0, 0.0)
    assert rep.norms[:11] == (1.0,) * 11


def _power_sums_per_row(T, rows):
    """The per-row walk power_sums replaced: one n x n accumulator per row,
    a[k] * T^k added in index order while k < len(a)."""
    length = max((len(a) for a in rows), default=0)
    sums = [np.zeros((T.dim, T.dim), dtype=complex) for _ in rows]
    cur = np.eye(T.dim, dtype=complex)
    for k in range(length):
        if k > 0:
            cur = T.entries @ cur
        for acc, a in zip(sums, rows):
            if k < len(a):
                acc += a[k] * cur
    return sums


_finite = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def _operators_and_rows(draw):
    """Real or complex T with n <= 40 and up to 24 rows of lengths 0..30,
    some of them all zero."""
    n = draw(st.integers(1, 40))
    A = draw(arrays(np.float64, (n, n), elements=_finite))
    if draw(st.booleans()):
        A = A + 1j * draw(arrays(np.float64, (n, n), elements=_finite))
    rows = draw(st.lists(st.one_of(
        st.integers(0, 30).map(np.zeros),
        arrays(np.float64, st.integers(0, 30),
               elements=st.floats(-1e3, 1e3, allow_subnormal=False))),
        max_size=24))
    return op(A / max(1.0, np.abs(A).sum(axis=1).max())), rows


@settings(deadline=None, max_examples=60)
@given(_operators_and_rows())
def test_power_sums_is_the_per_row_walk_bit_for_bit(case):
    T, rows = case
    sums = power_sums(T, rows)
    assert sums.shape == (len(rows), T.dim, T.dim)
    refs = _power_sums_per_row(T, rows)
    for got, ref in zip(sums, refs):
        assert got.tobytes() == ref.tobytes()
    # the same with one row per chunk, as at n >= 91
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_CHUNK_DOUBLES", 2 * T.dim ** 2)
        for got, ref in zip(power_sums(T, rows), refs):
            assert got.tobytes() == ref.tobytes()
    # a sum does not depend on the rows beside it
    for got, a in zip(sums, rows):
        assert got.tobytes() == power_sums(T, [a])[0].tobytes()


def test_cesaro_mean_is_the_running_sum():
    A = np.array([[0.2, 0.7, 0.1], [0.0, 0.5, 0.5], [0.3, 0.3, 0.4]])
    acc = np.eye(3, dtype=complex)
    cur = np.eye(3, dtype=complex)
    for _ in range(36):
        cur = A @ cur
        acc += cur
    assert np.array_equal(cesaro_mean(op(A), 37).entries, acc / 37)
