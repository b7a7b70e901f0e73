import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from perronlab.operators import cesaro_mean, op
from perronlab.spectral import (
    _EPS,
    _cluster_eigenvalues,
    _constrain,
    analyze,
    constrained_kernel,
    daec_check,
    daec_check_adjoint,
    dim_estimate_check,
    dim_estimate_check_in_ideal,
    eigen,
    is_cyclic,
    mean_ergodic_projection,
    peripheral_spectrum,
    rational_angle,
    rational_peripheral_point_spectrum,
    resolvent_growth_ratio,
)
from perronlab.cli import main
from perronlab.lattice import vec
from perronlab.sampling import plant_jordan
from perronlab.schemes import pole_order_at

SWAP = op([[0, 1], [1, 0]])


def test_eigen_identity_multiplicities():
    pairs = eigen(op(np.eye(3)))
    assert len(pairs) == 1
    p = pairs[0]
    assert p.value == pytest.approx(1.0)
    assert (p.alg_mult, p.geo_mult, p.pole_order) == (3, 3, 1)


def test_eigen_swap():
    pairs = eigen(SWAP)
    vals = sorted(p.value.real for p in pairs)
    assert vals == pytest.approx([-1.0, 1.0])
    for p in pairs:
        assert (p.alg_mult, p.geo_mult, p.pole_order) == (1, 1, 1)
        v = p.basis[0].entries
        assert np.abs(SWAP.entries @ v - p.value * v).max() <= 1e-10


def test_eigen_defective_block():
    J = op([[1, 1], [0, 1]])
    pairs = eigen(J)
    assert len(pairs) == 1
    p = pairs[0]
    assert (p.alg_mult, p.geo_mult, p.pole_order) == (2, 1, 2)


def _jordan_sum(*sizes):
    """Exact direct sum of Jordan blocks at 1."""
    n = sum(sizes)
    J = np.eye(n)
    start = 0
    for m in sizes:
        for i in range(start, start + m - 1):
            J[i, i + 1] = 1.0
        start += m
    return J


@pytest.mark.parametrize("sizes, expected", [
    ((2, 1), (3, 2, 2)),
    ((3, 1), (4, 2, 3)),
    ((2, 2), (4, 2, 2)),
])
def test_eigen_jordan_direct_sums(sizes, expected):
    # pole order strictly between 1 and the algebraic multiplicity
    pairs = eigen(op(_jordan_sum(*sizes)))
    assert len(pairs) == 1
    p = pairs[0]
    assert p.value == pytest.approx(1.0)
    assert (p.alg_mult, p.geo_mult, p.pole_order) == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eigen_planted_jordan_block(m, seed):
    T = plant_jordan(np.random.default_rng(seed), 8, m)
    p = min(eigen(T), key=lambda q: abs(q.value - 1.0))
    assert p.value == pytest.approx(1.0, abs=1e-6)
    assert (p.alg_mult, p.geo_mult, p.pole_order) == (m, 1, m)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_eigen_pole_order_is_pole_order_at(m):
    # eigen runs the staircase from its kernel SVD at the cluster mean and
    # the kernel cut; on blocks it clusters whole it gives pole_order_at's
    # order at the planted eigenvalue
    for s in range(40):
        T = plant_jordan(np.random.default_rng(s), 12, m)
        top = eigen(T)[0]
        assert top.alg_mult == m, s
        assert top.pole_order == pole_order_at(T, 1.0) == m, s


def test_pole_order_when_cluster_fills_the_space():
    # J2 + J1 at 1 under an orthogonal similarity: (lam - T)^2 is zero up to
    # rounding, which must not count as rank
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    T = op(Q @ _jordan_sum(2, 1) @ Q.T)
    pairs = eigen(T)
    assert [(p.alg_mult, p.geo_mult, p.pole_order) for p in pairs] == [(3, 2, 2)]
    assert pole_order_at(T, 1.0) == 2


def test_pole_order_when_powers_shrink_without_vanishing(tmp_path, capsys):
    # (1 - T)^3 = diag(0, 0, -1.25e-13) is small next to ||1 - T||^3 = 1 but
    # has rank 1, like (1 - T)^2: the pole order at 1 is 2, not 3
    T = op([[1, 1, 0], [0, 1, 0], [0, 0, 1.00005]])
    assert pole_order_at(T, 1.0) == 2
    path = tmp_path / "T.json"
    path.write_text(json.dumps(T.to_json()))
    assert main(["ws", "pole-order", "--op", str(path), "--at", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["pole_order"] == 2
    # the same in eigen: J2 + J2 at 1 with superdiagonal 100, next to a
    # separate eigenvalue 1.006
    A = np.diag([1.0, 1.0, 1.0, 1.0, 1.006])
    A[0, 1] = A[2, 3] = 100.0
    by_value = {round(p.value.real, 3): p for p in eigen(op(A))}
    p = by_value[1.0]
    assert (p.alg_mult, p.geo_mult, p.pole_order) == (4, 2, 2)
    assert by_value[1.006].alg_mult == 1


def test_eigen_clusters_perturbed_jordan():
    # a defective eigenvalue computed in floating point splits into a ring
    # of radius ~eps^(1/m); clustering must reassemble it
    n = 4
    J = np.eye(n)
    for i in range(n - 1):
        J[i, i + 1] = 1.0
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))
    pairs = eigen(op(Q @ J @ Q.T))
    assert len(pairs) == 1
    assert pairs[0].alg_mult == n


def _clusters_by_loop(w, scale, cluster_tol):
    """The pairwise loop that `_cluster_eigenvalues` replaced, verbatim: the
    reference for its output, bit for bit."""
    order = np.argsort(w.real * 1e6 + w.imag)  # deterministic ordering
    clusters = []
    for lam in w[order]:
        placed = False
        for c in clusters:
            if abs(np.mean(c) - lam) <= cluster_tol:
                c.append(lam)
                placed = True
                break
        if not placed:
            clusters.append([lam])
    merged = True
    while merged and len(clusters) > 1:
        merged = False
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = abs(np.mean(clusters[i]) - np.mean(clusters[j]))
                if best is None or d < best[0]:
                    best = (d, i, j)
        d, i, j = best
        k = len(clusters[i]) + len(clusters[j])
        # a defective cluster of size >= k+1 scatters like eps^(1/(k+1));
        # the cap keeps genuinely separated eigenvalues apart
        defect_radius = min(
            30.0 * k * (_EPS * max(1.0, scale)) ** (1.0 / (k + 1)), 5e-3
        )
        if d <= max(cluster_tol, defect_radius):
            clusters[i].extend(clusters[j])
            del clusters[j]
            merged = True
    return [np.array(c) for c in clusters]


def _assert_clusters_match_loop(w, scale, cluster_tol):
    got = _cluster_eigenvalues(w, scale, cluster_tol)
    want = _clusters_by_loop(w, scale, cluster_tol)
    assert len(got) == len(want)
    for g, e in zip(got, want):
        assert g.dtype == e.dtype
        assert np.array_equal(g.view(np.int64), e.view(np.int64))


def _assert_eigen_clusters_match_loop(A):
    """With the scale and tolerance `eigen` passes for A."""
    w = np.linalg.eigvals(A)
    r = float(np.abs(w).max())
    _assert_clusters_match_loop(w, max(1.0, float(np.abs(A).max())),
                                1e-7 * max(1.0, r))


@st.composite
def _nonnegative_matrices(draw):
    n = draw(st.integers(1, 30))
    A = draw(arrays(np.float64, (n, n), elements=st.floats(0.0, 1.0),
                    fill=st.nothing()))
    return draw(st.sampled_from([1.0, 50.0])) * A


@settings(deadline=None, max_examples=60)
@given(A=_nonnegative_matrices())
def test_clusters_match_the_loop_on_nonnegative_matrices(A):
    _assert_eigen_clusters_match_loop(A)


@pytest.mark.parametrize("scale", [1.0, 50.0])
@pytest.mark.parametrize("m", range(1, 7))
def test_clusters_match_the_loop_on_planted_jordan_blocks(m, scale):
    rng = np.random.default_rng(m)
    for n in range(max(m, 2), 15):
        for _ in range(2):
            _assert_eigen_clusters_match_loop(
                scale * plant_jordan(rng, n, m).entries.real)


@pytest.mark.parametrize("scale", [1.0, 50.0])
def test_clusters_match_the_loop_on_exact_repeats(scale):
    rng = np.random.default_rng(7)
    for m in (1, 2, 3):
        B = scale * plant_jordan(rng, 4, m).entries.real
        _assert_eigen_clusters_match_loop(np.kron(np.eye(3), B))
        _assert_eigen_clusters_match_loop(
            np.kron(np.eye(3), np.abs(rng.standard_normal((4, 4)))))


@pytest.mark.parametrize("scale", [1.0, 50.0])
@pytest.mark.parametrize("h", [1e-8, 1e-7, 1e-4, 3.6e-4, 5e-3])
def test_clusters_match_the_loop_on_evenly_spaced_reals(h, scale):
    # equal gaps between neighbours tie the closest pair
    for n in (3, 5, 9, 20):
        x = scale * (1.0 + h * np.arange(n))
        for w in (x, x[::-1], x.astype(complex)):
            _assert_clusters_match_loop(w, scale, 1e-7 * scale)


@pytest.mark.parametrize("scale", [1.0, 50.0])
@pytest.mark.parametrize("m", range(2, 7))
def test_clusters_match_the_loop_on_rings(m, scale):
    # a defective eigenvalue in floating point: 1 + eps^(1/m) e^(2 pi i k/m)
    for eps in (1e-16, 1e-14, 1e-12, 1e-10):
        ring = 1.0 + eps ** (1.0 / m) * np.exp(2j * np.pi * np.arange(m) / m)
        w = scale * np.concatenate([ring, ring + 1e-3, [0.5, 0.5 + 1e-9]])
        _assert_clusters_match_loop(w, scale, 1e-7 * scale)


# The tolerance set to a distance the loop computes, so that a mean one ulp
# off flips the decision.  The cap on the defect radius, 5e-3, lies below
# the tolerance, so the merge phase cannot undo the flip.
@settings(deadline=None, max_examples=100)
@given(st.floats(0.5, 2.0), st.floats(1e-6, 1e-3), st.floats(1e-6, 1e-3),
       st.floats(6e-3, 5e-2))
def test_clusters_match_the_loop_with_the_tolerance_on_a_join(x, g, h, off):
    # three values form a cluster; the fourth joins it exactly at the
    # tolerance
    w = np.array([x, x + g, x + g + h, 0.0])
    w[3] = np.mean(list(w[:3])) + off
    tol = abs(np.mean(list(w[:3])) - w[3])
    for v in (w, w.astype(complex)):
        _assert_clusters_match_loop(v, 1.0, tol)


@settings(deadline=None, max_examples=100)
@given(st.floats(0.5, 2.0), st.floats(-0.05, 0.05), st.floats(1e-8, 3e-8))
def test_clusters_match_the_loop_with_the_tolerance_on_a_merge(x, jit, eps):
    # {a, p, q} and {b} leave the join phase 0.8 tolerances apart and merge;
    # d then lies exactly one tolerance from the merged mean
    u = 0.01
    a, b = complex(x), complex(x, 1.2 * u * (1 + jit))
    p, q = complex(x + eps, 0.9 * u), complex(x + 2 * eps, 0.3 * u)
    m = np.mean(list(np.array([a, p, q, b])))
    d = m + u
    tol = abs(m - np.mean([d]))
    _assert_clusters_match_loop(np.array([a, b, p, q, d]), 1.0, tol)


def test_peripheral_spectrum_band():
    T = op(np.diag([1.0, 0.999999999, 0.5]))
    per = peripheral_spectrum(eigen(T), band_tol=1e-6)
    assert len(per) == 1
    assert per[0].alg_mult == 2  # the two near-1 values cluster together


def test_rational_angle():
    assert rational_angle(math.pi) == pytest.approx(0.5)
    fr = rational_angle(2 * math.pi * 3 / 7)
    assert (fr.numerator, fr.denominator) == (3, 7)
    assert rational_angle(2 * math.pi * (math.sqrt(2) - 1)) is None
    assert rational_angle(0.0) == 0


def test_is_cyclic_verdicts():
    roots4 = [cmath.exp(2j * math.pi * k / 4) for k in range(4)]
    assert is_cyclic(roots4, 1.0).verdict == "cyclic"
    missing = [1.0, 1j]  # closure needs -1 and -i
    res = is_cyclic(missing, 1.0)
    assert res.verdict == "not_cyclic"
    assert res.witness == pytest.approx(-1.0)
    irr = [cmath.exp(2j * math.pi * (math.sqrt(2) - 1))]
    assert is_cyclic(irr, 1.0).verdict == "not_cyclic"
    assert is_cyclic([], 1.0).verdict == "cyclic"
    with pytest.raises(ValueError):
        is_cyclic([0.5], 1.0)


def test_analyze_report_json():
    rep = analyze(SWAP, dim_check=True)
    assert rep.spectral_radius == pytest.approx(1.0)
    assert rep.cyclic.verdict == "cyclic"
    out = rep.to_json()
    assert out["cyclic"]["verdict"] == "cyclic"
    assert all(v["ok"] for v in out["dim_verdicts"])


def test_dim_estimate_check_markov_pass_and_violation():
    assert all(v.ok for v in dim_estimate_check(SWAP))
    # a double (-1)-eigenvalue over a simple fixed space: the dimension at
    # theta = pi exceeds the dimension of its even powers (at 1)
    T = op(np.diag([1.0, -1.0, -1.0]))
    verdicts = dim_estimate_check(T)
    bad = [v for v in verdicts if not v.ok]
    assert bad
    assert all(abs(v.theta - math.pi) <= 1e-9 and v.n % 2 == 0 for v in bad)
    assert all(v.dim_source == 2 and v.dim_target == 1 for v in bad)


def test_constrained_eigenspace_dim():
    T = op(np.diag([1.0, 1.0, 0.5]))
    C = np.array([[1.0, 0.0, 0.0]])
    assert constrained_kernel(T, 1.0, C)[0] == 1
    C2 = np.eye(3)[:2]
    assert constrained_kernel(T, 1.0, C2)[0] == 0


def _constrained_kernel_ref(T, lam, constraints, tol=1e-8):
    # constrained_kernel and its constraint step as written before the cut
    # went behind operators.numerical_rank
    A = lam * np.eye(T.dim) - T.entries
    _, s, vh = np.linalg.svd(A)
    V = vh[s <= tol * max(1.0, s[0])].conj().T
    if V.shape[1] == 0:
        return 0, V, float(s[-1])
    return _constrain_ref(V, constraints, tol)


def _constrain_ref(V, constraints, tol):
    C = np.atleast_2d(constraints) @ V
    _, sc, vc = np.linalg.svd(C)
    sc = np.concatenate([sc, np.zeros(V.shape[1] - len(sc))])
    keep = sc <= tol * max(1.0, sc[0] if sc.size else 0.0)
    basis = V @ vc[keep].conj().T
    certificate = float(sc.min()) if sc.size else 0.0
    return basis.shape[1], basis, certificate


def _same_result(got, ref):
    assert got[0] == ref[0]
    assert np.array_equal(got[1], ref[1])
    assert got[2] == ref[2]


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 12),
       st.integers(1, 14), st.sampled_from([0.0, 1e-12, 1e-8, 1e-3]))
def test_constrained_kernel_matches_the_old_cut(seed, n, rank, rows, tol):
    """Dimension, basis and certificate of constrained_kernel and _constrain
    are bitwise those of the old inline cuts, on low-rank T (a kernel of
    dimension n - rank at 0) and on generic T, with wide and tall constraint
    maps."""
    rng = np.random.default_rng(seed)
    rank = min(rank, n)
    X = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    T = op(X @ rng.standard_normal((rank, n)))
    C = rng.standard_normal((rows, n))
    for lam in (0.0, 0.3 + 0.1j):
        _same_result(constrained_kernel(T, lam, C, tol),
                     _constrained_kernel_ref(T, lam, C, tol))
    V, _ = np.linalg.qr(rng.standard_normal((n, rng.integers(1, n + 1))))
    _same_result(_constrain(V, C, tol), _constrain_ref(V, C, tol))


def test_dim_estimate_check_in_ideal():
    # block diagonal: the ideal generated by the first-block fixed vector
    T = op(np.block([
        [SWAP.entries.real * 0.5 + 0.5 * np.eye(2), np.zeros((2, 1))],
        [np.zeros((1, 2)), np.array([[3.0]])],
    ]))
    x = vec([1.0, 1.0, 0.0])
    verdicts = dim_estimate_check_in_ideal(T, x)
    assert all(v.ok for v in verdicts)
    with pytest.raises(ValueError):
        dim_estimate_check_in_ideal(T, vec([1.0, 2.0, 0.0]))


def test_rational_peripheral_point_spectrum():
    theta = 2 * math.pi * (math.sqrt(2) - 1)
    R = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    T = op(np.block([
        [R, np.zeros((2, 2))],
        [np.zeros((2, 2)), SWAP.entries.real],
    ]))
    vals = rational_peripheral_point_spectrum(eigen(T))
    assert sorted(v.real for v in vals) == pytest.approx([-1.0, 1.0])


def test_mean_ergodic_projection_swap():
    P, msg = mean_ergodic_projection(SWAP)
    assert msg == "ok"
    assert np.allclose(P.entries, 0.5 * np.ones((2, 2)))
    C = cesaro_mean(SWAP, 20000)
    assert np.abs(C.entries - P.entries).max() <= 1e-4


def test_mean_ergodic_projection_absent_for_jordan():
    P, msg = mean_ergodic_projection(op([[1, 1], [0, 1]]))
    assert P is None
    assert "pole order" in msg


def test_mean_ergodic_projection_matches_cesaro_limit():
    rng = np.random.default_rng(5)
    A = rng.dirichlet(np.ones(4), size=4)
    T = op(A)
    P, msg = mean_ergodic_projection(T)
    assert msg == "ok"
    # Cesaro convergence is O(1/n); check proximity and the rate
    e1 = np.abs(cesaro_mean(T, 2000).entries - P.entries).max()
    e2 = np.abs(cesaro_mean(T, 4000).entries - P.entries).max()
    assert e2 <= 1e-3
    assert e2 <= 0.6 * e1
    # projection identities
    assert np.abs(P.entries @ P.entries - P.entries).max() <= 1e-8
    assert np.abs(T.entries @ P.entries - P.entries).max() <= 1e-8


def test_daec_swap_holds_with_witness():
    res = daec_check(SWAP, 1.0, math.pi)
    assert res.verdict == "holds" and res.provable
    z, x = res.witness
    zr = z.entries / z.entries[0]
    assert np.allclose(zr, [1.0, -1.0])
    xr = x.entries.real
    assert xr[0] == pytest.approx(xr[1])
    assert np.all(np.abs(z.entries) <= xr + 1e-10)


def test_daec_adjoint_consistency():
    res = daec_check_adjoint(SWAP, 1.0, math.pi)
    assert res.verdict == "holds"


def test_daec_missing_eigenvalue_raises():
    with pytest.raises(ValueError):
        daec_check(SWAP, 1.0, math.pi / 3)


def test_resolvent_growth_ratio_swap():
    schedule = [1.0 + 2.0 ** (-k) for k in range(1, 15)]
    out, limsup = resolvent_growth_ratio(SWAP, math.pi, schedule)
    assert all(abs(ratio - 1.0) <= 1e-10 for _, ratio in out)
    assert limsup == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        resolvent_growth_ratio(SWAP, math.pi, [1.0])


def test_resolvent_growth_ratio_gap_at_angle():
    T = op(np.diag([1.0, 0.5]))
    schedule = [1.0 + 2.0 ** (-k) for k in range(1, 21)]
    _, limsup = resolvent_growth_ratio(T, math.pi, schedule)
    assert limsup <= 0.01
