import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perronlab.lattice import (
    LatticeVector,
    NormTag,
    SpaceModel,
    dominates,
    entrywise_sup,
    independence_preserved,
    is_lattice_homomorphism,
    lattice_power,
    modulus,
    vec,
    vector_norm,
)


def test_space_model_validation():
    with pytest.raises(ValueError):
        SpaceModel(0)
    with pytest.raises(ValueError):
        SpaceModel(2, NormTag.SUP, ("a",))
    with pytest.raises(ValueError):
        SpaceModel(2, NormTag.SUP, ("a", "a"))
    m = SpaceModel(2, NormTag.ONE, ("a", "b"))
    assert SpaceModel.from_json(m.to_json()) == m


def test_vector_roundtrip_and_norms():
    v = vec([1, -2, 3j], norm_tag=NormTag.ONE)
    assert v.norm() == pytest.approx(1 + 2 + 3)
    w = vec([1, -2, 3j])
    assert w.norm() == pytest.approx(3)
    back = LatticeVector.from_json(v.to_json(), v.model)
    assert np.allclose(back.entries, v.entries)
    assert not v.is_real()
    assert vec([1.0, 2.0]).is_real()


def test_vector_entries_frozen():
    v = vec([1, 2])
    with pytest.raises(ValueError):
        v.entries[0] = 5


def test_modulus_and_sup():
    v = vec([3 - 4j, -2, 0])
    assert np.allclose(modulus(v).entries, [5, 2, 0])
    a, b = vec([1, -1, 0]), vec([0, 2, -3])
    assert np.allclose(entrywise_sup([a, b]).entries, [1, 2, 0])
    with pytest.raises(ValueError):
        entrywise_sup([])
    with pytest.raises(ValueError):
        entrywise_sup([vec([1j, 0, 0])])


def test_dominates():
    x = vec([2, 2, 2])
    assert dominates(x, vec([1 + 1j, -2, 0]))
    assert not dominates(x, vec([3, 0, 0]))
    with pytest.raises(ValueError):
        dominates(vec([1j, 0, 0]), x)


def test_lattice_power_basics():
    f = vec([2j, -1, 0])
    f2 = lattice_power(f, 2)
    # (i)^2 * 2 = -2, (-1)^2 * 1 = 1, zero stays zero
    assert np.allclose(f2.entries, [-2, 1, 0])
    f0 = lattice_power(f, 0)
    assert np.allclose(f0.entries, np.abs(f.entries))
    with pytest.raises(ValueError):
        lattice_power(vec([0, 0]), 1)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=10, allow_nan=False,
                           allow_infinity=False),
        min_size=1, max_size=6,
    ),
    st.integers(-4, 4),
    st.integers(-4, 4),
)
@example([2.225073858507203e-309], 1, 1)
def test_lattice_power_additivity_property(entries, a, b):
    v = np.array(entries, dtype=complex)
    if not np.abs(v).max():
        v[0] = 1.0
    f = vec(v)
    fa = lattice_power(f, a).entries
    fb = lattice_power(f, b).entries
    fab = lattice_power(f, a + b).entries
    mod = np.abs(v)
    assert np.abs(np.abs(fa) - mod).max() <= 1e-12 * max(1.0, mod.max())
    supp = mod > 0
    # real divisions: a complex division by a subnormal modulus overflows
    prod = fa[supp] * fb[supp]
    lhs = prod.real / mod[supp] + 1j * (prod.imag / mod[supp])
    assert np.abs(lhs - fab[supp]).max() <= 1e-10 * max(1.0, mod.max())


def test_independence_preserved_examples():
    G = [vec([1, 1j, 0]), vec([0, 1, 1])]
    assert independence_preserved(G, 3)
    assert independence_preserved(G, -2)
    single = [vec([1, 2, 3])]
    assert independence_preserved(single, 5)
    with pytest.raises(ValueError):
        independence_preserved([], 2)
    with pytest.raises(ValueError):
        independence_preserved([vec([0, 0])], 2)


def test_is_lattice_homomorphism():
    assert is_lattice_homomorphism(np.array([[0, 2.0], [1.0, 0]]))
    assert is_lattice_homomorphism(np.eye(3))
    assert not is_lattice_homomorphism(np.ones((2, 2)))
    assert not is_lattice_homomorphism(np.array([[-1.0, 0], [0, 1.0]]))
    with pytest.raises(ValueError):
        is_lattice_homomorphism(np.ones((2, 3)))


def test_vector_norm_tags():
    arr = np.array([3, -4.0])
    assert vector_norm(arr, NormTag.SUP) == 4
    assert vector_norm(arr, NormTag.ONE) == 7
