import numpy as np
import pytest

from perronlab.sampling import (
    plant_jordan,
    random_markov_reducible,
    random_nonneg,
    random_nonneg_gapped,
    random_stochastic,
)
from perronlab.operators import spectral_radius
from perronlab.suites import run_suite, suite_names


def test_suite_names():
    names = suite_names()
    assert "cyclicity" in names and "ws-coeffs" in names
    with pytest.raises(KeyError):
        run_suite("unknown")


@pytest.mark.parametrize("suite", ["perron", "cyclicity", "markov-dim",
                                   "fixed-space", "lattice-powers",
                                   "independence"])
def test_small_suites_pass(suite):
    res = run_suite(suite, trials=25, seed=0, n=6)
    assert res.ok, res.failures


def test_ws_coeffs_suite():
    res = run_suite("ws-coeffs")
    assert res.ok


def test_samplers_deterministic():
    r1 = random_nonneg(np.random.default_rng(7), 5)
    r2 = random_nonneg(np.random.default_rng(7), 5)
    assert np.array_equal(r1.entries, r2.entries)
    assert r1.entries.real.min() >= 0


def test_random_stochastic_rows():
    T = random_stochastic(np.random.default_rng(1), 6)
    assert np.allclose(T.entries.real.sum(axis=1), 1.0)
    assert T.entries.real.min() >= 0


def test_random_markov_reducible_block_structure():
    T = random_markov_reducible(np.random.default_rng(2), 6, blocks=2)
    assert np.allclose(T.entries.real.sum(axis=1), 1.0)


def test_gapped_sampler_modulus_gap():
    for i in range(20):
        T = random_nonneg_gapped(np.random.default_rng(i), 6, gap=0.05)
        w = np.abs(np.linalg.eigvals(T.entries))
        assert abs(w.max() - 1.0) <= 1e-9
        inner = w[w < 1.0 - 1e-9]
        assert inner.size == 0 or inner.max() <= 0.95 + 1e-9


def test_plant_jordan_spectrum():
    T = plant_jordan(np.random.default_rng(0), 6, 3)
    # a defective unit eigenvalue overshoots by ~eps^(1/m) in floating point
    assert spectral_radius(T) == pytest.approx(1.0, abs=1e-4)
    w = np.linalg.eigvals(T.entries)
    near_one = np.abs(w - 1.0) < 1e-4
    assert near_one.sum() == 3
    with pytest.raises(ValueError):
        plant_jordan(np.random.default_rng(0), 3, 4)
