"""Grid simulator for the coupled rotation/transport Markov semigroup on the
disjoint union of the unit circle and a compactified ray.

The time evolution is exact in t; only the space is discretized (M circle
angles, N+1 ray nodes on [0, L] plus an explicit infinity node)."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SemigroupGrid",
    "GridFunction",
    "grid_function",
    "constant_one",
    "mu_pairing",
    "semigroup_apply",
    "generator_residual",
    "boundary_defect",
]


@dataclass(frozen=True)
class SemigroupGrid:
    """M equispaced circle angles, N+1 ray nodes on [0, L], one infinity node.

    M must be divisible by 4 so that the coupling functional's sample points
    +-i are exact grid angles."""

    M: int
    N: int
    L: float

    def __post_init__(self):
        if self.M < 4 or self.M % 4 != 0:
            raise ValueError("M must be a positive multiple of 4")
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if self.L <= 0:
            raise ValueError("L must be positive")

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.M) / self.M

    @property
    def ray(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.N + 1)


@dataclass(frozen=True)
class GridFunction:
    """Sampled function: values on the circle, on the ray, and at infinity."""

    circle: np.ndarray
    ray: np.ndarray
    infinity: complex
    grid: SemigroupGrid

    def __post_init__(self):
        c = np.array(self.circle, dtype=complex)
        r = np.array(self.ray, dtype=complex)
        if c.shape != (self.grid.M,):
            raise ValueError("circle values must have length M")
        if r.shape != (self.grid.N + 1,):
            raise ValueError("ray values must have length N+1")
        c.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "circle", c)
        object.__setattr__(self, "ray", r)
        object.__setattr__(self, "infinity", complex(self.infinity))

    def sup_norm(self) -> float:
        return float(
            max(
                np.abs(self.circle).max(),
                np.abs(self.ray).max(),
                abs(self.infinity),
            )
        )

    def sub(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(
            self.circle - other.circle,
            self.ray - other.ray,
            self.infinity - other.infinity,
            self.grid,
        )


def grid_function(grid: SemigroupGrid,
                  on_circle: Callable[[complex], complex],
                  on_ray: Callable[[float], complex],
                  at_infinity: complex | None = None) -> GridFunction:
    """Sample callables on the grid; infinity defaults to the last ray value
    (continuity at the compactification point)."""
    circle = np.array([on_circle(np.exp(1j * t)) for t in grid.angles])
    ray = np.array([on_ray(float(x)) for x in grid.ray])
    if at_infinity is None:
        at_infinity = ray[-1]
    return GridFunction(circle, ray, complex(at_infinity), grid)


def constant_one(grid: SemigroupGrid) -> GridFunction:
    return GridFunction(np.ones(grid.M), np.ones(grid.N + 1), 1.0, grid)


def _circle_eval(f: GridFunction, thetas: np.ndarray) -> np.ndarray:
    """Values of the circle part at arbitrary angles by linear interpolation,
    which keeps nonnegative weights (order-preserving)."""
    M = f.grid.M
    t = np.asarray(thetas, dtype=float) % (2.0 * math.pi)
    pos = t / (2.0 * math.pi) * M
    i0 = np.floor(pos).astype(int) % M
    w = pos - np.floor(pos)
    i1 = (i0 + 1) % M
    return (1.0 - w) * f.circle[i0] + w * f.circle[i1]


def mu_pairing(f: GridFunction) -> complex:
    """The coupling functional: the mean of the circle values at +-i."""
    M = f.grid.M
    return 0.5 * (f.circle[M // 4] + f.circle[3 * M // 4])


def _ray_eval(f: GridFunction, xs: np.ndarray) -> np.ndarray:
    """Linear interpolation on the ray nodes (constant beyond L)."""
    xs = np.asarray(xs, dtype=float)
    re = np.interp(xs, f.grid.ray, f.ray.real)
    im = np.interp(xs, f.grid.ray, f.ray.imag)
    return re + 1j * im


def _quadrature_nodes(u, M: int):
    """Trapezoid panel count for the memory integral over [0, u]: about two
    panels per circle grid step, at least four."""
    return np.maximum(4, 2 * np.ceil(u * M / (2.0 * math.pi)))


def _memory_integral(f: GridFunction, u: float) -> complex:
    """integral_0^u e^s <mu, R(s) f|circle> ds by composite trapezoid on the
    linearly interpolated circle."""
    n = int(_quadrature_nodes(u, f.grid.M))
    s = np.linspace(0.0, u, n + 1)
    M = f.grid.M
    top = 2.0 * math.pi * (M // 4) / M
    bottom = 2.0 * math.pi * (3 * M // 4) / M
    vals_top = _circle_eval(f, top - s)
    vals_bot = _circle_eval(f, bottom - s)
    integrand = np.exp(s) * 0.5 * (vals_top + vals_bot)
    return complex(np.trapezoid(integrand, s))


def _trig_memory_integrals(a: np.ndarray, k: np.ndarray,
                           us: np.ndarray) -> np.ndarray:
    """The memory integral of every u in `us` for the trigonometric
    interpolant with coefficients `a` at frequencies `k`.

    Under R(s) the mode a_k e^{ik theta} pairs with mu to b_k e^{-iks}, where
    b_k = a_k (i^k + (-i)^k) / 2 is a_k, 0, -a_k, 0 for k = 0, 1, 2, 3 mod 4,
    so the integrand is sum_k b_k e^{(1-ik)s}.  Its composite trapezoid with
    n panels of width h = u/n is sum_k b_k tau(k), where the trapezoid of the
    geometric sequence q^m, q = e^{(1-ik)h}, is
    tau(k) = h [(q^{n+1} - 1)/(q - 1) - (1 + q^n)/2]; |q| = e^h > 1."""
    M = a.size
    # even indices carry the even k; k = index (mod 4) because M % 4 == 0
    b = a[::2] * np.tile([1.0, -1.0], M // 4)
    w = 1.0 - 1j * k[::2]
    h = (us / _quadrature_nodes(us, M))[:, None]
    qn = np.exp(us[:, None] * w)
    qm1 = np.expm1(h * w)
    tau = h * ((qn * (1.0 + qm1) - 1.0) / qm1 - 0.5 * (1.0 + qn))
    return tau @ b


def semigroup_apply(grid: SemigroupGrid, t: float, f: GridFunction,
                    interp: str = "linear") -> GridFunction:
    """Evaluate the three-branch evolution formula at time t:
    rotation on the circle, right transport on the ray, and the exponential
    memory of the circle coupling below the transport front.

    `interp` picks the circle interpolant between grid angles: "linear"
    keeps nonnegative weights (order-preserving); "trig" is exact on the
    harmonics x^m, |m| <= M/2 - 1, and costs one FFT and one inverse FFT
    per call."""
    if f.grid != grid:
        raise ValueError("grid mismatch")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t > grid.L:
        raise ValueError("ray truncation exceeded (t > L)")
    xs = grid.ray
    ahead = xs >= t
    behind = np.flatnonzero(~ahead)
    us = t - xs[behind]
    if interp == "linear":
        circle = _circle_eval(f, grid.angles - t)
        memory = [_memory_integral(f, u) for u in us]
    elif interp == "trig":
        M = grid.M
        a = np.fft.fft(f.circle) / M
        k = np.fft.fftfreq(M, d=1.0 / M)
        circle = M * np.fft.ifft(a * np.exp(-1j * k * t))
        memory = _trig_memory_integrals(a, k, us)
    else:
        raise ValueError("interp must be 'linear' or 'trig'")
    ray = np.empty(grid.N + 1, dtype=complex)
    ray[ahead] = _ray_eval(f, xs[ahead] - t)
    for j, u, mem in zip(behind, us, memory):
        # math.exp, not np.exp: the two differ in the last bit for some u
        ray[j] = math.exp(-u) * (f.ray[0] + mem)
    return GridFunction(circle, ray, f.infinity, grid)


def generator_residual(grid: SemigroupGrid, f: GridFunction, lam: complex,
                       h: float, interp: str = "trig") -> float:
    """sup norm of (T(h)f - f)/h - lam*f away from the discretization
    boundary (the last ray node and the infinity node are excluded)."""
    if h <= 0:
        raise ValueError("h must be positive")
    g = semigroup_apply(grid, h, f, interp=interp)
    diff_circle = (g.circle - f.circle) / h - lam * f.circle
    diff_ray = (g.ray - f.ray) / h - lam * f.ray
    return float(
        max(np.abs(diff_circle).max(), np.abs(diff_ray[:-1]).max())
    )


def boundary_defect(grid: SemigroupGrid, f: GridFunction) -> float:
    """Defect in the generator-domain boundary relation
    f'(0) = f(0) - <mu, f|circle>, with f'(0) by one-sided difference."""
    dx = grid.ray[1] - grid.ray[0]
    fprime0 = (f.ray[1] - f.ray[0]) / dx
    return float(abs(fprime0 - (f.ray[0] - mu_pairing(f))))
