"""Seeded inputs and call lists for the three workloads.

Each builder writes the operator files a workload needs and returns the
fixed list of calls that makes one pass, plus a short warm-up list.  The
program receives only these files and argv (``semigroup_apply`` receives the
grid and function built here); every call carries the truth that the
construction of its input implies, which the oracle checks.

Inputs follow the recipes of ``perronlab.sampling`` (``random_nonneg``,
``random_nonneg_gapped``, ``random_markov_reducible``, ``plant_jordan``) but
are generated here, so a change to the samplers cannot move the inputs.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

SCHEMES = ("powers", "abel_net", "abel_powers", "cesaro", "exponential")


@dataclass
class Call:
    """One call of the closed loop.

    ``argv`` is passed to ``perronlab.cli.main``; a call with ``argv=None``
    goes to the Python API (``semigroup_apply``) with ``args``.  ``group``
    is the call's latency class, ``truth`` what the input's construction
    implies, and ``verdicts`` how many verdicts the call yields (suite
    trials, otherwise 1)."""

    kind: str
    label: str
    group: str
    truth: dict
    argv: list[str] | None = None
    out: str | None = None
    args: tuple = ()
    verdicts: int = 1
    cache: dict = field(default_factory=dict)


# --- input recipes ------------------------------------------------------------

def _permutation(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    perm = rng.permutation(n)
    P = np.zeros((n, n))
    P[np.arange(n), perm] = 1.0
    return P, perm


def _cycles(perm: np.ndarray) -> list[list[int]]:
    seen = np.zeros(len(perm), bool)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = int(perm[i])
        out.append(cyc)
    return out


def weighted_permutation(rng: np.random.Generator, n: int) -> tuple[np.ndarray, int]:
    """Row-weighted permutation and the order of its peripheral group: the
    length of the cycle with the largest geometric-mean weight."""
    P, perm = _permutation(rng, n)
    w = 0.2 + rng.random(n)
    A = P * w[:, None]
    cycles = _cycles(perm)
    means = [np.mean(np.log(w[c])) for c in cycles]
    return A, len(cycles[int(np.argmax(means))])


def cycle_permutation(n: int) -> np.ndarray:
    A = np.zeros((n, n))
    A[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    return A


def dirichlet_stochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n), size=n)


def sparse_nonneg(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.abs(rng.standard_normal((n, n))) * (rng.random((n, n)) < 0.4)


def nonneg_mixture(rng: np.random.Generator, n: int) -> np.ndarray:
    """The structural mixture of ``random_nonneg``: dense, sparse, weighted
    permutation or block diagonal."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return np.abs(rng.standard_normal((n, n)))
    if kind == 1:
        return sparse_nonneg(rng, n)
    if kind == 2:
        return weighted_permutation(rng, n)[0]
    k = int(rng.integers(1, n))
    A = np.zeros((n, n))
    A[:k, :k] = np.abs(rng.standard_normal((k, k)))
    A[k:, k:] = np.abs(rng.standard_normal((n - k, n - k)))
    return A


def gapped(rng: np.random.Generator, n: int, gap: float = 0.05) -> np.ndarray:
    """Nonnegative, spectral radius 1, no eigenvalue modulus in (1-gap, 1)."""
    while True:
        A = nonneg_mixture(rng, n)
        w = np.abs(np.linalg.eigvals(A))
        r = w.max()
        if r <= 1e-10:
            continue
        w = w / r
        if not np.any((w < 1.0 - 1e-9) & (w > 1.0 - gap)):
            return A / r


def planted_jordan(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Q J Q^T with a Jordan block of size m at 1 and the rest of the
    spectrum drawn from [0.1, 0.8]."""
    J = np.zeros((n, n))
    J[:m, :m] = np.eye(m) + np.eye(m, k=1)
    J[m:, m:] = np.diag(rng.uniform(0.1, 0.8, size=n - m))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ J @ Q.T


def markov_reducible(rng: np.random.Generator, n: int, blocks: int
                     ) -> tuple[np.ndarray, list[int]]:
    """Block-diagonal Markov matrix with positive Dirichlet blocks; its fixed
    space is spanned by the block indicators."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=blocks - 1, replace=False))
    sizes = np.diff(np.concatenate([[0], cuts, [n]])).tolist()
    A = np.zeros((n, n))
    pos = 0
    for s in sizes:
        A[pos:pos + s, pos:pos + s] = rng.dirichlet(np.ones(s), size=s)
        pos += s
    return A, sizes


def write_operator(path: str, A: np.ndarray) -> None:
    """Operator file in the schema the CLI reads."""
    A = np.asarray(A, dtype=complex)
    obj = {"model": {"dim": int(A.shape[0]), "norm": "sup"},
           "entries": [[{"re": float(z.real), "im": float(z.imag)} for z in row]
                       for row in A]}
    with open(path, "w") as fh:
        json.dump(obj, fh)


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def operator(self, A: np.ndarray) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"op{self.count:04d}.json")
        write_operator(path, A)
        return path

    def out(self) -> str:
        self.count += 1
        return os.path.join(self.workdir, f"out{self.count:04d}.json")


def spread(calls: list[Call]) -> list[Call]:
    """Order the pass so that every latency class is spread evenly over it.
    The machine's speed drifts over seconds; a class run back to back would
    sample one short window of it and make its percentile jump."""
    size: dict[str, int] = {}
    for c in calls:
        size[c.group] = size.get(c.group, 0) + 1
    seen: dict[str, int] = {}
    keys = []
    for c in calls:
        i = seen[c.group] = seen.get(c.group, -1) + 1
        keys.append((i + 0.5) / size[c.group])
    return [c for _, c in sorted(zip(keys, calls), key=lambda kc: kc[0])]


# --- workloads ----------------------------------------------------------------

def build_spectrum(seed: int, workdir: str, tiny: bool = False):
    """`spectrum FILE --dim-check --json OUT` on stochastic, sparse,
    weighted-permutation and cyclic operators and on planted Jordan blocks.

    One pass holds 118 calls in four latency classes: 90 small (n = 8 and the
    Jordan inputs at n <= 12), 24 at n = 50 and 4 at n = 200.  p90 falls in
    the middle of the n = 50 class, with 12 samples beyond it."""
    rng = np.random.default_rng([seed, 1])
    w = _Writer(workdir)
    calls = []

    def add(label, group, A, **truth):
        truth["A"] = A
        path = w.operator(A)
        out = w.out()
        calls.append(Call("spectrum", label, group, truth,
                          ["spectrum", path, "--dim-check", "--json", out], out))

    sizes = ((8, 2),) if tiny else ((8, 12), (50, 8), (200, 1))
    for n, reps in sizes:
        for _ in range(reps):
            add(f"stochastic n={n}", f"n={n}", dirichlet_stochastic(rng, n),
                order=1)
            add(f"sparse n={n}", f"n={n}", sparse_nonneg(rng, n), order=None)
            A, order = weighted_permutation(rng, n)
            add(f"wperm n={n}", f"n={n}", A, order=order)
    if not tiny:
        add("cycle n=200", "n=200", cycle_permutation(200), order=200)
    for m in ((2, 5) if tiny else range(1, 7)):
        for n in ((8,) if tiny else (8, 10, 12) * 3):
            add(f"jordan m={m} n={n}", "jordan", planted_jordan(rng, n, m),
                order=1, m=m)
    warm = calls[:2]
    return spread(calls), warm


# (suite, trials, calls per pass): 25 calls per pass.  The four fixed-space
# calls and the ws-coeffs call are the slowest class, so p90 sits inside it.
_SUITE_MIX = (("perron", 16, 3), ("cyclicity", 16, 3), ("markov-dim", 16, 3),
              ("daec-implies-cyclic", 16, 3), ("fixed-space", 8, 4),
              ("lattice-powers", 64, 4), ("independence", 32, 4),
              ("ws-coeffs", 8, 1))


def build_suites(seed: int, workdir: str, tiny: bool = False):
    """`verify SUITE --trials T --seed S --n 8 --json OUT` for all 8 suites,
    each call with its own seed; T >= 8 keeps the default thread pool on."""
    w = _Writer(workdir)
    calls = []
    k = 0
    for suite, trials, count in _SUITE_MIX:
        for _ in range(1 if tiny else count):
            k += 1
            out = w.out()
            argv = ["verify", suite, "--trials", str(trials),
                    "--seed", str(seed * 1000 + k), "--n", "8", "--json", out]
            # every trial must pass; ws-coeffs ignores --trials and runs 5
            calls.append(Call("verify", f"{suite} T={trials}", suite, {},
                              argv, out,
                              verdicts=5 if suite == "ws-coeffs" else trials))
    warm = [c for c in calls if c.argv[1] in ("perron", "fixed-space")][:2]
    return spread(calls), warm


# gallery cases and their parameters; power_bounded_c0 only raises and is
# left out
_GALLERY = (("fixed_space_3x3", {}), ("no_daec_4x4", {}),
            ("cesaro_unbounded_shift", {}),
            ("one_point_compactification", {"N": 64}),
            ("one_point_compactification", {"N": 1024}),
            ("subgroup_minus_one", {"N": 256}),
            ("subgroup_minus_one", {"N": 4096}),
            ("markov_semigroup", {"M": 256, "N": 256}),
            ("markov_semigroup", {"M": 1024, "N": 1024}))


def build_probes(seed: int, workdir: str, tiny: bool = False):
    """Scheme probes, pole orders, fixed-space verbs, gallery cases and direct
    semigroup evaluations.

    One pass holds 121 calls; the 12 non-Cesaro probes at n = 50 form the
    class that holds p90, with the six calls above 0.3 s and six probes
    beyond it."""
    from perronlab import semigroup

    rng = np.random.default_rng([seed, 3])
    w = _Writer(workdir)
    calls = []

    probe_ops = []
    for n, count in (((8, 1),) if tiny else ((8, 2), (50, 3))):
        probe_ops += [(f"gapped n={n}", gapped(rng, n), 1) for _ in range(count)]
    probe_ops += [("jordan m=2 n=8", planted_jordan(rng, 8, 2), 2)
                  for _ in range(1 if tiny else 2)]
    for label, A, m in probe_ops:
        path = w.operator(A)
        for scheme in SCHEMES:
            out = w.out()
            calls.append(Call(
                "probe", f"probe {scheme} {label}", f"probe n={A.shape[0]}",
                {"A": A, "m": m, "scheme": scheme, "count": 20, "K": 200},
                ["ws", "probe", "--scheme", scheme, "--op", path, "--count",
                 "20", "--K", "200", "--json", out], out))

    for m in range(1, 7):
        for _ in range(1 if tiny else 4):
            out = w.out()
            calls.append(Call(
                "pole_order", f"pole-order m={m} n=12", "pole-order", {"m": m},
                ["ws", "pole-order", "--op", w.operator(planted_jordan(rng, 12, m)),
                 "--at", "1", "--json", out], out))

    for i in range(2 if tiny else 15):
        n = (6, 8, 12)[i % 3]
        A, sizes = markov_reducible(rng, n, 2 + i % 2)
        path = w.operator(A)
        ind = np.zeros((n, len(sizes)))
        pos = 0
        for b, s in enumerate(sizes):
            ind[pos:pos + s, b] = 1.0
            pos += s
        c1, c2 = rng.standard_normal((2, len(sizes)))
        g1, g2 = ("[" + ",".join(repr(float(x)) for x in ind @ c) + "]"
                  for c in (c1, c2))
        for verb, extra, truth in (
                ("sup", ["--vectors", f"{g1};{g2}"],
                 {"sup": ind @ np.maximum(c1, c2)}),
                ("modulus", ["--vector", g1], {"modulus": ind @ np.abs(c1)}),
                ("sublattice", [], {"sublattice": True})):
            out = w.out()
            calls.append(Call("fixed_space", f"fixed-space {verb} n={n}",
                              "fixed-space", truth,
                              ["fixed-space", verb, "--op", path, *extra,
                               "--json", out], out))

    for name, params in (_GALLERY[:4] if tiny else _GALLERY):
        out = w.out()
        argv = ["gallery", "run", name]
        for key, val in params.items():
            argv += ["--param", f"{key}={val}"]
        calls.append(Call("gallery", " ".join(argv[2:]), "gallery",
                          {"case": name, **params},
                          argv + ["--json", out], out))

    for M in ((16,) if tiny else (256, 1024)):
        grid = semigroup.SemigroupGrid(M, M, 2.0)
        f = semigroup.GridFunction(1.0 + np.exp(2j * grid.angles),
                                   np.ones(M + 1), 1.0, grid)
        for t in (0.3, 1.5):
            for interp in ("linear", "trig"):
                calls.append(Call(
                    "semigroup", f"semigroup_apply {interp} M=N={M} t={t}",
                    "semigroup", {}, args=(grid, t, f, interp)))
    warm = [next(c for c in calls if c.kind == kind)
            for kind in ("probe", "pole_order", "fixed_space", "gallery",
                         "semigroup")]
    return spread(calls), warm


BUILDERS = {"spectrum": build_spectrum, "suites": build_suites,
            "probes": build_probes}
