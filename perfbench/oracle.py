"""Independent checks of every verdict against the truth its input implies.

``check`` returns the number of failed verdicts of one call and the reasons;
``classify`` names the known failure a failed call belongs to, or returns
None when the failure is new.  The checks use their own computations:
``np.linalg.eigvals`` for eigenvalue multisets, Perron-Frobenius theory for
cyclicity, the planted block size for Jordan data, closed forms for the
scheme probes and the semigroup, and the block structure of the generated
Markov matrices for the fixed-space verbs.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

_EPS = np.finfo(float).eps
QMAX = 64  # the CLI's default --qmax

# Failures seen at the seed commit, with their reasons.  A failed call that
# matches one of these keeps the run `correct`; any other failure does not.
KNOWN_FAILURES = {
    "spectrum-jordan-m-ge-5":
        "spectrum splits a planted Jordan block of size m >= 5: the "
        "defect-aware clustering reassembles blocks only up to size 4, so "
        "the multiplicities, pole order and cyclicity verdict are wrong and "
        "--dim-check exits 1",
    "spectrum-order-gt-qmax":
        "spectrum reports not_cyclic for a nonnegative matrix whose "
        "peripheral group has order > --qmax 64 (the 200-cycle, and a "
        "weighted permutation whose dominant cycle is that long): the angle "
        "denominators exceed the continued-fraction limit",
    "spectrum-merges-close-eigenvalues":
        "spectrum reports two or more distinct eigenvalues that lie closer "
        "than the defect-aware merge radius (3.6e-4 for a pair, up to 5e-3) "
        "as one multiple eigenvalue, for example on the random [0.1, 0.8] "
        "padding of the planted Jordan inputs",
    "verify-merged-peripheral-eigenvalue":
        "a suite trial samples a matrix with a second eigenvalue within the "
        "merge radius of the spectral radius (two cycles of a weighted "
        "permutation with nearly equal weight products, or two close real "
        "eigenvalues); the clustering merges them, the merged mean lies off "
        "the circle or drops out of the peripheral set, and perron reports "
        "'r(T) not matched by an eigenvalue' or 'r(T) itself is not an "
        "eigenvalue', cyclicity reports not_cyclic, or is_cyclic raises 'set "
        "not contained in the circle' (exit 3)",
    "pole-order-jordan-m-ge-3":
        "ws pole-order exits 3 ('lambda not in spectrum') on a planted "
        "Jordan block of size m >= 3: the computed eigenvalues scatter by "
        "~eps^(1/m), beyond the fixed 1e-7 membership tolerance",
    "probe-transient-growth":
        "ws probe reports growth-evidence for a bounded family (spectral "
        "radius 1, semisimple, modulus gap 0.05) whose power norms still grow "
        "across the probed indices: a weighted permutation with a long "
        "dominant cycle has a transient longer than the prefix, which the "
        "finite-prefix slope test cannot tell from polynomial growth",
    "gallery-compactification-large-N":
        "gallery one_point_compactification at N = 1024 fails the fact "
        "minus_one_not_eigenvalue: the smallest constrained singular value "
        "at -1 decays with N (0.031 at N = 1024) below the fixed 0.1 "
        "certificate threshold",
}


# how a merged peripheral eigenvalue shows in the suites' failure reasons;
# the suites do not return their matrices, so the match is by symptom (each
# was traced to a merge by hand on the seeds where it was first seen)
_MERGE_SYMPTOMS = ("not matched by an eigenvalue",
                   "r(T) itself is not an eigenvalue",
                   "verdict not_cyclic",
                   "error: set not contained in the circle of radius r")


def classify(call, reasons: list[str]) -> str | None:
    t = call.truth
    if call.kind == "spectrum" and t.get("m", 0) >= 5:
        return "spectrum-jordan-m-ge-5"
    if (call.kind == "spectrum" and (t.get("order") or 0) > QMAX
            and all(r.startswith("cyclic verdict") for r in reasons)):
        return "spectrum-order-gt-qmax"
    if call.kind == "spectrum" and all(r.startswith("merged") for r in reasons):
        return "spectrum-merges-close-eigenvalues"
    if call.kind == "verify" and all(
            r == "exit 1" or any(m in r for m in _MERGE_SYMPTOMS)
            for r in reasons):
        return "verify-merged-peripheral-eigenvalue"
    if call.kind == "pole_order" and t["m"] >= 3:
        return "pole-order-jordan-m-ge-3"
    if (call.kind == "probe" and t["m"] == 1
            and reasons == ["verdict growth-evidence, expected bounded-evidence"]
            and _window_growth(call) >= 2.0):
        return "probe-transient-growth"
    if (call.kind == "gallery" and t["case"] == "one_point_compactification"
            and t["N"] >= 1024
            and set(reasons) == {"exit 1", "fact minus_one_not_eigenvalue fails"}):
        return "gallery-compactification-large-N"
    return None


def check(call, rc: int | None, out, result=None, err: str = ""
          ) -> tuple[int, list[str]]:
    """(failed verdicts, reasons) for one call.  ``rc`` is the CLI exit code
    (None for an API call), ``out`` the parsed JSON output or None,
    ``result`` the API call's return value and ``err`` its standard error."""
    if call.kind == "semigroup":
        reasons = _semigroup(call, result)
        return (1 if reasons else 0), reasons
    if out is None:
        last = err.strip().splitlines()[-1] if err.strip() else ""
        return call.verdicts, [f"exit {rc}, no output: {last}"]
    reasons = [] if rc == 0 else [f"exit {rc}"]
    if call.kind == "verify":
        failed = call.verdicts - int(out["passed"])
        if int(out["trials"]) != call.verdicts:
            failed = call.verdicts
            reasons.append(f"{out['trials']} trials run, {call.verdicts} asked")
        else:
            reasons += [f"trial {f['index']}: {f['reason']}"
                        for f in out["failures"]]
        return failed, reasons
    reasons += _CHECKS[call.kind](call, out)
    return (1 if reasons else 0), reasons


# --- spectrum -----------------------------------------------------------------

def _eigvals(call) -> np.ndarray:
    if "eig" not in call.cache:
        call.cache["eig"] = np.linalg.eigvals(call.truth["A"])
    return call.cache["eig"]


def _spectrum(call, out) -> list[str]:
    A = call.truth["A"]
    n = A.shape[0]
    w = _eigvals(call)
    scale = max(1.0, float(np.abs(A).max()))
    reasons = []
    pairs = sorted(out["pairs"], key=lambda p: -p["alg_mult"])
    if sum(p["alg_mult"] for p in pairs) != n:
        reasons.append("algebraic multiplicities do not sum to n")
    else:
        # greedy matching, largest clusters first; a defective eigenvalue of
        # multiplicity a scatters by ~(eps*scale)^(1/a) in floating point
        free = np.ones(n, bool)
        for p in pairs:
            v = complex(p["value"]["re"], p["value"]["im"])
            a = p["alg_mult"]
            d = np.where(free, np.abs(w - v), np.inf)
            take = np.argsort(d)[:a]
            free[take] = False
            tol = 10.0 * (_EPS * scale) ** (1.0 / a) + 1e-6 * scale
            off = float(d[take].max())
            if off > tol and a > 1:
                reasons.append(f"merged {a} eigenvalues up to {off:.2e} from "
                               f"{v:.6g} into one")
            elif off > tol:
                reasons.append(f"eigenvalue {v:.6g} not in eigvals "
                               f"(off by {off:.2e})")
    # Perron-Frobenius: the peripheral spectrum of a nonnegative matrix is
    # cyclic; a planted block at 1 has peripheral spectrum {1}
    r = float(np.abs(w).max())
    expected = "cyclic" if r > 1e-12 else "inconclusive"
    if out["cyclic"]["verdict"] != expected:
        reasons.append(f"cyclic verdict {out['cyclic']['verdict']}, "
                       f"expected {expected}")
    m = call.truth.get("m")
    if m is not None:
        top = min(out["pairs"], key=lambda p: abs(
            complex(p["value"]["re"], p["value"]["im"]) - 1.0))
        got = (top["alg_mult"], top["geo_mult"], top["pole_order"])
        if got != (m, 1, m):
            reasons.append(f"(alg, geo, pole) at 1 is {got}, planted ({m}, 1, {m})")
    return reasons


# --- scheme probes ------------------------------------------------------------

def _sup_norm(M: np.ndarray) -> float:
    return float(np.abs(M).sum(axis=1).max())


def _closed_form(A: np.ndarray, scheme: str, count: int) -> list[np.ndarray]:
    """f_j(A) for the first `count` indices of a built-in scheme."""
    n = A.shape[0]
    I = np.eye(n)
    if scheme == "powers":
        return [np.linalg.matrix_power(A, j) for j in range(count)]
    if scheme == "abel_net":
        lams = [1.0 + 1.0 / j for j in range(1, count + 1)]
        return [(lam - 1.0) * np.linalg.inv(lam * I - A) for lam in lams]
    if scheme == "abel_powers":
        R = np.linalg.inv(2.0 * I - A)  # (lam - 1)(lam - A)^-1 at lam = 2
        return [np.linalg.matrix_power(R, j) for j in range(count)]
    if scheme == "cesaro":
        out, acc, P = [], np.zeros((n, n)), I
        for j in range(1, count + 1):
            acc = acc + P
            P = P @ A
            out.append(acc / j)
        return out
    if scheme == "exponential":
        return [expm(t * (A - I)) for t in range(1, count + 1)]
    raise ValueError(scheme)


def _log_tail_coeffs(scheme: str, count: int, k: np.ndarray) -> np.ndarray:
    """log a_{j,k} for every index j (rows) at the given powers k; -inf where
    the coefficients are finitely supported."""
    rows = []
    for j in range(1, count + 1):
        if scheme == "abel_net":
            lam = 1.0 + 1.0 / j
            rows.append(math.log(lam - 1.0) - (k + 1) * math.log(lam))
        elif scheme == "abel_powers" and j > 1:
            i = j - 1  # index set 0..count-1, lam = 2
            rows.append(gammaln(i + k) - gammaln(k + 1) - gammaln(i)
                        - i * math.log(2.0) - k * math.log(2.0))
        elif scheme == "exponential":
            rows.append(-j + k * math.log(j) - gammaln(k + 1))
        else:
            rows.append(np.full(k.shape, -np.inf))
    return np.array(rows)


def _power_bound(A: np.ndarray, m: int, k: np.ndarray) -> np.ndarray:
    """Upper bound on the sup norm of A^k.  Gapped inputs (m = 1) are
    diagonalizable with spectral radius 1, so ||A^k|| <= ||V|| ||V^-1||.
    A planted block Q J Q^T has ||A^k||_inf <= sqrt(n) ||J^k||_2 and
    ||J_m(1)^k||_2 <= sum_{i<m} C(k, i)."""
    if m == 1:
        _, V = np.linalg.eig(A)
        return np.full(k.shape, _sup_norm(V) * _sup_norm(np.linalg.inv(V)))
    binom = sum(np.exp(gammaln(k + 1) - gammaln(i + 1) - gammaln(k - i + 1))
                for i in range(m))
    return math.sqrt(A.shape[0]) * np.maximum(binom, 1.0)


def _probe_reference(call) -> tuple[np.ndarray, np.ndarray]:
    if "probe" not in call.cache:
        t = call.truth
        A = t["A"]
        ref = np.array([_sup_norm(M) for M in
                        _closed_form(A, t["scheme"], t["count"])])
        k = np.arange(t["K"] + 1, t["K"] + 20001, dtype=float)
        tail = np.exp(_log_tail_coeffs(t["scheme"], t["count"], k)) \
            @ _power_bound(A, t["m"], k)
        call.cache["probe"] = (ref, tail)
    return call.cache["probe"]


def _window_growth(call) -> float:
    """||A^count|| / ||A||: how much the power norms grow across the probed
    indices."""
    A = call.truth["A"]
    return (_sup_norm(np.linalg.matrix_power(A, call.truth["count"]))
            / _sup_norm(A))


def _probe(call, out) -> list[str]:
    """Norms of the truncated sums against the closed forms, allowing the
    norm of the truncated tail, sum_{k>K} a_k ||A^k||; the verdict against
    the planted structure (growth iff a Jordan block sits at 1)."""
    reasons = []
    expected = "growth-evidence" if call.truth["m"] > 1 else "bounded-evidence"
    if out["verdict"] != expected:
        reasons.append(f"verdict {out['verdict']}, expected {expected}")
    ref, tail = _probe_reference(call)
    got = np.array(out["norms"], dtype=float)
    if got.shape != ref.shape:
        return reasons + [f"{got.size} norms, expected {ref.size}"]
    excess = np.abs(got - ref) - tail - 1e-9 * np.maximum(1.0, ref)
    if excess.max() > 0:
        j = int(np.argmax(excess))
        reasons.append(f"norm {j} is {got[j]:.12g}, closed form {ref[j]:.12g} "
                       f"(tail allowance {tail[j]:.2e})")
    return reasons


# --- other verbs --------------------------------------------------------------

def _pole_order(call, out) -> list[str]:
    if out["pole_order"] != call.truth["m"]:
        return [f"pole order {out['pole_order']}, planted {call.truth['m']}"]
    return []


def _fixed_space(call, out) -> list[str]:
    t = call.truth
    if "sublattice" in t:
        if out["sublattice"] is not True or out["witness"] is not None:
            return [f"sublattice {out['sublattice']}, expected True"]
        return []
    key = "sup" if "sup" in t else "modulus"
    want = t[key]
    err = float(np.abs(np.array(out[key]) - want).max())
    if err > 1e-8 * max(1.0, float(np.abs(want).max())):
        return [f"{key} off by {err:.2e}"]
    return []


def _gallery(call, out) -> list[str]:
    return [f"fact {f['id']} fails" for f in out["facts"] if f["status"] != "pass"]


def _semigroup(call, g) -> list[str]:
    """The input is 1 + x^2 on the circle and 1 on the ray.  Constants are
    fixed; the harmonic rotates, x^2 -> e^(-2it) x^2, and feeds the ray below
    the transport front through mu(R(s) x^2) = -e^(-2is), so a ray node at
    distance u = t - x behind the front carries
    1 - e^(-u) (e^((1-2i)u) - 1) / (1 - 2i)."""
    grid, t, _, interp = call.args
    if g is None:
        return ["raised"]
    circle = 1.0 + np.exp(2j * (grid.angles - t))
    u = t - grid.ray
    behind = 1.0 - np.exp(-u) * (np.exp((1 - 2j) * u) - 1.0) / (1 - 2j)
    ray = np.where(u > 0, behind, 1.0)
    err = max(float(np.abs(g.circle - circle).max()),
              float(np.abs(g.ray - ray).max()), abs(g.infinity - 1.0))
    # linear interpolation of x^2 errs by <= (2 pi / M)^2 / 2; the memory
    # quadrature by O(t (pi / M)^2)
    h = 2.0 * math.pi / grid.M
    tol = (h * h if interp == "linear" else 0.0) + t * h * h + 1e-12
    if err > tol:
        return [f"error {err:.2e} exceeds {tol:.2e}"]
    return []


_CHECKS = {"spectrum": _spectrum, "probe": _probe, "pole_order": _pole_order,
           "fixed_space": _fixed_space, "gallery": _gallery}
