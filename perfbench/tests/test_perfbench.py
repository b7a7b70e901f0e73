"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

run.import_program()

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402



def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace):
    return run.run(workload, 3, 0.0, trace, tiny=True)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload):
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in bench[key]}
        assert set(result["metrics"]) == set(units)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]
            assert np.isfinite(metric["value"])


def test_exact_counts_repeat_between_runs():
    for workload in run.WORKLOADS:
        first, second = (_run(workload, True)["metrics"] for _ in range(2))
        exact = [k for k in first
                 if k.endswith(".calls") or k == "cli.output_bytes"]
        assert len(exact) == 13
        assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
        if workload == "spectrum":
            assert first["spectral.eigen.calls"]["value"] > 0


def test_oracle_flags_a_deliberately_wrong_expected_verdict(tmp_path):
    calls, _ = workloads.build_probes(5, str(tmp_path), tiny=True)
    probe = next(c for c in calls if c.kind == "probe" and c.truth["m"] == 1)
    pole = next(c for c in calls if c.kind == "pole_order" and c.truth["m"] == 2)
    for call, wrong in ((probe, 2), (pole, 1)):
        _, rc, out, result, _ = run.execute(call)
        assert oracle.check(call, rc, out, result) == (0, [])
        call.truth["m"] = wrong
        call.cache.clear()
        failed, reasons = oracle.check(call, rc, out, result)
        assert failed == 1 and reasons
        assert oracle.classify(call, reasons) is None

    calls, _ = workloads.build_spectrum(5, str(tmp_path), tiny=True)
    call = next(c for c in calls if c.truth.get("m") == 2)
    _, rc, out, result, _ = run.execute(call)
    call.truth["m"] = 3
    failed, reasons = oracle.check(call, rc, out, result)
    assert failed == 1 and "planted (3, 1, 3)" in reasons[-1]


def _bindings():
    from perronlab import operators, schemes

    mods = [m for k, m in sys.modules.items()
            if k == "perronlab" or k.startswith("perronlab.")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    out["coeffs"] = schemes.CoeffStream.__dict__["coeffs"]
    out["from_json"] = operators.OperatorMatrix.__dict__["from_json"]
    for name, owner, attr in tracing.NUMPY:
        out[name] = getattr(owner, attr)
    return out


def test_every_wrapped_binding_is_restored_after_a_traced_run():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer.patches)
    tracer.uninstall()
    assert len(patched) > 100
    _run("suites", True)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_run", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectrum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
