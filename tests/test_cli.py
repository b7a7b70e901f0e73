import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perronlab.cli import _build_parser, _emit_json, main
from perronlab.gallery import example_markov_3x3, remark_c0_operator
from perronlab.operators import op
from perronlab.sampling import plant_jordan


@pytest.fixture
def swap_file(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(op([[0, 1], [1, 0]]).to_json()))
    return str(path)


@pytest.fixture
def markov_file(tmp_path):
    path = tmp_path / "markov.json"
    path.write_text(json.dumps(example_markov_3x3().to_json()))
    return str(path)


def test_spectrum_basic(swap_file, capsys):
    assert main(["spectrum", swap_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["spectral_radius"] == pytest.approx(1.0)
    assert out["cyclic"]["verdict"] == "cyclic"
    assert len(out["pairs"]) == 2


def test_spectrum_json_deterministic(swap_file, tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["spectrum", swap_file, "--dim-check", "--json", p1]) == 0
    assert main(["spectrum", swap_file, "--dim-check", "--json", p2]) == 0
    assert Path(p1).read_text() == Path(p2).read_text()


def test_spectrum_csv(swap_file, tmp_path):
    p = str(tmp_path / "eigs.csv")
    assert main(["spectrum", swap_file, "--csv", p]) == 0
    lines = Path(p).read_text().strip().splitlines()
    assert lines[0] == "re,im,alg_mult,geo_mult,pole_order"
    assert len(lines) == 3


def test_spectrum_c0_tail_registers_violation(tmp_path):
    path = tmp_path / "remark.json"
    path.write_text(json.dumps(remark_c0_operator(64).to_json()))
    # plain truncation: every dimension estimate passes
    assert main(["spectrum", str(path), "--dim-check"]) == 0
    # with the vanishing-tail rows the -1 eigenspace dies and the
    # estimate from theta = pi/2 fails
    assert main(["spectrum", str(path), "--dim-check", "--c0-tail", "8"]) == 1


def test_ws_probe_and_pole_order(swap_file, capsys):
    assert main(["ws", "probe", "--scheme", "cesaro", "--op", swap_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "bounded-evidence"
    assert main(["ws", "pole-order", "--op", swap_file, "--at", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pole_order"] == 1


def test_ws_scalar_sum(swap_file, capsys):
    assert main(["ws", "scalar-sum", "--scheme", "cesaro", "--op", swap_file,
                 "--count", "5", "--K", "50"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert np.allclose(out["sums"], 1.0)


def test_fixed_space_verbs(markov_file, capsys):
    assert main(["fixed-space", "sup", "--op", markov_file,
                 "--vectors", "[1,0,-1];[-1,0,1]"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sup"] == pytest.approx([1.0, 1.0, 1.0])
    assert main(["fixed-space", "sublattice", "--op", markov_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sublattice"] is False
    assert np.allclose(np.abs(out["witness"]), [1.0, 0.0, 1.0])
    assert main(["fixed-space", "modulus", "--op", markov_file,
                 "--vector", "[1,0,-1]"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["modulus"] == pytest.approx([1.0, 1.0, 1.0])


def test_gallery_verbs(capsys):
    assert main(["gallery", "list"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "fixed_space_3x3" in out["cases"]
    assert main(["gallery", "run", "fixed_space_3x3"]) == 0
    assert main(["gallery", "run", "subgroup_minus_one",
                 "--param", "N=128"]) == 0


def test_verify_verb(capsys):
    assert main(["verify", "lattice-powers", "--trials", "25"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] == 25


def test_exit_code_parse_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["spectrum", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["spectrum", str(bad)]) == 2
    assert main(["gallery", "run", "unknown_case"]) == 2


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_ws_pole_order_planted_block(m, tmp_path, capsys):
    path = tmp_path / "T.json"
    path.write_text(json.dumps(
        plant_jordan(np.random.default_rng(m), 12, m).to_json()))
    assert main(["ws", "pole-order", "--op", str(path), "--at", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["pole_order"] == m


def test_exit_code_solver_errors(swap_file, capsys):
    # pole order at a point outside the spectrum
    assert main(["ws", "pole-order", "--op", swap_file, "--at", "5"]) == 3


_Z = {"re": 0.0, "im": 0.0}
_BAD_ENTRIES = {
    "RAGGED": [[_Z, _Z], [_Z]],
    "WRONG_SIZE": [[_Z, _Z, _Z]] * 3,
    "NAN": [[{"re": float("nan")}, _Z], [_Z, _Z]],
    "INF": [[_Z, {"re": float("inf")}], [_Z, _Z]],
}


@pytest.mark.parametrize("argv", [
    ["fixed-space", "sup", "--op", "MARKOV", "--vectors", "[1,x,1]"],
    ["fixed-space", "modulus", "--op", "MARKOV", "--vector", "[1,x,1]"],
    ["fixed-space", "sup", "--op", "MARKOV", "--vectors", "[1,0]"],
    ["ws", "pole-order", "--op", "SWAP", "--at", "one"],
    ["spectrum", "SWAP", "--dim-check", "--n-range", "2:x"],
    ["spectrum", "SWAP", "--dim-check", "--n-range", "3"],
    ["spectrum", "RAGGED"],
    ["spectrum", "WRONG_SIZE"],
    ["spectrum", "NAN"],
    ["ws", "pole-order", "--op", "INF", "--at", "1"],
    ["gallery", "run", "subgroup_minus_one", "--param", "N=abc"],
    ["gallery", "run", "cesaro_unbounded_shift", "--param", "m_list=2,x"],
    ["gallery", "run", "subgroup_minus_one", "--param", "N"],
    ["gallery", "run", "subgroup_minus_one", "--param", "q=5"],
    ["gallery", "run", "subgroup_minus_one", "--param", "N=2"],
    ["gallery", "run", "one_point_compactification", "--param", "N=1"],
    ["ws", "probe", "--scheme", "cesaro", "--op", "SWAP", "--K", "-5"],
    ["ws", "probe", "--scheme", "cesaro", "--op", "SWAP", "--count", "0"],
    ["ws", "probe", "--scheme", "cesaro", "--op", "SWAP", "--count", "-1"],
    ["ws", "scalar-sum", "--scheme", "cesaro", "--op", "SWAP", "--K", "-1"],
    ["ws", "scalar-sum", "--scheme", "cesaro", "--op", "SWAP", "--count",
     "0"],
    ["gallery", "run", "one_point_compactification", "--param", "N=3,4"],
    ["gallery", "run", "fixed_space_3x3", "--param", "tol=1,2"],
    ["gallery", "run", "subgroup_minus_one", "--param", "tol=1,2"],
    ["gallery", "run", "markov_semigroup", "--param", "t=-1"],
    ["gallery", "run", "markov_semigroup", "--param", "M=6"],
    ["gallery", "run", "cesaro_unbounded_shift", "--param", "h_max=-1"],
    ["spectrum", "C0", "--dim-check", "--c0-tail", "100"],
    ["spectrum", "C0", "--dim-check", "--c0-tail", "-3"],
], ids=["vectors-token", "vector-token", "vector-length", "at", "n-range-token",
        "n-range-colon", "ragged-entries", "wrong-size", "nan-entry",
        "inf-entry", "param-value", "param-list-element", "param-no-equals",
        "param-q-rejected", "param-N-rejected", "param-N-compactification",
        "probe-K-negative", "probe-count-zero", "probe-count-negative",
        "scalar-sum-K-negative", "scalar-sum-count-zero",
        "param-N-list", "param-tol-list-fixed-space", "param-tol-list-subgroup",
        "param-t-negative", "param-M-grid", "param-h_max-negative",
        "c0-tail-above-dim", "c0-tail-negative"])
def test_exit_code_malformed_input(argv, tmp_path, swap_file, markov_file,
                                   capsys):
    files = {"SWAP": swap_file, "MARKOV": markov_file,
             "C0": str(tmp_path / "c0.json")}
    # the compactification shift without its infinity node: 13 coordinates
    (tmp_path / "c0.json").write_text(json.dumps(remark_c0_operator(8).to_json()))
    for name, entries in _BAD_ENTRIES.items():
        obj = op([[0, 1], [1, 0]]).to_json()
        obj["entries"] = entries
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        files[name] = str(path)
    assert main([files.get(a, a) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_gallery_param_single_number_is_a_list(capsys):
    argv = ["gallery", "run", "cesaro_unbounded_shift", "--param"]
    assert main(argv + ["m_list=2"]) == 0
    out = json.loads(capsys.readouterr().out)
    lb = next(f for f in out["facts"] if f["id"] == "cesaro_norm_exceeds_bound")
    assert list(lb["measured"]) == ["2"]
    # an m outside {2, 3, 4} is rejected by the case itself: an input error
    assert main(argv + ["m_list=5"]) == 2


@pytest.mark.parametrize("value, measured", [("2.0", ["2"]),
                                             ("2,3.0", ["2", "3"])])
def test_gallery_param_whole_float_m_list(value, measured, capsys):
    argv = ["gallery", "run", "cesaro_unbounded_shift", "--param"]
    assert main(argv + [f"m_list={value}"]) == 0
    out = json.loads(capsys.readouterr().out)
    lb = next(f for f in out["facts"] if f["id"] == "cesaro_norm_exceeds_bound")
    assert list(lb["measured"]) == measured


@pytest.mark.parametrize("value", ["2.5", "5"])
def test_gallery_param_m_list_outside_the_case(value, capsys):
    argv = ["gallery", "run", "cesaro_unbounded_shift", "--param"]
    assert main(argv + [f"m_list={value}"]) == 2
    assert capsys.readouterr().err == \
        "error: m_list must be within {2, 3, 4}\n"


def _round_floats(obj):
    """The float walk `_emit_json` ran before `json.dumps`, kept as the
    reference for the output bytes."""
    if isinstance(obj, float):
        return float(f"{obj:.17g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.floating):
        return float(f"{float(obj):.17g}")
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


_JSON_LEAVES = st.one_of(
    st.floats(), st.sampled_from([-0.0, 5e-324, float("nan"), float("inf"),
                                  float("-inf")]),
    st.integers(), st.booleans(), st.none(), st.text(max_size=5),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(st.text(max_size=5), kids,
                                           max_size=4)),
    max_leaves=20,
)


def _emitted(obj) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        _emit_json(obj, None)
    return buf.getvalue()


@settings(deadline=None, max_examples=300)
@given(_JSON_TREES)
def test_emit_json_bytes_match_the_float_walk(obj):
    ref = json.dumps(_round_floats(obj), sort_keys=True, indent=2)
    assert _emitted(obj) == ref + "\n"


def test_emit_json_rejects_numpy_bools():
    with pytest.raises(TypeError):
        _emitted({"ok": [1.0, np.bool_(True)]})


def test_parser_keeps_no_state_between_calls(capsys):
    # one parser serves every call; the second call gets the case defaults
    argv = ["gallery", "run", "subgroup_minus_one"]
    assert main(argv + ["--param", "N=64"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["N"] == 64
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["params"] == {"q": 4, "N": 256}
    assert _build_parser() is _build_parser()
