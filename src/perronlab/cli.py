"""Command-line front end: spectral reports, weighting-scheme probes,
fixed-space computations, gallery cases and the seeded property suites.

Exit codes: 0 all checks pass, 1 a check reported a violation, 2 input
parse errors, 3 solver or internal failure."""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .fixedspace import f_modulus, fixed_space_handle, \
    is_fixed_space_sublattice, sup_in_fixed_space
from .gallery import case_names, run_case
from .lattice import vec
from .operators import OperatorMatrix
from .schemes import SchemeKind, builtin_scheme, pole_order_at, \
    weighted_scalar_sum, ws_bounded_probe
from .spectral import analyze
from .suites import run_suite, suite_names

__all__ = ["main"]


class _InputError(Exception):
    """Malformed command-line or file input; `main` maps it to exit code 2."""


def _round_floats(obj):
    """Normalize floats to 17 significant digits for byte-stable output."""
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


def _emit_json(obj, path: str | None) -> None:
    text = json.dumps(_round_floats(obj), sort_keys=True, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_csv(rows: list[tuple], header: tuple, path: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            f"{v:.17g}" if isinstance(v, float) else str(v) for v in row
        ))
    text = "\n".join(lines)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_operator(path: str) -> OperatorMatrix:
    with open(path) as fh:
        obj = json.load(fh)
    try:
        return OperatorMatrix.from_json(obj)
    except (TypeError, ValueError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _parse_vectors(text: str, model) -> list:
    """Lattice vectors of `model` from "[a,b,...];[c,d,...]"."""
    try:
        return [vec([float(x) for x in part.strip().strip("[]").split(",")],
                    model=model)
                for part in text.split(";")]
    except ValueError as exc:
        raise _InputError(f"malformed vector list {text!r}: {exc}") from exc


def _parse_n_range(text: str) -> range:
    try:
        lo, hi = text.split(":")
        return range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise _InputError(f"--n-range expects lo:hi, got {text!r}") from exc


def _parse_complex(text: str) -> complex:
    try:
        return complex(text)
    except ValueError as exc:
        raise _InputError(f"not a complex number: {text!r}") from exc


def _parse_number(text: str, item: str) -> int | float:
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    raise _InputError(f"--param {item!r}: {text!r} is not a number")


def _parse_params(pairs: list[str]) -> dict:
    """Gallery parameters from "k=v" items; v is a number or a comma list."""
    params = {}
    for item in pairs:
        if "=" not in item:
            raise _InputError(f"--param expects k=v, got {item!r}")
        k, v = item.split("=", 1)
        if "," in v:
            params[k] = tuple(_parse_number(x, item) for x in v.split(","))
        else:
            params[k] = _parse_number(v, item)
    return params


def _cmd_spectrum(args) -> int:
    T = _load_operator(args.file)
    n_range = _parse_n_range(args.n_range) if args.n_range else None
    if args.dim_check and args.c0_tail:
        from .gallery import c0_tail_constraints
        from .spectral import dim_estimate_check

        verdicts = dim_estimate_check(
            T, n_range=n_range,
            constraints=c0_tail_constraints(T.dim, args.c0_tail),
        )
        _emit_json({"dim_verdicts": [v.to_json() for v in verdicts]},
                   args.json)
        return 0 if all(v.ok for v in verdicts) else 1
    report = analyze(T, band_tol=args.band_tol, q_max=args.qmax,
                     n_range=n_range, dim_check=args.dim_check)
    _emit_json(report.to_json(), args.json)
    if args.csv:
        rows = [
            (p.value.real, p.value.imag, p.alg_mult, p.geo_mult, p.pole_order)
            for p in report.pairs
        ]
        _emit_csv(rows, ("re", "im", "alg_mult", "geo_mult", "pole_order"),
                  args.csv)
    if args.dim_check and any(not v.ok for v in report.dim_verdicts):
        return 1
    return 0


def _cmd_ws(args) -> int:
    T = _load_operator(args.op)
    if args.ws_command == "probe":
        fam = builtin_scheme(SchemeKind(args.scheme),
                            {"count": args.count} if args.count else None)
        rep = ws_bounded_probe(T, fam, K=args.K, budget=args.count or 20)
        _emit_json(
            {"indices": list(rep.indices), "norms": list(rep.norms),
             "max_norm": rep.max_norm, "growth_slope": rep.growth_slope,
             "verdict": rep.verdict},
            args.json,
        )
        if args.csv:
            _emit_csv(list(zip(rep.indices, rep.norms)), ("index", "norm"),
                      args.csv)
        return 0
    if args.ws_command == "scalar-sum":
        fam = builtin_scheme(SchemeKind(args.scheme),
                            {"count": args.count} if args.count else None)
        K = args.K
        powers = [float(np.abs(np.linalg.matrix_power(T.entries, k)).max())
                  for k in range(K + 1)]
        powers = np.maximum.accumulate(powers).tolist()
        sums = weighted_scalar_sum(fam, powers, K)
        _emit_json({"sums": sums}, args.json)
        return 0
    if args.ws_command == "pole-order":
        order = pole_order_at(T, _parse_complex(args.at))
        _emit_json({"lambda": args.at, "pole_order": order}, args.json)
        return 0
    raise ValueError(f"unknown ws subcommand {args.ws_command}")


def _cmd_fixed_space(args) -> int:
    T = _load_operator(args.op)
    h = fixed_space_handle(T)
    if args.fs_command == "sup":
        out = sup_in_fixed_space(h, _parse_vectors(args.vectors, T.model))
        _emit_json({"sup": [float(x) for x in out.entries.real]}, args.json)
        return 0
    if args.fs_command == "modulus":
        out = f_modulus(h, _parse_vectors(args.vector, T.model)[0])
        _emit_json({"modulus": [float(x) for x in out.entries.real]},
                   args.json)
        return 0
    if args.fs_command == "sublattice":
        ok, wit = is_fixed_space_sublattice(h)
        _emit_json(
            {"sublattice": ok,
             "witness": None if wit is None
             else [float(x) for x in wit.entries.real]},
            args.json,
        )
        return 0
    raise ValueError(f"unknown fixed-space subcommand {args.fs_command}")


def _cmd_gallery(args) -> int:
    if args.gallery_command == "list":
        _emit_json({"cases": case_names()}, None)
        return 0
    params = _parse_params(args.param or [])
    report = run_case(args.name, params)
    _emit_json(report.to_json(), args.json)
    if args.csv:
        rows = [(f.id, f.status, f.tag) for f in report.facts]
        _emit_csv(rows, ("id", "status", "tag"), args.csv)
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    result = run_suite(args.suite, trials=args.trials, seed=args.seed,
                       n=args.n)
    _emit_json(result.to_json(), args.json)
    print(f"{result.suite}: {result.passed}/{result.trials} pass",
          file=sys.stderr)
    return 0 if result.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="perronlab",
        description="Numerical laboratory for peripheral spectra of "
        "positive matrices on coordinate Banach lattices",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="spectral report for an operator")
    sp.add_argument("file")
    sp.add_argument("--band-tol", type=float, default=1e-8)
    sp.add_argument("--qmax", type=int, default=64)
    sp.add_argument("--dim-check", action="store_true")
    sp.add_argument("--n-range", default=None, help="lo:hi")
    sp.add_argument("--c0-tail", type=int, default=0,
                    help="constrain the last k coordinates to vanish "
                    "before counting kernel dimensions")
    sp.add_argument("--json", default=None)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(fn=_cmd_spectrum)

    wp = sub.add_parser("ws", help="weighting-scheme operations")
    wsub = wp.add_subparsers(dest="ws_command", required=True)
    for name in ("probe", "scalar-sum"):
        w = wsub.add_parser(name)
        w.add_argument("--scheme", required=True)
        w.add_argument("--op", required=True)
        w.add_argument("--count", type=int, default=None)
        w.add_argument("--K", type=int, default=200)
        w.add_argument("--json", default=None)
        w.add_argument("--csv", default=None)
    w = wsub.add_parser("pole-order")
    w.add_argument("--op", required=True)
    w.add_argument("--at", required=True)
    w.add_argument("--json", default=None)
    wp.set_defaults(fn=_cmd_ws)

    fp = sub.add_parser("fixed-space", help="fixed-space computations")
    fsub = fp.add_subparsers(dest="fs_command", required=True)
    f1 = fsub.add_parser("sup")
    f1.add_argument("--op", required=True)
    f1.add_argument("--vectors", required=True, help="[a,b,...];[c,d,...]")
    f1.add_argument("--json", default=None)
    f2 = fsub.add_parser("modulus")
    f2.add_argument("--op", required=True)
    f2.add_argument("--vector", required=True)
    f2.add_argument("--json", default=None)
    f3 = fsub.add_parser("sublattice")
    f3.add_argument("--op", required=True)
    f3.add_argument("--json", default=None)
    fp.set_defaults(fn=_cmd_fixed_space)

    gp = sub.add_parser("gallery", help="worked-example cases")
    gsub = gp.add_subparsers(dest="gallery_command", required=True)
    g1 = gsub.add_parser("run")
    g1.add_argument("name")
    g1.add_argument("--param", action="append", default=[])
    g1.add_argument("--json", default=None)
    g1.add_argument("--csv", default=None)
    gsub.add_parser("list")
    gp.set_defaults(fn=_cmd_gallery)

    vp = sub.add_parser("verify", help="seeded property suites")
    vp.add_argument("suite", choices=suite_names())
    vp.add_argument("--trials", type=int, default=100)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--n", type=int, default=8)
    vp.add_argument("--json", default=None)
    vp.set_defaults(fn=_cmd_verify)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (json.JSONDecodeError, FileNotFoundError, KeyError,
            _InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
