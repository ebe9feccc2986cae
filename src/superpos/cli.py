"""Batch command-line front end.

Every subcommand is a thin wrapper over the library: inputs are parsed and
validated up front, the single library call runs, and the result is printed
as canonical JSON (or CSV for the heatmap) with numbers at 9 significant
digits. Exit codes: 0 success, 2 parse/validation error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import entangle, game, kraus, measures, qubit, serialize, transform
from .basis import filter_probability
from .errors import NoConvergence, SchemaViolation, SuperposError
from .states import (
    DensityMatrix,
    PureState,
    free_expansion,
    is_free,
    schmidt_rank,
    superposition_rank,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _fmt(x) -> float:
    """Round to 9 significant digits for deterministic output."""
    return float(f"{float(x):.9g}")


def _complex_out(z) -> list:
    return [_fmt(z.real), _fmt(z.imag)]


def _matrix_out(m) -> list:
    return [[_complex_out(complex(x)) for x in row] for row in np.asarray(m, dtype=complex)]


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out_path: str | None) -> None:
    _emit(serialize.canonical_dumps(payload), out_path)


def _as_density(state) -> DensityMatrix:
    return state.density() if isinstance(state, PureState) else state


def _as_pure(state) -> PureState:
    if not isinstance(state, PureState):
        raise SchemaViolation("/", "this command needs a pure state ('amp' schema)")
    return state


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="superpos",
                                     description="Resource theory of superposition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    basis_p = sub.add_parser("basis", help="basis inspection")
    basis_sub = basis_p.add_subparsers(dest="action", required=True)
    check = basis_sub.add_parser("check", help="validate a basis file and report its frame data")
    check.add_argument("--in", dest="path", required=True)
    check.add_argument("--out")

    state_p = sub.add_parser("state", help="state inspection")
    state_sub = state_p.add_subparsers(dest="action", required=True)
    for name in ("rank", "free", "expand"):
        sp = state_sub.add_parser(name)
        sp.add_argument("--state", required=True)
        sp.add_argument("--basis", required=True)
        if name != "expand":
            sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--out")

    kraus_p = sub.add_parser("kraus", help="free Kraus recognition and completion")
    kraus_sub = kraus_p.add_subparsers(dest="action", required=True)
    for name in ("check", "complete"):
        kp = kraus_sub.add_parser(name)
        kp.add_argument("--in", dest="path", required=True)
        kp.add_argument("--basis", required=True)
        if name == "check":
            kp.add_argument("--tol", type=float, default=1e-9)
        kp.add_argument("--out")

    measure_p = sub.add_parser("measure", help="superposition measures")
    measure_sub = measure_p.add_subparsers(dest="action", required=True)
    for name in ("l1", "relent", "rank", "robustness"):
        mp = measure_sub.add_parser(name)
        mp.add_argument("--state", required=True)
        mp.add_argument("--basis", required=True)
        if name == "relent":
            mp.add_argument("--tol", type=float, default=1e-9)
        mp.add_argument("--out")

    convert_p = sub.add_parser("convert", help="pure-state conversion")
    convert_sub = convert_p.add_subparsers(dest="action", required=True)
    prob = convert_sub.add_parser("prob")
    prob.add_argument("--from", dest="source", required=True)
    prob.add_argument("--to", dest="target", required=True)
    prob.add_argument("--basis", required=True)
    prob.add_argument("--tol", type=float, default=1e-7)
    prob.add_argument("--out")

    qubit_p = sub.add_parser("qubit", help="qubit landscapes")
    qubit_sub = qubit_p.add_subparsers(dest="action", required=True)
    heat = qubit_sub.add_parser("heatmap")
    heat.add_argument("--a", type=float, required=True)
    heat.add_argument("--theta", type=float, required=True)
    heat.add_argument("--phi", type=float, required=True)
    heat.add_argument("--grid", type=int, required=True)
    heat.add_argument("--out")

    game_p = sub.add_parser("game", help="discrimination game simulator")
    game_sub = game_p.add_subparsers(dest="action", required=True)
    simulate = game_sub.add_parser("simulate")
    simulate.add_argument("--basis", required=True)
    simulate.add_argument("--input", dest="input_kind", required=True,
                          choices=("free", "superposed"))
    simulate.add_argument("--turns", type=int, required=True)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--out")

    entangle_p = sub.add_parser("entangle", help="superposition-to-entanglement conversion")
    entangle_sub = entangle_p.add_subparsers(dest="action", required=True)
    conv = entangle_sub.add_parser("convert")
    conv.add_argument("--basis", required=True)
    conv.add_argument("--state", required=True)
    conv.add_argument("--out")

    return parser


def _run(args) -> int:
    if args.command == "basis":
        basis = serialize.load_basis(args.path)
        _emit_json({
            "d": basis.d,
            "sigma_min": _fmt(basis.sigma_min),
            "filter_probability": _fmt(filter_probability(basis)),
            "gram": _matrix_out(basis.gram),
        }, args.out)
        return EXIT_OK

    if args.command == "state":
        basis = serialize.load_basis(args.basis)
        state = serialize.load_state(args.state)
        if args.action == "rank":
            rank = superposition_rank(_as_pure(state), basis, args.tol)
            _emit_json({"superposition_rank": rank}, args.out)
        elif args.action == "free":
            _emit_json({"is_free": is_free(_as_density(state), basis, args.tol)}, args.out)
        else:
            coeffs = free_expansion(_as_density(state), basis)
            _emit_json({"coeffs": _matrix_out(coeffs)}, args.out)
        return EXIT_OK

    if args.command == "kraus":
        basis = serialize.load_basis(args.basis)
        ops = serialize.load_kraus_set(args.path)
        for i, k in enumerate(ops):
            if k.shape != (basis.d, basis.d):
                raise SchemaViolation(f"/operators/{i}", f"shape {k.shape} != ({basis.d}, {basis.d})")
        if args.action == "check":
            forms = [kraus.is_free_kraus(k, basis, args.tol) for k in ops]
            _emit_json({
                "free": [f is not None for f in forms],
                "forms": [None if f is None else {
                    "coeffs": [_complex_out(c) for c in f.coeffs],
                    "index_fn": [int(i) for i in f.index_fn],
                } for f in forms],
            }, args.out)
        else:
            completion = kraus.complete_free(ops, basis)
            _emit_json({"operators": [_matrix_out(k) for k in completion]}, args.out)
        return EXIT_OK

    if args.command == "measure":
        basis = serialize.load_basis(args.basis)
        state = serialize.load_state(args.state)
        rho = _as_density(state)
        if args.action == "l1":
            report = measures.l1_measure(rho, basis)
        elif args.action == "relent":
            report = measures.rel_entropy_measure(rho, basis, tol=args.tol)
        elif args.action == "rank":
            report = measures.rank_measure(state, basis)
        else:
            report = measures.robustness(rho, basis)
        payload = {"value": _fmt(report.value), "convention": report.convention,
                   "upper_bound": report.upper_bound}
        if isinstance(report.certificate, DensityMatrix):
            payload["certificate"] = {"mat": _matrix_out(report.certificate.mat)}
        elif isinstance(report.certificate, dict):
            payload["certificate"] = {"s": _fmt(report.certificate["s"])}
        _emit_json(payload, args.out)
        return EXIT_OK

    if args.command == "convert":
        basis = serialize.load_basis(args.basis)
        source = _as_pure(serialize.load_state(args.source))
        target = _as_pure(serialize.load_state(args.target))
        sol = transform.max_conversion_prob(source, target, basis, gap_tol=args.tol)
        _emit_json({
            "value": _fmt(sol.value),
            "primal": _fmt(sol.primal),
            "dual": _fmt(sol.dual),
            "gap": _fmt(sol.gap),
            "p": [_fmt(x) for x in sol.p],
            "deterministic": sol.completion is not None,
        }, args.out)
        return EXIT_OK

    if args.command == "qubit":
        rows = qubit.conversion_heatmap(args.a, (args.theta, args.phi), args.grid)
        lines = ["theta,phi,p"]
        lines += [f"{t:.9g},{p:.9g},{v:.9g}" for t, p, v in rows]
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK

    if args.command == "game":
        basis = serialize.load_basis(args.basis)
        spec = game.build_game(basis)
        stats = game.simulate(spec, args.input_kind, args.turns, args.seed)
        _emit_json({
            "turns": stats.turns,
            "conclusive_turns": stats.conclusive_turns,
            "wins": stats.wins,
            "losses": stats.losses,
            "win_rate": _fmt(stats.win_rate),
            "p": _fmt(spec.p),
        }, args.out)
        return EXIT_OK

    if args.command == "entangle":
        basis = serialize.load_basis(args.basis)
        psi = _as_pure(serialize.load_state(args.state))
        conv = entangle.faithful_conversion(basis)
        out = conv.convert(psi)
        _emit_json({
            "schmidt_rank": schmidt_rank(PureState.normalized(out), basis.d, basis.d),
            "classical_rank": superposition_rank(psi, basis),
            "probability": _fmt(conv.success_probability),
        }, args.out)
        return EXIT_OK

    raise SchemaViolation("/", f"unknown command {args.command!r}")


def dispatch(argv) -> int:
    """Parse arguments and run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return _run(args)
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (SuperposError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))
