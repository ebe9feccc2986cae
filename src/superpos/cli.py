"""Batch command-line front end.

Every subcommand is a thin wrapper over the library: inputs are parsed and
validated up front, the single library call runs, and the result is printed
as canonical JSON (or CSV for the heatmap) with numbers at 9 significant
digits. Exit codes: 0 success, 2 parse/validation error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import entangle, game, kraus, measures, qubit, sdp, serialize, transform
from .basis import filter_probability
from .errors import NoConvergence, SchemaViolation, SuperposError
from .linalg import as_tolerance
from .serialize import _to_json
from .states import (
    RANK_TOL,
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


def _rounded(node):
    """The JSON payload with every float at 9 significant digits, for deterministic output."""
    if isinstance(node, dict):
        return {key: _rounded(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_rounded(value) for value in node]
    return float(f"{node:.9g}") if isinstance(node, float) else node


def _tolerance(text: str) -> float:
    """A --tol value: a finite positive number, else a parse error (exit 2)."""
    try:
        return as_tolerance(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}") from None


def _as_density(state) -> DensityMatrix:
    return state.density() if isinstance(state, PureState) else state


def _load_pure(path) -> PureState:
    state = serialize.load_state(path)
    if not isinstance(state, PureState):
        raise SchemaViolation("/", "this command needs a pure state ('amp' schema)")
    return state


def _flag(name: str, load=None, **options) -> tuple:
    """A flag's argparse options, and the loader that replaces its file path
    by the file's content before the handler runs."""
    return name, options, load


_BASIS = _flag("--basis", serialize.load_basis, required=True)
_STATE = _flag("--state", serialize.load_state, required=True)
_PURE = _flag("--state", _load_pure, required=True)
_OPS = _flag("--in", serialize.load_kraus_set, dest="path", required=True)


def _square_ops(args) -> list:
    """The --in operators, each checked to be square on the --basis space."""
    d = args.basis.d
    for i, k in enumerate(args.path):
        if k.shape != (d, d):
            raise SchemaViolation(f"/operators/{i}", f"shape {k.shape} != ({d}, {d})")
    return args.path


def _basis_check(args) -> dict:
    basis = args.path
    return {
        "d": basis.d,
        "sigma_min": basis.sigma_min,
        "filter_probability": filter_probability(basis),
        "gram": _to_json(basis.gram),
    }


def _kraus_check(args) -> dict:
    forms = [kraus.is_free_kraus(k, args.basis, args.tol) for k in _square_ops(args)]
    return {
        "free": [f is not None for f in forms],
        "forms": [None if f is None else {
            "coeffs": _to_json(f.coeffs),
            "index_fn": [int(i) for i in f.index_fn],
        } for f in forms],
    }


def _report_out(report, certificate=None) -> dict:
    """A measure report's payload; ``certificate(report)``, when given, is the certificate part printed."""
    payload = {"value": report.value, "convention": report.convention,
               "upper_bound": report.upper_bound}
    if certificate is not None:
        payload["certificate"] = certificate(report)
    return payload


def _convert_prob(args) -> dict:
    sol = transform.max_conversion_prob(args.source, args.target, args.basis, gap_tol=args.tol)
    return {
        "value": sol.value,
        "primal": sol.primal,
        "dual": sol.dual,
        "gap": sol.gap,
        "p": sol.p.tolist(),
        "deterministic": sol.deterministic,   # read without building the completion
    }


def _qubit_heatmap(args) -> str:
    rows = qubit.conversion_heatmap(args.a, (args.theta, args.phi), args.grid)
    lines = ["theta,phi,p"]
    lines += [f"{t:.9g},{p:.9g},{v:.9g}" for t, p, v in rows]
    return "\n".join(lines) + "\n"


def _game_simulate(args) -> dict:
    spec = game.build_game(args.basis)
    stats = game.simulate(spec, args.input_kind, args.turns, args.seed)
    return {**dataclasses.asdict(stats), "win_rate": stats.win_rate, "p": spec.p}


def _entangle_convert(args) -> dict:
    basis, psi = args.basis, args.state
    conv = entangle.faithful_conversion(basis)
    return {
        "schmidt_rank": schmidt_rank(PureState.normalized(conv.convert(psi)), basis.d, basis.d),
        "classical_rank": superposition_rank(psi, basis),
        "probability": conv.success_probability,
    }


_GROUPS = {
    "basis": "basis inspection",
    "state": "state inspection",
    "kraus": "free Kraus recognition and completion",
    "measure": "superposition measures",
    "convert": "pure-state conversion",
    "qubit": "qubit landscapes",
    "game": "discrimination game simulator",
    "entangle": "superposition-to-entanglement conversion",
}
# the one leaf its group's help lists
_LEAF_HELP = {("basis", "check"): "validate a basis file and report its frame data"}

# Every leaf subcommand, once: (group, leaf) -> (flags, --tol default where the
# library call takes a tolerance, handler). The handler gets the parsed
# arguments with their files loaded and returns the payload: a dict printed as
# JSON, or a string printed as is. Every leaf also takes --out.
_COMMANDS = {
    ("basis", "check"): ((_flag("--in", serialize.load_basis, dest="path", required=True),),
                         None, _basis_check),
    ("state", "rank"): ((_PURE, _BASIS), RANK_TOL, lambda a: {
        "superposition_rank": superposition_rank(a.state, a.basis, a.tol)}),
    ("state", "free"): ((_STATE, _BASIS), RANK_TOL, lambda a: {
        "is_free": is_free(_as_density(a.state), a.basis, a.tol)}),
    ("state", "expand"): ((_STATE, _BASIS), None, lambda a: {
        "coeffs": _to_json(free_expansion(_as_density(a.state), a.basis))}),
    ("kraus", "check"): ((_OPS, _BASIS), kraus.FREE_TOL, _kraus_check),
    ("kraus", "complete"): ((_OPS, _BASIS), None, lambda a: {
        "operators": [_to_json(k) for k in kraus.complete_free(_square_ops(a), a.basis)]}),
    ("measure", "l1"): ((_STATE, _BASIS), None, lambda a: _report_out(
        measures.l1_measure(_as_density(a.state), a.basis))),
    ("measure", "relent"): ((_STATE, _BASIS), measures.REL_ENT_TOL, lambda a: _report_out(
        measures.rel_entropy_measure(_as_density(a.state), a.basis, tol=a.tol),
        lambda report: {"mat": _to_json(report.certificate.mat)})),
    ("measure", "rank"): ((_STATE, _BASIS), None, lambda a: _report_out(
        measures.rank_measure(a.state, a.basis))),
    ("measure", "robustness"): ((_STATE, _BASIS), None, lambda a: _report_out(
        measures.robustness(_as_density(a.state), a.basis), lambda report: {"s": report.value})),
    ("convert", "prob"): ((_flag("--from", _load_pure, dest="source", required=True),
                           _flag("--to", _load_pure, dest="target", required=True), _BASIS),
                          sdp.DEFAULT_GAP_TOL, _convert_prob),
    ("qubit", "heatmap"): ((_flag("--a", type=float, required=True),
                            _flag("--theta", type=float, required=True),
                            _flag("--phi", type=float, required=True),
                            _flag("--grid", type=int, required=True)), None, _qubit_heatmap),
    ("game", "simulate"): ((_BASIS, _flag("--input", dest="input_kind", required=True,
                                          choices=("free", "superposed")),
                            _flag("--turns", type=int, required=True),
                            _flag("--seed", type=int, default=0)), None, _game_simulate),
    ("entangle", "convert"): ((_BASIS, _PURE), None, _entangle_convert),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="superpos",
                                     description="Resource theory of superposition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for (group, leaf), (flags, tol, handler) in _COMMANDS.items():
        if group not in groups:
            group_parser = sub.add_parser(group, help=_GROUPS[group])
            groups[group] = group_parser.add_subparsers(dest="action", required=True)
        # a leaf added without help= stays out of its group's help listing
        leaf_help = {"help": _LEAF_HELP[group, leaf]} if (group, leaf) in _LEAF_HELP else {}
        leaf_parser = groups[group].add_parser(leaf, **leaf_help)
        loads = []
        for name, options, load in flags:
            dest = leaf_parser.add_argument(name, **options).dest
            if load is not None:
                loads.append((dest, load))
        if tol is not None:
            leaf_parser.add_argument("--tol", type=_tolerance, default=tol)
        leaf_parser.add_argument("--out")
        # the basis loads first, so its errors are reported before the other files'
        loads.sort(key=lambda item: item[0] != "basis")
        leaf_parser.set_defaults(handler=handler, loads=loads)
    return parser


def dispatch(argv) -> int:
    """Parse arguments and run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        for dest, load in args.loads:
            setattr(args, dest, load(getattr(args, dest)))
        payload = args.handler(args)
        text = payload if isinstance(payload, str) else serialize.canonical_dumps(_rounded(payload))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (SuperposError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
