import argparse
import inspect
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from superpos import transform
from superpos.basis import orthonormal_basis, symmetric_basis_d3
from superpos.cli import _build_parser, dispatch
from superpos.entangle import faithful_conversion, verify_faithful
from superpos.errors import SchemaViolation
from superpos.kraus import is_free_kraus
from superpos.linalg import dagger
from superpos.measures import l1_measure, rel_entropy_measure
from superpos.qubit import qubit_free_basis
from superpos.sampling import make_rng
from superpos.sdp import DEFAULT_GAP_TOL, LmiProblem, verify_dual
from superpos.serialize import (
    basis_from_json,
    basis_to_json,
    canonical_dumps,
    density_to_json,
    kraus_set_from_json,
    load_json,
    pure_state_to_json,
    state_from_json,
)
from superpos.states import DensityMatrix, PureState, free_mixture, is_free, superposition_rank
from superpos.transform import candidate_states_d3, max_conversion_prob


def write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(canonical_dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def d3_files(tmp_path):
    b = symmetric_basis_d3()
    return {
        "basis": write(tmp_path, "basis.json", basis_to_json(b)),
        "free_state": write(tmp_path, "free.json",
                            density_to_json(free_mixture(b, [0.2, 0.3, 0.5]))),
        "candidate": write(tmp_path, "cand.json",
                           pure_state_to_json(candidate_states_d3()[0])),
        "target": write(tmp_path, "target.json",
                        pure_state_to_json(PureState(np.array([1, 0, 0], dtype=complex)))),
        "operators": write(tmp_path, "ops.json", {"operators": [
            [[[0.6 * (i == j), 0.0] for j in range(3)] for i in range(3)]]}),
        "orthonormal": write(tmp_path, "orthonormal.json", basis_to_json(orthonormal_basis(3))),
        "target_123": write(tmp_path, "target_123.json",
                            pure_state_to_json(PureState.normalized(np.array([1, 2, 3], dtype=complex)))),
        "tmp": tmp_path,
    }


def run_json(argv, capsys):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_measure_l1_free_state(d3_files, tmp_path, capsys):
    code, payload = run_json(["measure", "l1", "--state", d3_files["free_state"],
                              "--basis", d3_files["basis"]], capsys)
    assert code == 0
    assert payload["value"] <= 1e-9
    # orthonormal frame: the expansion is exact and the output is a clean zero
    b0 = orthonormal_basis(2)
    bpath = write(tmp_path, "b0.json", basis_to_json(b0))
    spath = write(tmp_path, "s0.json", density_to_json(free_mixture(b0, [0.25, 0.75])))
    code, payload = run_json(["measure", "l1", "--state", spath, "--basis", bpath], capsys)
    assert code == 0
    assert payload["value"] == 0.0


def test_convert_prob_maximal_candidate(d3_files, capsys):
    code, payload = run_json(["convert", "prob", "--from", d3_files["candidate"],
                              "--to", d3_files["target"], "--basis", d3_files["basis"]], capsys)
    assert code == 0
    assert payload["value"] <= 16 / 17 + 1e-6
    assert payload["gap"] <= 1e-6
    assert not payload["deterministic"]


def test_basis_check_rejects_dependent(tmp_path, capsys):
    inv_sqrt2 = 1 / np.sqrt(2)
    payload = {"d": 2, "columns": [[[1.0, 0.0], [0.0, 0.0]],
                                   [[1.0, 0.0], [1e-10, 0.0]]]}
    path = write(tmp_path, "dependent.json", payload)
    code = dispatch(["basis", "check", "--in", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "singular value" in err


def test_basis_check_reports_frame(d3_files, capsys):
    code, payload = run_json(["basis", "check", "--in", d3_files["basis"]], capsys)
    assert code == 0
    assert payload["d"] == 3
    assert abs(payload["filter_probability"] - 0.5) < 1e-9


def test_roundtrip_is_byte_identical(d3_files):
    first = canonical_dumps(basis_to_json(basis_from_json(
        json.loads(open(d3_files["basis"]).read()))))
    second = canonical_dumps(basis_to_json(basis_from_json(json.loads(first))))
    assert first == second


def test_malformed_complex_rejected():
    with pytest.raises(SchemaViolation):
        state_from_json({"amp": [{"re": 1}]})


@pytest.mark.parametrize("parse, node, pointer, message", [
    (basis_from_json, [2], "/", "expected an object"),
    (state_from_json, 3, "/", "expected an object"),
    (basis_from_json, {"d": 2}, "/", "missing field 'columns'"),
    (state_from_json, {"amp": []}, "/amp", "non-empty array of [re, im] pairs"),
    (state_from_json, {"mat": []}, "/mat", "non-empty array of rows"),
    (state_from_json, {"mat": [[[1, 0], [0, 0]], [[0, 0]]]}, "/mat", "inconsistent lengths"),
    (basis_from_json, {"d": 2.0, "columns": []}, "/d", "must be an integer"),
    (basis_from_json, {"d": 2, "columns": [[[1, 0], [0, 0]]]}, "/columns", "expected 2 columns"),
    (state_from_json, {"amp": [[2, 0], [0, 0]]}, "/amp", "norm"),
    (state_from_json, {"vec": [[1, 0]]}, "/", "either 'amp' or 'mat'"),
    (kraus_set_from_json, {"operators": []}, "/operators", "non-empty array of matrices"),
    (load_json, None, None, "cannot read file"),
    (load_json, "{", None, "invalid JSON"),
], ids=["non-object", "non-object-state", "missing-field", "empty-vector", "empty-matrix",
        "ragged-rows", "non-integer-d", "column-count", "amp-rejected", "no-state-kind",
        "no-operators", "unreadable-file", "invalid-json"])
def test_schema_violations_name_their_node(parse, node, pointer, message, tmp_path):
    if parse is load_json:   # node is the file's text (None: no file) and the pointer its path
        path = tmp_path / "input.json"
        if node is not None:
            path.write_text(node, encoding="utf-8")
        node = pointer = str(path)
    with pytest.raises(SchemaViolation) as err:
        parse(node)
    assert err.value.pointer == pointer
    assert message in str(err.value)


@pytest.mark.parametrize("argv", [["state", "rank"], ["entangle", "convert"]])
@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "int-1e400"])
def test_non_finite_amplitude_names_the_number(argv, bad, d3_files, capsys):
    path = d3_files["tmp"] / "nonfinite.json"
    path.write_text('{"amp": [[%s, 0], [0, 0], [0, 0]]}' % bad, encoding="utf-8")
    code = dispatch(argv + ["--state", str(path), "--basis", d3_files["basis"]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: /amp/0: " in captured.err


def test_unknown_field_rejected():
    with pytest.raises(SchemaViolation) as err:
        basis_from_json({"d": 2, "columns": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                         "label": "x"})
    assert "unknown field" in str(err.value)


def test_ragged_basis_columns_name_the_column():
    with pytest.raises(SchemaViolation) as err:
        basis_from_json({"d": 2, "columns": [[[1, 0], [0, 0]], [[0, 0]]]})
    assert err.value.pointer == "/columns/1"


@pytest.mark.parametrize("d", [0, -1])
def test_basis_below_two_dimensions_names_d(d, tmp_path, capsys):
    payload = {"d": d, "columns": []}
    with pytest.raises(SchemaViolation) as err:
        basis_from_json(payload)
    assert err.value.pointer == "/d"
    code = dispatch(["basis", "check", "--in", write(tmp_path, "small.json", payload)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: /d: " in captured.err


def test_negative_seed_is_named(d3_files, capsys):
    with pytest.raises(ValueError, match="seed"):
        make_rng(-1)
    code = dispatch(["game", "simulate", "--basis", d3_files["basis"], "--input", "free",
                     "--turns", "10", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "seed" in captured.err


@pytest.mark.parametrize("action", ["check", "complete"])
def test_wrong_shaped_operator_names_the_operator(action, tmp_path, capsys):
    identity = [[[float(i == j), 0.0] for j in range(2)] for i in range(2)]
    wide = [[[0.0, 0.0]] * 3] * 2
    ops = write(tmp_path, "ops.json", {"operators": [identity, wide]})
    b = write(tmp_path, "b.json", basis_to_json(qubit_free_basis(0.2)))
    assert dispatch(["kraus", action, "--in", ops, "--basis", b]) == 2
    assert "error: /operators/1: " in capsys.readouterr().err


def test_subnormalized_state_names_trace(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"mat": [[[0.45, 0.0], [0.0, 0.0]],
                                               [[0.0, 0.0], [0.45, 0.0]]]})
    b = write(tmp_path, "b.json", basis_to_json(qubit_free_basis(0.2)))
    code = dispatch(["state", "free", "--state", path, "--basis", b])
    err = capsys.readouterr().err
    assert code == 2
    assert "trace" in err


def test_cli_matches_library(d3_files, capsys):
    b = symmetric_basis_d3()
    code, payload = run_json(["measure", "l1", "--state", d3_files["candidate"],
                              "--basis", d3_files["basis"]], capsys)
    assert code == 0
    direct = l1_measure(candidate_states_d3()[0].density(), b).value
    assert abs(payload["value"] - float(f"{direct:.9g}")) < 1e-12
    code, payload = run_json(["convert", "prob", "--from", d3_files["candidate"],
                              "--to", d3_files["target"], "--basis", d3_files["basis"]], capsys)
    direct_sol = max_conversion_prob(candidate_states_d3()[0],
                                     PureState(np.array([1, 0, 0], dtype=complex)), b)
    assert abs(payload["value"] - direct_sol.value) < 1e-6


def test_cli_output_deterministic(d3_files, capsys):
    argv = ["game", "simulate", "--basis", d3_files["basis"], "--input", "superposed",
            "--turns", "500", "--seed", "3"]
    code1 = dispatch(argv)
    out1 = capsys.readouterr().out
    code2 = dispatch(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["losses"] == 0


def test_heatmap_csv_format(tmp_path, capsys):
    out_path = tmp_path / "map.csv"
    code = dispatch(["qubit", "heatmap", "--a", "0.5", "--theta", "1.5707963",
                     "--phi", "0", "--grid", "8", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "theta,phi,p"
    assert len(lines) == 1 + 8 * 16
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(0.0 <= v <= 1.0 for v in values)


@pytest.mark.parametrize("flag, value", [("--theta", "nan"), ("--phi", "inf")])
def test_heatmap_refuses_an_angle_that_is_not_finite(flag, value, capsys):
    # refused by name before any cell is computed, as a parse error would be
    argv = {"--a": "0.5", "--theta": "1.5707963", "--phi": "0", "--grid": "8", flag: value}
    assert dispatch(["qubit", "heatmap", *(x for item in argv.items() for x in item)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag[2:]} must be a finite angle, got {value}\n"


def test_state_rank_cli(d3_files, capsys):
    code, payload = run_json(["state", "rank", "--state", d3_files["candidate"],
                              "--basis", d3_files["basis"]], capsys)
    assert code == 0
    assert payload["superposition_rank"] == 3


def test_entangle_cli(d3_files, capsys):
    code, payload = run_json(["entangle", "convert", "--basis", d3_files["basis"],
                              "--state", d3_files["candidate"]], capsys)
    assert code == 0
    assert payload["schmidt_rank"] == 3
    assert payload["classical_rank"] == 3
    assert payload["probability"] == 1.0


@pytest.mark.parametrize("basis, coeffs", [(orthonormal_basis(2), [1.0, 5e-9]),
                                           (symmetric_basis_d3(), [1.0, 1.0, 4e-9])])
def test_entangle_cli_prints_the_ranks_verify_faithful_compares(basis, coeffs, tmp_path, capsys):
    psi = PureState.normalized(basis.vectors @ np.array(coeffs))
    code, payload = run_json(["entangle", "convert", "--basis", write(tmp_path, "b.json", basis_to_json(basis)),
                              "--state", write(tmp_path, "s.json", pure_state_to_json(psi))], capsys)
    assert code == 0
    assert payload["schmidt_rank"] == payload["classical_rank"] == len(coeffs)
    assert verify_faithful(faithful_conversion(basis), psi)


def test_kraus_check_cli(tmp_path, capsys):
    b = qubit_free_basis(0.5)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    ops = {"operators": [
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        [[[h[0, 0], 0.0], [h[0, 1], 0.0]], [[h[1, 0], 0.0], [h[1, 1], 0.0]]],
    ]}
    kpath = write(tmp_path, "k.json", ops)
    bpath = write(tmp_path, "b.json", basis_to_json(b))
    code, payload = run_json(["kraus", "check", "--in", kpath, "--basis", bpath], capsys)
    assert code == 0
    assert payload["free"] == [True, False]
    assert payload["forms"][1] is None


def test_unknown_command_exits_two(capsys):
    assert dispatch(["frobnicate"]) == 2


# --tol is registered only on the subcommands that pass it to the library
TOL_USE = {
    ("state", "rank", "--state", "candidate"): 0,
    ("state", "free", "--state", "free_state"): 0,
    ("kraus", "check", "--in", "identity"): 0,
    ("measure", "relent", "--state", "free_state"): 0,
    ("state", "expand", "--state", "free_state"): 2,
    ("kraus", "complete", "--in", "identity"): 2,
    ("measure", "l1", "--state", "free_state"): 2,
    ("measure", "rank", "--state", "candidate"): 2,
    ("measure", "robustness", "--state", "free_state"): 2,
}


@pytest.mark.parametrize("argv", sorted(TOL_USE), ids=lambda a: "-".join(a[:2]))
def test_tol_only_where_it_is_used(argv, d3_files, capsys):
    identity = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]
    d3_files["identity"] = write(d3_files["tmp"], "identity.json", {"operators": [identity]})
    resolved = [d3_files.get(a, a) for a in argv] + ["--basis", d3_files["basis"]]
    assert dispatch(resolved) == 0
    assert dispatch(resolved + ["--tol", "0.5"]) == TOL_USE[argv]
    capsys.readouterr()


TOL_LEAVES = sorted([argv for argv, code in TOL_USE.items() if code == 0]
                    + [("convert", "prob", "--from", "candidate", "--to", "target")])


@pytest.mark.parametrize("argv", TOL_LEAVES, ids=lambda a: "-".join(a[:2]))
def test_tol_must_be_finite_and_positive(argv, d3_files, capsys):
    # NaN passes every "<= tol" test as false and inf every one as true, so
    # the parser rejects them with 0 and negatives before any file is read
    resolved = [d3_files.get(a, a) for a in argv] + ["--basis", d3_files["basis"]]
    for tol in ("nan", "inf", "-inf", "0", "-1e-3", "0.0"):
        assert dispatch(resolved + [f"--tol={tol}"]) == 2, tol
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err


# Output of the paths whose numbers no solver change may move, byte for byte at
# 9 significant digits, on the d3_files fixtures. The conversion's optimum 4/7 is
# certified by solve_lmi's rank-one descent; the primal-dual loop printed primal
# 0.571428569, dual 0.571428583 and six weights of 0.0952 (checked below).
GOLDEN = {
    ("convert", "prob", "--from", "candidate", "--to", "target"):
        '{"deterministic": false, "dual": 0.571428571, "gap": 8.27338198e-13, "p": [0.190171416, '
        '0.000304774164, 0.19047619, 0.19047619, 0.0, 0.0], "primal": 0.571428571, '
        '"value": 0.571428571}\n',
    ("measure", "robustness", "--state", "free_state"):
        '{"certificate": {"s": 0.0}, "convention": "nat", "upper_bound": false, "value": 0.0}\n',
    ("measure", "robustness", "--state", "candidate"):
        '{"certificate": {"s": 5.0}, "convention": "nat", "upper_bound": false, "value": 5.0}\n',
    ("measure", "l1", "--state", "free_state"):
        '{"convention": "nat", "upper_bound": false, "value": 1.11022302e-16}\n',
    ("measure", "l1", "--state", "candidate"):
        '{"convention": "nat", "upper_bound": false, "value": 4.0}\n',
}
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=lambda a: "-".join(a))
def test_cli_output_is_pinned(argv, d3_files, capsys):
    resolved = [d3_files.get(a, a) for a in argv] + ["--basis", d3_files["basis"]]
    assert dispatch(resolved) == 0
    assert capsys.readouterr().out == GOLDEN[argv]


def test_convert_prob_golden_stays_within_gap_tol_of_the_loop():
    # the golden conversion moved from the loop's interior point to the descent's
    # certificate: its primal is within gap_tol of the loop's pin and not below
    # it, and verify_dual accepts its dual on the conversion's own LMI
    b, target = symmetric_basis_d3(), PureState(np.array([1, 0, 0], dtype=complex))
    sol = max_conversion_prob(candidate_states_d3()[0], target, b)
    golden = json.loads(GOLDEN["convert", "prob", "--from", "candidate", "--to", "target"])
    assert golden["primal"] == float(f"{sol.primal:.9g}")
    loop_pin = 0.571428569
    assert loop_pin <= sol.primal <= loop_pin + DEFAULT_GAP_TOL
    ops = transform.enumerate_transformers(candidate_states_d3()[0], target, b).operators
    feasible, bound = verify_dual(sol.dual_matrix, LmiProblem.from_matrices(dagger(ops) @ ops))
    assert feasible and abs(bound - sol.dual) <= 1e-12


def test_measure_robustness_builds_no_certificate(d3_files, capsys, monkeypatch):
    # the printed s is the report's value, so the leaf builds only the loaded
    # state's record, not the closest free state delta or the witness tau
    records = []
    post_init = DensityMatrix.__post_init__
    monkeypatch.setattr(DensityMatrix, "__post_init__", lambda self: records.append(1) or post_init(self))
    argv = ["measure", "robustness", "--state", d3_files["candidate"], "--basis", d3_files["basis"]]
    assert dispatch(argv) == 0
    assert len(records) == 1
    assert capsys.readouterr().out == GOLDEN["measure", "robustness", "--state", "candidate"]


def test_convert_prob_prints_deterministic_without_building_the_completion(d3_files, capsys, monkeypatch):
    # a self-conversion is deterministic; printing so reads SdpSolution.deterministic, not the completion
    calls = []
    complete_free = transform.complete_free
    monkeypatch.setattr(transform, "complete_free", lambda *args: calls.append(1) or complete_free(*args))
    code, payload = run_json(["convert", "prob", "--from", d3_files["candidate"], "--to", d3_files["candidate"],
                              "--basis", d3_files["basis"]], capsys)
    assert code == 0 and payload["deterministic"] is True and payload["value"] >= 1 - 1e-7
    sol = max_conversion_prob(*[candidate_states_d3()[0]] * 2, symmetric_basis_d3())
    assert sol.deterministic and calls == []
    assert sol.completion is not None and len(calls) == 1


@pytest.mark.parametrize("a", ["0.2", "0.5", "0.8"])
def test_heatmap_output_is_pinned(a, tmp_path):
    out_path = tmp_path / "map.csv"
    assert dispatch(["qubit", "heatmap", "--a", a, "--theta", "1.5707963", "--phi", "0",
                     "--grid", "8", "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == (GOLDEN_DIR / f"heatmap_a{a}_grid8.csv").read_bytes()


# Output of every leaf GOLDEN leaves out, as full argument lists on the
# d3_files fixtures (each value after a flag names a fixture file).
PINNED = {
    ("basis", "check", "--in", "basis"):
        '{"d": 3, "filter_probability": 0.5, "gram": [[[1.0, 0.0], [0.5, 0.0], [0.5, 0.0]], '
        '[[0.5, 0.0], [1.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0], [1.0, 0.0]]], '
        '"sigma_min": 0.707106781}\n',
    ("state", "rank", "--state", "candidate", "--basis", "basis"):
        '{"superposition_rank": 3}\n',
    ("state", "free", "--state", "free_state", "--basis", "basis"):
        '{"is_free": true}\n',
    # free_expansion returns the Hermitian part of W' rho W: the rounding noise is symmetric
    ("state", "expand", "--state", "free_state", "--basis", "basis"):
        '{"coeffs": [[[0.2, 0.0], [3.90967293e-17, 0.0], [-5.545838e-18, 0.0]], '
        '[[3.90967293e-17, 0.0], [0.3, 0.0], [9.27299807e-18, 0.0]], [[-5.545838e-18, 0.0], '
        '[9.27299807e-18, 0.0], [0.5, 0.0]]]}\n',
    ("kraus", "check", "--in", "operators", "--basis", "basis"):
        '{"forms": [{"coeffs": [[0.6, 0.0], [0.6, 0.0], [0.6, 0.0]], "index_fn": [0, 1, 2]}], '
        '"free": [true]}\n',
    ("kraus", "complete", "--in", "operators", "--basis", "basis"):
        '{"operators": [[[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.565685425, 0.0], [0.0, 0.0], '
        '[0.0, 0.0]], [[0.565685425, 0.0], [0.0, 0.0], [0.0, 0.0]]], [[[0.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0]], [[0.0, 0.0], [0.565685425, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.565685425, '
        '0.0], [0.0, 0.0]]], [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], '
        '[0.565685425, 0.0]], [[0.0, 0.0], [0.0, 0.0], [0.565685425, 0.0]]]]}\n',
    ("measure", "relent", "--state", "candidate", "--basis", "basis"):
        '{"certificate": {"mat": [[[0.333333333, 0.0], [0.166666667, 0.0], [0.166666667, 0.0]], '
        '[[0.166666667, 0.0], [0.333333333, 0.0], [0.166666667, 0.0]], [[0.166666667, 0.0], '
        '[0.166666667, 0.0], [0.333333333, 0.0]]]}, "convention": "nat", "upper_bound": false, '
        '"value": 1.79175947}\n',
    ("measure", "rank", "--state", "candidate", "--basis", "basis"):
        '{"convention": "nat", "upper_bound": false, "value": 1.09861229}\n',
    ("game", "simulate", "--basis", "basis", "--input", "superposed", "--turns", "200",
     "--seed", "3"):
        '{"conclusive_turns": 44, "losses": 0, "p": 0.5, "turns": 200, "win_rate": 1.0, '
        '"wins": 44}\n',
    # both inputs read the block layout of game.simulate: n input rows, then
    # n outcome uniforms and n answer uniforms
    ("game", "simulate", "--basis", "basis", "--input", "free", "--turns", "200", "--seed", "3"):
        '{"conclusive_turns": 108, "losses": 63, "p": 0.5, "turns": 200, '
        '"win_rate": 0.416666667, "wins": 45}\n',
    ("entangle", "convert", "--basis", "basis", "--state", "candidate"):
        '{"classical_rank": 3, "probability": 1.0, "schmidt_rank": 3}\n',
}


def _pin_id(argv) -> str:
    """The leaf's name; the free-input game pin adds its input to tell the two apart."""
    name = "-".join(argv[:2])
    return name + "-free" if ("--input", "free") in zip(argv, argv[1:]) else name


@pytest.mark.parametrize("argv", sorted(PINNED), ids=_pin_id)
def test_cli_leaf_output_is_pinned(argv, d3_files, capsys):
    resolved = list(argv[:2]) + [d3_files.get(a, a) for a in argv[2:]]
    assert dispatch(resolved) == 0
    assert capsys.readouterr().out == PINNED[argv]


# the library parameter that each leaf's --tol feeds
TOL_FEEDS = {
    ("state", "rank"): (superposition_rank, "tol"),
    ("state", "free"): (is_free, "tol"),
    ("kraus", "check"): (is_free_kraus, "tol"),
    ("measure", "relent"): (rel_entropy_measure, "tol"),
    ("convert", "prob"): (max_conversion_prob, "gap_tol"),
}


def test_tol_default_is_the_library_default():
    parser = _build_parser()
    defaults = {}
    for group, leaf in _leaves(parser):
        leaf_parser = _subparser(_subparser(parser, group), leaf)
        if (default := leaf_parser.get_default("tol")) is not None:
            defaults[group, leaf] = default
    assert defaults.keys() == TOL_FEEDS.keys()
    for leaf, (func, name) in TOL_FEEDS.items():
        assert defaults[leaf] == inspect.signature(func).parameters[name].default, leaf


def _subparser(parser, name):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[name]


def _leaves(parser, path=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path
        return
    for name, child in subparsers[0].choices.items():
        yield from _leaves(child, path + (name,))


def test_every_leaf_has_pinned_output():
    pinned = {argv[:2] for argv in (*GOLDEN, *PINNED)} | {("qubit", "heatmap")}
    leaves = set(_leaves(_build_parser()))
    assert leaves and all(len(leaf) == 2 for leaf in leaves)
    assert leaves <= pinned, sorted(leaves - pinned)


# A conversion no tolerance of 1e-12 certifies: candidate 0 to (1, 2, 3)/sqrt(14)
# on the orthonormal d = 3 basis has optimum 1 with the dual Y = 1/3 (rank 3), so
# the rank-one descent hands over and the loop's factorisation fails before its
# complementarity reaches 1e-12 (after 8 iterations, at 6.3e-10).
SOLVER_FAILURE = ("convert", "prob", "--from", "candidate", "--to", "target_123",
                  "--basis", "orthonormal", "--tol", "1e-12")


def test_solver_failure_exits_three_with_nothing_on_stdout(d3_files, capsys):
    code = dispatch([d3_files.get(a, a) for a in SOLVER_FAILURE])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_convert_prob_certifies_the_candidate_below_the_loops_floor(d3_files, capsys):
    # the loop's factorisation failed on this conversion at every tolerance below
    # ~1e-8; the rank-one descent certifies it with gap 8.3e-13
    code, payload = run_json(["convert", "prob", "--from", d3_files["candidate"], "--to", d3_files["target"],
                              "--basis", d3_files["basis"], "--tol", "1e-9"], capsys)
    assert code == 0
    assert 0.0 <= payload["gap"] <= 1e-9 and payload["dual"] - payload["primal"] <= 1e-9


def _src_env() -> dict:
    """This environment with the checkout's src/ first on PYTHONPATH, for a child process."""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_main_exits_with_the_code_of_dispatch(d3_files, capsys):
    # the console script's entry point, run as its own process: the exit status
    # is dispatch's return value, and a success writes dispatch's bytes
    env = _src_env()
    ok = ["measure", "l1", "--state", d3_files["free_state"], "--basis", d3_files["basis"]]
    solver = [d3_files.get(a, a) for a in SOLVER_FAILURE]
    assert dispatch(ok) == 0
    expected = capsys.readouterr().out.encode()
    for argv, code in ((ok, 0), (["frobnicate"], 2), (solver, 3)):
        proc = subprocess.run([sys.executable, "-c", "from superpos.cli import main; main()", *argv],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == code, proc.stderr.decode()[-2000:]
        assert proc.stdout == (expected if code == 0 else b"")


def test_module_form_runs_the_cli(d3_files, capsys):
    # `python -m superpos.cli` runs main, as the console script does
    env = _src_env()
    usage = subprocess.run([sys.executable, "-m", "superpos.cli", "state", "rank", "--help"],
                           env=env, capture_output=True, text=True, timeout=120)
    assert usage.returncode == 0, usage.stderr[-2000:]
    assert usage.stdout.startswith("usage: superpos state rank ")
    # a leaf whose bytes PINNED holds
    argv = [d3_files.get(a, a) for a in ("state", "rank", "--state", "candidate", "--basis", "basis")]
    assert dispatch(argv) == 0
    proc = subprocess.run([sys.executable, "-m", "superpos.cli", *argv], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert proc.stdout == capsys.readouterr().out.encode()
