"""Each input check of the library raises its stated type with its stated message."""

import pickle
import re

import numpy as np
import pytest

from superpos import measures
from superpos.basis import FreeBasis, orthonormal_basis, symmetric_basis_d3
from superpos.cli import _load_pure
from superpos.entangle import ConversionMap
from superpos.errors import BadData, DimensionMismatch, InvalidState, NotNormalized, SchemaViolation
from superpos.game import GameSpec, build_game, discriminate, simulate
from superpos.kraus import Channel, FreeKrausForm, apply_channel, complete_free, is_free_kraus, reduce_ancilla
from superpos.linalg import as_tolerance, fidelity, partial_trace
from superpos.qubit import (
    BlochMap,
    bloch_vector,
    build_phi,
    conversion_heatmap,
    free_qubit_kraus,
    inject_unitary,
    kraus_from_choi,
    qubit_free_basis,
    qubit_state,
    state_from_bloch,
)
from superpos.sampling import make_rng, random_basis, random_density, random_subnormalized_free_ops
from superpos.sdp import LmiProblem, verify_dual
from superpos.serialize import canonical_dumps, density_to_json
from superpos.states import PureState, free_expansion, free_mixture

B2, B3 = orthonormal_basis(2), symmetric_basis_d3()
RHO2, RHO3 = free_mixture(B2, [0.5, 0.5]), free_mixture(B3, [0.2, 0.3, 0.5])


def _load_mixed_as_pure(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(canonical_dumps(density_to_json(RHO3)), encoding="utf-8")
    return _load_pure(str(path))


# (call, error type, start of the message); the call takes a scratch directory
CHECKS = {
    "basis.FreeBasis.norm": (lambda tmp: FreeBasis(2 * np.eye(2)),
                             NotNormalized, "column 0 has norm 2"),
    "basis.FreeBasis.derived_field": (lambda tmp: FreeBasis(vectors=np.eye(2), gram=np.eye(2)),
                                      TypeError, "FreeBasis.__init__() got an unexpected keyword argument 'gram'"),
    "basis.to_free_frame": (lambda tmp: B3.to_free_frame(np.ones(2)),
                            DimensionMismatch, "amplitude shape (2,) != (3,)"),
    "cli.state_rank_of_a_mixed_state": (_load_mixed_as_pure, SchemaViolation,
                                        "/: this command needs a pure state ('amp' schema)"),
    "entangle.ConversionMap.derived_field": (lambda tmp: ConversionMap(B3, B3, probability=7.0), TypeError,
                                             "ConversionMap.__init__() got an unexpected keyword argument 'probability'"),
    "game.GameSpec.derived_field": (lambda tmp: GameSpec(B2, p=0.5),
                                    TypeError, "GameSpec.__init__() got an unexpected keyword argument 'p'"),
    "game.discriminate.empty": (lambda tmp: discriminate([], PureState(np.array([1, 0])), 0),
                                DimensionMismatch, "need at least one state"),
    "kraus.Channel.empty": (lambda tmp: Channel([]),
                            DimensionMismatch, "need at least one Kraus operator"),
    "kraus.Channel.mixed_shapes": (lambda tmp: Channel((0.5 * np.eye(2), 0.5 * np.eye(3))),
                                   DimensionMismatch, "Kraus operator stack members must share one shape"),
    "kraus.FreeKrausForm.negative_label": (lambda tmp: FreeKrausForm(np.ones(3), np.array([-1, 0, 1])).matrix(B3),
                                           ValueError, "index_fn label -1 is not an integer in [0, 3)"),
    "kraus.FreeKrausForm.label_above_d": (lambda tmp: FreeKrausForm(np.ones(3), np.array([0, 5, 1])).matrix(B3),
                                          ValueError, "index_fn label 5 is not an integer in [0, 3)"),
    "kraus.FreeKrausForm.short_coeffs": (lambda tmp: FreeKrausForm([1.0], [0]).matrix(qubit_free_basis(0.3)),
                                         DimensionMismatch, "coeffs shape (1,), index_fn shape (1,) != (..., 2)"),
    "kraus.FreeKrausForm.short_index_fn": (lambda tmp: FreeKrausForm([1.0, 2.0], [0]).matrix(qubit_free_basis(0.3)),
                                           DimensionMismatch, "coeffs shape (2,), index_fn shape (1,) != (..., 2)"),
    "kraus.is_free_kraus": (lambda tmp: is_free_kraus(np.eye(2), B3),
                            DimensionMismatch, "operator shape (2, 2) != (3, 3)"),
    "kraus.apply_channel": (lambda tmp: apply_channel(Channel([np.eye(2)]), RHO3),
                            DimensionMismatch, "state dimension 3 != channel dimension 2"),
    "kraus.complete_free": (lambda tmp: complete_free([0.5 * np.eye(2)], B3),
                            DimensionMismatch, "operator shape (2, 2) != (3, 3)"),
    "kraus.reduce_ancilla": (lambda tmp: reduce_ancilla(np.eye(3), RHO2, B2, B2),
                             DimensionMismatch, "operator shape (3, 3) != "),
    "linalg.fidelity": (lambda tmp: fidelity(RHO2.mat, RHO3.mat),
                        DimensionMismatch, "state shape (2, 2) != (3, 3)"),
    "linalg.as_tolerance": (lambda tmp: as_tolerance("x"),
                            ValueError, "tol must be a finite positive number, got 'x'"),
    "linalg.partial_trace.shape": (lambda tmp: partial_trace(np.eye(3), 2, 2),
                                   DimensionMismatch, "operator shape (3, 3) != "),
    "linalg.partial_trace.keep": (lambda tmp: partial_trace(np.eye(4), 2, 2, keep="c"),
                                  ValueError, "keep must be 'a' or 'b'"),
    "qubit.qubit_free_basis": (lambda tmp: qubit_free_basis(1.0),
                               ValueError, "overlap a must lie in [0, 1), got 1.0"),
    "qubit.bloch_vector": (lambda tmp: bloch_vector(RHO3),
                           DimensionMismatch, "need a qubit state, got dimension 3"),
    "qubit.state_from_bloch.shape": (lambda tmp: state_from_bloch([0.0, 0.0]),
                                     DimensionMismatch, "Bloch vector must have 3 components, got (2,)"),
    "qubit.state_from_bloch.length": (lambda tmp: state_from_bloch([0.0, 0.0, 2.0]),
                                      InvalidState, "Bloch vector length 2 > 1"),
    "qubit.BlochMap.apply_operator": (lambda tmp: build_phi(0.3, 1.0, 0.5).apply_operator(np.eye(3)),
                                      DimensionMismatch, "operator shape (3, 3) != (2, 2)"),
    "qubit.BlochMap.translation": (lambda tmp: BlochMap(translation=[0.1], matrix=np.eye(3)),
                                   DimensionMismatch, "translation and matrix shapes (1,), (3, 3) != (3,), (3, 3)"),
    "qubit.BlochMap.matrix": (lambda tmp: BlochMap(translation=np.zeros(3), matrix=np.ones(3)),
                              DimensionMismatch, "translation and matrix shapes (3,), (3,) != (3,), (3, 3)"),
    "qubit.BlochMap.complex": (lambda tmp: BlochMap(translation=[0.1j, 0.0, 0.0], matrix=np.eye(3)),
                               ValueError, "translation and matrix must hold finite real numbers"),
    "qubit.BlochMap.nan": (lambda tmp: BlochMap(translation=np.zeros(3), matrix=np.diag([1.0, np.nan, 1.0])),
                           ValueError, "translation and matrix must hold finite real numbers"),
    "qubit.build_phi": (lambda tmp: build_phi(-0.1, 0.3, 0.2),
                        ValueError, "overlap a must lie in [0, 1), got -0.1"),
    "qubit.build_phi.theta": (lambda tmp: build_phi(0.5, np.nan, 0.2),
                              ValueError, "theta must be a finite angle, got nan"),
    "qubit.kraus_from_choi": (lambda tmp: kraus_from_choi(np.eye(3)),
                              DimensionMismatch, "Choi matrix shape (3, 3) != (4, 4)"),
    "qubit.kraus_from_choi.not_cp": (lambda tmp: kraus_from_choi(np.diag([1.0, 0.0, 0.0, -0.1])),
                                     InvalidState, "Choi matrix has eigenvalue -1.000e-01: not CP"),
    "qubit.free_qubit_kraus": (lambda tmp: free_qubit_kraus(5, (1.0, 1.0), 0.5),
                               ValueError, "kind must be 1..4, got 5"),
    "qubit.free_qubit_kraus.bool_kind": (lambda tmp: free_qubit_kraus(True, (1.0, 1.0), 0.5),
                                         ValueError, "kind must be 1..4, got True"),
    "qubit.free_qubit_kraus.params": (lambda tmp: free_qubit_kraus(1, (np.nan, 1.0), 0.5),
                                      ValueError, "params must be finite, got ((nan+0j), (1+0j))"),
    "qubit.free_qubit_kraus.params_count": (lambda tmp: free_qubit_kraus(1, (1.0,), 0.5),
                                            ValueError, "params must be two coefficients, got 1"),
    "qubit.inject_unitary": (lambda tmp: inject_unitary(np.eye(3), 0.5),
                             DimensionMismatch, "u shape (3, 3) != (2, 2)"),
    "qubit.conversion_heatmap": (lambda tmp: conversion_heatmap(0.5, (0.3, 0.2), 4),
                                 ValueError, "grid_n must be at least 8, got 4"),
    "qubit.conversion_heatmap.bool": (lambda tmp: conversion_heatmap(0.5, (0.3, 0.2), True),
                                      ValueError, "grid_n must be an integer, got True"),
    "qubit.conversion_heatmap.float": (lambda tmp: conversion_heatmap(0.5, (0.3, 0.2), 8.0),
                                       ValueError, "grid_n must be an integer, got 8.0"),
    "qubit.conversion_heatmap.numpy_float": (lambda tmp: conversion_heatmap(0.5, (0.3, 0.2), np.float64(9)),
                                             ValueError, "grid_n must be an integer, got "),
    "qubit.qubit_state.theta": (lambda tmp: qubit_state(np.nan, 0.3),
                                ValueError, "theta must be a finite angle, got nan"),
    "qubit.qubit_state.phi": (lambda tmp: qubit_state(0.3, np.inf),
                              ValueError, "phi must be a finite angle, got inf"),
    "game.simulate.bool_turns": (lambda tmp: simulate(build_game(B2), "free", True, 0),
                                 ValueError, "turns must be an integer >= 1, got True"),
    "game.simulate.float_turns": (lambda tmp: simulate(build_game(B2), "free", 10.0, 0),
                                  ValueError, "turns must be an integer >= 1, got 10.0"),
    "sampling.make_rng.bool": (lambda tmp: make_rng(True),
                               ValueError, "seed must be a non-negative integer, got True"),
    "sampling.make_rng.float": (lambda tmp: make_rng(1.5),
                                ValueError, "seed must be a non-negative integer, got 1.5"),
    "sampling.make_rng.negative": (lambda tmp: make_rng(-1),
                                   ValueError, "seed must be a non-negative integer, got -1"),
    "sampling.random_density": (lambda tmp: random_density(3, make_rng(1), rank=0),
                                ValueError, "rank must be at least 1, got 0"),
    "sampling.random_density.rank_above_d": (lambda tmp: random_density(3, make_rng(1), rank=4),
                                             ValueError, "rank must be at most 3, got 4"),
    "sampling.random_basis.min_sigma": (lambda tmp: random_basis(3, make_rng(1), min_sigma=1.5),
                                        ValueError, "min_sigma must lie in [0, 1), got 1.5"),
    "sampling.random_basis.min_sigma_nan": (lambda tmp: random_basis(3, make_rng(1), min_sigma=np.nan),
                                            ValueError, "min_sigma must lie in [0, 1), got nan"),
    "sampling.random_subnormalized_free_ops.no_ops": (
        lambda tmp: random_subnormalized_free_ops(B2, make_rng(1), n_ops=0),
        ValueError, "need an integer n_ops >= 1 and 0 < slack <= 1, got 0 and 0.9"),
    "sampling.random_subnormalized_free_ops.bool_ops": (
        lambda tmp: random_subnormalized_free_ops(B2, make_rng(1), n_ops=True),
        ValueError, "need an integer n_ops >= 1 and 0 < slack <= 1, got True and 0.9"),
    "sampling.random_subnormalized_free_ops.negative_slack": (
        lambda tmp: random_subnormalized_free_ops(B2, make_rng(1), slack=-1.0),
        ValueError, "need an integer n_ops >= 1 and 0 < slack <= 1, got 2 and -1.0"),
    "sampling.random_subnormalized_free_ops.slack_above_1": (
        lambda tmp: random_subnormalized_free_ops(B2, make_rng(1), slack=2.0),
        ValueError, "need an integer n_ops >= 1 and 0 < slack <= 1, got 2 and 2.0"),
    "sampling.random_subnormalized_free_ops.nan_slack": (
        lambda tmp: random_subnormalized_free_ops(B2, make_rng(1), slack=np.nan),
        ValueError, "need an integer n_ops >= 1 and 0 < slack <= 1, got 2 and nan"),
    "sdp.LmiProblem.negative": (lambda tmp: LmiProblem(np.array([-np.eye(2)])),
                                BadData, "constraint matrix has negative eigenvalue -1.000e+00"),
    "sdp.LmiProblem.from_matrices.empty": (lambda tmp: LmiProblem.from_matrices([]),
                                           DimensionMismatch, "need at least one A_n"),
    "sdp.LmiProblem.from_matrices.mixed_shapes": (lambda tmp: LmiProblem.from_matrices([np.eye(2), np.eye(3)]),
                                                  DimensionMismatch, "A_n stack members must share one shape"),
    "sdp.verify_dual": (lambda tmp: verify_dual(np.eye(3), LmiProblem.from_matrices([np.eye(2)])),
                        DimensionMismatch, "lam shape (3, 3) != (2, 2)"),
    "states.PureState.normalized": (lambda tmp: PureState.normalized(np.zeros(3)),
                                    NotNormalized, "cannot normalize the zero vector"),
    "states.free_expansion": (lambda tmp: free_expansion(RHO2, B3),
                              DimensionMismatch, "state dimension 2 != basis dimension 3"),
    "states.free_mixture.shape": (lambda tmp: free_mixture(B3, [0.5, 0.5]),
                                  DimensionMismatch, "need 3 weights, got shape (2,)"),
    "states.free_mixture.weights": (lambda tmp: free_mixture(B3, [0.5, 0.6, -0.1]),
                                    InvalidState, "weights must form a probability distribution"),
    "states.free_mixture.nan_weights": (lambda tmp: free_mixture(B2, [np.nan, 1.0]),
                                        InvalidState, "weights must form a probability distribution"),
}


@pytest.mark.parametrize("name", CHECKS)
def test_input_check_raises_its_type_and_message(name, tmp_path):
    call, error, message = CHECKS[name]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert str(info.value).startswith(message)


def test_numpy_integers_pass_as_seeds_and_turns():
    stats = simulate(build_game(B2), "free", np.int64(10), np.uint32(3))
    assert stats == simulate(build_game(B2), "free", 10, 3)
    assert make_rng(np.int64(7)).random() == make_rng(7).random()


def test_a_free_kraus_form_broadcasts_over_leading_axes():
    # (2, 3) coefficients against (1, 3) labels: two operators, as reduce_ancilla passes them
    coeffs, labels = np.array([[1.0, 2.0, 3.0], [0.5, 0.0, -1.0]]), np.array([[0, 2, 2]])
    ops = FreeKrausForm(coeffs, labels).matrix(B3)
    assert ops.shape == (2, 3, 3)
    for op, row in zip(ops, coeffs):
        assert np.array_equal(op, FreeKrausForm(row, labels[0]).matrix(B3))


def test_bloch_map_keeps_read_only_float_copies():
    # integer input is stored as float; a pickle rebuilds the map through its checks
    translation, matrix = [0, 0, 1], np.eye(3)
    m = BlochMap(translation=translation, matrix=matrix)
    assert m.translation.dtype == m.matrix.dtype == float and matrix.flags.writeable
    twin = pickle.loads(pickle.dumps(m))
    for array in (m.translation, m.matrix, twin.translation, twin.matrix):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5
    assert np.array_equal(twin.matrix, matrix) and np.array_equal(twin.translation, translation)


def test_valid_sampler_arguments_keep_their_streams():
    # the argument checks draw nothing, so numpy integers and slack 1 draw as before
    want = random_subnormalized_free_ops(B3, make_rng(5), n_ops=3, slack=1)
    got = random_subnormalized_free_ops(B3, make_rng(5), n_ops=np.int64(3), slack=1.0)
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_numpy_integers_pass_as_qubit_kraus_kinds():
    for kind in range(1, 5):
        want = free_qubit_kraus(kind, (1.0, 0.5), 0.5)
        assert np.array_equal(free_qubit_kraus(np.int64(kind), (1.0, 0.5), 0.5), want)


def test_square_shape_messages_print_the_shape():
    with pytest.raises(DimensionMismatch, match=re.escape("operator shape (3, 3) != (4, 4)")):
        reduce_ancilla(np.eye(3), RHO2, B2, B2)
    with pytest.raises(DimensionMismatch, match=re.escape("operator shape (3, 3) != (4, 4)")):
        partial_trace(np.eye(3), 2, 2)


def test_newton_point_is_none_on_a_non_finite_step(monkeypatch):
    # np.linalg.solve returns NaNs for a NaN system without raising, so the
    # finiteness check, not the LinAlgError branch, refuses the step
    rng = make_rng(2031)
    b, rho = random_basis(3, rng), random_density(3, rng)
    q = rng.dirichlet(np.ones(3))
    _, grad, parts = measures._rel_ent_terms(rho.mat, b, q)
    assert measures._newton_point(q, grad, parts, 1e-9) is not None
    monkeypatch.setattr(measures, "_rel_ent_hessian", lambda *args: np.full((3, 3), np.nan))
    assert measures._newton_point(q, grad, parts, 1e-9) is None
