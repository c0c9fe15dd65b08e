"""Checks for the dense matrix utilities."""

import itertools

import numpy as np
import pytest

from symspin.tensor_core import (
    commutator,
    hermitian_eig,
    hs_inner,
    hs_norm,
    is_hermitian,
    is_skew_hermitian,
    is_unitary,
    kron,
    mat_exp,
    matrix_from_json,
    matrix_to_json,
    pauli,
    pauli_string_matrix,
)


def _rng():
    return np.random.default_rng(42)


def test_pauli_squares_to_identity():
    for axis in "xyz":
        p = pauli(axis)
        assert np.allclose(p @ p, np.eye(2))


def test_pauli_y_sign_convention():
    # This codebase keeps the sign flip on the y off-diagonals; the x and z
    # operators are the textbook ones.
    assert np.array_equal(pauli("y"), np.array([[0, 1j], [-1j, 0]]))
    assert np.array_equal(pauli("x"), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(pauli("z"), np.array([[1, 0], [0, -1]], dtype=complex))


def test_pauli_algebra_closes():
    x, y, z = pauli("x"), pauli("y"), pauli("z")
    assert np.allclose(commutator(x, y), -2j * z)
    assert np.allclose(x @ y + y @ x, np.zeros((2, 2)))


def test_pauli_rejects_unknown_axis():
    with pytest.raises(ValueError):
        pauli("w")


def test_kron_matches_numpy_and_associates():
    rng = _rng()
    a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    assert np.allclose(kron(a, b), np.kron(a, b))
    assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)))


def test_pauli_string_matrix_explicit():
    assert np.allclose(pauli_string_matrix("x0"), kron(pauli("x"), np.eye(2)))
    assert np.allclose(
        pauli_string_matrix("zyx"), kron(pauli("z"), kron(pauli("y"), pauli("x")))
    )
    assert np.allclose(pauli_string_matrix("00"), np.eye(4))


def _kron_chain(labels):
    out = pauli(labels[0])
    for label in labels[1:]:
        out = np.kron(out, pauli(label))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_string_matrix_matches_kron_chain(n):
    for labels in itertools.product("0xyz", repeat=n):
        assert np.array_equal(pauli_string_matrix(labels), _kron_chain(labels)), labels


@pytest.mark.parametrize("labels", ["", "x1", "xw0", ("x", "xy"), ("z", "")])
def test_pauli_string_matrix_rejects_bad_labels(labels):
    with pytest.raises(ValueError):
        pauli_string_matrix(labels)


def test_commutator_antisymmetric_and_traceless():
    rng = _rng()
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.allclose(commutator(a, b), -commutator(b, a))
    assert abs(np.trace(commutator(a, b))) < 1e-10


def test_hs_inner_norm_consistency():
    rng = _rng()
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert hs_norm(a) == pytest.approx(np.sqrt(hs_inner(a, a).real))
    assert hs_inner(a, a).imag == pytest.approx(0.0, abs=1e-12)


def test_mat_exp_unitary_for_skew_hermitian():
    rng = _rng()
    for _ in range(20):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        g = z - z.conj().T
        u = mat_exp(g)
        assert is_unitary(u)
        assert np.allclose(u @ mat_exp(-g), np.eye(4), atol=1e-12)


def test_mat_exp_diagonal_case():
    d = np.diag([1j, -2j, 0.5j])
    assert np.allclose(mat_exp(d), np.diag(np.exp([1j, -2j, 0.5j])))


def test_hermiticity_predicates():
    h = np.array([[1.0, 2 - 1j], [2 + 1j, -3.0]])
    assert is_hermitian(h)
    assert is_skew_hermitian(1j * h)
    assert not is_hermitian(1j * h)
    assert not is_unitary(h)


def test_hermitian_eig_reconstructs():
    rng = _rng()
    z = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = z + z.conj().T
    evals, vecs = hermitian_eig(h)
    assert np.allclose(vecs @ np.diag(evals) @ vecs.conj().T, h, atol=1e-10)
    assert np.all(np.diff(evals) >= 0)


def test_matrix_json_round_trip():
    rng = _rng()
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    doc = matrix_to_json(a)
    assert doc["dim"] == 4
    back = matrix_from_json(doc)
    assert np.array_equal(back, a)


def test_matrix_from_json_rejects_bad_shape():
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 2, "entries": [[[1.0, 0.0]]]})
