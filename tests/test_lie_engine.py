"""Checks for the Lie closure machinery and the bracket identity catalog."""

import numpy as np
import pytest

from symspin import lie_engine
from symspin.lie_engine import (
    BracketIdentity,
    check_bracket_identity,
    closure,
    closure_dimension,
    closure_report,
    contains,
    identity_catalog,
    identity_results,
    predicted_dimension,
    verify_theorem1,
)
from symspin.spin_model import (
    hamiltonian_x,
    hamiltonian_y,
    hamiltonian_zz,
    symmetric_generator,
)
from symspin.tensor_core import commutator, is_skew_hermitian, pauli


def _drift_and_drives(n):
    return [-1j * h for h in (hamiltonian_zz(n), hamiltonian_x(n), hamiltonian_y(n))]


def test_closure_su2_from_two_generators():
    # x and y alone bracket into z, giving all of su(2).
    gens = [-1j * pauli("x"), -1j * pauli("y")]
    basis = closure(gens)
    assert basis.dim == 3
    assert contains(basis, -1j * pauli("z"))


def test_closure_rejects_non_skew_input():
    with pytest.raises(ValueError):
        closure([pauli("x")])


def test_closure_basis_is_orthonormal():
    basis = closure(_drift_and_drives(2))
    g = np.array(
        [[np.trace(a.conj().T @ b) for b in basis.elements] for a in basis.elements]
    )
    assert np.allclose(g, np.eye(basis.dim), atol=1e-10)
    assert all(is_skew_hermitian(e) for e in basis.elements)


def test_closure_dimension_small_sizes():
    assert closure(_drift_and_drives(2)).dim == 9
    assert closure(_drift_and_drives(3)).dim == 19


def test_predicted_dimension_values():
    assert [predicted_dimension(n) for n in (2, 3, 4, 5)] == [9, 19, 34, 55]


def test_closure_elements_stay_inside_algebra():
    basis = closure(_drift_and_drives(2))
    for a in basis.elements[:4]:
        for b in basis.elements[:4]:
            assert contains(basis, commutator(a, b))


def test_verify_report_small_case():
    report = verify_theorem1(2)
    assert report["ok"]
    assert report["generated_dim"] == report["predicted_dim"] == 9
    assert report["all_invariant"] and report["all_traceless"]
    assert report["missing_generators"] == []


def test_closure_report_shape():
    report = closure_report(2)
    assert report["n"] == 2
    assert report["generated_dim"] == 9
    assert report["invariance_ok"]
    assert isinstance(report["identity_results"], list)


def test_identity_catalog_names_scale_with_n():
    names3 = {i.name for i in identity_catalog(3)}
    names4 = {i.name for i in identity_catalog(4)}
    assert "base" in names3 and "z_x2" in names3
    assert "ladder0_k3" in names3
    assert "ladder0_k4" in names4 - names3


def test_identities_are_bracket_consistent():
    # The checker recomputes each bracket; consistency must hold to
    # tight tolerance whether or not the cataloged coefficients match.
    for ident in identity_catalog(3):
        holds, measured = check_bracket_identity(ident)
        assert isinstance(holds, bool)
        assert measured, ident.name


def test_base_identity_coefficients_hold():
    base = next(i for i in identity_catalog(3) if i.name == "base")
    holds, measured = check_bracket_identity(base)
    assert holds
    assert measured == base.rhs


def test_malformed_identity_rejected():
    bogus = BracketIdentity(
        n=3,
        name="bogus",
        lhs=((1, 0, 0), (0, 1, 0)),
        rhs=[(1.0, (0, 0, 5))],
    )
    with pytest.raises(ValueError):
        check_bracket_identity(bogus)


def _real_rows(mats):
    return np.array([np.asarray(m, dtype=complex).ravel().view(float) for m in mats])


def _all_pairs_closure(generators):
    """Reference closure: bracket every pair of an orthonormal basis of the
    current span, and take the span's rank from an SVD, until a sweep adds
    nothing."""
    dim = generators[0].shape[0]
    rows = _real_rows(generators)
    while True:
        _, s, vt = np.linalg.svd(rows, full_matrices=False)
        basis = vt[s > 1e-9 * s[0]]
        mats = [r.view(complex).reshape(dim, dim) for r in basis]
        brackets = [commutator(a, b) for i, a in enumerate(mats) for b in mats[i + 1:]]
        rows = np.vstack([basis, _real_rows(brackets)])
        if np.linalg.matrix_rank(rows, tol=1e-9 * np.linalg.norm(rows, 2)) == len(basis):
            return basis


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closure_matches_all_pairs_reference(n):
    basis = closure(_drift_and_drives(n))
    reference = _all_pairs_closure(_drift_and_drives(n))
    assert basis.dim == len(reference) == closure_dimension(n)
    rows = _real_rows(basis.elements)
    assert np.max(np.abs(rows @ rows.T - np.eye(basis.dim))) <= 1e-12
    # Each span contains the other: projecting onto one basis leaves no
    # part of the other.
    assert np.max(np.abs(reference - (reference @ rows.T) @ rows)) <= 1e-12
    assert np.max(np.abs(rows - (rows @ reference.T) @ reference)) <= 1e-12


def test_closure_dimension_law():
    assert [closure_dimension(n) for n in (2, 3, 4, 5)] == [9, 19, 33, 54]
    with pytest.raises(ValueError):
        closure_dimension(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_verify_theorem1_holds(n):
    report = verify_theorem1(n)
    assert report["ok"], report
    assert report["generated_dim"] == report["predicted_dim"] == closure_dimension(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_measured_rhs_matches_per_generator_expansion(n):
    generators = {
        (kx, ky, kz): symmetric_generator(n, kx, ky, kz)
        for kx in range(n + 1)
        for ky in range(n + 1 - kx)
        for kz in range(n + 1 - kx - ky)
    }
    for result in identity_results(n):
        a, b = (generators[tuple(t)] for t in result["lhs"])
        lhs = commutator(a, b)
        expected = []
        for t, x in generators.items():
            coeff = np.real(np.vdot(x, lhs)) / np.real(np.vdot(x, x))
            if abs(coeff) > 1e-10:
                expected.append((coeff, list(t)))
        measured = result["measured_rhs"]
        assert [t for _, t in measured] == [t for _, t in expected], result["name"]
        for (c, _), (e, _) in zip(measured, expected):
            assert abs(c - e) <= 1e-12, result["name"]


def test_generator_set_is_shared_read_only():
    triples, stack, norms2 = lie_engine._generator_set(3)
    assert not stack.flags.writeable and not norms2.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1.0
    fresh = symmetric_generator(3, *triples[1])
    assert fresh.flags.writeable
    assert np.array_equal(fresh, stack[1])
    assert not np.shares_memory(fresh, stack)
    fresh[0, 0] = 5.0
    assert not np.array_equal(symmetric_generator(3, *triples[1]), fresh)
