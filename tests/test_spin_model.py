"""Checks for the collective spin Hamiltonians and named states."""

from math import comb

import numpy as np
import pytest

from symspin.spin_model import (
    SpinState,
    dicke_basis,
    generator_strings,
    ghz_state,
    hamiltonian_x,
    hamiltonian_y,
    hamiltonian_zz,
    is_permutation_invariant,
    ket,
    permutation_residual,
    phi_state,
    spin_frame,
    state_from_json,
    state_to_json,
    symmetric_generator,
    transposition,
    w_state,
)
from symspin.tensor_core import is_hermitian, pauli_string_matrix


def test_collective_x_explicit_n2():
    expected = pauli_string_matrix("x0") + pauli_string_matrix("0x")
    assert np.allclose(hamiltonian_x(2), expected)


def test_zz_coupling_explicit_n3():
    # All three pairs contribute, so the fully aligned states sit at +3.
    expected = (
        pauli_string_matrix("zz0")
        + pauli_string_matrix("z0z")
        + pauli_string_matrix("0zz")
    )
    assert np.allclose(hamiltonian_zz(3), expected)
    assert hamiltonian_zz(3)[0, 0] == pytest.approx(3.0)


def test_hamiltonians_hermitian_and_invariant():
    for n in (2, 3, 4):
        for ham in (hamiltonian_x, hamiltonian_y, hamiltonian_zz):
            h = ham(n)
            assert h.shape == (2**n, 2**n)
            assert is_hermitian(h)
            assert is_permutation_invariant(h)


def test_hamiltonian_rejects_out_of_range_n():
    with pytest.raises(ValueError):
        hamiltonian_zz(1)
    with pytest.raises(ValueError):
        hamiltonian_x(7)


def test_transposition_is_involution():
    for n in (2, 3, 4):
        for j in range(1, n):
            p = transposition(n, j)
            assert np.allclose(p @ p, np.eye(2**n))


def test_transposition_swaps_msb_bits():
    # For n=2 the swap exchanges |01> and |10> (indices 1 and 2).
    p = transposition(2, 1)
    e01 = np.zeros(4)
    e01[1] = 1.0
    assert np.allclose(p @ e01, np.eye(4)[2])


def test_is_permutation_invariant_negative():
    assert not is_permutation_invariant(pauli_string_matrix("z0"))


def test_generator_strings_counts():
    strings = generator_strings(3, 1, 0, 1)
    # one x, one z, one blank over three sites: 3! distinct placements
    assert len(strings) == 6
    assert all(sorted(s) == sorted("xz0") for s in strings)


def test_symmetric_generator_matches_strings():
    n, kx, ky, kz = 3, 1, 1, 0
    total = sum(pauli_string_matrix(s) for s in generator_strings(n, kx, ky, kz))
    assert np.allclose(symmetric_generator(n, kx, ky, kz), 1j * total)


def test_symmetric_generator_is_invariant():
    for args in ((2, 1, 0, 1), (3, 0, 2, 1), (4, 1, 1, 1)):
        assert is_permutation_invariant(symmetric_generator(*args))


def test_ghz_amplitudes():
    s = ghz_state(3)
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1 / np.sqrt(2)
    assert np.allclose(s.amplitudes, amps)


def test_w_state_amplitudes():
    s = w_state(3)
    amps = np.zeros(8, dtype=complex)
    amps[[1, 2, 4]] = 1 / np.sqrt(3)
    assert np.allclose(s.amplitudes, amps)


def test_phi_state_is_uniform_excitation_layer():
    s = phi_state(3, 1)
    assert np.allclose(s.amplitudes, w_state(3).amplitudes)
    s0 = phi_state(2, 0)
    assert np.allclose(s0.amplitudes, ket(2, "00").amplitudes)


def test_ket_msb_ordering():
    s = ket(3, "011")
    idx = int("011", 2)
    assert s.amplitudes[idx] == pytest.approx(1.0)
    assert np.count_nonzero(s.amplitudes) == 1


def test_ket_length_must_match_n():
    with pytest.raises(ValueError):
        ket(3, "01")


def test_spin_state_validates_norm():
    with pytest.raises(ValueError):
        SpinState(2, np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))


def test_state_json_round_trip():
    s = w_state(3)
    doc = state_to_json(s)
    assert doc["n"] == 3
    back = state_from_json(doc)
    assert np.array_equal(back.amplitudes, s.amplitudes)
    assert back.n == 3


def _loop_transposition(n, j):
    dim = 2**n
    p = np.zeros((dim, dim), dtype=complex)
    hi, lo = n - j, n - j - 1
    for idx in range(dim):
        b_hi, b_lo = (idx >> hi) & 1, (idx >> lo) & 1
        swapped = idx & ~(1 << hi) & ~(1 << lo) | b_lo << hi | b_hi << lo
        p[swapped, idx] = 1.0
    return p


@pytest.mark.parametrize("n", range(2, 7))
def test_transposition_and_phi_state_match_loop_references(n):
    for j in range(1, n):
        assert np.array_equal(transposition(n, j), _loop_transposition(n, j))
    for m in range(n + 1):
        ref = np.array([bin(i).count("1") == m for i in range(2**n)], dtype=complex)
        ref /= np.sqrt(np.count_nonzero(ref))
        assert np.array_equal(phi_state(n, m).amplitudes, ref)
        assert np.array_equal(dicke_basis(n)[:, m], ref)


@pytest.mark.parametrize("n", range(2, 7))
def test_permutation_residual_matches_dense_reference(n):
    rng = np.random.default_rng(n)
    dim = 2**n
    noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for a in (hamiltonian_zz(n) + 0.3 * hamiltonian_x(n), noise):
        ref = max(
            np.abs(p @ a @ p - a).max()
            for p in (transposition(n, j) for j in range(1, n))
        )
        got = permutation_residual(a)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert is_permutation_invariant(a) == (ref <= 1e-10)
        assert is_permutation_invariant(a, tol=got)
        if got > 0:
            assert not is_permutation_invariant(a, tol=0.5 * got)


@pytest.mark.parametrize("n", range(2, 7))
def test_spin_frame_is_unitary_and_blocks_every_copy_alike(n):
    frame = spin_frame(n)
    s = frame.basis
    assert not s.flags.writeable and spin_frame(n) is frame
    assert np.abs(s.conj().T @ s - np.eye(2**n)).max() < 1e-12
    assert [b.two_j for b in frame.blocks] == list(range(n, -1, -2))
    for ham, k in ((hamiltonian_zz, 0), (hamiltonian_x, 1), (hamiltonian_y, 2)):
        framed = s.conj().T @ ham(n) @ s
        expected = np.zeros_like(framed)
        for b in frame.blocks:
            h = b.hamiltonians[k]
            assert not b.hamiltonians.flags.writeable
            assert h.shape == (b.size, b.size)
            for c in range(b.multiplicity):
                at = slice(b.columns.start + c * b.size, b.columns.start + (c + 1) * b.size)
                expected[at, at] = h
        assert np.abs(framed - expected).max() < 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_spin_frame_multiplicities_and_weights(n):
    for b in spin_frame(n).blocks:
        k = (n - b.two_j) // 2
        assert b.multiplicity == comb(n, k) - (comb(n, k - 1) if k > 0 else 0)
        # H_zz = 2 J_z^2 - n/2, with m running from j down to -j
        m = np.arange(b.two_j, -b.two_j - 1, -2) / 2
        assert np.abs(b.hamiltonians[0] - np.diag(2 * m**2 - n / 2)).max() < 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_spin_frame_top_block_spans_the_dicke_basis(n):
    frame = spin_frame(n)
    top = frame.blocks[0]
    assert (top.two_j, top.multiplicity) == (n, 1)
    s_top = frame.basis[:, top.columns]
    d = dicke_basis(n)
    assert np.abs(s_top @ s_top.conj().T - d @ d.conj().T).max() < 1e-12
