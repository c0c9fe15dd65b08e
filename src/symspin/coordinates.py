"""Basis changes that block-diagonalize the permutation invariant algebra.

For two spins the adapted basis is (singlet, triplet); for three spins it
is two mixed-symmetry doublets followed by the four-dimensional symmetric
sector.  The matrices are written out explicitly because their row order
and sign conventions are part of the published interface; tests rebuild
the underlying states independently and compare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_model import dicke_basis, hamiltonian_x, hamiltonian_y, hamiltonian_zz

_SQ2 = np.sqrt(2.0)
_SQ3 = np.sqrt(3.0)
_SQ6 = np.sqrt(6.0)


@dataclass
class BasisChange:
    """Unitary change of basis ``new = matrix @ old`` with a declared
    block partition of the new coordinates."""

    n: int
    matrix: np.ndarray
    block_sizes: list


def singlet_states(n: int) -> list:
    """The antisymmetric doublet(s) used by the adapted bases.

    For n=2 this is the lone singlet; for n=3 the pair that carries the
    first mixed-symmetry sector.
    """
    if n == 2:
        v = np.zeros(4, dtype=complex)
        v[0b01] = -1 / _SQ2
        v[0b10] = 1 / _SQ2
        return [v]
    if n == 3:
        v0 = np.zeros(8, dtype=complex)
        v0[0b010] = -1 / _SQ2
        v0[0b100] = 1 / _SQ2
        v1 = np.zeros(8, dtype=complex)
        v1[0b011] = -1 / _SQ2
        v1[0b101] = 1 / _SQ2
        return [v0, v1]
    raise ValueError("adapted bases are provided for n in {2, 3}")


def mixed_states() -> list:
    """The second mixed-symmetry doublet for three spins."""
    w0 = np.zeros(8, dtype=complex)
    w0[0b001] = np.sqrt(2.0 / 3.0)
    w0[0b010] = -1 / _SQ6
    w0[0b100] = -1 / _SQ6
    w1 = np.zeros(8, dtype=complex)
    w1[0b011] = 1 / _SQ6
    w1[0b101] = 1 / _SQ6
    w1[0b110] = -np.sqrt(2.0 / 3.0)
    return [w0, w1]


def basis_T() -> BasisChange:
    a = 1 / _SQ2
    t_dag = np.array(
        [
            [0, 1, 0, 0],
            [-a, 0, a, 0],
            [a, 0, a, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )
    return BasisChange(n=2, matrix=t_dag.conj().T, block_sizes=[1, 3])


def basis_T_hat() -> np.ndarray:
    """Secondary 4x4 frame for two spins in which the drive generators
    become real rotations of the symmetric block."""
    return np.array(
        [
            [1, 0, 0, 0],
            [0, -1j / _SQ2, 0, -1j / _SQ2],
            [0, 0, 1, 0],
            [0, 1 / _SQ2, 0, -1 / _SQ2],
        ],
        dtype=complex,
    )


def basis_M() -> BasisChange:
    psi = singlet_states(3)
    chi = mixed_states()
    m_dag = np.column_stack(psi + chi + [dicke_basis(3)])
    return BasisChange(n=3, matrix=m_dag.conj().T, block_sizes=[2, 2, 4])


def conjugate(b, a) -> np.ndarray:
    """Return ``B a B^dagger`` where B is ``b.matrix`` (or ``b`` itself
    when given a bare ndarray)."""
    mat = b.matrix if isinstance(b, BasisChange) else np.asarray(b, dtype=complex)
    a = np.asarray(a, dtype=complex)
    return mat @ a @ mat.conj().T


@dataclass
class BlockForm:
    blocks: list
    residual: float


def block_split(b: BasisChange, a) -> BlockForm:
    """Conjugate ``a`` into the adapted frame and slice it along the
    declared block partition.

    Raises if anything is left outside the blocks (the input was not
    permutation invariant), and, for three spins, if the two doublet
    blocks disagree.
    """
    m = conjugate(b, a)
    dim = m.shape[0]
    if sum(b.block_sizes) != dim:
        raise ValueError("block sizes do not cover the matrix")
    mask = np.ones((dim, dim), dtype=bool)
    blocks = []
    start = 0
    for size in b.block_sizes:
        sl = slice(start, start + size)
        blocks.append(m[sl, sl].copy())
        mask[sl, sl] = False
        start += size
    residual = float(np.max(np.abs(m[mask]))) if mask.any() else 0.0
    if not residual <= 1e-10:
        raise ValueError(
            f"off-block residual {residual:.3e}: input is not in the "
            "permutation invariant algebra"
        )
    if b.n == 3:
        gap = float(np.max(np.abs(blocks[0] - blocks[1])))
        if not gap <= 1e-10:
            raise ValueError(f"doublet blocks differ by {gap:.3e}")
    return BlockForm(blocks=blocks, residual=residual)


def _three_spin_action_table():
    """Expected action of H_x, H_y, H_zz on the eight adapted three-spin
    states, as (generator, state index, coefficient list) rows.

    State order: psi0, psi1, chi0, chi1, phi0..phi3.  Each coefficient
    list gives the expansion of H |state> over the same eight states.
    """
    s3 = _SQ3

    def row(**kw):
        out = np.zeros(8, dtype=complex)
        for key, val in kw.items():
            out[int(key[1])] = val
        return out

    # indices: s0..s3 -> psi0, psi1, chi0, chi1; s4..s7 -> phi0..phi3
    x = [
        row(s1=1),
        row(s0=1),
        row(s3=1),
        row(s2=1),
        row(s5=s3),
        row(s4=s3, s6=2),
        row(s7=s3, s5=2),
        row(s6=s3),
    ]
    y = [
        row(s1=-1j),
        row(s0=1j),
        row(s3=-1j),
        row(s2=1j),
        row(s5=-1j * s3),
        row(s4=1j * s3, s6=-2j),
        row(s7=-1j * s3, s5=2j),
        row(s6=1j * s3),
    ]
    zz = [
        row(s0=-1),
        row(s1=-1),
        row(s2=-1),
        row(s3=-1),
        row(s4=3),
        row(s5=-1),
        row(s6=-1),
        row(s7=3),
    ]
    table = []
    for gen, rows in (("x", x), ("y", y), ("zz", zz)):
        for idx, coeffs in enumerate(rows):
            table.append((gen, idx, coeffs))
    return table


def verify_appendix_b(tol: float = 1e-12) -> dict:
    """Check all 24 stated generator actions on the adapted three-spin
    states by direct matrix-vector arithmetic."""
    states = singlet_states(3) + mixed_states() + list(dicke_basis(3).T)
    hams = {
        "x": hamiltonian_x(3),
        "y": hamiltonian_y(3),
        "zz": hamiltonian_zz(3),
    }
    failures = []
    max_err = 0.0
    for gen, idx, coeffs in _three_spin_action_table():
        got = hams[gen] @ states[idx]
        want = sum(c * s for c, s in zip(coeffs, states))
        err = float(np.max(np.abs(got - want)))
        max_err = max(max_err, err)
        if err > tol:
            failures.append({"generator": gen, "state": idx, "error": err})
    return {
        "checked": 24,
        "max_error": max_err,
        "all_within_tol": not failures,
        "failures": failures,
    }
