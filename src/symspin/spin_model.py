"""Hamiltonians, symmetric generators, spin permutations, named states, and
the total-spin (Schur) frame.

The computational basis is ordered with spin 1 as the most significant bit:
for three spins, |100> sits at index 4.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, sqrt

import numpy as np

from .tensor_core import TAU_STRUCT, pauli_string_matrix

N_MAX = 6


@dataclass
class SpinState:
    """Pure state of an n-spin register (unit norm within 1e-12)."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2 ** self.n,):
            raise ValueError(
                f"state for n={self.n} needs {2 ** self.n} amplitudes"
            )
        if not abs(np.linalg.norm(self.amplitudes) - 1.0) <= 1e-12:
            raise ValueError("state is not normalized")


def _check_n(n: int, n_min: int = 1) -> None:
    if not n_min <= n <= N_MAX:
        raise ValueError(f"spin count n={n} outside [{n_min}, {N_MAX}]")


def _collective(n: int, axis: str) -> np.ndarray:
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j in range(n):
        labels = ["0"] * n
        labels[j] = axis
        h += pauli_string_matrix(labels)
    return h


def hamiltonian_x(n: int) -> np.ndarray:
    """Collective transverse field: sum of sigma-x on each spin."""
    _check_n(n)
    return _collective(n, "x")


def hamiltonian_y(n: int) -> np.ndarray:
    _check_n(n)
    return _collective(n, "y")


def hamiltonian_zz(n: int) -> np.ndarray:
    """All-to-all Ising coupling: sum over pairs k < m of sigma-z sigma-z."""
    _check_n(n, n_min=2)
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for k, m in itertools.combinations(range(n), 2):
        labels = ["0"] * n
        labels[k] = "z"
        labels[m] = "z"
        h += pauli_string_matrix(labels)
    return h


@dataclass(frozen=True)
class SpinBlock:
    """The copies of one total spin j in a ``SpinFrame``.

    ``columns`` selects them from ``SpinFrame.basis``: ``multiplicity``
    copies one after the other, each ordered m = j, j-1, ..., -j.
    ``hamiltonians`` is the read-only (3, 2j+1, 2j+1) stack of H_zz, H_x
    and H_y restricted to one copy; every copy carries the same matrices.
    """

    two_j: int
    multiplicity: int
    columns: slice
    hamiltonians: np.ndarray

    @property
    def size(self) -> int:
        return self.two_j + 1


@dataclass(frozen=True)
class SpinFrame:
    """Unitary ``basis`` S (read-only) with S^dag H S = (+)_j I_mult (x) H_j
    for H = H_zz, H_x, H_y; ``blocks`` lists j in descending order."""

    n: int
    basis: np.ndarray
    blocks: tuple


def _ones(n: int) -> np.ndarray:
    """Number of spins in |1> for each computational basis ket."""
    idx = np.arange(2 ** n)
    return ((idx[:, None] >> np.arange(n)) & 1).sum(axis=1)


@lru_cache(maxsize=None)
def spin_frame(n: int) -> SpinFrame:
    """Schur frame of n spins: every permutation-invariant Hamiltonian of
    the model is block diagonal in it, one block per copy of each spin j.

    Each copy starts from a highest-weight vector, an orthonormal null
    vector of the raising operator J_+ on the kets with J_z = j, and is
    lowered by J_- with the standard ladder normalisation
    sqrt(j(j+1) - m(m-1)).  J_+ is taken as the part of H_x = J_+ + J_-
    that lowers the number of ones, so no sign convention of H_y enters.
    Raises RuntimeError if the frame is not unitary or does not block the
    Hamiltonians within 1e-12.
    """
    _check_n(n, n_min=2)
    dim = 2 ** n
    hams = np.array([hamiltonian_zz(n), hamiltonian_x(n), hamiltonian_y(n)])
    ones = _ones(n)
    raising = np.where(ones[:, None] < ones[None, :], hams[1], 0.0)
    lowering = raising.conj().T
    blocks, columns = [], []
    for two_j in range(n, -1, -2):
        top = np.flatnonzero(ones == (n - two_j) // 2)  # the kets with m = j
        _, sv, vh = np.linalg.svd(raising[:, top])
        mult = int(np.sum(sv <= 1e-8))
        ladder = [np.zeros((dim, mult), dtype=complex)]
        ladder[0][top] = vh[top.size - mult:].conj().T
        for m2 in range(two_j, -two_j, -2):  # 2m from 2j down to -2j + 2
            scale = sqrt((two_j * (two_j + 2) - m2 * (m2 - 2)) / 4)
            ladder.append(lowering @ ladder[-1] / scale)
        copies = np.stack(ladder, axis=2).reshape(dim, mult * (two_j + 1))
        first = copies[:, : two_j + 1]
        block_hams = first.conj().T @ hams @ first
        block_hams.flags.writeable = False
        start = sum(c.shape[1] for c in columns)
        columns.append(copies)
        blocks.append(
            SpinBlock(two_j, mult, slice(start, start + copies.shape[1]), block_hams)
        )
    basis = np.hstack(columns)
    if basis.shape != (dim, dim):
        raise RuntimeError(f"spin frame of n={n} has {basis.shape[1]} columns, not {dim}")
    expected = np.zeros_like(hams)
    for b in blocks:
        for h, hb in zip(expected, b.hamiltonians):
            h[b.columns, b.columns] = np.kron(np.eye(b.multiplicity), hb)
    unitarity = np.abs(basis.conj().T @ basis - np.eye(dim)).max()
    blocking = np.abs(basis.conj().T @ hams @ basis - expected).max()
    if not (unitarity <= TAU_STRUCT and blocking <= TAU_STRUCT):
        raise RuntimeError(
            f"spin frame of n={n}: unitarity error {unitarity:.2e}, "
            f"off-block error {blocking:.2e}"
        )
    basis.flags.writeable = False
    return SpinFrame(n, basis, tuple(blocks))


def generator_strings(n: int, k_x: int, k_y: int, k_z: int):
    """Distinct letter placements for the (k_x, k_y, k_z) symmetric generator.

    Lexicographic order of label tuples ('0' < 'x' < 'y' < 'z'), so the sum
    order is deterministic.
    """
    word = "0" * (n - k_x - k_y - k_z) + "x" * k_x + "y" * k_y + "z" * k_z
    return sorted(set(itertools.permutations(word)))


def symmetric_generator(n: int, k_x: int, k_y: int, k_z: int) -> np.ndarray:
    """i times the sum of all Pauli strings with the given letter counts."""
    _check_n(n)
    counts = (k_x, k_y, k_z)
    if any(k < 0 for k in counts) or sum(counts) > n:
        raise ValueError(f"invalid letter counts {counts} for n={n}")
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for labels in generator_strings(n, k_x, k_y, k_z):
        out += pauli_string_matrix(labels)
    return 1j * out


def transposition(n: int, j: int) -> np.ndarray:
    """Unitary swapping spins j and j+1 (j is 1-based)."""
    _check_n(n, n_min=2)
    if not 1 <= j <= n - 1:
        raise ValueError(f"transposition index j={j} outside [1, {n - 1}]")
    swap = _swap_index(n, j)
    p = np.zeros((swap.size, swap.size), dtype=complex)
    p[swap, np.arange(swap.size)] = 1.0
    return p


@lru_cache(maxsize=None)
def _swap_index(n: int, j: int) -> np.ndarray:
    """Read-only basis index permutation of the swap of spins j and j+1."""
    idx = np.arange(2 ** n)
    hi, lo = n - j, n - j - 1  # bit j counted from the most significant side
    swap = idx ^ (((idx >> hi) ^ (idx >> lo)) & 1) * ((1 << hi) | (1 << lo))
    swap.flags.writeable = False
    return swap


def permutation_residual(a: np.ndarray) -> float:
    """Largest entry of |P a P - a| over the adjacent-spin swaps P; NaN stays NaN."""
    dim = a.shape[0]
    n = dim.bit_length() - 1
    if 2 ** n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    _check_n(n, n_min=0)
    residuals = [
        np.abs(a[np.ix_(swap, swap)] - a).max()
        for swap in (_swap_index(n, j) for j in range(1, n))
    ]
    return float(np.max(residuals, initial=0.0))


def is_permutation_invariant(a: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff a commutes with every adjacent-spin swap within tol."""
    return permutation_residual(a) <= tol


def phi_state(n: int, m: int) -> SpinState:
    """Normalized uniform superposition of basis kets with m ones."""
    _check_n(n)
    if not 0 <= m <= n:
        raise ValueError(f"excitation count m={m} outside [0, {n}]")
    return SpinState(n=n, amplitudes=(_ones(n) == m) / sqrt(comb(n, m)))


def dicke_basis(n: int) -> np.ndarray:
    """The 2^n x (n+1) matrix whose column m is ``phi_state(n, m)``: an
    orthonormal basis of the permutation-symmetric subspace."""
    return np.column_stack([phi_state(n, m).amplitudes for m in range(n + 1)])


def ghz_state(n: int) -> SpinState:
    _check_n(n)
    amps = (phi_state(n, 0).amplitudes + phi_state(n, n).amplitudes) / sqrt(2.0)
    return SpinState(n=n, amplitudes=amps)


def w_state(n: int) -> SpinState:
    _check_n(n)
    return phi_state(n, 1)


def ket(n: int, bits: str) -> SpinState:
    """Computational basis ket from a bitstring, MSB first."""
    if len(bits) != n or not bits or set(bits) - {"0", "1"}:
        raise ValueError(f"bad bitstring {bits!r} for n={n}")
    v = np.zeros(2 ** n, dtype=complex)
    v[int(bits, 2)] = 1.0
    return SpinState(n=n, amplitudes=v)


def state_to_json(state: SpinState) -> dict:
    return {
        "n": state.n,
        "amplitudes": [
            [float(z.real), float(z.imag)] for z in state.amplitudes
        ],
    }


def state_from_json(doc: dict) -> SpinState:
    v = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    return SpinState(n=int(doc["n"]), amplitudes=v)
