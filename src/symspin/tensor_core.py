"""Dense complex linear algebra and Pauli-string construction.

Matrices are plain complex ``numpy.ndarray`` values.  Everything here is a
pure function; the structural predicates share a single default tolerance
``TAU_STRUCT``, and ``require_unitary`` checks unitaries handed in by
callers against ``TAU_INPUT``.

Sign convention: ``pauli("y")`` returns ``[[0, i], [-i, 0]]``, which is the
negative of the textbook sigma-y.  All commutation identities used elsewhere
in the package (for example ``[sx, sy] = -2i sz``) assume this convention, so
do not "fix" it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

TAU_STRUCT = 1e-12
TAU_INPUT = 1e-8

_PAULI = {
    "0": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, 1j], [-1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(label: str) -> np.ndarray:
    """Single-site Pauli matrix for label in {0, x, y, z} (0 = identity)."""
    try:
        return _PAULI[str(label)].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli label {label!r}") from None


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(a, b)


def pauli_string_matrix(labels) -> np.ndarray:
    """Left-to-right Kronecker product of single-site Pauli factors.

    The first label is the most significant tensor factor, so for
    ``("x", "0")`` the result acts with sigma-x on spin 1.

    Built directly as a signed permutation matrix: with ``pauli("y") =
    -i X Z``, the string is ``(-i)^{#y} X^xmask Z^zmask``, whose only
    nonzero entries are ``[c ^ xmask, c] = (-i)^{#y} (-1)^{|c & zmask|}``.
    """
    labels = tuple(str(l) for l in labels)
    if not labels:
        raise ValueError("empty Pauli string")
    xmask = zmask = 0
    for l in labels:
        if l not in _PAULI:
            raise ValueError(f"unknown Pauli label {l!r}")
        xmask = (xmask << 1) | (l in "xy")
        zmask = (zmask << 1) | (l in "yz")
    cols = np.arange(1 << len(labels))
    parity = np.zeros_like(cols)
    for bit in range(zmask.bit_length()):
        if zmask >> bit & 1:
            parity ^= cols >> bit
    out = np.zeros((cols.size, cols.size), dtype=complex)
    out[cols ^ xmask, cols] = (-1j) ** (xmask & zmask).bit_count() * (1 - 2 * (parity & 1))
    return out


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch {a.shape} vs {b.shape}")
    return a @ b - b @ a


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product trace(a^dag b)."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch {a.shape} vs {b.shape}")
    return complex(np.trace(a.conj().T @ b))


def hs_norm(a: np.ndarray) -> float:
    return float(np.sqrt(max(hs_inner(a, a).real, 0.0)))


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade via scipy)."""
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries")
    return expm(np.asarray(a, dtype=complex))


def is_hermitian(a: np.ndarray, tol: float = TAU_STRUCT) -> bool:
    return bool(np.abs(a - a.conj().T).max() <= tol)


def is_skew_hermitian(a: np.ndarray, tol: float = TAU_STRUCT) -> bool:
    return bool(np.abs(a + a.conj().T).max() <= tol)


def is_unitary(a: np.ndarray, tol: float = TAU_STRUCT) -> bool:
    d = a.shape[0]
    return bool(np.abs(a.conj().T @ a - np.eye(d)).max() <= tol)


def require_unitary(a, dim: int, what: str, special: bool = False):
    """Return ``a`` as a complex ``dim x dim`` unitary, or raise ValueError.

    Non-finite entries are rejected too.  With ``special`` the determinant
    must be 1 within ``TAU_INPUT``, and ``(a, det)`` is returned for
    callers that normalise by it.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}")
    if not (np.all(np.isfinite(a)) and is_unitary(a, TAU_INPUT)):
        raise ValueError(f"{what} must be unitary")
    if not special:
        return a
    det = np.linalg.det(a)
    if not abs(det - 1.0) <= TAU_INPUT:
        raise ValueError(f"{what} must have unit determinant")
    return a, det


def hermitian_eig(a: np.ndarray):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix V) with a = V diag(l) V^dag.
    Each eigenvector is phase-normalized so its first component of magnitude
    above 1e-12 is real positive, which makes the output deterministic for
    non-degenerate spectra.
    """
    a = np.asarray(a, dtype=complex)
    if not is_hermitian(a, 100 * TAU_STRUCT):
        raise ValueError("input is not Hermitian")
    vals, vecs = np.linalg.eigh(a)
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        idx = np.argmax(np.abs(col) > 1e-12)
        ph = col[idx] / abs(col[idx])
        vecs[:, k] = col / ph
    return vals, vecs


def matrix_to_json(a: np.ndarray) -> dict:
    """Encode as {"dim": n, "entries": [[[re, im], ...], ...]} row-major."""
    a = np.asarray(a, dtype=complex)
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in a]
    return {"dim": a.shape[0], "entries": entries}


def matrix_from_json(doc: dict) -> np.ndarray:
    dim = doc["dim"]
    a = np.array([[complex(re, im) for re, im in row] for row in doc["entries"]])
    if a.shape != (dim, dim):
        raise ValueError(f"entries shape {a.shape} does not match dim {dim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a
