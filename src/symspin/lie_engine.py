"""Dynamical Lie algebra closure and bracket-identity verification.

The closure routine builds an orthonormal (Hilbert-Schmidt) basis of the
smallest real Lie algebra containing a given set of skew-Hermitian
generators by a breadth-first search over left-normed brackets: each newly
inserted basis element is bracketed with the generators only, and each
candidate is projected against the basis so far, held as one real
orthonormal row matrix.  On top of that sit the structural checks: the
derived dimension count, span membership, and a catalog of bracket
identities among the symmetric generators.  For every catalog entry the
numerically measured expansion is returned alongside the stated one, so
that discrepancies are visible data rather than silent failures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .spin_model import (
    hamiltonian_x,
    hamiltonian_y,
    hamiltonian_zz,
    is_permutation_invariant,
    spin_frame,
    symmetric_generator,
)
from .tensor_core import TAU_STRUCT, commutator, is_skew_hermitian

# A genuinely new commutator direction has structure constants of order
# one, far above this threshold; anything smaller is round-off.
TAU_CLOSURE = 1e-9


@dataclass
class LieBasis:
    """Orthonormal basis (under the HS inner product) of a real Lie algebra
    of skew-Hermitian matrices."""

    dim_space: int
    elements: list

    @property
    def dim(self) -> int:
        return len(self.elements)


def _real_vector(a) -> np.ndarray:
    """A matrix as a real vector (complex entries as float pairs), so that
    the real HS inner product Re tr(a^dag b) is a plain dot product."""
    return np.array(a, dtype=complex).ravel().view(float)


def _project_out(vec, rows):
    """Remove the span of the orthonormal real ``rows`` from ``vec``
    (twice, for numerical stability)."""
    for _ in range(2):
        vec = vec - rows.T @ (rows @ vec)
    return vec


def closure(generators) -> LieBasis:
    """Orthonormal basis of the dynamical Lie algebra generated by
    ``generators`` (skew-Hermitian, equal dims).

    Left-normed brackets [g1, [g2, ... [gk-1, gk]]] of the generators span
    the generated algebra, so every inserted element only needs bracketing
    with the generators.  Bracketing the orthonormalised element
    e - sum c_i b_i instead of e leaves the span unchanged, because every
    [g, b_i] is already queued.
    """
    if not generators:
        raise ValueError("need at least one generator")
    mats = [np.asarray(g, dtype=complex) for g in generators]
    dim = mats[0].shape[0]
    for g in mats:
        if g.shape != (dim, dim):
            raise ValueError("generators must share a common dimension")
        if not is_skew_hermitian(g, tol=TAU_STRUCT):
            raise ValueError("generators must be skew-Hermitian")

    # Rows 0..count-1 of q are the basis so far; q doubles when full.
    q = np.empty((min(dim * dim, 16), 2 * dim * dim))
    count = 0
    frontier: deque = deque()

    def insert(mat) -> None:
        nonlocal q, count
        vec = _project_out(_real_vector(mat), q[:count])
        norm = np.linalg.norm(vec)
        if norm <= TAU_CLOSURE:
            return
        if count == len(q):
            q = np.concatenate([q, np.empty_like(q)])
        q[count] = vec / norm
        frontier.append(q[count].view(complex).reshape(dim, dim))
        count += 1

    for g in mats:
        insert(g)
    # Bracket with the generators' orthonormalised directions, which keeps
    # every candidate on the unit scale that TAU_CLOSURE assumes.
    gens = list(frontier)
    while frontier:
        e = frontier.popleft()
        for g in gens:
            insert(commutator(g, e))

    elements = list(q[:count].copy().view(complex).reshape(count, dim, dim))
    return LieBasis(dim_space=dim, elements=elements)


def predicted_dimension(n: int) -> int:
    """Dimension C(n+3, 3) - 1 of the algebra of all traceless permutation
    invariant operators on n spins.

    The closure of {iH_zz, iH_x, iH_y} is smaller for n >= 4 (see
    ``closure_dimension``): only iH_zz has nonzero traces on the spin-j
    blocks, so the closure has a one-dimensional centre where this algebra
    has one central direction per block beyond the first.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return comb(n + 3, 3) - 1


def closure_dimension(n: int) -> int:
    """Dimension C(n+3, 3) - floor(n/2) of the closure of {iH_zz, iH_x, iH_y}.

    Each spin-j block with j > 0 contributes su(2j+1) and iH_zz the only
    central direction: 1 + sum_{j>0} ((2j+1)^2 - 1), with
    sum_j (2j+1)^2 = C(n+3, 3) over floor(n/2) + 1 blocks.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return comb(n + 3, 3) - n // 2


def contains(basis: LieBasis, a) -> bool:
    """True iff ``a`` lies in the real span of ``basis`` up to a relative
    residual of 1e-8."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (basis.dim_space, basis.dim_space):
        raise ValueError("dimension mismatch")
    vec = _real_vector(a)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        return True
    rows = _real_vector(basis.elements).reshape(basis.dim, vec.size)
    return np.linalg.norm(_project_out(vec, rows)) <= 1e-8 * norm


def _standard_generators(n: int):
    return [
        1j * hamiltonian_zz(n),
        1j * hamiltonian_x(n),
        1j * hamiltonian_y(n),
    ]


def _spin_j_projectors(n: int) -> dict:
    """Projectors S_j S_j^dag onto the total-spin-j isotypic components of
    n spins, keyed by 2j, from the columns S_j of ``spin_frame(n)``."""
    frame = spin_frame(n)
    columns = {b.two_j: frame.basis[:, b.columns] for b in frame.blocks}
    return {two_j: s @ s.conj().T for two_j, s in columns.items()}


def _all_triples(n: int):
    for kx in range(n + 1):
        for ky in range(n + 1 - kx):
            for kz in range(n + 1 - kx - ky):
                yield (kx, ky, kz)


def verify_theorem1(n: int) -> dict:
    """Structured report checking that the closure of {iH_zz, iH_x, iH_y}
    has the derived dimension ``closure_dimension(n)``, consists of
    traceless permutation invariant matrices, and contains every symmetric
    generator once its per-block (central) trace part is removed.
    """
    if not 2 <= n <= 5:
        raise ValueError("n must be in 2..5")
    basis = closure(_standard_generators(n))
    projectors = list(_spin_j_projectors(n).values())

    predicted = closure_dimension(n)
    invariant = all(is_permutation_invariant(b) for b in basis.elements)
    traceless = all(abs(np.trace(b)) <= 1e-10 for b in basis.elements)

    missing = []
    for triple in _all_triples(n):
        x = symmetric_generator(n, *triple)
        part = x - sum((np.trace(p @ x) / np.trace(p).real) * p for p in projectors)
        # A purely central generator leaves only round-off, which is not a
        # direction to test.
        if np.linalg.norm(part) > 1e-10 * np.linalg.norm(x) and not contains(basis, part):
            missing.append(triple)

    report = {
        "n": n,
        "generated_dim": basis.dim,
        "predicted_dim": predicted,
        "dimension_match": basis.dim == predicted,
        "all_invariant": invariant,
        "all_traceless": traceless,
        "missing_generators": missing,
        "ok": basis.dim == predicted and invariant and traceless and not missing,
    }
    return report


@dataclass
class BracketIdentity:
    """One commutation relation among symmetric generators.

    ``lhs`` is a pair of (kx, ky, kz) triples; ``rhs`` is the stated
    expansion as (coefficient, triple) terms.
    """

    n: int
    name: str
    lhs: tuple
    rhs: list

    def well_formed(self) -> bool:
        def ok(t):
            return all(k >= 0 for k in t) and sum(t) <= self.n

        return ok(self.lhs[0]) and ok(self.lhs[1]) and all(ok(t) for _, t in self.rhs)


@lru_cache(maxsize=None)
def _generator_set(n: int):
    """All symmetric generators of ``n`` spins, built once per ``n``.

    Returns (triples in ``_all_triples`` order, the generators stacked in
    that order, their squared HS norms); both arrays are read-only because
    every caller shares them.
    """
    triples = tuple(_all_triples(n))
    stack = np.array([symmetric_generator(n, *t) for t in triples])
    norms2 = np.einsum("kij,kij->k", stack.conj(), stack).real
    stack.flags.writeable = False
    norms2.flags.writeable = False
    return triples, stack, norms2


def check_bracket_identity(ident: BracketIdentity):
    """Evaluate the commutator, expand it in the symmetric-generator basis
    and compare against the stated right-hand side.

    Returns (holds, measured_rhs) where measured_rhs is the full list of
    (coefficient, triple) terms found numerically.  The measured expansion
    is authoritative; ``holds`` merely records agreement with the printed
    coefficients.
    """
    n = ident.n
    if not ident.well_formed():
        raise ValueError(f"identity {ident.name} is not well-formed for n={n}")
    triples, stack, norms2 = _generator_set(n)
    a, b = (stack[triples.index(tuple(t))] for t in ident.lhs)
    lhs = commutator(a, b)

    # Distinct triples sum disjoint sets of Pauli strings, so the generators
    # are mutually HS-orthogonal and one product gives every coefficient.
    coeffs = (stack.reshape(len(triples), -1) @ lhs.ravel().conj()).real / norms2
    kept = np.flatnonzero(np.abs(coeffs) > 1e-10)
    measured = [(coeffs[k], triples[k]) for k in kept]
    residual = lhs - np.tensordot(coeffs[kept], stack[kept], axes=1)

    if np.max(np.abs(residual)) > 1e-10:
        raise ValueError(
            f"identity {ident.name}: commutator leaves the symmetric span "
            f"(residual {np.max(np.abs(residual)):.3e})"
        )

    stated = {t: c for c, t in ident.rhs}
    found = {t: c for c, t in measured}
    holds = set(stated) == set(found) and all(
        abs(stated[t] - found[t]) <= 1e-10 for t in stated
    )
    return holds, measured


def identity_catalog(n: int) -> list[BracketIdentity]:
    """All printed bracket identities that are well-formed for ``n``.

    The fixed low-order relations come first, then the four ladder
    families parameterized by the total letter count, instantiated for
    every count that keeps all triples valid.
    """
    cat = []

    def add(name, a, b, rhs):
        ident = BracketIdentity(n=n, name=name, lhs=(a, b), rhs=rhs)
        if ident.well_formed():
            cat.append(ident)

    add("base", (1, 0, 0), (0, 1, 0), [(2.0, (0, 0, 1))])
    add("xz2", (1, 0, 0), (0, 0, 2), [(-2.0, (0, 1, 1))])
    add("yz2", (0, 1, 0), (0, 0, 2), [(2.0, (1, 0, 1))])
    add("yz_x", (0, 1, 1), (1, 0, 0), [(4.0, (0, 2, 0)), (-4.0, (0, 0, 2))])
    add("xz_y", (1, 0, 1), (0, 1, 0), [(-4.0, (2, 0, 0)), (4.0, (0, 0, 2))])
    add("z_x2", (0, 0, 1), (2, 0, 0), [(2.0, (1, 1, 0))])

    for k in range(2, n + 1):
        add(
            f"ladder0_k{k}",
            (k - 1, 0, 0),
            (1, 1, 0),
            [(2.0, (k - 1, 0, 1)), (2.0, (k - 2, 0, 1))],
        )
        add(
            f"ladder1_k{k}",
            (k - 1, 1, 0),
            (0, 0, 1),
            [(-2.0, (k - 2, 2, 0)), (2.0, (k, 0, 0))],
        )
        add(
            f"ladder2_k{k}",
            (k - 1, 0, 1),
            (0, 1, 0),
            [(2.0, (k - 2, 0, 2)), (-2.0, (k, 0, 0))],
        )
    for k in range(3, n + 1):
        add(
            f"ladder3_k{k}",
            (k - 2, 1, 0),
            (1, 0, 1),
            [
                (-2.0, (k - 3, 2, 0)),
                (2.0, (k - 2, 0, 0)),
                (-2.0, (k - 2, 2, 0)),
                (-2.0, (k - 2, 0, 2)),
                (2.0, (k, 0, 0)),
            ],
        )
    return cat


def identity_results(n: int) -> list[dict]:
    """The identity catalog for ``n`` evaluated one identity at a time, as
    JSON-ready dicts with the stated and the measured expansions."""
    results = []
    for ident in identity_catalog(n):
        holds, measured = check_bracket_identity(ident)
        results.append(
            {
                "name": ident.name,
                "lhs": [list(ident.lhs[0]), list(ident.lhs[1])],
                "stated_rhs": [[c, list(t)] for c, t in ident.rhs],
                "measured_rhs": [[c, list(t)] for c, t in measured],
                "holds": holds,
            }
        )
    return results


def closure_report(n: int) -> dict:
    """Machine-readable summary: closure dimension vs the derived count,
    invariance of every basis element, and the identity catalog results."""
    basis = closure(_standard_generators(n))
    return {
        "n": n,
        "generated_dim": basis.dim,
        "predicted_dim": closure_dimension(n),
        "invariance_ok": all(is_permutation_invariant(b) for b in basis.elements),
        "identity_results": identity_results(n),
    }
