"""Runnable acceptance checks.

Each criterion function returns a dict with ``id``, ``description``,
``passed`` and a ``details`` payload; ``run_all`` collects them.  The
checks compute everything from scratch so they double as an end-to-end
exercise of the package; the printed-matrix comparisons state measured
deviations rather than hiding them.
"""

from __future__ import annotations

import time

import numpy as np

from . import coordinates, lie_engine, simulator, synthesis
from .lie_engine import _spin_j_projectors
from .spin_model import (
    ghz_state,
    hamiltonian_x,
    hamiltonian_y,
    hamiltonian_zz,
    ket,
    permutation_residual,
    transposition,
    w_state,
)
from .synthesis import A1, A2, A3, B2, B3, BZZ, BX, BY, C3, E, F
from .tensor_core import commutator, mat_exp

_SQ3 = np.sqrt(3.0)

_CLOSURE_CACHE: dict = {}


def _closure(n: int):
    if n not in _CLOSURE_CACHE:
        gens = lie_engine._standard_generators(n)
        _CLOSURE_CACHE[n] = lie_engine.closure(gens)
    return _CLOSURE_CACHE[n]


def _block_trace_bound(projectors: dict) -> int:
    """Largest dimension a Lie algebra of permutation-invariant operators
    can have when every element's per-block traces tr(P_j X) are
    proportional to one fixed vector: sum_j (2j+1)^2 minus the number of
    blocks, plus one for the shared direction."""
    return sum((k + 1) ** 2 for k in projectors) - len(projectors) + 1


def _block_trace_residual(projectors: dict, elements, reference) -> float:
    """Worst distance of an element's per-block trace vector from the line
    spanned by ``reference``'s.

    A commutator has zero trace on every block, and so do H_x and H_y;
    hence every element of the closure of {iH_zz, iH_x, iH_y} has per-block
    traces proportional to those of iH_zz, whatever the basis.
    """
    blocks = list(projectors.values())

    def traces(x):
        return np.array([np.trace(p @ x) for p in blocks])

    ref = traces(reference)
    ref = ref / np.linalg.norm(ref)
    worst = 0.0
    for x in elements:
        t = traces(x)
        worst = max(worst, float(np.linalg.norm(t - np.vdot(ref, t) * ref)))
    return worst


def criterion_1() -> dict:
    # Count from the spin-j decomposition: iH_zz supplies the only central
    # direction and each spin-j block with j > 0 contributes su(2j+1), so
    # dim = 1 + sum_{j>0} ((2j+1)^2 - 1), one short of C(n+3,3) - 1 per
    # block beyond the first two.
    stated = {2: 9, 3: 19, 4: 33, 5: 54}
    start = time.perf_counter()
    computed = {n: _closure(n).dim for n in range(2, 6)}
    elapsed = time.perf_counter() - start
    bound, residual, invariant_count = {}, {}, {}
    for n in range(2, 6):
        projectors = _spin_j_projectors(n)
        bound[n] = _block_trace_bound(projectors)
        residual[n] = _block_trace_residual(
            projectors, _closure(n).elements, 1j * hamiltonian_zz(n)
        )
        invariant_count[n] = lie_engine.predicted_dimension(n)
    passed = (
        all(computed[n] == stated[n] <= bound[n] for n in stated)
        and all(r <= 1e-10 for r in residual.values())
        and elapsed <= 60.0
    )
    return {
        "id": 1,
        "description": "closure dimensions match the spin-j counts for n=2..5",
        "passed": passed,
        "details": {
            "computed": computed,
            "stated": stated,
            "block_trace_bound": bound,
            "block_trace_residual": residual,
            "traceless_invariant_dim": invariant_count,
            "gap_to_traceless_invariant": {
                n: invariant_count[n] - computed[n] for n in stated
            },
            "runtime_s": elapsed,
        },
    }


def criterion_2() -> dict:
    residuals = [
        permutation_residual(b) for n in range(2, 6) for b in _closure(n).elements
    ]
    worst = float(np.max(residuals))
    return {
        "id": 2,
        "description": "every closure basis element is permutation invariant",
        "passed": worst <= 1e-10,
        "details": {"tolerance": 1e-10, "worst_recorded": worst},
    }


def criterion_3() -> dict:
    results = {}
    ok = True
    for n, basis_change in ((2, coordinates.basis_T()), (3, coordinates.basis_M())):
        worst = 0.0
        for b in _closure(n).elements:
            try:
                form = coordinates.block_split(basis_change, b)
                worst = max(worst, form.residual)
            except ValueError as exc:
                ok = False
                results[f"n{n}_error"] = str(exc)
        results[f"n{n}_worst_residual"] = worst
    return {
        "id": 3,
        "description": "adapted bases block-diagonalize all closure elements",
        "passed": ok,
        "details": results,
    }


def _printed_three_spin_tables():
    s3 = _SQ3
    sym_x = np.array(
        [[0, s3, 0, 0], [s3, 0, 2, 0], [0, 2, 0, s3], [0, 0, s3, 0]], dtype=complex
    )
    mhx = np.zeros((8, 8), dtype=complex)
    mhx[:2, :2] = [[0, 1], [1, 0]]
    mhx[2:4, 2:4] = [[0, 1], [1, 0]]
    mhx[4:, 4:] = sym_x
    mhx *= -1j

    mhy = np.zeros((8, 8), dtype=complex)
    mhy[:2, :2] = [[0, 1], [-1, 0]]
    mhy[2:4, 2:4] = [[0, 1], [-1, 0]]
    mhy[4:, 4:] = [
        [0, s3, 0, 0],
        [-s3, 0, 2, 0],
        [0, -2, 0, s3],
        [0, 0, -s3, 0],
    ]

    mhzz = -1j * np.diag([-1.0, -1, -1, -1, 3, -1, -1, 3]).astype(complex)

    # The swap acts on the doublet pair as [[1/2, -sqrt3/2], [-sqrt3/2, -1/2]]
    # (x) I_2: a reflection, so the whole table squares to the identity and
    # has the trace 4 of a two-spin swap on three spins.
    mpm3 = np.zeros((8, 8), dtype=complex)
    half, c = 0.5, -s3 / 2
    mpm3[:4, :4] = [
        [half, 0, c, 0],
        [0, half, 0, c],
        [c, 0, -half, 0],
        [0, c, 0, -half],
    ]
    mpm3[4:, 4:] = np.eye(4)
    return mhx, mhy, mhzz, mpm3


def _swap_invariant_residuals(p) -> dict:
    """Basis-invariant facts any table of the three-spin swap (2 3) obeys:
    it squares to the identity and has the trace of the swap in the
    computational basis."""
    return {
        "square_residual": float(np.max(np.abs(p @ p - np.eye(8)))),
        "trace_residual": float(abs(np.trace(p) - np.trace(transposition(3, 2)))),
    }


def criterion_4() -> dict:
    m = coordinates.basis_M()
    printed_x, printed_y, printed_zz, printed_p = _printed_three_spin_tables()
    computed = {
        "mhx": coordinates.conjugate(m, -1j * hamiltonian_x(3)),
        "mhy": coordinates.conjugate(m, -1j * hamiltonian_y(3)),
        "mhzz": coordinates.conjugate(m, -1j * hamiltonian_zz(3)),
        "mpm3": coordinates.conjugate(m, transposition(3, 2).astype(complex)),
    }
    printed = {
        "mhx": printed_x,
        "mhy": printed_y,
        "mhzz": printed_zz,
        "mpm3": printed_p,
    }
    deviations = {
        key: float(np.max(np.abs(computed[key] - printed[key]))) for key in printed
    }
    involution = _swap_invariant_residuals(printed_p)
    gen_ok = all(deviations[k] <= 1e-12 for k in ("mhx", "mhy", "mhzz"))
    swap_ok = deviations["mpm3"] <= 1e-12 and all(
        v <= 1e-12 for v in involution.values()
    )
    details = {"max_deviation": deviations, "printed_swap_involution": involution}
    if deviations["mpm3"] > 1e-12:
        # Localize the mismatch so the report names the offending block.
        diff = np.abs(computed["mpm3"] - printed_p)
        idx = np.argwhere(diff > 1e-12)
        details["mpm3_mismatch_entries"] = [
            [int(i), int(j), float(computed["mpm3"][i, j].real)] for i, j in idx
        ]
    return {
        "id": 4,
        "description": "conjugated generator tables and the swap table match print",
        "passed": gen_ok and swap_ok,
        "details": details,
    }


def criterion_5() -> dict:
    report = coordinates.verify_appendix_b(tol=1e-12)
    return {
        "id": 5,
        "description": "all 24 adapted-state action equations hold to 1e-12",
        "passed": report["all_within_tol"],
        "details": report,
    }


def criterion_6() -> dict:
    logs = []
    ok = True
    for n in (3, 4, 5):
        for ident in lie_engine.identity_catalog(n):
            try:
                holds, measured = lie_engine.check_bracket_identity(ident)
            except ValueError as exc:
                ok = False
                logs.append({"n": n, "name": ident.name, "error": str(exc)})
                continue
            if not holds:
                logs.append(
                    {
                        "n": n,
                        "name": ident.name,
                        "stated": [[c, list(t)] for c, t in ident.rhs],
                        "measured": [[round(c, 12), list(t)] for c, t in measured],
                    }
                )
    return {
        "id": 6,
        "description": "bracket catalog evaluates consistently; deviations logged",
        "passed": ok,
        "details": {"deviating_identities": logs, "deviation_count": len(logs)},
    }


def _haar_special_unitary(dim: int, rng) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q * np.linalg.det(q) ** (-1.0 / dim)


def criterion_7() -> dict:
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    fidelities = []
    counts = []
    for n, dim, reps in ((2, 3, 100), (3, 4, 100)):
        for _ in range(reps):
            target = _haar_special_unitary(dim, rng)
            plan = synthesis.synthesize(n, target, rng=rng)
            fidelities.append(
                simulator.gate_fidelity(target, synthesis.plan_unitary(plan))
            )
            counts.append(len(plan.steps))
    elapsed = time.perf_counter() - start
    min_fid = float(min(fidelities))
    median = float(np.median(counts))
    return {
        "id": 7,
        "description": "200 random targets replay at fidelity 1-1e-8, short plans",
        "passed": min_fid >= 1 - 1e-8 and median <= 30 and elapsed <= 120.0,
        "details": {
            "min_fidelity": min_fid,
            "median_factors": median,
            "max_factors": int(max(counts)),
            "runtime_s": elapsed,
        },
    }


def _prep_cases():
    return (
        ("ghz2", 2, ket(2, "00"), ghz_state(2)),
        ("ghz3", 3, ket(3, "000"), ghz_state(3)),
        ("w3", 3, ket(3, "000"), w_state(3)),
    )


def criterion_8() -> dict:
    results = {}
    ok = True
    for label, n, src, dst in _prep_cases():
        plan = synthesis.state_transfer_plan(n, src, dst)
        cs = synthesis._symmetric_coords(n, src)
        cd = synthesis._symmetric_coords(n, dst)
        ideal = float(abs(np.vdot(cd, synthesis.plan_unitary(plan) @ cs)) ** 2)
        schedule = simulator.realize(plan, 1000.0)
        final = simulator.evolve(schedule, src)
        pulsed = simulator.state_fidelity(final, dst)
        results[label] = {"ideal": ideal, "pulsed_1000": pulsed}
        ok = ok and ideal >= 1 - 1e-6 and pulsed >= 0.995
    return {
        "id": 8,
        "description": "GHZ/W preparation: ideal and amplitude-1000 fidelities",
        "passed": ok,
        "details": results,
    }


def _first_order_ratio(infidelity_lo: float, infidelity_hi: float) -> float:
    """Ratio of the pure-state trace distances sqrt(1 - F) belonging to two
    infidelities 1 - F."""
    if infidelity_hi <= 0:
        return float("inf")
    return float(np.sqrt(infidelity_lo / infidelity_hi))


def criterion_9() -> dict:
    _, n, src, dst = _prep_cases()[1]
    plan = synthesis.state_transfer_plan(n, src, dst)

    def infidelity(amplitude):
        final = simulator.evolve(simulator.realize(plan, amplitude), src)
        return 1.0 - simulator.state_fidelity(final, dst)

    # A hard pulse at amplitude a misses the ideal step by a unitary error
    # of order 1/a.  The pure-state trace distance sqrt(1 - F) is first
    # order in that error, the infidelity 1 - F second order; the band
    # [5, 20] around a tenfold amplitude step is a first-order band.
    amplitudes = (100.0, 300.0, 1000.0, 4000.0)
    infid = {a: infidelity(a) for a in amplitudes}
    lo, hi = infid[100.0], infid[1000.0]
    ratio = _first_order_ratio(lo, hi)
    values = [infid[a] for a in amplitudes]
    slope = (
        float(np.polyfit(np.log(amplitudes), np.log(values), 1)[0])
        if min(values) > 0
        else None
    )
    return {
        "id": 9,
        "description": "hard-pulse trace-distance ratio between amplitudes 100/1000",
        "passed": 5.0 <= ratio <= 20.0,
        "details": {
            "infidelity_100": lo,
            "infidelity_1000": hi,
            "trace_distance_ratio": ratio,
            "expected_range": [5.0, 20.0],
            "infidelity_ratio": ratio**2,
            "infidelity_by_amplitude": infid,
            "log_infidelity_slope": slope,
        },
    }


def _printed_hat_y() -> np.ndarray:
    return np.array(
        [
            [0, -_SQ3, 0, 0],
            [_SQ3, 0, 2, 0],
            [0, -2, 0, -_SQ3],
            [0, 0, _SQ3, 0],
        ],
        dtype=complex,
    )


def _printed_hat_x() -> np.ndarray:
    return 1j * np.array(
        [
            [0, -_SQ3, 0, 0],
            [-_SQ3, 0, 2, 0],
            [0, 2, 0, -_SQ3],
            [0, 0, -_SQ3, 0],
        ],
        dtype=complex,
    )


def criterion_10() -> dict:
    def dev(a, b):
        return float(np.max(np.abs(a - b)))

    zero = np.zeros((4, 4))
    b1 = A1
    clauses = {
        "stabilizer_su2": max(
            dev(commutator(A1, A2), A3),
            dev(commutator(A2, A3), A1),
            dev(commutator(A3, A1), A2),
        ),
        "stabilizer_center": max(
            dev(commutator(A1, E), zero),
            dev(commutator(A2, E), zero),
            dev(commutator(A3, E), zero),
        ),
        "second_su2": max(
            dev(commutator(b1, B2), B3),
            dev(commutator(B2, B3), b1),
            dev(commutator(B3, b1), B2),
        ),
        "second_center": max(
            dev(commutator(b1, F), zero),
            dev(commutator(B2, F), zero),
            dev(commutator(B3, F), zero),
        ),
        "hat_y": dev(
            mat_exp(BZZ * (np.pi / 2)) @ BY @ mat_exp(-BZZ * (np.pi / 2)),
            _printed_hat_y(),
        ),
        "hat_x": dev(
            mat_exp(BZZ * (np.pi / 2)) @ BX @ mat_exp(-BZZ * (np.pi / 2)),
            _printed_hat_x(),
        ),
    }
    # Conjugation preserves the Frobenius norm, so the quarter-turn image of
    # B3 (norm 1) is C3/2, not C3 (norm 2); the factor 2 is the one the
    # torus planner's exp(2r*A3) leg relies on.
    conj = mat_exp(-BZZ * (np.pi / 4)) @ B3 @ mat_exp(BZZ * (np.pi / 4))
    target = C3 / 2
    norms = {
        "b3": float(np.linalg.norm(B3)),
        "stated_image": float(np.linalg.norm(target)),
    }
    clauses["quarter_turn_b3"] = dev(conj, target)
    clauses["quarter_turn_norm"] = abs(norms["b3"] - norms["stated_image"])
    details = {"residuals": clauses, "quarter_turn_norms": norms}
    if clauses["quarter_turn_b3"] > 1e-12:
        details["quarter_turn_note"] = {
            "measured_multiple_of_c3": float((conj[0, 2] / C3[0, 2]).real),
        }
    return {
        "id": 10,
        "description": "printed structural identities hold to 1e-12",
        "passed": all(v <= 1e-12 for v in clauses.values()),
        "details": details,
    }


def run_all() -> dict:
    criteria = [
        criterion_1(),
        criterion_2(),
        criterion_3(),
        criterion_4(),
        criterion_5(),
        criterion_6(),
        criterion_7(),
        criterion_8(),
        criterion_9(),
        criterion_10(),
    ]
    return {"criteria": criteria, "all_passed": all(c["passed"] for c in criteria)}
