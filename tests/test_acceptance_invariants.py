"""The basis-invariant checks behind criteria 1, 4, 9 and 10.

Each check must accept the corrected stated value and reject the value it
replaced, so a wrong target cannot pass again unnoticed.  Criterion 2 must
report the residual it measured, not a fixed number.
"""

from math import comb

import numpy as np
import pytest

from symspin import acceptance, lie_engine
from symspin.spin_model import hamiltonian_x, hamiltonian_y, hamiltonian_zz, transposition
from symspin.synthesis import B3, C3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_spin_j_projectors_match_the_decomposition(n):
    projectors = acceptance._spin_j_projectors(n)
    assert sorted(projectors) == list(range(n % 2, n + 1, 2))
    total = sum(projectors.values())
    assert np.max(np.abs(total - np.eye(2**n))) < 1e-12
    # Casimir J^2 = J_x^2 + J_y^2 + J_z^2 with H_x = 2 J_x, H_y = +-2 J_y
    # and H_zz = 2 J_z^2 - n/2 has eigenvalue j(j+1) on the spin-j part.
    hx, hy = hamiltonian_x(n), hamiltonian_y(n)
    casimir = (hx @ hx + hy @ hy) / 4 + (hamiltonian_zz(n) + n / 2 * np.eye(2**n)) / 2
    for two_j, p in projectors.items():
        assert np.max(np.abs(p @ p - p)) < 1e-12
        j = two_j / 2
        assert np.max(np.abs(casimir @ p - j * (j + 1) * p)) < 1e-12
        # multiplicity of spin j among n spin-1/2s
        k = (n - two_j) // 2
        mult = comb(n, k) - (comb(n, k - 1) if k > 0 else 0)
        assert round(np.trace(p).real) == (two_j + 1) * mult


def test_old_closure_counts_exceed_block_trace_bound():
    bound = {
        n: acceptance._block_trace_bound(acceptance._spin_j_projectors(n))
        for n in range(2, 6)
    }
    assert bound == {2: 9, 3: 19, 4: 33, 5: 54}
    assert all(lie_engine.predicted_dimension(n) > bound[n] for n in (4, 5))


def test_block_trace_residual_flags_a_foreign_central_direction():
    n = 4
    projectors = acceptance._spin_j_projectors(n)
    reference = 1j * hamiltonian_zz(n)
    # Traceless, permutation invariant and central, but its block traces
    # are not proportional to those of iH_zz.
    top = projectors[n]
    foreign = 1j * (top - (np.trace(top).real / 2**n) * np.eye(2**n))
    assert acceptance._block_trace_residual(projectors, [reference], reference) < 1e-12
    assert acceptance._block_trace_residual(projectors, [foreign], reference) > 0.1


def test_old_swap_table_is_not_an_involution():
    printed = acceptance._printed_three_spin_tables()[3]
    residuals = acceptance._swap_invariant_residuals(printed)
    assert all(v < 1e-12 for v in residuals.values())
    old = printed.copy()
    old[2, 2] = old[3, 3] = 0.5
    residuals = acceptance._swap_invariant_residuals(old)
    assert residuals["square_residual"] > 0.8
    assert residuals["trace_residual"] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "infidelity_ratio, first_order",
    [(99.2, True), (9.0, False), (900.0, False)],
)
def test_first_order_band_rejects_other_error_orders(infidelity_ratio, first_order):
    ratio = acceptance._first_order_ratio(infidelity_ratio * 1e-6, 1e-6)
    assert (5.0 <= ratio <= 20.0) == first_order


def test_old_quarter_turn_target_breaks_the_norm():
    assert np.linalg.norm(B3) == pytest.approx(1.0)
    assert np.linalg.norm(C3) == pytest.approx(2.0)
    assert np.linalg.norm(C3 / 2) == pytest.approx(np.linalg.norm(B3))


def test_criterion_2_reports_the_measured_worst_residual():
    worst = acceptance.criterion_2()["details"]["worst_recorded"]
    dense = max(
        np.abs(p @ b @ p - b).max()
        for n in range(2, 6)
        for p in (transposition(n, j) for j in range(1, n))
        for b in acceptance._closure(n).elements
    )
    assert isinstance(worst, float)
    assert worst == pytest.approx(dense, rel=1e-9, abs=0.0)
    assert worst <= 1e-10
