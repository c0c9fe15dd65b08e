"""Checks for hard-pulse realization and Schroedinger evolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symspin.simulator import (
    PulseSchedule,
    PulseSegment,
    evolve,
    gate_fidelity,
    realize,
    schedule_from_json,
    schedule_to_json,
    state_fidelity,
)
from symspin.spin_model import (
    N_MAX,
    SpinState,
    ghz_state,
    hamiltonian_x,
    hamiltonian_y,
    hamiltonian_zz,
    ket,
    w_state,
)
from symspin.synthesis import state_transfer_plan, synthesize
from symspin.tensor_core import mat_exp


def test_segment_validation():
    with pytest.raises(ValueError):
        PulseSegment(ux=0.0, uy=0.0, dt=-1.0)
    with pytest.raises(ValueError):
        PulseSchedule(n=7, segments=[])


def test_evolve_single_segment_closed_form():
    # One segment with both drives off is a bare coupling evolution.
    sched = PulseSchedule(n=2, segments=[PulseSegment(ux=0.0, uy=0.0, dt=0.4)])
    init = ket(2, "00")
    out = evolve(sched, init)
    expected = mat_exp(-1j * hamiltonian_zz(2) * 0.4) @ init.amplitudes
    assert np.abs(out.amplitudes - expected).max() < 1e-12


def test_evolve_applies_segments_in_listed_order():
    seg_a = PulseSegment(ux=2.0, uy=0.0, dt=0.3)
    seg_b = PulseSegment(ux=0.0, uy=5.0, dt=0.2)
    sched = PulseSchedule(n=2, segments=[seg_a, seg_b])
    init = ket(2, "01")
    out = evolve(sched, init)
    ha = hamiltonian_zz(2) + 2.0 * hamiltonian_x(2)
    hb = hamiltonian_zz(2) + 5.0 * hamiltonian_y(2)
    expected = mat_exp(-1j * hb * 0.2) @ mat_exp(-1j * ha * 0.3) @ init.amplitudes
    assert np.abs(out.amplitudes - expected).max() < 1e-12


def test_realize_durations_and_amplitudes():
    plan = state_transfer_plan(3, ket(3, "000").amplitudes, ghz_state(3).amplitudes)
    sched = realize(plan, 500.0)
    assert sched.n == 3
    for seg in sched.segments:
        assert seg.dt >= 0.0
        # drives are either off (free evolution) or at the hard-pulse level
        assert seg.ux == 0.0 or abs(seg.ux) == 500.0
        assert seg.uy == 0.0 or abs(seg.uy) == 500.0


def test_realize_rejects_nonpositive_amplitude():
    plan = state_transfer_plan(2, ket(2, "00").amplitudes, ghz_state(2).amplitudes)
    for amplitude in (0.0, -1.0, np.inf):
        with pytest.raises(ValueError):
            realize(plan, amplitude)


def test_pulsed_transfer_fidelity_improves_with_amplitude():
    plan = state_transfer_plan(3, ket(3, "000").amplitudes, ghz_state(3).amplitudes)
    init, target = ket(3, "000"), ghz_state(3)
    fids = []
    for amp in (100.0, 1000.0):
        out = evolve(realize(plan, amp), init)
        fids.append(state_fidelity(out, target))
    assert fids[0] < fids[1]
    assert fids[1] > 0.995


def test_hard_pulse_converges_to_impulsive_rotation():
    # A single x pulse of area pi/4 approaches exp(-i H_x pi/4) as the
    # amplitude grows; the coupling contributes O(1/A) error.
    target = mat_exp(-1j * hamiltonian_x(2) * (np.pi / 4))
    errors = []
    for amp in (10.0, 100.0, 1000.0):
        sched = PulseSchedule(
            n=2, segments=[PulseSegment(ux=amp, uy=0.0, dt=np.pi / (4 * amp))]
        )
        u = evolve(sched, np.eye(4, dtype=complex))
        errors.append(np.abs(u - target).max())
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 5e-3


def test_evolve_concatenation_and_norm():
    rng = np.random.default_rng(1)
    segs = [
        PulseSegment(ux=rng.uniform(-2, 2), uy=rng.uniform(-2, 2), dt=rng.uniform(0, 1))
        for _ in range(6)
    ]
    s_all = PulseSchedule(n=3, segments=segs)
    s1 = PulseSchedule(n=3, segments=segs[:3])
    s2 = PulseSchedule(n=3, segments=segs[3:])
    init = w_state(3)
    once = evolve(s_all, init)
    twice = evolve(s2, evolve(s1, init))
    assert np.abs(once.amplitudes - twice.amplitudes).max() < 1e-10
    assert np.linalg.norm(once.amplitudes) == pytest.approx(1.0, abs=1e-10)


def test_evolution_preserves_symmetric_sector():
    # Permutation-invariant initial states never leak out of the
    # uniform-excitation span under collective drives.
    from symspin.spin_model import phi_state

    basis = np.array([phi_state(3, m).amplitudes for m in range(4)])
    sched = PulseSchedule(
        n=3,
        segments=[
            PulseSegment(ux=1.3, uy=0.0, dt=0.7),
            PulseSegment(ux=0.0, uy=-0.4, dt=1.1),
            PulseSegment(ux=0.0, uy=0.0, dt=2.0),
        ],
    )
    out = evolve(sched, ghz_state(3)).amplitudes
    residual = out - basis.T @ (basis.conj() @ out)
    assert np.abs(residual).max() < 1e-9


def test_gate_fidelity_phase_invariant():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(z)
    assert gate_fidelity(q, np.exp(0.77j) * q) == pytest.approx(1.0, abs=1e-12)
    assert gate_fidelity(q, q) == pytest.approx(1.0, abs=1e-12)


def test_gate_fidelity_rejects_non_unitary():
    with pytest.raises(ValueError):
        gate_fidelity(np.ones((4, 4), dtype=complex), np.eye(4, dtype=complex))


def test_state_fidelity_bounds():
    a, b = ket(2, "00"), ghz_state(2)
    f = state_fidelity(a, b)
    assert f == pytest.approx(0.5, abs=1e-12)
    assert state_fidelity(a, a) == pytest.approx(1.0, abs=1e-12)
    assert state_fidelity(a.amplitudes, b.amplitudes) == pytest.approx(0.5, abs=1e-12)


def test_state_fidelity_rejects_unnormalized_arrays():
    with pytest.raises(ValueError):
        state_fidelity(np.full(4, 3.0), ket(2, "00"))
    with pytest.raises(ValueError):
        state_fidelity(ket(2, "00"), np.array([1.0, 1e-3, 0.0, 0.0]))


def test_schedule_json_round_trip():
    sched = PulseSchedule(
        n=2,
        segments=[
            PulseSegment(ux=0.0, uy=0.0, dt=1.25),
            PulseSegment(ux=-100.0, uy=0.0, dt=0.01),
        ],
    )
    doc = schedule_to_json(sched)
    assert doc["n"] == 2
    back = schedule_from_json(doc)
    assert back.n == 2
    assert [(s.ux, s.uy, s.dt) for s in back.segments] == [
        (s.ux, s.uy, s.dt) for s in sched.segments
    ]


def test_synthesized_gate_survives_realization():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.exp(-1j * np.angle(np.diag(r))))
    target = q * np.exp(-1j * np.angle(np.linalg.det(q)) / 4)
    plan = synthesize(3, target, rng=rng)
    assert plan.reconstruction_error < 1e-9


def _dense_evolve(schedule, initial):
    """Reference: one dense 2^n matrix exponential per segment."""
    n = schedule.n
    out = np.asarray(initial, dtype=complex)
    for seg in schedule.segments:
        h = hamiltonian_zz(n) + seg.ux * hamiltonian_x(n) + seg.uy * hamiltonian_y(n)
        out = mat_exp(-1j * h * seg.dt) @ out
    return out


def _schedules(rng):
    random = [
        PulseSegment(ux=rng.uniform(-2, 2), uy=rng.uniform(-2, 2), dt=rng.uniform(0, 1))
        for _ in range(8)
    ]
    # Zero drive leaves H_zz, whose spectrum is degenerate on every block.
    free = [PulseSegment(0.0, 0.0, 0.7), PulseSegment(0.0, 0.0, 2.3)]
    hard = [
        PulseSegment(1000.0, 0.0, 0.8e-3),
        PulseSegment(0.0, 0.0, 0.4),
        PulseSegment(0.0, -1000.0, 1.9e-3),
        PulseSegment(-1000.0, 0.0, 3.1e-3),
    ]
    return {"random": random, "zero_drive": free, "hard_1000": hard, "empty": []}


@pytest.mark.parametrize("kind", ["random", "zero_drive", "hard_1000", "empty"])
@pytest.mark.parametrize("n", range(2, N_MAX + 1))
def test_block_evolve_matches_dense_reference(n, kind):
    rng = np.random.default_rng([n, len(kind)])
    schedule = PulseSchedule(n=n, segments=_schedules(rng)[kind])
    eye = np.eye(2**n, dtype=complex)
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v /= np.linalg.norm(v)  # generic, so not permutation symmetric
    assert np.abs(evolve(schedule, eye) - _dense_evolve(schedule, eye)).max() < 1e-12
    state = evolve(schedule, SpinState(n, v))
    assert np.abs(state.amplitudes - _dense_evolve(schedule, v)).max() < 1e-12
    assert np.abs(evolve(schedule, v) - state.amplitudes).max() < 1e-12


_SEGMENTS = st.lists(
    st.builds(
        PulseSegment,
        ux=st.floats(-5.0, 5.0),
        uy=st.floats(-5.0, 5.0),
        dt=st.floats(0.0, 2.0),
    ),
    max_size=8,
)
_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(n=st.integers(2, N_MAX), segments=_SEGMENTS, cut=st.integers(0, 8))
def test_evolving_head_then_tail_equals_evolving_the_whole(n, segments, cut):
    head = PulseSchedule(n=n, segments=segments[:cut])
    tail = PulseSchedule(n=n, segments=segments[cut:])
    eye = np.eye(2**n, dtype=complex)
    whole = evolve(PulseSchedule(n=n, segments=segments), eye)
    assert np.abs(evolve(tail, evolve(head, eye)) - whole).max() < 1e-12


@_PROPERTY
@given(n=st.integers(2, N_MAX), segments=_SEGMENTS)
def test_evolved_identity_is_unitary(n, segments):
    u = evolve(PulseSchedule(n=n, segments=segments), np.eye(2**n, dtype=complex))
    assert np.abs(u.conj().T @ u - np.eye(2**n)).max() < 1e-12
