"""Piecewise-constant pulse simulation of the driven spin chain.

A schedule is a list of segments with constant drive amplitudes; each
segment evolves by exp(-i (H_zz + ux H_x + uy H_y) dt) on the full
register.  ``realize`` lowers an abstract synthesis plan to such a
schedule for a given drive amplitude: pulse steps become hard pulses of
duration |t|/amplitude and free steps become bare coupling evolution,
with durations folded by the block periodicities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_model import N_MAX, SpinState, hamiltonian_x, hamiltonian_y, hamiltonian_zz
from .synthesis import TWO_PI, SynthesisPlan
from .tensor_core import mat_exp, require_unitary


@dataclass
class PulseSegment:
    ux: float
    uy: float
    dt: float

    def __post_init__(self):
        if not (np.isfinite(self.ux) and np.isfinite(self.uy)):
            raise ValueError("drive amplitudes must be finite")
        if not (np.isfinite(self.dt) and self.dt >= 0):
            raise ValueError("segment duration must be nonnegative")


@dataclass
class PulseSchedule:
    n: int
    segments: list

    def __post_init__(self):
        if not 2 <= self.n <= N_MAX:
            raise ValueError(f"schedule needs 2 <= n <= {N_MAX}, got {self.n}")


def schedule_to_json(schedule: PulseSchedule) -> dict:
    return {
        "n": schedule.n,
        "segments": [
            {"ux": float(s.ux), "uy": float(s.uy), "dt": float(s.dt)}
            for s in schedule.segments
        ],
    }


def schedule_from_json(data: dict) -> PulseSchedule:
    segments = [
        PulseSegment(ux=float(s["ux"]), uy=float(s["uy"]), dt=float(s["dt"]))
        for s in data["segments"]
    ]
    return PulseSchedule(n=int(data["n"]), segments=segments)


def realize(plan: SynthesisPlan, amplitude: float) -> PulseSchedule:
    """Lower a plan to hard pulses at the given drive amplitude.

    Free-evolution durations are folded modulo the period at which the
    coupling block repeats up to phase (pi for three spins, 2*pi for
    two); pulse signs go into the drive amplitude sign.
    """
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    segments = []
    for tag, t in plan.steps:
        if tag == "AZZ":
            dt = t % TWO_PI
            if dt > 1e-12:
                segments.append(PulseSegment(0.0, 0.0, dt))
        elif tag == "BZZ":
            dt = (-t / 2) % np.pi
            if dt > 1e-12:
                segments.append(PulseSegment(0.0, 0.0, dt))
        elif tag in ("AX", "BX", "AY", "BY"):
            if abs(t) < 1e-14:
                continue
            sign = 1.0 if t > 0 else -1.0
            if tag == "BX":
                sign = -sign
            u = sign * amplitude
            seg = (
                PulseSegment(u, 0.0, abs(t) / amplitude)
                if tag in ("AX", "BX")
                else PulseSegment(0.0, u, abs(t) / amplitude)
            )
            segments.append(seg)
        else:
            raise ValueError(f"unknown step tag {tag!r}")
    return PulseSchedule(n=plan.n, segments=segments)


def evolve(schedule: PulseSchedule, initial):
    """Propagate a state or unitary through the schedule, first segment
    first.  Returns a SpinState for state input, an ndarray otherwise."""
    n = schedule.n
    hzz, hx, hy = hamiltonian_zz(n), hamiltonian_x(n), hamiltonian_y(n)
    if isinstance(initial, SpinState):
        if initial.n != n:
            raise ValueError("state size does not match schedule")
        out = initial.amplitudes.copy()
        as_state = True
    else:
        out = np.asarray(initial, dtype=complex).copy()
        as_state = False
        if out.shape not in ((2**n,), (2**n, 2**n)):
            raise ValueError("initial has wrong dimension for the schedule")
    for seg in schedule.segments:
        u = mat_exp(-1j * (hzz + seg.ux * hx + seg.uy * hy) * seg.dt)
        out = u @ out
    return SpinState(n=n, amplitudes=out) if as_state else out


def gate_fidelity(u, v) -> float:
    """Phase-insensitive overlap |tr(u^dag v)| / d between two unitaries."""
    d = np.shape(u)[0] if np.ndim(u) else 0
    u = require_unitary(u, d, "inputs")
    v = require_unitary(v, d, "inputs")
    return float(abs(np.trace(u.conj().T @ v)) / d)


def state_fidelity(a, b) -> float:
    """Squared overlap of two pure states."""
    av = a.amplitudes if isinstance(a, SpinState) else np.asarray(a, dtype=complex)
    bv = b.amplitudes if isinstance(b, SpinState) else np.asarray(b, dtype=complex)
    if av.shape != bv.shape:
        raise ValueError("states have different dimensions")
    return float(abs(np.vdot(av, bv)) ** 2)
