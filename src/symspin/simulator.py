"""Piecewise-constant pulse simulation of the driven spin chain.

A schedule is a list of segments with constant drive amplitudes; each
segment evolves by exp(-i (H_zz + ux H_x + uy H_y) dt) on the full
register.  ``realize`` lowers an abstract synthesis plan to such a
schedule for a given drive amplitude: pulse steps become hard pulses of
duration |t|/amplitude and free steps become bare coupling evolution,
with durations folded by the block periodicities.

``evolve`` never forms a 2^n propagator per segment.  The Hamiltonian is
permutation invariant, so in the Schur frame S of ``spin_model.spin_frame``
every segment acts as the same (2j+1)-dimensional matrix on each copy of
spin j.  One batched eigendecomposition per j gives all segment
exponentials, their product W_j is the whole schedule on that block, and
the input is moved into the frame and back once: S (+)_j (I_mult (x) W_j) S^dag.
This is exact for any state or unitary, symmetric or not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_model import N_MAX, SpinState, spin_frame
# The dense Hamiltonian functions stay simulator attributes for callers that
# wrap them (perfbench's tracer does); evolve itself never calls them.
from .spin_model import hamiltonian_x, hamiltonian_y, hamiltonian_zz  # noqa: F401
from .synthesis import TWO_PI, SynthesisPlan
from .tensor_core import TAU_INPUT, require_unitary


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
    if not (np.isfinite(amplitude) and amplitude > 0):
        raise ValueError("amplitude must be positive and finite")
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


def _block_propagator(hamiltonians, drives) -> np.ndarray:
    """Product, first segment rightmost, of exp(-i (h_zz + ux h_x + uy h_y) dt)
    over the (ux, uy, dt) rows of ``drives``, for one spin-j block."""
    ux, uy, dt = drives.T
    h_zz, h_x, h_y = hamiltonians
    h = h_zz + ux[:, None, None] * h_x + uy[:, None, None] * h_y
    vals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * vals * dt[:, None])
    steps = (vecs * phases[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    out = np.eye(len(h_zz), dtype=complex)
    for step in steps:
        out = step @ out
    return out


def evolve(schedule: PulseSchedule, initial):
    """Propagate a state or unitary through the schedule, first segment
    first.  Returns a SpinState for state input, an ndarray otherwise."""
    n = schedule.n
    if isinstance(initial, SpinState):
        if initial.n != n:
            raise ValueError("state size does not match schedule")
        out = initial.amplitudes
        as_state = True
    else:
        out = np.asarray(initial, dtype=complex)
        as_state = False
        if out.shape not in ((2**n,), (2**n, 2**n)):
            raise ValueError("initial has wrong dimension for the schedule")
        if not np.all(np.isfinite(out)):
            raise ValueError("initial has non-finite entries")
    frame = spin_frame(n)
    drives = np.array([(s.ux, s.uy, s.dt) for s in schedule.segments]).reshape(-1, 3)
    coeffs = frame.basis.conj().T @ out
    for block in frame.blocks:
        w = _block_propagator(block.hamiltonians, drives)
        part = coeffs[block.columns]
        copies = part.reshape(block.multiplicity, block.size, -1)
        coeffs[block.columns] = (w @ copies).reshape(part.shape)
    out = frame.basis @ coeffs
    return SpinState(n=n, amplitudes=out) if as_state else out


def gate_fidelity(u, v) -> float:
    """Phase-insensitive overlap |tr(u^dag v)| / d between two unitaries."""
    d = np.shape(u)[0] if np.ndim(u) else 0
    u = require_unitary(u, d, "inputs")
    v = require_unitary(v, d, "inputs")
    return float(abs(np.trace(u.conj().T @ v)) / d)


def _state_vector(s) -> np.ndarray:
    if isinstance(s, SpinState):
        return s.amplitudes
    v = np.asarray(s, dtype=complex)
    if not (np.all(np.isfinite(v)) and abs(np.linalg.norm(v) - 1.0) <= TAU_INPUT):
        raise ValueError("states must be finite with unit norm")
    return v


def state_fidelity(a, b) -> float:
    """Squared overlap of two pure states (SpinStates or unit vectors)."""
    av, bv = _state_vector(a), _state_vector(b)
    if av.shape != bv.shape:
        raise ValueError("states have different dimensions")
    return float(abs(np.vdot(av, bv)) ** 2)
