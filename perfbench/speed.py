"""Machine-speed calibration, so that timings are steady on a shared host.

On the two-core host this benchmark was tuned on, a fixed kernel's time
flips between about 3.5 ms and 5.8 ms on sub-second timescales (on either
core; the thread's CPU time moves with it, so the core itself runs slower),
and the median op latency of whole 10 s runs of one seed differed by up to
20%.  The harness therefore interleaves a fixed calibration kernel with
the operations, spending about CAL_SHARE of the timed work on it, and
states each latency at a reference speed:

    latency * CAL_REF_S[kind] / (kernel time in the gaps just before and after)

where a gap's kernel time is the median of its samples.  Calibrating a
0.6 s closure this way took the spread of its time over 4-op blocks from
14% to 5%; for whole runs it cut the spread of the median latency from
about 20% to about 5% (compile_su4) and from 17% to 3% (pulse_replay).
Raw latencies are reported next to the calibrated ones.

Each workload names the kernel of its own kind of work: interpreter-bound
small-matrix code (``compile_su4``, ``pulse_replay``, ``lie_analysis``) or
dense 64x64 propagation (``drive_sweep``).  Calibrated by the interpreter
kernel, ``drive_sweep``'s reference-speed medians jumped between two levels
with that kernel's two modes (spread of ``ops_per_s`` over ten seeds 0.11),
and uncalibrated its spread ranged from 0.02 to 0.13 between two sets of
ten runs.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import expm

# Kernel times on a quiet core of the tuning host.
CAL_REF_S = {"interpreter": 1.5e-3, "dense": 0.6e-3}
CAL_SHARE = 0.1  # calibration time per second of operation time
CAL_EVERY_S = 0.05  # operation time between calibration gaps


class SpeedProbe:
    """Calibration samples taken in gaps between operations."""

    def __init__(self, kind: str):
        if kind not in CAL_REF_S:
            raise ValueError(f"unknown calibration kernel {kind!r}")
        self.ref_s = CAL_REF_S[kind]
        self._kernel = self._interpreter if kind == "interpreter" else self._propagator
        rng = np.random.default_rng(20181)
        self._small = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._phases = rng.standard_normal(8)
        self._dense = rng.standard_normal((24, 24))
        h = rng.standard_normal((64, 64))
        self._hamiltonian = (h + h.T) / 16
        self.gaps: list[float] = []  # median kernel time per gap
        self._since = 5 * CAL_EVERY_S

    def _propagator(self) -> float:
        """One dense 64x64 segment propagator applied to a 64x64 unitary."""
        t0 = time.perf_counter()
        u = expm(-1j * 0.05 * self._hamiltonian)
        u @ u
        return time.perf_counter() - t0

    def _interpreter(self) -> float:
        """Interpreter-bound small-matrix work plus a small dense product."""
        t0 = time.perf_counter()
        u = np.eye(4, dtype=complex)
        step = 0.01 * self._small + np.eye(4)
        for k in range(100):
            u = step @ u
            x = np.exp(1j * self._phases * k)
            float(np.trace(u).real) + float(np.abs(x).max())
            self._dense @ self._dense
        return time.perf_counter() - t0

    def sample(self, budget_s: float) -> int:
        """Run the kernel for about ``budget_s`` (at least once); returns
        the index of the new gap."""
        samples = [self._kernel()]
        while sum(samples) < budget_s:
            samples.append(self._kernel())
        self.gaps.append(statistics.median(samples))
        self._since = 0.0
        return len(self.gaps) - 1

    def before_op(self) -> int:
        """Calibrate if enough operation time has passed; returns the index
        of the latest gap."""
        if self._since >= CAL_EVERY_S:
            self.sample(CAL_SHARE * self._since)
        return len(self.gaps) - 1

    def after_op(self, latency: float) -> None:
        self._since += latency

    def finish(self) -> None:
        self.sample(CAL_SHARE * max(self._since, CAL_EVERY_S))

    def factor(self, gap: int) -> float:
        """Reference-speed factor for an operation step that ran between
        gap ``gap`` and the next one."""
        return self.ref_s / statistics.mean(self.gaps[gap: gap + 2])
