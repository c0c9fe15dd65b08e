"""The four benchmark workloads.

Each workload makes an operation's inputs from the seed and the
operation's index alone, just before the operation and outside its timed
interval (the program never receives an ``rng``), so that inputs never
repeat within a run; only ``pulse_replay`` cycles through a fixed plan
library, by design.  It runs one operation at a time through the public
symspin functions (``op``, timed), and checks the outputs on the
benchmark's side (``check``, untimed).  Program calls go through module
attributes (``synthesis.synthesize``, not a bound name) so that the traced
run can wrap them.

Tolerances, stated once:
  * compile_su4: ``gate_fidelity`` of the replayed plan >= 1 - 1e-8
    (acceptance criterion 7's gate) and an exact plan JSON round trip.
  * pulse_replay: the first-order hard-pulse bound.  A pulse of area |t|
    at amplitude A runs the coupling for |t|/A, so the replayed block is
    within eps = w_n * sum|t| / A of the ideal one (w_n is the half
    spectral width of H_zz on the symmetric block: 1 for n=2, 2 for n=3).
    Hence state infidelity <= eps^2 and gate infidelity <= eps^2 / 2.
    The named GHZ/W transfers must also match the recorded infidelities
    within 1e-10 absolute.
  * drive_sweep: norm and unitarity within 1e-10, state-evolve equal to
    unitary-evolve times the state within 1e-10, and the final state within
    1e-9 of an independent eigendecomposition propagator built here (and of
    the recorded final states, for the recorded seeds).
  * lie_analysis: closure dimension equal to the derived law, invariance,
    block residuals <= 1e-10, and measured identity coefficients within
    1e-9 of the recorded table.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os

import numpy as np

from symspin import cli, coordinates, lie_engine, simulator, spin_model, synthesis
from symspin import tensor_core

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Seeds whose drive_sweep final states are recorded in reference.json.  The
# held-out seed is never used while tuning a change; a gain claim must hold
# on it as well as on the seeds it was developed with.
HELD_OUT_SEED = 7919
RECORDED_SEEDS = tuple(range(1, 11)) + (HELD_OUT_SEED,)
RECORDED_OPS = 3

AMPLITUDES = (100.0, 300.0, 1000.0)
REALIZE_AMPLITUDE = 1000.0


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _encode(a) -> str:
    """Matrix JSON in the CLI's format, encoded on the benchmark's side."""
    a = np.asarray(a, dtype=complex)
    return json.dumps(
        {"dim": a.shape[0],
         "entries": [[[z.real, z.imag] for z in row] for row in a.tolist()]}
    )


def _haar_su4(rng) -> np.ndarray:
    z = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q / np.linalg.det(q) ** 0.25


def _dicke_basis(n: int) -> np.ndarray:
    return np.column_stack([spin_model.phi_state(n, m).amplitudes for m in range(n + 1)])


def derived_dim(n: int) -> int:
    """Closure dimension law 1 + sum_{j>0} ((2j+1)^2 - 1) over the spin-j
    irreps j = n/2, n/2 - 1, ... of n spin-1/2s."""
    return 1 + sum((n - 2 * k + 1) ** 2 - 1 for k in range(n // 2 + 1) if n - 2 * k > 0)


class Workload:
    name = ""
    round_len = 1  # ops in one full cycle of input kinds
    # Tail percentile: the highest of 90 / 99 / 99.9 that leaves at least
    # ten samples beyond it at this workload's op count when the benchmark was added,
    # fixed so that a faster program does not move it.
    tail_pct = 90.0
    speed_kernel = "interpreter"  # calibration kernel of this kind of work (speed.py)

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.reference = reference
        self.out_dir = None  # where probe() may write CLI input files

    def setup(self, tracer) -> None:
        """Generate the inputs (and precompile what the workload needs)."""

    def rng(self, i: int) -> np.random.Generator:
        """The random stream of operation ``i``: drawn from the seed and
        ``i`` alone, so no two operations of a run share an input and no
        input is made before it is needed."""
        return np.random.default_rng([self.seed, i])

    def inputs(self, i: int):
        """Operation ``i``'s inputs, made outside its timed interval."""
        return None

    def op(self, inputs, tracer):
        """One operation on ``inputs``: program calls only. Returns its
        outputs.  A workload whose operation has several steps overrides
        ``op_steps`` instead."""
        raise NotImplementedError

    def op_steps(self, i: int, tracer) -> list:
        """Operation ``i`` as timed steps; the harness may calibrate the
        machine's speed between them.  ``check`` gets the one step's output,
        or the list of outputs when there are several steps."""
        inputs = self.inputs(i)
        return [lambda: self.op(inputs, tracer)]

    def check(self, i: int, out) -> str | None:
        """None if the outputs of operation ``i`` pass every gate, else why not."""
        raise NotImplementedError

    def untimed_checks(self, tracer) -> list:
        """Work run and gated once per run, outside the timed phase: one
        entry per check, None when it passed, else why not."""
        return []

    def probe(self, tracer) -> list:
        """Traced run only: in-process CLI calls on one input; failure messages."""
        return []

    def quality(self) -> dict:
        """Output-quality figures of the timed phase, by name."""
        return {}


def _cli(argv) -> dict:
    """Run ``symspin`` in-process with stdout captured; parse its JSON."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"symspin {argv[0]} exited {code}")
    return json.loads(buf.getvalue())


# --- compile_su4 ---------------------------------------------------------------


class CompileSU4(Workload):
    """A stream of Haar-random n=3 symmetric-block targets.

    Near-identity targets are left out: their fit time is heavy-tailed
    (0.07 s to over 10 s at eps = 1e-3), so a run of a few seconds would
    measure which targets the seed drew rather than the program.
    """

    name = "compile_su4"

    def setup(self, tracer):
        self.steps, self.pulse_times = [], []

    def inputs(self, i):
        return _encode(_haar_su4(self.rng(i)))

    def op(self, doc, tracer):
        tracer.tag = "haar"
        target = tensor_core.matrix_from_json(json.loads(doc))
        plan = synthesis.synthesize(3, target)
        text = json.dumps(synthesis.plan_to_json(plan))
        replay = synthesis.plan_from_json(json.loads(text))
        block = synthesis.plan_unitary(replay)
        block = tensor_core.matrix_from_json(
            json.loads(json.dumps(tensor_core.matrix_to_json(block)))
        )
        fidelity = simulator.gate_fidelity(target, block)
        schedule = simulator.realize(replay, REALIZE_AMPLITUDE)
        return plan, replay, fidelity, schedule

    def check(self, i, out):
        plan, replay, fidelity, schedule = out
        if replay.steps != plan.steps or replay.phase != plan.phase:
            return "plan JSON round trip changed the plan"
        if not fidelity >= 1 - 1e-8:
            return f"gate fidelity {fidelity!r} < 1 - 1e-8"
        if not all(np.isfinite(s.dt) and s.dt >= 0 for s in schedule.segments):
            return "realized schedule has a bad duration"
        self.steps.append(len(plan.steps))
        self.pulse_times.append(sum(s.dt for s in schedule.segments))
        return None

    def quality(self):
        if not self.steps:
            return {}
        return {
            "plan_steps_median": float(np.median(self.steps)),
            "pulse_time_median": float(np.median(self.pulse_times)),
        }

    def probe(self, tracer):
        target_doc = self.inputs(0)
        path = os.path.join(self.out_dir, "cli_target.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(target_doc)
        tracer.tag = "cli"
        with tracer.span("cli.main.synth"):
            plan_doc = _cli(["synth", "--n", "3", "--target", path])
        block = synthesis.plan_unitary(synthesis.plan_from_json(plan_doc))
        target = tensor_core.matrix_from_json(json.loads(target_doc))
        fidelity = simulator.gate_fidelity(target, block)
        return [] if fidelity >= 1 - 1e-8 else [f"cli synth fidelity {fidelity!r}"]


# --- pulse_replay --------------------------------------------------------------


class PulseReplay(Workload):
    """Hard-pulse replay of a plan library at three amplitudes.

    The GHZ(2), GHZ(3) and W(3) transfers are compiled in set-up (their
    cost is part of set-up time) and gated there on ideal fidelity, but
    the replayed transfer plans are the ones recorded in reference.json:
    the template fit lands on a different valid plan when its inputs
    differ in the last bit (which the alignment of numpy buffers can
    cause), and the pulsed infidelities are only comparable with the
    recorded ones for the same plan.  The seeded Haar plans are compiled
    here and gated by the hard-pulse bound alone.
    """

    name = "pulse_replay"
    tail_pct = 99.0
    haar_plans = 3
    half_width = {2: 1.0, 3: 2.0}
    named = (("ghz2", 2, "ghz"), ("ghz3", 3, "ghz"), ("w3", 3, "w"))

    def setup(self, tracer):
        rng = np.random.default_rng(self.seed)
        ket0 = {n: spin_model.ket(n, "0" * n) for n in (2, 3)}
        library = []
        for name, n, kind in self.named:
            dest = spin_model.ghz_state(n) if kind == "ghz" else spin_model.w_state(n)
            tracer.tag = "transfer"
            compiled = synthesis.state_transfer_plan(n, ket0[n], dest)
            ideal = _dicke_basis(n) @ synthesis.plan_unitary(compiled)[:, 0]
            fidelity = abs(np.vdot(dest.amplitudes, ideal)) ** 2
            if not fidelity >= 1 - 1e-8:
                raise RuntimeError(f"{name} transfer plan has ideal fidelity {fidelity!r}")
            recorded = self.reference["pulse_replay_plans"].get(name)
            plan = compiled if recorded is None else synthesis.plan_from_json(recorded)
            library.append((name, n, plan, dest))
        tracer.tag = "library"
        for k in range(self.haar_plans):
            library.append((f"haar{k}", 3, synthesis.synthesize(3, _haar_su4(rng)), None))
        self.entries = []
        for name, n, plan, dest in library:
            dicke = _dicke_basis(n)
            ideal = synthesis.plan_unitary(plan)
            area = sum(abs(t) for tag, t in plan.steps if tag[1:] in ("X", "Y"))
            self.entries.append({
                "name": name, "n": n, "plan": plan, "dest": dest,
                "initial": ket0[n], "dicke": dicke,
                "ideal_state": dicke @ ideal[:, 0],
                "eps_area": self.half_width[n] * area,
                "eye": np.eye(2 ** n, dtype=complex),
            })
        self.combos = [(e, a) for e in self.entries for a in AMPLITUDES]
        self.round_len = len(self.combos)

    def inputs(self, i):
        return self.combos[i % len(self.combos)]

    def op(self, inputs, tracer):
        entry, amplitude = inputs
        schedule = simulator.realize(entry["plan"], amplitude)
        final = simulator.evolve(schedule, entry["initial"])
        state_fid = simulator.state_fidelity(final, entry["ideal_state"])
        full = simulator.evolve(schedule, entry["eye"])
        block = entry["dicke"].conj().T @ full @ entry["dicke"]
        gate_fid = simulator.gate_fidelity(block, synthesis.plan_unitary(entry["plan"]))
        return entry, amplitude, final, full, state_fid, gate_fid

    def check(self, i, out):
        entry, amplitude, final, full, state_fid, gate_fid = out
        eps2 = (entry["eps_area"] / amplitude) ** 2
        if not 1 - state_fid <= eps2:
            return f"{entry['name']}@{amplitude:g}: state infidelity {1 - state_fid!r} > {eps2!r}"
        if not 1 - gate_fid <= eps2 / 2:
            return f"{entry['name']}@{amplitude:g}: gate infidelity {1 - gate_fid!r} > {eps2 / 2!r}"
        if not np.abs(full.conj().T @ full - entry["eye"]).max() <= 1e-10:
            return f"{entry['name']}@{amplitude:g}: propagator not unitary"
        ref = self.reference["pulse_replay"].get(entry["name"])
        if ref is not None:
            ref = ref[f"{amplitude:g}"]
            got_state = 1 - abs(np.vdot(entry["dest"].amplitudes, final.amplitudes)) ** 2
            for what, got in (("state", got_state), ("gate", 1 - gate_fid)):
                if not abs(got - ref[what]) <= 1e-10:
                    return (f"{entry['name']}@{amplitude:g}: {what} infidelity {got!r}"
                            f" vs recorded {ref[what]!r}")
        return None

    def probe(self, tracer):
        entry = next(e for e in self.entries if e["name"] == "ghz3")
        path = os.path.join(self.out_dir, "cli_plan.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(synthesis.plan_to_json(entry["plan"]), fh)
        with tracer.span("cli.main.simulate"):
            doc = _cli(["simulate", "--schedule", path, "--initial", "ket:000",
                        "--amplitude", "1000", "--target", "ghz"])
        got = 1 - doc["fidelity"]
        ref = self.reference["pulse_replay"]["ghz3"]["1000"]["state"]
        return [] if abs(got - ref) <= 1e-10 else [f"cli simulate infidelity {got!r} vs {ref!r}"]


# --- drive_sweep ---------------------------------------------------------------


def _collective_ops(n: int):
    """H_zz, H_x, H_y built here from Kronecker products, independently of
    spin_model (same conventions: spin 1 most significant, the package's
    sigma-y sign)."""
    eye = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, 1j], [-1j, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)

    def site(op, k):
        out = np.ones((1, 1), dtype=complex)
        for j in range(n):
            out = np.kron(out, op if j == k else eye)
        return out

    z = [site(sz, k) for k in range(n)]
    hzz = sum(z[k] @ z[m] for k in range(n) for m in range(k + 1, n))
    return hzz, sum(site(sx, k) for k in range(n)), sum(site(sy, k) for k in range(n))


class DriveSweep(Workload):
    """Continuous-drive schedules at n = 4, 5, 6; every segment distinct.

    SEGMENTS is the median segment count of a realized compiled n=3 plan
    (compile_su4's plan_steps_median, and the GHZ(3) and W(3) plans, have
    17 steps).  The drive and duration ranges are those of the random
    schedule in tests/test_simulator.py (test_evolve_concatenation_and_norm).
    """

    name = "drive_sweep"
    speed_kernel = "dense"
    sizes = (4, 5, 6)
    round_len = 3
    segments = 17
    drive_max = 2.0  # ux and uy uniform on [-drive_max, drive_max]
    dt_max = 1.0  # dt uniform on [0, dt_max)

    def setup(self, tracer):
        self.ops = {n: _collective_ops(n) for n in self.sizes}
        self.eye = {n: np.eye(2 ** n, dtype=complex) for n in self.sizes}
        self.recorded = self.reference["drive_sweep"].get(str(self.seed))

    def inputs(self, i):
        rng = self.rng(i)
        n = self.sizes[i % 3]
        ux, uy = rng.uniform(-self.drive_max, self.drive_max, (2, self.segments))
        dt = rng.uniform(0.0, self.dt_max, self.segments)
        doc = {"n": n, "segments": [{"ux": float(a), "uy": float(b), "dt": float(c)}
                                    for a, b, c in zip(ux, uy, dt)]}
        v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
        return doc, v / np.linalg.norm(v)

    def op(self, inputs, tracer):
        doc, initial = inputs
        schedule = simulator.schedule_from_json(doc)
        n = schedule.n
        final = simulator.evolve(schedule, spin_model.SpinState(n, initial))
        full = simulator.evolve(schedule, self.eye[n])
        return inputs, final.amplitudes, full

    def reference_state(self, doc, initial) -> np.ndarray:
        hzz, hx, hy = self.ops[doc["n"]]
        psi = initial
        for s in doc["segments"]:
            vals, vecs = np.linalg.eigh(hzz + s["ux"] * hx + s["uy"] * hy)
            psi = vecs @ (np.exp(-1j * vals * s["dt"]) * (vecs.conj().T @ psi))
        return psi

    def check(self, i, out):
        (doc, initial), final, full = out
        n = doc["n"]
        if not abs(np.linalg.norm(final) - 1) <= 1e-10:
            return f"n={n}: final state norm {np.linalg.norm(final)!r}"
        if not np.abs(full.conj().T @ full - self.eye[n]).max() <= 1e-10:
            return f"n={n}: propagator not unitary"
        if not np.abs(final - full @ initial).max() <= 1e-10:
            return f"n={n}: state evolve differs from unitary evolve times state"
        if not np.abs(final - self.reference_state(doc, initial)).max() <= 1e-9:
            return f"n={n}: final state differs from the independent propagator"
        if self.recorded is not None and i < len(self.recorded):
            rec = np.array([complex(re, im) for re, im in self.recorded[i]])
            if not np.abs(final - rec).max() <= 1e-9:
                return f"n={n}: final state differs from the recorded one"
        return None


# --- lie_analysis --------------------------------------------------------------


class LieAnalysis(Workload):
    """One operation: ``closure_report(n)`` for n = 2..4, plus the block
    splits of every closure element at n <= 3.  The sizes differ 60x in
    cost, so they form one operation rather than three.

    n = 5 runs and is gated once per run, untimed: at 4 s per call a 15 s
    run held three or four samples, and its spread over five seeds was
    0.14-0.23, calibrated or not.
    """

    name = "lie_analysis"
    # About 20-25 operations per run: p90 leaves two samples beyond it (its
    # spread over ten 15 s runs reached 0.11); p75 leaves five or six.
    tail_pct = 75.0
    sizes = (2, 3, 4)
    untimed_size = 5

    def setup(self, tracer):
        self.frames = {2: coordinates.basis_T(), 3: coordinates.basis_M()}
        self.generators = {
            n: [1j * spin_model.hamiltonian_zz(n), 1j * spin_model.hamiltonian_x(n),
                1j * spin_model.hamiltonian_y(n)]
            for n in self.frames
        }
        self.identities = self.reference["identities"]

    def analyse(self, n):
        report = lie_engine.closure_report(n)
        forms = None
        if n in self.frames:
            basis = lie_engine.closure(self.generators[n])
            forms = [coordinates.block_split(self.frames[n], e) for e in basis.elements]
        return n, report, forms

    def op_steps(self, i, tracer):
        # One step per size, so that each is calibrated on its own.
        return [functools.partial(self.analyse, n) for n in self.sizes]

    def untimed_checks(self, tracer):
        return [self._check_size(*self.analyse(self.untimed_size))]

    def check(self, i, out):
        for n, report, forms in out:
            error = self._check_size(n, report, forms)
            if error is not None:
                return error
        return None

    def _check_size(self, n, report, forms):
        law = derived_dim(n)
        if report["generated_dim"] != law:
            return f"n={n}: closure dim {report['generated_dim']} != derived {law}"
        if not report["invariance_ok"]:
            return f"n={n}: closure element not permutation invariant"
        if forms is not None:
            if len(forms) != law:
                return f"n={n}: {len(forms)} block splits for dim {law}"
            worst = max(f.residual for f in forms)
            if not worst <= 1e-10:
                return f"n={n}: block residual {worst!r}"
        return compare_identities(n, report["identity_results"], self.identities[str(n)])

    def probe(self, tracer):
        with tracer.span("spin_model.symmetric_generator.n5.full_set"):
            for kx in range(6):
                for ky in range(6 - kx):
                    for kz in range(6 - kx - ky):
                        spin_model.symmetric_generator(5, kx, ky, kz)
        with tracer.span("cli.main.closure"):
            doc = _cli(["closure", "--n", "3"])
        return [] if doc["generated_dim"] == derived_dim(3) else ["cli closure dim"]


def identity_table(results) -> dict:
    return {r["name"]: r["measured_rhs"] for r in results}


def compare_identities(n, results, recorded) -> str | None:
    got = identity_table(results)
    if set(got) != set(recorded):
        return f"n={n}: identity catalog names differ from the recorded table"
    for name, terms in recorded.items():
        want = {tuple(t): c for c, t in terms}
        have = {tuple(t): c for c, t in got[name]}
        if set(want) != set(have) or any(abs(want[t] - have[t]) > 1e-9 for t in want):
            return f"n={n}: identity {name} coefficients {got[name]} != recorded {terms}"
    return None


WORKLOADS = {w.name: w for w in (CompileSU4, PulseReplay, DriveSweep, LieAnalysis)}
