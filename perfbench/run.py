"""symspin benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload compile_su4 --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports symspin from ``src/``.  Set-up
is timed SETUP_REPEATS times, each in a fresh interpreter, and run once
more, untimed, in this process; then operations run one after another
until their summed latency reaches ``--seconds`` and the current round of
input kinds is complete.  Every operation's outputs are checked outside
the timed interval.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced phase, then as many operations again on the next inputs with a
span around every call into a symspin layer, and prints the per-layer
metrics with the tracing overhead.  Latencies are stated at a reference
machine speed (see speed.py).  The last line of standard output is the JSON result; earlier
lines are the human-readable table and the environment.  Exit code 0 when
every gate passed, 1 when any failed, 2 on a usage or set-up error.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: with OpenBLAS's
# default threading on two cores, one 40-segment n=6 unitary evolve took
# 0.52-1.13 s instead of a steady 0.055 s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPEATS = 5
SETUP_CAL_S = 0.01  # calibration time around each timed set-up
UNTIMED_OP = -100  # operation id of the spans of untimed checks
# Stop the untraced phase early if a round runs far past --seconds, so a
# pathologically slow commit still ends within the harness's time limit.
PHASE_CAP_S = 70.0

# A cold set-up, timed inside a fresh interpreter: the import of symspin
# (numpy and scipy included) and the workload's set-up.  Loading the
# benchmark's reference file is left out.  argv: workload, seed.
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import symspin
import workloads
from spans import Tracer
t1 = time.perf_counter()
reference = workloads.load_reference()
t2 = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), reference).setup(Tracer(enabled=False))
print(t1 - t0 + time.perf_counter() - t2)
"""


def _fail(message: str, code: int = 2):
    print(json.dumps({"error": message}), file=sys.stderr)
    sys.exit(code)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "symspin", "__init__.py")):
        _fail(f"no symspin sources under {os.path.relpath(SRC, ROOT)}/")
    sys.path.insert(0, SRC)
    import symspin

    if os.path.dirname(os.path.dirname(os.path.abspath(symspin.__file__))) != SRC:
        _fail("imported a symspin that is not this checkout's")


def _child_setup_s(workload: str, seed: int) -> float:
    """Time of one cold set-up, measured inside a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, workload, str(seed)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(done.stderr.strip()[-500:])
    return float(done.stdout.strip().splitlines()[-1])


def _blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports, by library file name."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                            pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[os.path.basename(path)] = fn()
                    break
    return found


def environment(seed: int, held_out: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "held_out_seed": held_out,
    }


def run_phase(wl, tracer, seconds: float, n_ops: int | None = None, start: int = 0) -> dict:
    """Run operations ``start``, ``start + 1``, ... until their summed latency
    reaches ``seconds`` and a round is complete (or exactly ``n_ops`` of
    them), calibrating the machine's speed in gaps between operation steps.
    Returns raw and reference-speed latencies, the verified-op count and
    failure messages."""
    from speed import SpeedProbe

    probe = SpeedProbe(wl.speed_kernel)
    latencies, parts, failures, verified = [], [], [], 0
    wall0 = time.perf_counter()
    i = start
    while True:
        if n_ops is not None:
            if i >= start + n_ops:
                break
        elif i % wl.round_len == 0 and (
            sum(latencies) >= seconds or time.perf_counter() - wall0 > PHASE_CAP_S
        ):
            break
        tracer.op = i
        outs, error, timed = [], None, []
        for step in wl.op_steps(i, tracer):
            gap = probe.before_op()
            t0 = time.perf_counter()
            try:
                outs.append(step())
            except Exception as exc:  # a failing operation is data, not a crash
                error = f"{type(exc).__name__}: {exc}"
            timed.append((time.perf_counter() - t0, gap))
            probe.after_op(timed[-1][0])
            if error is not None:
                break
        latencies.append(sum(t for t, _ in timed))
        parts.append(timed)
        if error is None:
            error = wl.check(i, outs[0] if len(outs) == 1 else outs)
        if error is None:
            verified += 1
        else:
            failures.append(f"op {i}: {error}")
        i += 1
    probe.finish()
    return {
        "raw": latencies,
        "ref": [sum(t * probe.factor(g) for t, g in timed) for timed in parts],
        "verified": verified,
        "failures": failures,
    }


def tail(latencies, pct: float):
    """(value, samples beyond) at the ``pct`` percentile, nearest rank."""
    s = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(s)))
    return s[rank - 1], len(s) - rank


# Per-layer metrics of the traced run: (name, unit, how).  ``how`` is
# ("busy", span) for busy seconds per operation that made the call,
# ("calls", span), ("mean", counter, span) for a counter per call,
# ("ratio", counter, counter), ("gauge", counter) or ("run", key).
def _layer_specs():
    specs = []
    for n in (2, 3, 4, 5):
        specs.append((f"lie_engine.closure.n{n}.busy_s", "s", ("busy", f"lie_engine.closure.n{n}")))
        specs.append((f"lie_engine.closure.n{n}.dim", "count", ("gauge", f"lie_engine.closure.n{n}.dim")))
    for n in (2, 3, 4, 5):
        span = f"lie_engine.check_bracket_identity.n{n}"
        specs.append((span + ".busy_s", "s", ("busy", span)))
    specs += [
        ("lie_engine.check_bracket_identity.calls", "count", ("calls", "lie_engine.check_bracket_identity.n*")),
        ("spin_model.symmetric_generator.n5.busy_s", "s", ("busy", "spin_model.symmetric_generator.n5")),
        ("spin_model.symmetric_generator.n5.full_set_s", "s", ("busy", "spin_model.symmetric_generator.n5.full_set")),
        ("spin_model.is_permutation_invariant.busy_s", "s", ("busy", "spin_model.is_permutation_invariant")),
    ]
    for n in (4, 5, 6):
        specs.append((f"spin_model.hamiltonians.n{n}.busy_s", "s", ("busy", f"spin_model.hamiltonians.n{n}")))
    specs += [
        ("coordinates.block_split.busy_s", "s", ("busy", "coordinates.block_split")),
        ("coordinates.block_split.calls", "count", ("calls", "coordinates.block_split")),
        ("synthesis.synthesize.haar.busy_s", "s", ("busy", "synthesis.synthesize.haar")),
        ("synthesis.synthesize.calls", "count", ("calls", "synthesis.synthesize.*")),
        ("synthesis.synthesize.failures", "count", ("failures", "synthesis.synthesize.*")),
        ("synthesis.synthesize.steps_median", "count", ("run", "plan_steps_median")),
        ("synthesis.plan_unitary.busy_s", "s", ("busy", "synthesis.plan_unitary")),
        ("synthesis.plan_json.busy_s", "s", ("busy", "synthesis.plan_json")),
        ("synthesis.state_transfer_plan.busy_s", "s", ("busy", "synthesis.state_transfer_plan")),
        ("simulator.realize.busy_s", "s", ("busy", "simulator.realize")),
        ("simulator.realize.segments", "count", ("mean", "simulator.realize.segments", "simulator.realize")),
        ("simulator.realize.pulse_time_median", "1/J", ("run", "pulse_time_median")),
        ("simulator.evolve.state.busy_s", "s", ("busy", "simulator.evolve.state")),
        ("simulator.evolve.unitary.busy_s", "s", ("busy", "simulator.evolve.unitary")),
        ("simulator.evolve.segments", "count", ("mean", "simulator.evolve.segments", "simulator.evolve.*")),
        ("simulator.evolve.distinct_drive_share", "ratio",
         ("ratio", "simulator.evolve.distinct_drives", "simulator.evolve.segments")),
        ("tensor_core.matrix_json.busy_s", "s", ("busy", "tensor_core.matrix_json")),
        ("cli.main.synth.busy_s", "s", ("busy", "cli.main.synth")),
        ("cli.main.simulate.busy_s", "s", ("busy", "cli.main.simulate")),
        ("cli.main.closure.busy_s", "s", ("busy", "cli.main.closure")),
        ("trace.ops_per_s_untraced", "1/s", ("run", "ops_per_s_untraced")),
        ("trace.ops_per_s_traced", "1/s", ("run", "ops_per_s_traced")),
        ("trace.overhead_share", "ratio", ("run", "overhead_share")),
        ("trace.overhead_share_est", "ratio", ("run", "overhead_share_est")),
        ("trace.spans", "count", ("run", "spans")),
    ]
    return specs


LAYER_SPECS = _layer_specs()


def _rows(summary, pattern):
    if pattern.endswith("*"):
        return [row for name, row in summary.items() if name.startswith(pattern[:-1])]
    return [summary[pattern]] if pattern in summary else []


def layer_metrics(summary, probe_summary, counters, run) -> dict:
    """Per-layer metrics from the traced operations' spans; the ``cli.*``
    and full-set metrics come from the probe's spans."""
    out = {}
    for name, unit, how in LAYER_SPECS:
        kind = how[0]
        if kind == "busy":
            probed = name.startswith("cli.") or name.endswith(".full_set_s")
            rows = _rows(probe_summary if probed else summary, how[1])
            value = rows[0]["total_s"] / rows[0]["ops"] if rows else 0.0
        elif kind == "calls":
            value = sum(r["calls"] for r in _rows(summary, how[1]))
        elif kind == "failures":
            prefix = how[1][:-1]
            value = sum(v for k, v in counters.items()
                        if k.startswith(prefix) and k.endswith(".failures"))
        elif kind == "mean":
            calls = sum(r["calls"] for r in _rows(summary, how[2]))
            value = counters.get(how[1], 0.0) / calls if calls else 0.0
        elif kind == "ratio":
            den = counters.get(how[2], 0.0)
            value = counters.get(how[1], 0.0) / den if den else 0.0
        elif kind == "gauge":
            value = counters.get(how[1], 0.0)
        else:
            value = run.get(how[1], 0.0)
        out[name] = {"value": float(value), "unit": unit}
    return out


def _patch_table(tracer):
    """Every public symspin function the program calls internally, as
    (module, attribute, span namer, counter hook) rows."""
    from symspin import cli, coordinates, lie_engine, simulator, spin_model, synthesis
    from symspin import tensor_core

    def n_of(mat):
        return mat.shape[0].bit_length() - 1

    def closure_dim(tr, basis, gens):
        tr.counters[f"lie_engine.closure.n{n_of(gens[0])}.dim"] = basis.dim

    def realized(tr, schedule, plan, amplitude):
        tr.count("simulator.realize.segments", len(schedule.segments))

    def evolved(tr, out, schedule, initial):
        tr.count("simulator.evolve.segments", len(schedule.segments))
        tr.count("simulator.evolve.distinct_drives",
                 len({(s.ux, s.uy) for s in schedule.segments}))

    def evolve_name(schedule, initial):
        kind = "state" if isinstance(initial, spin_model.SpinState) else "unitary"
        return f"simulator.evolve.{kind}"

    def fixed(name):
        return lambda *a, **k: name

    table = [
        (lie_engine, "closure", lambda gens: f"lie_engine.closure.n{n_of(gens[0])}", closure_dim),
        (lie_engine, "check_bracket_identity",
         lambda ident: f"lie_engine.check_bracket_identity.n{ident.n}", None),
        (lie_engine, "symmetric_generator",
         lambda n, *a: f"spin_model.symmetric_generator.n{n}", None),
        (lie_engine, "is_permutation_invariant", fixed("spin_model.is_permutation_invariant"), None),
        (coordinates, "block_split", fixed("coordinates.block_split"), None),
        (synthesis, "synthesize", lambda n, *a, **k: f"synthesis.synthesize.{tracer.tag}", None),
        (synthesis, "state_transfer_plan", fixed("synthesis.state_transfer_plan"), None),
        (synthesis, "plan_unitary", fixed("synthesis.plan_unitary"), None),
        (synthesis, "plan_to_json", fixed("synthesis.plan_json"), None),
        (synthesis, "plan_from_json", fixed("synthesis.plan_json"), None),
        (simulator, "realize", fixed("simulator.realize"), realized),
        (simulator, "evolve", evolve_name, evolved),
        (simulator, "schedule_from_json", fixed("simulator.schedule_json"), None),
        (simulator, "gate_fidelity", fixed("simulator.gate_fidelity"), None),
        (simulator, "state_fidelity", fixed("simulator.state_fidelity"), None),
    ]
    for attr in ("hamiltonian_zz", "hamiltonian_x", "hamiltonian_y"):
        table.append((simulator, attr, lambda n: f"spin_model.hamiltonians.n{n}", None))
    for module in (tensor_core, cli):
        for attr in ("matrix_to_json", "matrix_from_json"):
            table.append((module, attr, fixed("tensor_core.matrix_json"), None))
    return table


def _untimed_checks(wl, tracer) -> list:
    tracer.op = UNTIMED_OP
    try:
        return wl.untimed_checks(tracer)
    except Exception as exc:  # reported as a failed check
        return [f"{type(exc).__name__}: {exc}"]


def _span_cost_s(n: int = 20000) -> float:
    """Calibrated cost of one empty span on this machine."""
    from spans import Tracer

    probe = Tracer(enabled=True)
    t0 = time.perf_counter()
    for _ in range(n):
        with probe.span("calibration"):
            pass
    return (time.perf_counter() - t0) / n


def _print_table(title, rows):
    print(f"== {title}")
    for name, value, unit, note in rows:
        print(f"  {name:<46} {value:>14.6g} {unit:<6} {note}")


WORKLOAD_NAMES = ("compile_su4", "pulse_replay", "drive_sweep", "lie_analysis")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    _import_program()
    import workloads
    from spans import Tracer
    from speed import SpeedProbe

    reference = workloads.load_reference()
    workload_class = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    traced = bool(args.trace)
    tracer = Tracer(enabled=traced)

    # Timed set-ups, each cold in a fresh interpreter, so that no program
    # cache warmed by an earlier set-up shortens a later one.  Then the
    # run's own set-up in this process, untimed (traced in a traced run).
    probe = SpeedProbe(workload_class.speed_kernel)
    setup_raw, setup_gaps = [], []
    try:
        for _ in range(SETUP_REPEATS):
            setup_gaps.append(probe.sample(SETUP_CAL_S))
            setup_raw.append(_child_setup_s(args.workload, args.seed))
        probe.sample(SETUP_CAL_S)
        tracer.op = -1
        wl = workload_class(args.seed, reference)
        if traced:
            with tracer.patched(_patch_table(tracer)):
                wl.setup(tracer)
        else:
            wl.setup(tracer)
    except Exception as exc:  # a failed set-up gate or a broken program
        _fail(f"set-up failed: {type(exc).__name__}: {exc}", 1)
    setup_ref = [s * probe.factor(g) for s, g in zip(setup_raw, setup_gaps)]
    wl.out_dir = OUT

    # The untraced phase gives the end-to-end numbers in either mode.
    phase = run_phase(wl, Tracer(enabled=False), args.seconds)
    lat, raw = phase["ref"], phase["raw"]
    verified, failures = phase["verified"], phase["failures"]
    attempted = len(lat)
    ops_per_s = verified / sum(lat)
    figures = wl.quality()  # run-level figures, per-layer metrics of kind "run"
    tail_s, beyond = tail(lat, wl.tail_pct)
    raw_tail = tail(raw, wl.tail_pct)[0]
    e2e = {
        "ops_per_s": (ops_per_s, "1/s",
                      f"{verified} verified ops in {sum(lat):.3f} s at reference speed; "
                      f"raw {verified / sum(raw):.6g} in {sum(raw):.3f} s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms",
                      f"{attempted} samples; raw {1e3 * statistics.median(raw):.6g}"),
        "op_tail_ms": (1e3 * tail_s, "ms", f"p{wl.tail_pct:g}, {beyond} samples beyond, "
                       f"{attempted} samples; raw {1e3 * raw_tail:.6g}"),
        "fail_rate": ((attempted - verified) / attempted, "ratio",
                      f"{attempted - verified} of {attempted} failed"),
        "setup_s": (statistics.median(setup_ref), "s",
                    f"median of {SETUP_REPEATS} cold set-ups; raw " + ", ".join(f"{t:.3f}" for t in setup_raw)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
    }
    if "plan_steps_median" in figures:
        e2e["plan_steps_median"] = (figures["plan_steps_median"], "count", "gate <= 30")
        e2e["pulse_time_median"] = (figures["pulse_time_median"], "1/J",
                                    f"realize at amplitude {workloads.REALIZE_AMPLITUDE:g}")
        # Criterion 7's gate on plan length, over the whole run.
        if figures["plan_steps_median"] > 30:
            failures.append(f"plan_steps_median {figures['plan_steps_median']} > 30")

    if not traced:
        untimed = _untimed_checks(wl, Tracer(enabled=False))
    else:
        with tracer.patched(_patch_table(tracer)):
            # As many operations again, on the next inputs of the stream.
            again = run_phase(wl, tracer, args.seconds, attempted, start=attempted)
            untimed = _untimed_checks(wl, tracer)
        # The CLI probe has its own tracer, so its calls are not counted
        # as calls made by the workload's operations.
        cli_tracer = Tracer(enabled=True)
        with cli_tracer.patched(_patch_table(cli_tracer)):
            try:
                probe_fail = wl.probe(cli_tracer)
            except Exception as exc:  # reported as a failed probe operation
                probe_fail = [f"probe: {type(exc).__name__}: {exc}"]
        failures += again["failures"] + probe_fail
        attempted += len(again["ref"]) + 1
        verified += again["verified"] + (0 if probe_fail else 1)
        figures["ops_per_s_untraced"] = ops_per_s
        figures["ops_per_s_traced"] = again["verified"] / sum(again["ref"])
        figures["overhead_share"] = sum(again["ref"]) / sum(lat) - 1
        figures["spans"] = len(tracer.spans)
        figures["overhead_share_est"] = len(tracer.spans) * _span_cost_s() / sum(raw)
        for name, tr in (("spans", tracer), ("spans-probe", cli_tracer)):
            tr.write(os.path.join(OUT, f"{name}-{args.workload}-seed{args.seed}.jsonl"))

    failures += [f"untimed check: {u}" for u in untimed if u is not None]
    attempted += len(untimed)
    verified += sum(u is None for u in untimed)

    env = environment(args.seed, workloads.HELD_OUT_SEED)
    print(f"symspin benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env))
    _print_table("end to end (untraced)", [(k, v, u, note) for k, (v, u, note) in e2e.items()])
    result = {"workload": args.workload, "trace": args.trace, "environment": env,
              "end_to_end": {k: {"value": v, "unit": u, "note": note}
                             for k, (v, u, note) in e2e.items()},
              "failures": failures[:50]}
    if traced:
        summary, probe_summary = tracer.summary(), cli_tracer.summary()
        for title, table in (("spans of the traced operations", summary),
                             ("spans of the CLI probe", probe_summary)):
            print(f"== {title} (self time excludes child spans; no layer waits "
                  "on a queue or process, so wait time is 0)")
            print(f"  {'span':<46} {'calls':>7} {'ops':>6} {'total_s':>10} {'self_s':>10}")
            for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
                print(f"  {name:<46} {row['calls']:>7} {row['ops']:>6} "
                      f"{row['total_s']:>10.4f} {row['self_s']:>10.4f}")
        layers = layer_metrics(summary, probe_summary, tracer.counters, figures)
        _print_table("per layer", [(k, m["value"], m["unit"], "") for k, m in layers.items()])
        print(f"tracing overhead: {figures['overhead_share']:+.2%} measured "
              f"(ops_per_s untraced {ops_per_s:.4g}, traced {figures['ops_per_s_traced']:.4g}); "
              f"{figures['overhead_share_est']:+.2%} from {figures['spans']} spans at the "
              "calibrated span cost")
        result["per_layer"] = layers
        metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in layers.items()}
    else:
        names = [m["name"] for m in _benchmark_spec()["end_to_end"]]
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in names}
    for f in failures[:10]:
        print("FAILED " + f)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    failed = attempted - verified
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _benchmark_spec() -> dict:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
