"""Fast smoke test of the benchmark harness (about a minute).

    python3 perfbench/smoke.py

Runs every workload for a fraction of a second, untraced and traced, and
checks the result line against BENCHMARK.json: exactly the contract keys,
every gate passed, and every metric named there present with its unit.
Then checks that the gates reject corrupted outputs, and that the harness
fails without printing a result when the program's sources are missing.
Exit code 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "0.2"


def _run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_runs(spec) -> list:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = _run(ROOT, workload, trace)
            where = f"{workload} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = result["metrics"]
            if set(got) != set(want):
                problems.append(f"{where}: metric names differ: {sorted(set(got) ^ set(want))}")
            for name, m in got.items():
                if not isinstance(m["value"], (int, float)) or m["unit"] != want.get(name):
                    problems.append(f"{where}: bad metric {name}: {m}")
            if trace == 0:
                for name in want:
                    if name in got and not got[name]["value"] > 0:
                        problems.append(f"{where}: {name} is not positive")
            print(f"ok {where}: {result['attempted']} ops", flush=True)
    return problems


def check_gates() -> list:
    """Each workload's check() must reject a corrupted output."""
    sys.argv = sys.argv[:1]
    sys.path.insert(0, HERE)
    import run

    run._import_program()
    import numpy as np

    import workloads
    from spans import Tracer

    off = Tracer(enabled=False)
    reference = workloads.load_reference()
    problems = []

    def expect_reject(name, wl, i, out):
        if wl.check(i, out) is None:
            problems.append(f"{name}: a corrupted output passed the gate")

    wl = workloads.CompileSU4(3, reference)
    wl.setup(off)
    plan, replay, fidelity, schedule = wl.op(wl.inputs(0), off)
    if wl.check(0, (plan, replay, fidelity, schedule)) is not None:
        problems.append("compile_su4: a good output failed the gate")
    expect_reject("compile_su4", wl, 0, (plan, replay, 1 - 2e-8, schedule))

    wl = workloads.PulseReplay(3, reference)
    wl.setup(off)
    i = next(k for k, (e, a) in enumerate(wl.combos) if e["name"] == "ghz3" and a == 1000.0)
    entry, amplitude, final, full, state_fid, gate_fid = wl.op(wl.inputs(i), off)
    expect_reject("pulse_replay", wl, i, (entry, amplitude, final, full, state_fid, gate_fid - 1e-9))

    wl = workloads.DriveSweep(3, reference)
    wl.setup(off)
    inputs, final, full = wl.op(wl.inputs(0), off)
    bent = final * np.exp(1j * 1e-6 * np.arange(final.size))
    expect_reject("drive_sweep", wl, 0, (inputs, bent / np.linalg.norm(bent), full))

    wl = workloads.LieAnalysis(3, reference)
    wl.setup(off)
    n, report, forms = wl.analyse(2)
    report["identity_results"][0]["measured_rhs"][0][0] += 1e-6
    expect_reject("lie_analysis", wl, 0, [(n, report, forms)])
    print("ok gates reject corrupted outputs", flush=True)
    return problems


def check_bare_directory(spec) -> list:
    """Only BENCHMARK.json and the benchmark's files: must fail, print no result."""
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    print("ok bare directory fails without a result", flush=True)
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_bare_directory(spec) + check_runs(spec) + check_gates()
    for p in problems:
        print("FAIL " + p)
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
