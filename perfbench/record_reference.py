"""Record the reference outputs that the benchmark gates against.

    python3 perfbench/record_reference.py [SECTION ...]

Writes perfbench/reference.json from the program in this checkout's
``src/``.  Sections: ``identities`` (the measured bracket-identity
coefficients for n = 2..5), ``pulse_replay`` (the GHZ/W transfer plans and
their pulsed infidelities at each replay amplitude) and ``drive_sweep``
(the final states of the first operations for the recorded seeds).  With
sections named, only those are re-recorded and the others are kept from
the existing file; with none, all are.  Re-record only when a change is
meant to alter these outputs, and say so.
"""

from __future__ import annotations

import json
import os
import sys

import run  # pins BLAS threads before numpy is imported

run._import_program()

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from symspin import lie_engine, synthesis  # noqa: E402

OFF = Tracer(enabled=False)


def identities() -> dict:
    return {"identities": {
        str(n): workloads.identity_table(lie_engine.closure_report(n)["identity_results"])
        for n in (2, 3, 4, 5)
    }}


def pulse_replay() -> dict:
    out = {"pulse_replay_plans": {}, "pulse_replay": {}}
    pulse = workloads.PulseReplay(1, {"pulse_replay_plans": {}})
    pulse.setup(OFF)
    for entry in pulse.entries:
        if entry["dest"] is not None:
            out["pulse_replay_plans"][entry["name"]] = synthesis.plan_to_json(entry["plan"])
    for i, (entry, amplitude) in enumerate(pulse.combos):
        if entry["dest"] is None:
            continue
        _, _, final, _, _, gate_fid = pulse.op(pulse.inputs(i), OFF)
        state = 1 - abs(np.vdot(entry["dest"].amplitudes, final.amplitudes)) ** 2
        out["pulse_replay"].setdefault(entry["name"], {})[f"{amplitude:g}"] = {
            "state": float(state), "gate": float(1 - gate_fid)}
    return out


def drive_sweep() -> dict:
    out = {}
    for seed in workloads.RECORDED_SEEDS:
        drive = workloads.DriveSweep(seed, {"drive_sweep": {}})
        drive.setup(OFF)
        out[str(seed)] = [
            [[float(z.real), float(z.imag)] for z in drive.op(drive.inputs(i), OFF)[1]]
            for i in range(workloads.RECORDED_OPS)
        ]
    return {"drive_sweep": out}


SECTIONS = {"identities": identities, "pulse_replay": pulse_replay, "drive_sweep": drive_sweep}


def main(argv) -> int:
    unknown = [a for a in argv if a not in SECTIONS]
    if unknown:
        print(f"unknown sections {unknown}; choose from {sorted(SECTIONS)}", file=sys.stderr)
        return 2
    ref = workloads.load_reference() if argv else {}
    for name in argv or SECTIONS:
        ref.update(SECTIONS[name]())
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(workloads.REFERENCE_PATH)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
