"""Command-line front end with JSON input and output.

Exit codes: 0 on success, 1 on validation failure (bad data), 2 on usage
errors.  Errors are reported as one-line JSON objects on standard error
so callers can parse them.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import acceptance, coordinates, lie_engine, simulator, synthesis
from .spin_model import (
    N_MAX,
    SpinState,
    dicke_basis,
    ghz_state,
    hamiltonian_x,
    hamiltonian_y,
    hamiltonian_zz,
    ket,
    is_permutation_invariant,
    phi_state,
    state_from_json,
    state_to_json,
    w_state,
)
from .tensor_core import matrix_from_json, matrix_to_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": message}), file=sys.stderr)
        self.exit(2)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _named_state(n: int, spec: str) -> SpinState:
    if spec == "ghz":
        return ghz_state(n)
    if spec == "w":
        return w_state(n)
    if spec.startswith("phi:"):
        return phi_state(n, int(spec.split(":", 1)[1]))
    if spec.startswith("ket:"):
        return ket(n, spec.split(":", 1)[1])
    state = state_from_json(_load_json(spec))
    if state.n != n:
        raise ValueError(f"state file is for n={state.n}, expected n={n}")
    return state


def _cmd_model(args):
    return {
        "n": args.n,
        "h_zz": matrix_to_json(hamiltonian_zz(args.n)),
        "h_x": matrix_to_json(hamiltonian_x(args.n)),
        "h_y": matrix_to_json(hamiltonian_y(args.n)),
    }, 0


def _cmd_closure(args):
    return lie_engine.closure_report(args.n), 0


def _cmd_invariance(args):
    mat = matrix_from_json(_load_json(args.matrix))
    if mat.shape != (2**args.n, 2**args.n):
        raise ValueError(f"matrix has shape {mat.shape}, expected 2^n x 2^n")
    return {"n": args.n, "invariant": is_permutation_invariant(mat)}, 0


def _cmd_basis(args):
    if args.n == 2:
        t = coordinates.basis_T()
        return {
            "n": 2,
            "t": matrix_to_json(t.matrix),
            "t_hat": matrix_to_json(coordinates.basis_T_hat()),
            "a_x": matrix_to_json(synthesis.A_X),
            "a_y": matrix_to_json(synthesis.A_Y),
            "a_zz": matrix_to_json(synthesis.A_ZZ),
        }, 0
    m = coordinates.basis_M()
    return {
        "n": 3,
        "m": matrix_to_json(m.matrix),
        "mhx": matrix_to_json(coordinates.conjugate(m, -1j * hamiltonian_x(3))),
        "mhy": matrix_to_json(coordinates.conjugate(m, -1j * hamiltonian_y(3))),
        "mhzz": matrix_to_json(coordinates.conjugate(m, -1j * hamiltonian_zz(3))),
        "b_x": matrix_to_json(synthesis.BX),
        "b_y": matrix_to_json(synthesis.BY),
        "b_zz": matrix_to_json(synthesis.BZZ),
    }, 0


def _cmd_identities(args):
    return {"n": args.n, "identities": lie_engine.identity_results(args.n)}, 0


def _cmd_synth(args):
    target = matrix_from_json(_load_json(args.target))
    plan = synthesis.synthesize(args.n, target)
    payload = synthesis.plan_to_json(plan)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    return payload, 0


def _cmd_transfer(args):
    src = _named_state(args.n, args.source)
    dst = _named_state(args.n, args.dest)
    plan = synthesis.state_transfer_plan(args.n, src, dst)
    payload = synthesis.plan_to_json(plan)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    return payload, 0


def _symmetric_embed(n: int, coords) -> SpinState:
    return SpinState(n=n, amplitudes=dicke_basis(n) @ coords)


def _cmd_simulate(args):
    plan = synthesis.plan_from_json(_load_json(args.schedule))
    n = plan.n
    report = {"n": n, "mode": "pulsed" if args.amplitude else "ideal"}

    target_state = target_matrix = None
    if args.target:
        try:
            target_state = _named_state(n, args.target)
        except (ValueError, json.JSONDecodeError, KeyError):
            target_matrix = matrix_from_json(_load_json(args.target))
        report["target_ref"] = args.target

    if args.amplitude:
        schedule = simulator.realize(plan, args.amplitude)
        if args.initial:
            final = simulator.evolve(schedule, _named_state(n, args.initial))
            report["final_state"] = state_to_json(final)
            if target_state is not None:
                report["fidelity"] = simulator.state_fidelity(final, target_state)
        else:
            full = simulator.evolve(schedule, np.eye(2**n, dtype=complex))
            basis = dicke_basis(n)
            block = basis.conj().T @ full @ basis
            report["final_unitary"] = matrix_to_json(block)
            if target_matrix is not None:
                report["fidelity"] = simulator.gate_fidelity(target_matrix, block)
    else:
        block = synthesis.plan_unitary(plan)
        if args.initial:
            src = _named_state(n, args.initial)
            coords = synthesis._symmetric_coords(n, src)
            final = _symmetric_embed(n, block @ coords)
            report["final_state"] = state_to_json(final)
            if target_state is not None:
                report["fidelity"] = simulator.state_fidelity(final, target_state)
        else:
            report["final_unitary"] = matrix_to_json(block)
            if target_matrix is not None:
                report["fidelity"] = simulator.gate_fidelity(target_matrix, block)
                tr = np.trace(target_matrix.conj().T @ block)
                ph = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
                report["reconstruction_error"] = float(
                    np.max(np.abs(block - ph * target_matrix))
                )
    return report, 0


def _cmd_verify_all(args):
    result = acceptance.run_all()
    return result, 0 if result["all_passed"] else 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="symspin")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("model", parents=[], help="dump the Hamiltonians")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("closure", help="closure and dimension comparison")
    p.add_argument("--n", type=int, choices=range(2, 6), required=True)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("invariance", help="permutation-invariance check")
    p.add_argument("--n", type=int, choices=range(2, N_MAX + 1), required=True)
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_invariance)

    p = sub.add_parser("basis", help="dump adapted bases and block generators")
    p.add_argument("--n", type=int, choices=(2, 3), required=True)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("identities", help="evaluate the bracket catalog")
    p.add_argument("--n", type=int, choices=(3, 4, 5), required=True)
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("synth", help="synthesize a symmetric-block unitary")
    p.add_argument("--n", type=int, choices=(2, 3), required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("transfer", help="plan a symmetric state transfer")
    p.add_argument("--n", type=int, choices=(2, 3), required=True)
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="dest", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("simulate", help="replay a plan ideally or with pulses")
    p.add_argument("--schedule", required=True)
    p.add_argument("--initial")
    p.add_argument("--amplitude", type=float)
    p.add_argument("--target")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify-all", help="run the acceptance suite")
    p.set_defaults(func=_cmd_verify_all)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verb == "model" and not 2 <= args.n <= N_MAX:
        parser.error(f"model needs 2 <= n <= {N_MAX} (the zz coupling needs pairs)")
    try:
        payload, code = args.func(args)
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(json.dumps({"error": f"invalid JSON: {exc}"}), file=sys.stderr)
        return 1
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
