"""End-to-end checks of the command-line interface."""

import json

import numpy as np
import pytest

from symspin.cli import main
from symspin.spin_model import state_from_json, w_state
from symspin.tensor_core import matrix_to_json


def _run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors raise instead of returning
        code = int(exc.code or 0)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _haar_su4(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.exp(-1j * np.angle(np.diag(r))))
    return q * np.exp(-1j * np.angle(np.linalg.det(q)) / 4)


def test_model_dumps_hamiltonians(capsys):
    code, out, _ = _run(capsys, "model", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert set(doc) >= {"h_zz", "h_x", "h_y"}
    assert doc["h_zz"]["dim"] == 4


def test_model_rejects_single_spin(capsys):
    code, _, err = _run(capsys, "model", "--n", "1")
    assert code == 2
    assert "error" in json.loads(err)


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = _run(capsys, "closure", "--n", "2", "--bogus")
    assert code == 2


def test_closure_verb_reports_dimensions(capsys):
    code, out, _ = _run(capsys, "closure", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["generated_dim"] == 9
    assert doc["predicted_dim"] == 9


def test_invariance_verb_round_trips_matrix_file(capsys, tmp_path):
    from symspin.spin_model import hamiltonian_y

    path = tmp_path / "mat.json"
    path.write_text(json.dumps(matrix_to_json(hamiltonian_y(3))))
    code, out, _ = _run(capsys, "invariance", "--n", "3", "--matrix", str(path))
    assert code == 0
    assert json.loads(out)["invariant"] is True


def test_basis_verb_dumps_conjugated_generators(capsys):
    code, out, _ = _run(capsys, "basis", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert {"t", "t_hat", "a_x", "a_y", "a_zz"} <= set(doc)


def test_identities_verb(capsys):
    code, out, _ = _run(capsys, "identities", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    names = {r["name"] for r in doc["identities"]}
    assert "base" in names


def test_synth_then_simulate_round_trip(capsys, tmp_path):
    target_path = tmp_path / "target.json"
    plan_path = tmp_path / "plan.json"
    target_path.write_text(json.dumps(matrix_to_json(_haar_su4(2))))

    code, _, _ = _run(
        capsys, "synth", "--n", "3",
        "--target", str(target_path), "--out", str(plan_path),
    )
    assert code == 0
    plan_doc = json.loads(plan_path.read_text())
    assert plan_doc["n"] == 3

    code, out, _ = _run(
        capsys, "simulate", "--schedule", str(plan_path),
        "--target", str(target_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "ideal"
    assert report["fidelity"] > 1 - 1e-8
    # replayed error must agree with the recorded one up to a factor of two
    assert report["reconstruction_error"] <= 2 * plan_doc["reconstruction_error"] + 1e-12


def test_transfer_then_simulate_reaches_w_state(capsys, tmp_path):
    plan_path = tmp_path / "transfer.json"
    code, out, _ = _run(capsys, "transfer", "--n", "3", "--from", "ket:000", "--to", "w")
    assert code == 0
    plan_path.write_text(out)

    code, out, _ = _run(
        capsys, "simulate", "--schedule", str(plan_path),
        "--initial", "ket:000", "--target", "w",
    )
    assert code == 0
    report = json.loads(out)
    assert report["fidelity"] > 1 - 1e-6
    final = state_from_json(report["final_state"])
    overlap = abs(np.vdot(w_state(3).amplitudes, final.amplitudes)) ** 2
    assert overlap > 1 - 1e-6


def test_simulate_pulsed_mode(capsys, tmp_path):
    plan_path = tmp_path / "transfer.json"
    _, out, _ = _run(capsys, "transfer", "--n", "2", "--from", "ket:00", "--to", "ghz")
    plan_path.write_text(out)
    code, out, _ = _run(
        capsys, "simulate", "--schedule", str(plan_path),
        "--initial", "ket:00", "--target", "ghz", "--amplitude", "1000",
    )
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "pulsed"
    assert report["fidelity"] > 0.995


def test_missing_schedule_file_is_validation_error(capsys, tmp_path):
    code, _, err = _run(
        capsys, "simulate", "--schedule", str(tmp_path / "nope.json")
    )
    assert code == 1
    assert "error" in json.loads(err)


def test_transfer_rejects_unknown_state_name(capsys):
    code, _, err = _run(capsys, "transfer", "--n", "3", "--from", "ket:000", "--to", "nope")
    assert code == 1
    assert "error" in json.loads(err)


def test_verify_all_exit_code_tracks_results(capsys):
    code, out, _ = _run(capsys, "verify-all")
    doc = json.loads(out)
    assert len(doc["criteria"]) == 10
    assert all({"id", "description", "passed", "details"} <= set(c) for c in doc["criteria"])
    # the exit code must reflect the verdicts, never mask them
    assert code == (0 if doc["all_passed"] else 1)


def _assert_one_line_error(code, out, err):
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert "error" in json.loads(lines[0])


@pytest.mark.parametrize(
    "verb, flag, n, dim",
    [("invariance", "--matrix", 3, 8), ("synth", "--target", 2, 3),
     ("synth", "--target", 3, 4)],
)
def test_nan_matrix_file_is_one_line_error(capsys, tmp_path, verb, flag, n, dim):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"dim": dim, "entries": [[[np.nan, 0.0]] * dim] * dim}))
    _assert_one_line_error(*_run(capsys, verb, "--n", str(n), flag, str(path)))


def test_simulate_rejects_nan_duration(capsys, tmp_path):
    path = tmp_path / "plan.json"
    plan = {"n": 3, "steps": [{"gen": "BX", "t": np.nan}], "phase": 0.0,
            "reconstruction_error": 0.0}
    path.write_text(json.dumps(plan))
    _assert_one_line_error(*_run(capsys, "simulate", "--schedule", str(path)))
