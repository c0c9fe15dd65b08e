"""Every input boundary rejects all-NaN data cleanly.

Each call below once accepted NaN (a comparison with NaN is always false)
or failed deep inside numpy or scipy.  Now each raises ValueError, or for
the invariance predicate returns False, and leaks no numpy warning.
"""

import warnings

import numpy as np
import pytest

from symspin import coordinates, simulator, synthesis
from symspin.spin_model import SpinState, ghz_state, is_permutation_invariant
from symspin.tensor_core import TAU_INPUT, matrix_from_json, require_unitary

NAN = float("nan")


def _nan(dim):
    return np.full((dim, dim), NAN, dtype=complex)


_NAN_CALLS = [
    ("SpinState", lambda: SpinState(1, [NAN, 0]), ValueError),
    ("is_permutation_invariant", lambda: is_permutation_invariant(_nan(8)), False),
    ("gate_fidelity", lambda: simulator.gate_fidelity(_nan(4), np.eye(4)), ValueError),
    ("su2_two_axis", lambda: synthesis.su2_two_axis(_nan(2)), ValueError),
    ("k_factor_plan", lambda: synthesis.k_factor_plan(_nan(4)), ValueError),
    ("torus_factor_plan", lambda: synthesis.torus_factor_plan(_nan(4)), ValueError),
    ("synthesize_n2", lambda: synthesis.synthesize(2, _nan(3)), ValueError),
    ("kak_su3", lambda: synthesis.kak_su3(_nan(3)), ValueError),
    ("kak_aiii_su4", lambda: synthesis.kak_aiii_su4(_nan(4)), ValueError),
    ("synthesize_n3", lambda: synthesis.synthesize(3, _nan(4)), ValueError),
    (
        "block_split",
        lambda: coordinates.block_split(coordinates.basis_M(), _nan(8)),
        ValueError,
    ),
    (
        "plan_from_json",
        lambda: synthesis.plan_from_json(
            {"n": 3, "steps": [{"gen": "BX", "t": NAN}], "phase": 0.0,
             "reconstruction_error": 0.0}
        ),
        ValueError,
    ),
    (
        "state_transfer_plan",
        lambda: synthesis.state_transfer_plan(3, np.full(8, NAN), ghz_state(3)),
        ValueError,
    ),
    (
        "evolve",
        lambda: simulator.evolve(
            simulator.PulseSchedule(2, [simulator.PulseSegment(1.0, 0.0, 0.5)]), _nan(4)
        ),
        ValueError,
    ),
    ("state_fidelity", lambda: simulator.state_fidelity(np.full(4, NAN), np.eye(4)[0]), ValueError),
    (
        "realize",
        lambda: simulator.realize(synthesis.SynthesisPlan(3, [("BZZ", 1.0)]), NAN),
        ValueError,
    ),
    (
        "matrix_from_json",
        lambda: matrix_from_json({"dim": 2, "entries": [[[NAN, 0], [0, 0]]] * 2}),
        ValueError,
    ),
]


@pytest.mark.parametrize(
    "call, expected", [c[1:] for c in _NAN_CALLS], ids=[c[0] for c in _NAN_CALLS]
)
def test_all_nan_input_is_rejected_without_warnings(call, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if expected is ValueError:
            with pytest.raises(ValueError):
                call()
        else:
            assert call() is expected


def test_require_unitary_returns_array_and_determinant():
    w = np.exp(2j * np.pi / 3) * np.eye(3)
    a = require_unitary(w.tolist(), 3, "input")
    assert isinstance(a, np.ndarray) and a.dtype == complex
    a, det = require_unitary(w, 3, "input", special=True)
    assert det == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "a, special",
    [
        (np.eye(2), False),  # wrong shape
        (np.ones((3, 3)), False),  # not unitary
        (np.full((3, 3), np.inf), False),  # non-finite, must not warn
        (np.exp(0.3j) * np.eye(3), True),  # unitary, determinant not 1
        ((1 + 10 * TAU_INPUT) * np.eye(3), False),  # just outside the tolerance
    ],
)
def test_require_unitary_rejects(a, special):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            require_unitary(a, 3, "input", special=special)


def test_require_unitary_accepts_within_tolerance():
    require_unitary((1 + 0.1 * TAU_INPUT) * np.eye(3), 3, "input", special=True)
