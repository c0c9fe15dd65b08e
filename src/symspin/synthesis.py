"""Decomposition of symmetric-block unitaries into executable factors.

Plans are lists of (generator tag, duration) steps, applied first step
first, over a small alphabet: AX/AY/AZZ on the two-spin block and
BX/BY/BZZ on the three-spin block.  The free-evolution tags exponentiate
the shifted diagonal generator; the pulse tags exponentiate the
conjugated drive generators.

The two-spin route is fully closed form (a type-AI Cartan factorization
of the 3x3 block plus rotation-angle bookkeeping).  The three-spin route
offers two APIs: exact structural factorizations (Cartan factors, the
two-axis subgroup solver, the stabilizer and torus factor planners) and
a direct numeric fit used by ``synthesize`` when a short factor list is
wanted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cossin, expm
from scipy.optimize import least_squares

from .coordinates import basis_M, basis_T, basis_T_hat, conjugate
from .spin_model import (
    SpinState, dicke_basis, hamiltonian_x, hamiltonian_y, hamiltonian_zz
)
from .tensor_core import require_unitary

_SQ3 = np.sqrt(3.0)
TWO_PI = 2.0 * np.pi


def _e(i, j, val=1.0, dim=4):
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = val
    return m


# --- three-spin symmetric-block generators -------------------------------
# Drive generators in the adapted frame; BX/BY are the conjugated x/y
# drives restricted to the symmetric sector, BZZ_TILDE the raw coupling
# block and BZZ its traceless shift -(BZZ_TILDE + iI)/2.

BX = 1j * np.array(
    [
        [0, _SQ3, 0, 0],
        [_SQ3, 0, 2, 0],
        [0, 2, 0, _SQ3],
        [0, 0, _SQ3, 0],
    ],
    dtype=complex,
)
BY = np.array(
    [
        [0, _SQ3, 0, 0],
        [-_SQ3, 0, 2, 0],
        [0, -2, 0, _SQ3],
        [0, 0, -_SQ3, 0],
    ],
    dtype=complex,
)
BZZ_TILDE = np.diag([-3j, 1j, 1j, -3j])
BZZ = np.diag([1j, -1j, -1j, 1j])

# The corresponding generators after a quarter-period of free evolution.
BX_HAT = expm(BZZ * (np.pi / 2)) @ BX @ expm(-BZZ * (np.pi / 2))
BY_HAT = expm(BZZ * (np.pi / 2)) @ BY @ expm(-BZZ * (np.pi / 2))

# Stabilizer-algebra constants (plane conventions: first plane couples
# coordinates 0 and 3, second plane couples 1 and 2).
A1 = 0.5 * (_e(0, 1) - _e(1, 0) + _e(2, 3) - _e(3, 2))
A2 = 0.5 * (_e(0, 3) + _e(1, 2) - _e(2, 1) - _e(3, 0))
A3 = 0.5 * (_e(0, 2) - _e(1, 3) - _e(2, 0) + _e(3, 1))
E = 0.5 * (_e(0, 3) - _e(1, 2) + _e(2, 1) - _e(3, 0))
B2 = 0.5j * (_e(0, 3) + _e(1, 2) + _e(2, 1) + _e(3, 0))
B3 = 0.5j * (_e(0, 2) - _e(1, 3) + _e(2, 0) - _e(3, 1))
F = 0.5j * (_e(0, 3) - _e(1, 2) - _e(2, 1) + _e(3, 0))
C3 = _e(0, 2) + _e(1, 3) - _e(2, 0) - _e(3, 1)

# Two-axis subgroup generators in the adapted eigenframe.
Z1 = np.diag([2j, -2j])
Z2 = np.array([[-1j, _SQ3], [-_SQ3, 1j]], dtype=complex)

# --- two-spin symmetric-block generators ----------------------------------

_T2 = basis_T()
A_X = conjugate(_T2, -1j * hamiltonian_x(2))
A_Y = conjugate(_T2, -1j * hamiltonian_y(2))
A_ZZ = conjugate(_T2, -1j * hamiltonian_zz(2))

_GENERATORS = {
    2: {"AX": A_X, "AY": A_Y, "AZZ": A_ZZ},
    3: {"BX": BX, "BY": BY, "BZZ": BZZ},
}
_FREE_TAGS = {"AZZ", "BZZ"}


# --- plan container --------------------------------------------------------


@dataclass
class SynthesisPlan:
    """Factor list for one symmetric-block unitary.

    ``steps`` are applied first entry first.  The recorded ``phase``
    satisfies target = exp(i*phase) * replayed block.
    """

    n: int
    steps: list
    phase: float = 0.0
    reconstruction_error: float = 0.0
    target: np.ndarray | None = field(default=None, repr=False)


_EXP_CACHE: dict = {}


def _tag_exp(n: int, tag: str, t: float) -> np.ndarray:
    key = (n, tag)
    if key not in _EXP_CACHE:
        gen = _GENERATORS[n][tag]
        evals, vecs = np.linalg.eigh(1j * gen)
        _EXP_CACHE[key] = (vecs, -1j * evals)
    vecs, mu = _EXP_CACHE[key]
    return (vecs * np.exp(mu * t)) @ vecs.conj().T


def plan_unitary(plan: SynthesisPlan) -> np.ndarray:
    """Ideal replay: the symmetric-block unitary the plan realizes."""
    if plan.n not in _GENERATORS:
        raise ValueError("plans are defined for n in {2, 3}")
    u = np.eye(4, dtype=complex)
    for tag, t in plan.steps:
        if tag not in _GENERATORS[plan.n]:
            raise ValueError(f"unknown generator tag {tag!r} for n={plan.n}")
        u = _tag_exp(plan.n, tag, t) @ u
    if plan.n == 2:
        return u[1:, 1:]
    return u


def plan_to_json(plan: SynthesisPlan) -> dict:
    return {
        "n": plan.n,
        "steps": [{"gen": tag, "t": float(t)} for tag, t in plan.steps],
        "phase": float(plan.phase),
        "reconstruction_error": float(plan.reconstruction_error),
    }


def plan_from_json(data: dict) -> SynthesisPlan:
    steps = [(s["gen"], float(s["t"])) for s in data["steps"]]
    if not all(np.isfinite(t) for _, t in steps):
        raise ValueError("plan has non-finite durations")
    return SynthesisPlan(
        n=int(data["n"]),
        steps=steps,
        phase=float(data["phase"]),
        reconstruction_error=float(data["reconstruction_error"]),
    )


def _merge_steps(steps) -> list:
    """Fuse adjacent same-tag steps, reduce free-evolution durations
    mod 2*pi and drop vanishing steps."""
    out: list = []
    for tag, t in steps:
        if out and out[-1][0] == tag:
            out[-1][1] += t
        else:
            out.append([tag, float(t)])
    cleaned = []
    for tag, t in out:
        if tag in _FREE_TAGS:
            t = t % TWO_PI
            if min(t, TWO_PI - t) < 1e-12:
                continue
        elif abs(t) < 1e-12:
            continue
        cleaned.append((tag, float(t)))
    return cleaned


# --- two-axis subgroup solver ----------------------------------------------


def _z_exp(tag: str, t: float) -> np.ndarray:
    if tag == "Z1":
        return np.diag([np.exp(2j * t), np.exp(-2j * t)])
    return np.cos(2 * t) * np.eye(2) + (np.sin(2 * t) / 2) * Z2


def _z_product(steps) -> np.ndarray:
    u = np.eye(2, dtype=complex)
    for tag, t in steps:
        u = _z_exp(tag, t) @ u
    return u


def _z1z2z1(v) -> list:
    """Factor v = exp(Z1 a) exp(Z2 b) exp(Z1 c); requires |v[0,0]| >= 1/2."""
    v00, v01 = v[0, 0], v[0, 1]
    # The off-diagonal magnitude determines the middle angle without the
    # sqrt-of-epsilon noise a |v00|-based formula picks up near identity.
    sin2b = min(1.0, (2.0 / np.sqrt(3.0)) * abs(v01))
    b = np.arcsin(sin2b) / 2
    if sin2b < 1e-12:
        s = np.angle(v00) / 2
        return [("Z1", s % np.pi)] if abs(s) > 1e-14 else []
    # Solve the outer phases against the replayed middle factor rather
    # than closed-form cosines: near the |v00| = 1/2 surface the cosine
    # is ill-conditioned, but the replay entries are not.
    mid = _z_exp("Z2", b)
    s = (np.angle(v00) - np.angle(mid[0, 0])) / 2
    d = (np.angle(v01) - np.angle(mid[0, 1])) / 2
    a = ((s + d) / 2) % np.pi
    c = ((s - d) / 2) % np.pi
    return [("Z1", c), ("Z2", b % np.pi), ("Z1", a)]


def su2_two_axis(target, tol: float = 1e-10) -> list:
    """Factor an SU(2) matrix over the two subgroup generators.

    Returns at most four (tag, duration) steps with durations in
    [0, pi), applied first step first.  The large-rotation branch first
    peels off a fixed quarter-period second-axis factor, which maps the
    remainder back into reach of the three-factor form.
    """
    v, det = require_unitary(target, 2, "target", special=True)
    v = v * det ** -0.5

    if abs(v[0, 0]) >= 0.5 - 1e-12:
        steps = _z1z2z1(v)
    else:
        vt = v @ _z_exp("Z2", -np.pi / 4)
        steps = [("Z2", np.pi / 4)] + _z1z2z1(vt)
    err = np.max(np.abs(_z_product(steps) - v))
    if err > tol:
        raise RuntimeError(f"two-axis factorization residual {err:.3e}")
    return steps


# --- eigenframe plans for the one-axis control groups ----------------------

_FRAME_EXPECT_BASE = np.diag([1j, -3j, 3j, -1j])
_FRAME_EXPECT_HAT = np.zeros((4, 4), dtype=complex)
_FRAME_EXPECT_HAT[:2, :2] = Z2 - 1j * np.eye(2)
_FRAME_EXPECT_HAT[2:, 2:] = Z2 + 1j * np.eye(2)

_FRAMES: dict = {}


def _axis_frame(side: str) -> np.ndarray:
    """Unitary frame in which the side's base generator is diagonal
    (i, -3i, 3i, -i) and its quarter-period conjugate takes the standard
    two-by-two block shape."""
    if side in _FRAMES:
        return _FRAMES[side]
    base, hat = (BY, BY_HAT) if side == "y" else (BX, BX_HAT)
    evals, vecs = np.linalg.eigh(1j * base)  # ascending -3, -1, 1, 3
    cols = vecs[:, [1, 3, 0, 2]]  # reorder to -i*(-1, 3, -3, 1)
    frame = cols.conj().T
    h = frame @ hat @ frame.conj().T
    for row, probe in ((1, (0, 1)), (3, (2, 3))):
        u = h[probe]
        frame[row] *= u / abs(u)
        h = frame @ hat @ frame.conj().T
    if (
        np.max(np.abs(frame @ base @ frame.conj().T - _FRAME_EXPECT_BASE)) > 1e-9
        or np.max(np.abs(h - _FRAME_EXPECT_HAT)) > 1e-9
    ):
        raise RuntimeError(f"eigenframe construction failed for side {side!r}")
    _FRAMES[side] = frame
    return frame


def _axis_plan(g, side: str) -> list:
    """Physical steps realizing ``g`` in the group generated by one drive
    direction and its quarter-period conjugate, with exact phase.

    In the eigenframe every reachable element is block-diagonal with
    blocks exp(-iT) W and exp(+iT) W; the two-axis solver produces W and
    an identity-valued gadget tops up the accumulated duration so that T
    comes out right mod 2*pi.
    """
    frame = _axis_frame(side)
    base_tag = "BY" if side == "y" else "BX"
    gm = frame @ np.asarray(g, dtype=complex) @ frame.conj().T
    off = max(np.max(np.abs(gm[:2, 2:])), np.max(np.abs(gm[2:, :2])))
    if off > 1e-9:
        raise ValueError(
            f"element is outside the {side}-axis control group "
            f"(off-block {off:.3e})"
        )
    g1, g2 = gm[:2, :2], gm[2:, 2:]
    det1 = g1[0, 0] * g1[1, 1] - g1[0, 1] * g1[1, 0]
    big_t = -np.angle(det1) / 2
    w = np.exp(1j * big_t) * g1
    if np.max(np.abs(g2 - np.exp(1j * big_t) * w)) > 1e-8:
        raise ValueError("blocks are inconsistent with the control group")

    zsteps = su2_two_axis(w)
    delta = (big_t - sum(t for _, t in zsteps)) % TWO_PI
    if min(delta, TWO_PI - delta) > 1e-12:
        # Identity gadget: J exp(Z1 a) J^-1 exp(Z1 a) == I for any a,
        # so its only effect is to add duration.
        j = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        sj, sjinv = su2_two_axis(j), su2_two_axis(-j)
        tj = sum(t for _, t in sj) + sum(t for _, t in sjinv)
        alpha = ((delta - tj) % TWO_PI) / 2
        zsteps = zsteps + [("Z1", alpha)] + sjinv + [("Z1", alpha)] + sj

    physical = []
    for tag, t in zsteps:
        if tag == "Z1":
            physical.append((base_tag, t))
        else:
            physical += [
                ("BZZ", 1.5 * np.pi),
                (base_tag, t),
                ("BZZ", 0.5 * np.pi),
            ]
    return _merge_steps(physical)


# --- plane helpers ----------------------------------------------------------

_PLANES = ((0, 3), (1, 2))
_Y_PLANE_GENS = (A2 + E, A2 - E)
_X_PLANE_GENS = (B2 + F, B2 - F)


def _plane_euler_yxy(v) -> tuple:
    """Angles (a, b, c) with v = Ry(a) Rx(b) Ry(c) for a 2x2 special
    unitary, where Ry is the real rotation and Rx the i-sigma_x one."""
    al, be = v[0, 0], v[0, 1]
    cb = np.hypot(al.real, be.real)
    sb = np.hypot(al.imag, be.imag)
    b = np.arctan2(sb, cb)
    apc = np.arctan2(be.real, al.real) if cb > 1e-14 else 0.0
    amc = np.arctan2(al.imag, be.imag) if sb > 1e-14 else 0.0
    return (apc + amc) / 2, b, (apc - amc) / 2


def _plane_pair_steps(v1, v2) -> list:
    """Steps for the block element acting as v1 on plane (0,3) and v2 on
    plane (1,2), both special unitary.

    Euler-factor both planes with the same axis pattern, then fuse the
    matching legs into single group elements so the output uses three
    one-axis plans instead of six.
    """
    a1, b1, c1 = _plane_euler_yxy(v1)
    a2, b2, c2 = _plane_euler_yxy(v2)
    gy1, gy2 = _Y_PLANE_GENS
    gx1, gx2 = _X_PLANE_GENS
    inner = _axis_plan(expm(c1 * gy1 + c2 * gy2), "y")
    mid = _axis_plan(expm(b1 * gx1 + b2 * gx2), "x")
    outer = _axis_plan(expm(a1 * gy1 + a2 * gy2), "y")
    return inner + mid + outer


def _plane_blocks(k):
    u1 = k[np.ix_(_PLANES[0], _PLANES[0])]
    u2 = k[np.ix_(_PLANES[1], _PLANES[1])]
    mask = np.ones((4, 4), dtype=bool)
    for p in _PLANES:
        for i in p:
            for j in p:
                mask[i, j] = False
    off = float(np.max(np.abs(k[mask])))
    return u1, u2, off


def k_factor_plan(k) -> SynthesisPlan:
    """Plan for a stabilizer-group element (block-diagonal on the two
    planes with balanced determinants)."""
    k, _ = require_unitary(k, 4, "stabilizer factor", special=True)
    u1, u2, off = _plane_blocks(k)
    if off > 1e-10:
        raise ValueError(f"off-plane residual {off:.3e}: not a stabilizer factor")
    d2 = u2[0, 0] * u2[1, 1] - u2[0, 1] * u2[1, 0]
    mu = np.angle(d2) / 2
    v1 = np.exp(1j * mu) * u1
    v2 = np.exp(-1j * mu) * u2
    steps = _plane_pair_steps(v1, v2)
    steps.append(("BZZ", (-mu) % TWO_PI))
    steps = _merge_steps(steps)
    plan = SynthesisPlan(n=3, steps=steps, target=k)
    err = float(np.max(np.abs(plan_unitary(plan) - k)))
    if err > 1e-8:
        raise RuntimeError(f"stabilizer plan residual {err:.3e}")
    plan.reconstruction_error = err
    return plan


# D' = diag(1, i, 1, -i) conjugates the in-plane rotation generator into
# half the cross-plane one; it factors over free evolution and per-plane
# phase rotations, which is what makes the cross-plane torus leg reachable.
_D_PRIME_PHASE = np.diag(np.exp(1j * np.array([1, 1, -1, -1]) * np.pi / 4))


def torus_factor_plan(a) -> SynthesisPlan:
    """Plan for a torus element exp(s*A3 + r*C3).

    The A3 leg lives in the stabilizer algebra and uses the y-side group
    directly.  The C3 leg is conjugated to another A3 rotation by a
    diagonal unitary realized with +/- quarter-period free-evolution
    wrappers around per-plane phase rotations.
    """
    a = require_unitary(a, 4, "torus factor")
    theta1 = np.arctan2(a[0, 2].real, a[0, 0].real)
    theta2 = np.arctan2(a[1, 3].real, a[1, 1].real)
    s = theta1 - theta2
    r = (theta1 + theta2) / 2
    if np.max(np.abs(a - expm(s * A3 + r * C3))) > 1e-8:
        raise ValueError("input is not on the factorization torus")

    steps = _axis_plan(expm(s * A3), "y")
    if abs(r) > 1e-14:
        p = _D_PRIME_PHASE
        u1, u2, _ = _plane_blocks(p)
        p_steps = _plane_pair_steps(u1, u2)
        u1i, u2i, _ = _plane_blocks(p.conj().T)
        p_inv_steps = _plane_pair_steps(u1i, u2i)
        steps += (
            [("BZZ", np.pi / 4)]
            + p_inv_steps
            + _axis_plan(expm(2 * r * A3), "y")
            + p_steps
            + [("BZZ", (-np.pi / 4) % TWO_PI)]
        )
    steps = _merge_steps(steps)
    plan = SynthesisPlan(n=3, steps=steps, target=a)
    err = float(np.max(np.abs(plan_unitary(plan) - a)))
    if err > 1e-8:
        raise RuntimeError(f"torus plan residual {err:.3e}")
    plan.reconstruction_error = err
    return plan


# --- Cartan factorizations --------------------------------------------------


@dataclass
class CartanFactors:
    k1: np.ndarray
    a: np.ndarray
    k2: np.ndarray


def kak_su3(x) -> CartanFactors:
    """Orthogonal-diagonal-orthogonal factorization of an SU(3) matrix:
    x = k1 @ a @ k2 with k1, k2 real special orthogonal and a a unit
    modulus diagonal."""
    x, det = require_unitary(x, 3, "input", special=True)
    x = x * det ** (-1.0 / 3.0)

    m = x @ x.T
    c, sm = m.real.copy(), m.imag.copy()
    evals, q = np.linalg.eigh(c)
    # Within eigenvalue clusters of the real part the frame is only
    # defined up to rotation; re-diagonalize the imaginary part there.
    start = 0
    for stop in range(1, 4):
        if stop == 3 or evals[stop] - evals[start] > 1e-8:
            if stop - start > 1:
                sub = q[:, start:stop].T @ sm @ q[:, start:stop]
                _, u = np.linalg.eigh((sub + sub.T) / 2)
                q[:, start:stop] = q[:, start:stop] @ u
            start = stop
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]

    lam = np.array(
        [np.arctan2(q[:, j] @ sm @ q[:, j], q[:, j] @ c @ q[:, j]) for j in range(3)]
    )
    k = int(np.round(lam.sum() / TWO_PI))
    while k > 0:
        lam[np.argmax(lam)] -= TWO_PI
        k -= 1
    while k < 0:
        lam[np.argmin(lam)] += TWO_PI
        k += 1
    d = lam / 2

    k2 = np.diag(np.exp(-1j * d)) @ q.T @ x
    if np.max(np.abs(k2.imag)) > 1e-8:
        raise RuntimeError("inner factor failed to come out real")
    k2 = k2.real
    a = np.diag(np.exp(1j * d))
    res = np.max(np.abs(q @ a @ k2 - x))
    if res > 1e-8:
        raise RuntimeError(f"factorization residual {res:.3e}")
    return CartanFactors(k1=q, a=a, k2=k2)


_PERM_AIII = np.zeros((4, 4))
for _new, _old in enumerate((0, 3, 1, 2)):
    _PERM_AIII[_new, _old] = 1.0
_K0_AIII = np.zeros((4, 4))
_K0_AIII[0, 0] = _K0_AIII[1, 1] = _K0_AIII[2, 3] = _K0_AIII[3, 2] = 1.0


def kak_aiii_su4(x) -> CartanFactors:
    """Stabilizer-torus-stabilizer factorization of an SU(4) matrix:
    x = k1 @ a @ k2 with k1, k2 in the plane-block stabilizer group and
    a = exp(s*A3 + r*C3)."""
    factors, _, _ = _kak_aiii_internal(x)
    return factors


def _kak_aiii_internal(x):
    x, det = require_unitary(x, 4, "input", special=True)
    x = x * det ** (-0.25)

    pm = _PERM_AIII
    xp = pm @ x @ pm.T
    u, cs, vdh = cossin(xp, p=2, q=2)
    alpha = np.arcsin(np.clip(cs[0, 2], -1.0, 1.0))
    beta = np.arcsin(np.clip(cs[1, 3], -1.0, 1.0))
    s = alpha + beta
    r = (alpha - beta) / 2

    k1p = u @ _K0_AIII
    k2p = _K0_AIII @ vdh
    z1 = np.linalg.det(k1p) ** (-0.25)
    k1 = pm.T @ (z1 * k1p) @ pm
    k2 = pm.T @ (k2p / z1) @ pm
    a = expm(s * A3 + r * C3)
    res = np.max(np.abs(k1 @ a @ k2 - x))
    if res > 1e-8:
        raise RuntimeError(f"factorization residual {res:.3e}")
    return CartanFactors(k1=k1, a=a, k2=k2), s, r


# --- two-spin closed-form synthesis -----------------------------------------

_T_HAT = basis_T_hat()
_S_HAT = _T_HAT[1:, 1:]

# Rotation-rate bookkeeping for the two-spin block: the conjugated drive
# generators restrict, in the secondary frame, to multiples of the two
# elementary real rotations of the 3-dim block, and the free generator
# to i*diag(-1, 1, -1).
_AX_HAT_BLOCK = (_T_HAT @ A_X @ _T_HAT.conj().T)[1:, 1:]
_AY_HAT_BLOCK = (_T_HAT @ A_Y @ _T_HAT.conj().T)[1:, 1:]
_RATE_X = _AX_HAT_BLOCK[1, 0].real
_RATE_Y = _AY_HAT_BLOCK[2, 1].real


def _r12(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def _so3_euler(k) -> tuple:
    """Angles (a, b, c) with k = R12(a) R23(b) R12(c)."""
    b = np.arctan2(np.hypot(k[0, 2], k[1, 2]), k[2, 2])
    if np.sin(b) > 1e-12:
        a = np.arctan2(k[0, 2], -k[1, 2])
        c = np.arctan2(k[2, 0], k[2, 1])
    elif k[2, 2] > 0:
        b = 0.0
        a, c = np.arctan2(k[1, 0], k[0, 0]), 0.0
    else:
        b = np.pi
        a, c = np.arctan2(k[1, 0], k[0, 0]), 0.0
    return a, b, c


def _so3_steps(k) -> list:
    a, b, c = _so3_euler(k)
    return [
        ("AX", c / _RATE_X),
        ("AY", b / _RATE_Y),
        ("AX", a / _RATE_X),
    ]


def _synthesize_two(target) -> SynthesisPlan:
    det = np.linalg.det(target)
    zeta = det ** (1.0 / 3.0)
    v = target / zeta
    w = _S_HAT @ v @ _S_HAT.conj().T
    fac = kak_su3(w)

    d = np.angle(np.diag(fac.a))
    c0 = (d[0] + d[1]) / 2
    s = (d[1] - d[2]) / 2
    r = (d[0] - d[2]) / 2
    torus_steps = [
        ("AX", (-np.pi / 2) / _RATE_X),
        ("AZZ", r % TWO_PI),
        ("AX", (np.pi / 2) / _RATE_X),
        ("AZZ", s % TWO_PI),
    ]
    steps = _merge_steps(_so3_steps(fac.k2) + torus_steps + _so3_steps(fac.k1))
    phase = float((np.angle(zeta) + c0) % TWO_PI)
    plan = SynthesisPlan(n=2, steps=steps, phase=phase, target=target)
    plan.reconstruction_error = float(
        np.max(np.abs(np.exp(1j * phase) * plan_unitary(plan) - target))
    )
    return plan


# --- three-spin numeric synthesis -------------------------------------------

_FIT_SEED = 174


def _template_factors(m: int) -> list:
    """(tag, parameter index) of each template factor, first applied first.

    The 2m+1 parameters are m+1 free durations followed by m pulse areas.
    """
    tags = ["BY" if j % 2 == 0 else "BX" for j in range(m)]
    factors = [("BZZ", 0)]
    for j in range(m):
        factors.append((tags[j], m + 1 + j))
        factors.append(("BZZ", j + 1))
    return factors


def _template_unitary(params, m: int) -> np.ndarray:
    u = np.eye(4, dtype=complex)
    for tag, k in _template_factors(m):
        u = _tag_exp(3, tag, params[k]) @ u
    return u


def _template_derivatives(params, m: int):
    """The template unitary and its derivative in each parameter.

    Factor exp(t G) contributes (later factors) @ G @ exp(t G) @ (earlier
    factors) to the derivative in its own parameter t.
    """
    factors = _template_factors(m)
    exps = [_tag_exp(3, tag, params[k]) for tag, k in factors]
    before = [np.eye(4, dtype=complex)]
    for f in exps:
        before.append(f @ before[-1])
    after = np.eye(4, dtype=complex)
    du = np.empty((len(factors), 4, 4), dtype=complex)
    for i in range(len(factors) - 1, -1, -1):
        tag, k = factors[i]
        du[k] = after @ _GENERATORS[3][tag] @ before[i + 1]
        after = after @ exps[i]
    return before[-1], du


def _template_steps(params, m: int) -> list:
    return _merge_steps([(tag, params[k]) for tag, k in _template_factors(m)])


def _synthesize_three(target, rng) -> SynthesisPlan:
    """Fit the pulse template to ``target`` up to a global phase.

    The fit is scipy's trust-region-reflective least squares with the
    analytic Jacobian.  Its result is a function of the target and the
    random starts alone; scipy 1.17's MINPACK ``lm`` method is not, since
    its step depends on uninitialised heap memory, so two identical calls
    in one process could return different plans.
    """

    def misalignment(u):
        tr = np.trace(target.conj().T @ u)
        ph = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
        return np.max(np.abs(u - ph * target)), ph

    def residual_factory(m):
        def fun(p):
            u = _template_unitary(p, m)
            _, ph = misalignment(u)
            diff = u - ph * target
            return np.concatenate([diff.real.ravel(), diff.imag.ravel()])

        def jac(p):
            u, du = _template_derivatives(p, m)
            tr = np.trace(target.conj().T @ u)
            # ph = tr / |tr| moves only in phase: dph = i ph Im(conj(ph) dtr) / |tr|
            dph = np.zeros(len(p), dtype=complex)
            if abs(tr) > 1e-12:
                ph = tr / abs(tr)
                dtr = du.reshape(len(p), -1) @ target.conj().ravel()
                dph = 1j * ph * np.imag(np.conj(ph) * dtr) / abs(tr)
            dr = du - dph[:, None, None] * target
            return np.concatenate(
                [dr.real.reshape(len(p), -1), dr.imag.reshape(len(p), -1)], axis=1
            ).T

        return fun, jac

    for m, attempts in ((8, 12), (10, 8), (12, 8)):
        fun, jac = residual_factory(m)
        for _ in range(attempts):
            x0 = rng.uniform(-1.0, 1.0, 2 * m + 1)
            sol = least_squares(
                fun, x0, jac=jac, method="trf", xtol=1e-14, ftol=1e-14,
                gtol=1e-14, max_nfev=4000,
            )
            u = _template_unitary(sol.x, m)
            err, ph = misalignment(u)
            if err <= 1e-9:
                phase = float((-np.angle(ph)) % TWO_PI)
                plan = SynthesisPlan(
                    n=3,
                    steps=_template_steps(sol.x, m),
                    phase=phase,
                    target=target,
                )
                plan.reconstruction_error = float(
                    np.max(
                        np.abs(np.exp(1j * phase) * plan_unitary(plan) - target)
                    )
                )
                return plan
    raise RuntimeError("pulse-template fit did not converge")


def synthesize(n: int, target, rng=None) -> SynthesisPlan:
    """Factor a symmetric-block unitary into generator steps.

    The result reproduces ``target`` up to the recorded global phase:
    target = exp(i*phase) * plan_unitary(plan).
    """
    if n not in (2, 3):
        raise ValueError("synthesis is implemented for n in {2, 3}")
    target = require_unitary(target, n + 1, "target")
    if n == 2:
        return _synthesize_two(target)
    if rng is None:
        rng = np.random.default_rng(_FIT_SEED)
    return _synthesize_three(target, rng)


# --- state transfer ----------------------------------------------------------


def _symmetric_coords(n: int, state) -> np.ndarray:
    amps = state.amplitudes if isinstance(state, SpinState) else np.asarray(
        state, dtype=complex
    )
    if amps.shape != (2**n,):
        raise ValueError("state has wrong dimension")
    basis = dicke_basis(n)
    coords = basis.conj().T @ amps
    if not np.max(np.abs(amps - basis @ coords)) <= 1e-10:
        raise ValueError("state is not permutation invariant")
    norm = np.linalg.norm(coords)
    if not abs(norm - 1.0) <= 1e-8:
        raise ValueError("state must be normalized")
    return coords / norm


def _complete_unitary(first_col) -> np.ndarray:
    dim = first_col.shape[0]
    cols = [first_col]
    for j in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[j] = 1.0
        for c in cols:
            v = v - np.vdot(c, v) * c
        norm = np.linalg.norm(v)
        if norm > 1e-7:
            cols.append(v / norm)
        if len(cols) == dim:
            break
    return np.column_stack(cols)


def state_transfer_plan(n: int, source, dest, rng=None) -> SynthesisPlan:
    """Plan whose replayed block maps the source state's symmetric
    coordinates onto the destination's (up to the recorded phase)."""
    cs = _symmetric_coords(n, source)
    cd = _symmetric_coords(n, dest)
    u = _complete_unitary(cd) @ _complete_unitary(cs).conj().T
    return synthesize(n, u, rng=rng)
