"""Closed-form and integrated solutions of the linearised per-mode systems.

For a single non-zero x-wavenumber mode, the coupled pair of Laplacian
unknowns symmetrises into a damped rotation: writing the pair as a complex
number Z = K1 + i K2, the evolution is exactly

    Z(t) = Z(0) * exp(-i * phase_angle(t)) * exp(-nu * integral_w(t)),

so the modulus decays by the exact dissipation integral while the pair
rotates through a total angle bounded by pi.  The third velocity component
is slaved to the pair: integrating its forced equation against the rotating
pair gives the closed form of ``evolve_U3``, a heat decay plus a term
linear in t and rational in the frame symbols.  The x-averaged (k = 0) modes
evolve by a nilpotent 3x3 semigroup that produces the secular lift-up
growth.  ``simulation.propagator`` is the same solution operator vectorised
over a whole mode grid.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .spectral import WaveVector, integral_w, w_symbol

__all__ = [
    "ModeStateK",
    "ModeStateQ",
    "ZeroModeState",
    "phase_angle",
    "evolve_K_closed",
    "enhanced_dissipation_check",
    "evolve_U3",
    "zero_mode_evolve",
    "inviscid_damping_rates",
    "q_to_k",
    "k_to_q",
]


@dataclass(frozen=True)
class ModeStateK:
    """Symmetrised pair at one non-zero mode; |K1|^2 + |K2|^2 is the invariant
    energy of the inviscid rotation."""

    K1: complex
    K2: complex

    @property
    def magnitude(self) -> float:
        return math.sqrt(abs(self.K1) ** 2 + abs(self.K2) ** 2)


@dataclass(frozen=True)
class ModeStateQ:
    """Laplacian-of-velocity pair (moving frame) at one mode."""

    Q1: complex
    Q2: complex


@dataclass(frozen=True)
class ZeroModeState:
    """x-averaged velocity coefficients at one (eta, l)."""

    u1: complex
    u2: complex
    u3: complex


def _require_nonzero_k(kv: WaveVector, what: str) -> None:
    if kv.k == 0:
        raise ValueError(f"{what} is defined only for k != 0 (zero-frequency modes evolve separately)")


def q_to_k(q: ModeStateQ, t: float, kv: WaveVector) -> ModeStateK:
    """Convert the Laplacian pair to the symmetrised pair at time t."""
    _require_nonzero_k(kv, "q_to_k")
    rw = math.sqrt(w_symbol(t, kv))
    return ModeStateK(K1=kv.kl_magnitude / rw * q.Q1, K2=abs(kv.k) / rw * q.Q2)


def k_to_q(state: ModeStateK, t: float, kv: WaveVector) -> ModeStateQ:
    """Inverse of ``q_to_k``; exact round trip for k != 0."""
    _require_nonzero_k(kv, "k_to_q")
    rw = math.sqrt(w_symbol(t, kv))
    return ModeStateQ(Q1=rw / kv.kl_magnitude * state.K1, Q2=rw / abs(kv.k) * state.K2)


def phase_angle(t: float, kv: WaveVector, t0: float = 0.0) -> float:
    """Rotation angle accumulated by the symmetrised pair over [t0, t].

    Exact antiderivative of the coupling rate |k||k,l| / w(s):
    sign(k) * [arctan((eta - k t0)/|k,l|) - arctan((eta - k t)/|k,l|)].
    Always smaller than pi in magnitude.
    """
    _require_nonzero_k(kv, "phase_angle")
    b = kv.kl_magnitude
    sgn = 1.0 if kv.k > 0 else -1.0
    return sgn * (math.atan((kv.eta - kv.k * t0) / b) - math.atan((kv.eta - kv.k * t) / b))


def evolve_K_closed(
    state0: ModeStateK, t: float, nu: float, kv: WaveVector, t0: float = 0.0
) -> ModeStateK:
    """Exact evolution of the symmetrised pair from time t0 to time t.

    The pair rotates by ``phase_angle`` and its modulus decays by
    exp(-nu * integral of w), so |K(t)|^2 = e^{-2 nu int w} |K(t0)|^2.
    """
    _require_nonzero_k(kv, "evolve_K_closed")
    if t < t0:
        raise ValueError(f"evolve_K_closed requires t >= t0, got t={t} < t0={t0}")
    if nu < 0:
        raise ValueError(f"viscosity must be nonnegative, got {nu}")
    phi = phase_angle(t, kv, t0=t0)
    decay = math.exp(-nu * (integral_w(t, kv) - integral_w(t0, kv)))
    c, s = math.cos(phi), math.sin(phi)
    return ModeStateK(
        K1=decay * (c * state0.K1 + s * state0.K2),
        K2=decay * (-s * state0.K1 + c * state0.K2),
    )


def enhanced_dissipation_check(
    state0: ModeStateK, t: float, nu: float, kv: WaveVector, slack: float = 1e-12
) -> bool:
    """True iff |K(t)|^2 <= e^{-(nu/6) k^2 t^3} |K(0)|^2 + slack.

    Holds for every closed-form trajectory because the dissipation integral
    dominates k^2 t^3 / 12.
    """
    _require_nonzero_k(kv, "enhanced_dissipation_check")
    evolved = evolve_K_closed(state0, t, nu, kv)
    envelope = math.exp(-(nu / 6.0) * kv.k * kv.k * t**3) * state0.magnitude**2
    return evolved.magnitude**2 <= envelope + slack


def evolve_U3(u3_0: complex, state0: ModeStateK, t: float, nu: float, kv: WaveVector) -> complex:
    """Exact third component at time t, slaved to the pair that starts at ``state0``.

    Solves dU3/ds + nu w U3 = k l w^{-1} U2 + l (eta - k s) w^{-1} U1 with the
    velocity pair U1 = -K1 / (|k,l| sqrt(w)), U2 = -K2 / (|k| sqrt(w)) of the
    closed-form rotation.  The forcing integrates exactly to

        U3(t) = e^{-nu I(t)} [u3_0 + t l ((eta - k t) U1(0) + k U2(0)) / w(t)],

    which carries no trig and no division by l; for l = 0 it is a pure heat
    decay.  This is the third row of ``simulation.propagator`` at t0 = 0.
    """
    _require_nonzero_k(kv, "evolve_U3")
    if t < 0:
        raise ValueError(f"evolve_U3 requires t >= 0, got {t}")
    rw0 = math.sqrt(w_symbol(0.0, kv))
    u1 = -state0.K1 / (kv.kl_magnitude * rw0)
    u2 = -state0.K2 / (abs(kv.k) * rw0)
    lift = t * kv.l * ((kv.eta - kv.k * t) * u1 + kv.k * u2) / w_symbol(t, kv)
    return cmath.exp(-nu * integral_w(t, kv)) * (u3_0 + lift)


def zero_mode_evolve(s0: ZeroModeState, t: float, nu: float, eta: float, l: int) -> ZeroModeState:
    """Evolve an x-averaged mode by its exact semigroup.

    The generator is a heat decay -nu (eta^2 + l^2) plus a nilpotent coupling
    fed by u1, so the solution is heat decay times a matrix linear in t:
    u2 picks up -t l^2/(eta^2+l^2) u1(0) and u3 picks up +t eta l/(eta^2+l^2)
    u1(0).  For l = 0 the coupling vanishes and the components decouple into
    plain heat flows.
    """
    if eta == 0.0 and l == 0:
        raise ValueError(
            "zero_mode_evolve is not defined at (eta, l) = (0, 0); "
            "the mean mode is pinned to zero by the mean-free constraint"
        )
    if t < 0:
        raise ValueError(f"zero_mode_evolve requires t >= 0, got {t}")
    rho = eta * eta + l * l
    decay = math.exp(-nu * rho * t)
    lift2 = -(l * l) / rho * t * s0.u1
    lift3 = (eta * l) / rho * t * s0.u1
    return ZeroModeState(
        u1=decay * s0.u1,
        u2=decay * (s0.u2 + lift2),
        u3=decay * (s0.u3 + lift3),
    )


def inviscid_damping_rates(u_in_norms: float, t: float, nu: float) -> tuple[float, float]:
    """Theoretical decay envelopes for the non-zero-frequency velocity.

    Returns (<t>^-1 e^{-(nu/6) t^3} * n, e^{-(nu/6) t^3} * n) at the k = 1
    reference wavenumber: the first envelope bounds the planar components
    (mixing plus enhanced dissipation), the second the third component
    (enhanced dissipation only).  Implicit constants are left to the caller.
    """
    if t < 0:
        raise ValueError(f"inviscid_damping_rates requires t >= 0, got {t}")
    ed = math.exp(-(nu / 6.0) * t**3)
    bracket = math.sqrt(1.0 + t * t)
    return (u_in_norms * ed / bracket, u_in_norms * ed)
