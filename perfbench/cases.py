"""Closed forms and pooled inputs the benchmark checks outputs against.

Nothing here imports qduality: the closed forms are written out from the
formulas the package documents, so a wrong program cannot also produce a
matching reference.  Pooled cases are inputs whose reference values were
recorded by ``make_reference.py``; case ``i`` of a pool is a pure function
of its name and index, and a run's seed only chooses the order in which
cases are drawn.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import numpy as np

SQRT2 = math.sqrt(2.0)
PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / SQRT2
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / SQRT2
SIGNS = ("+", "-")


def alice_ket(theta1: float, sign: str) -> tuple:
    if sign == "+":
        return math.cos(theta1), math.sin(theta1)
    return -math.sin(theta1), math.cos(theta1)


def bob_ket(theta2: float, sign: str = "+") -> np.ndarray:
    """cos t|phi-> + sin t|psi+>, with t = theta2 + pi/2 for the "-" outcome."""
    t = theta2 if sign == "+" else theta2 + math.pi / 2
    return math.cos(t) * PHI_MINUS + math.sin(t) * PSI_PLUS


def probabilities(theta1, theta2, phi, scale=1.0, delta=math.pi / 4) -> list:
    """(p++, p+-, p-+, p--) mixed with the uniform distribution by ``scale``.

    The final state contracted with the analyzer kets: <b(t)|phi- -+ i psi+>
    = e^{-+it}, so <a, b(t)|psi> = (<a|p> e^{-it} + e^{i delta} <a|w> e^{it}) / 2.
    """
    e_phi, e_half, e_delta = cmath.exp(1j * phi), cmath.exp(0.5j * phi), cmath.exp(1j * delta)
    c_half, s_half = math.cos(phi / 2), math.sin(phi / 2)
    probs = []
    for a in SIGNS:
        a_h, a_v = alice_ket(theta1, a)
        a_p = (a_h - e_phi * a_v) / SQRT2
        a_w = e_half * (-1j * s_half * a_h + c_half * a_v)
        for b in SIGNS:
            t = theta2 if b == "+" else theta2 + math.pi / 2
            amp = 0.5 * (a_p * cmath.exp(-1j * t) + e_delta * a_w * cmath.exp(1j * t))
            probs.append(scale * abs(amp) ** 2 + (1.0 - scale) * 0.25)
    return probs


def correlation(theta1, theta2, phi, scale=1.0, delta=math.pi / 4) -> float:
    p = probabilities(theta1, theta2, phi, scale, delta)
    return p[0] - p[1] - p[2] + p[3]


def chsh(phi, scale=1.0) -> float:
    """S at the default pairs theta1 in (0, pi/4), theta2 in (pi/8, 3pi/8)."""
    t1, t1p = 0.0, math.pi / 4
    t2, t2p = math.pi / 8, 3 * math.pi / 8

    def e(a, b):
        return correlation(a, b, phi, scale)

    return abs(e(t1, t2) + e(t1, t2p) - e(t1p, t2) + e(t1p, t2p))


def bsm_rates(theta2: float, v: float) -> dict:
    """Analyzer-scan rates: DA = AD = cos^2(t)(1+v)/4, DD = AA = cos^2(t)(1-v)/4."""
    c2 = math.cos(theta2) ** 2
    cross, same = c2 * (1.0 + v) / 4.0, c2 * (1.0 - v) / 4.0
    return {"DA": cross, "AD": cross, "DD": same, "AA": same}


def gate_test_rho() -> np.ndarray:
    """Fixed two-qubit input state for checking the post-selected gate maps."""
    ket = np.array([1.0, 0.5 + 0.2j, -0.3j, 0.7])
    ket /= np.linalg.norm(ket)
    return 0.7 * np.outer(ket, ket.conj()) + 0.3 * np.eye(4) / 4.0


def tagged_joint(strategies, weights, wave_probs) -> list:
    """p[j][s][b] of a tagged-strategy mixture; exact when the inputs are Fractions.

    Each strategy is (tag, outcomes) with tag "particle" (statistics 1/2, 1/2)
    or "wave" (statistics wave_probs[j]) and outcomes a '+'/'-' per setting.
    """
    n = len(wave_probs)
    half = Fraction(1, 2)
    joints = [[[0, 0], [0, 0]] for _ in range(n)]
    for (tag, outcomes), weight in zip(strategies, weights):
        for j in range(n):
            stats = (half, half) if tag == "particle" else wave_probs[j]
            b = SIGNS.index(outcomes[j])
            for s in (0, 1):
                joints[j][s][b] += weight * stats[s]
    return joints


def wave_probs_from_cos(cos_phi) -> tuple:
    return ((1 + cos_phi) / 2, (1 - cos_phi) / 2)


# --- pooled cases -----------------------------------------------------------

def _angles(rng: random.Random) -> tuple:
    return (rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi / 2, math.pi / 2),
            rng.uniform(0.0, 2 * math.pi))


def fock_case(kind: str, i: int) -> tuple:
    """(theta1, theta2, phi, v) of case i; kind "v0" has v = 0, "mid" 0 < v < 1."""
    rng = random.Random(f"fock/{kind}/{i}")
    theta1, theta2, phi = _angles(rng)
    v = 0.0 if kind == "v0" else rng.uniform(0.05, 0.95)
    return theta1, theta2, phi, v


def hv_settings(kind: str, n: int, i: int) -> list:
    """n distinct random (theta2, phi) settings of case i."""
    rng = random.Random(f"hv/{kind}/{n}/{i}")
    return [(rng.uniform(-math.pi / 2, math.pi / 2), rng.uniform(0.0, 2 * math.pi))
            for _ in range(n)]


def rationalize_joint(q) -> list:
    """2x2 float distribution -> Fractions with denominators <= 1000 summing to 1."""
    flat = [Fraction(float(q[s][b])).limit_denominator(1000) for s in (0, 1) for b in (0, 1)]
    largest = flat.index(max(flat))
    flat[largest] += 1 - sum(flat)
    return [flat[:2], flat[2:]]


def rational_cos(phi: float) -> Fraction:
    return Fraction(math.cos(phi)).limit_denominator(1000)
