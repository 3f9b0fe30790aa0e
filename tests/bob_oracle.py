"""The analyzers one validated projector at a time: the oracles of the
analyzer kets ``circuit._alice_kets`` and ``circuit._bob_kets``.

Each function is the per-row body that the kets replaced, one
``projector_onto`` call per outcome:

- ``alice_projector(theta1, sign)``: cos(t)|H> + sin(t)|V> for "+" and its
  orthogonal complement for "-";
- ``bob_projector(theta2, sign)``: cos(t)|phi-> + sin(t)|psi+> with
  t = theta2 for "+" and theta2 + pi/2 for "-";
- ``quadrature_pair_projector(theta2, sign)``: cos(theta2)|phi-> +-
  i sin(theta2)|psi+>, a measurement only at theta2 = pi/4 + k pi/2.

The outer product of every ket must equal its oracle bit for bit.

``bob_kets(rows)`` is the real basis of ``_bob_kets`` as it was when it
checked the quarter turn on the kets themselves: it builds both kets of
every row, normalizes them, and names the theta2 whose two kets overlap the
most, if that overlap exceeds 1e-10.  It is the oracle of
``circuit._bob_angles``, which decides the same from the angles alone.
"""

from __future__ import annotations

import math

import numpy as np

from qduality import qstate as qs


def alice_projector(theta1, sign):
    if sign == "+":
        ket = [math.cos(theta1), math.sin(theta1)]
    elif sign == "-":
        ket = [-math.sin(theta1), math.cos(theta1)]
    else:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return qs.projector_onto(ket)


def bob_projector(theta2, sign):
    if sign == "-":
        return bob_projector(theta2 + math.pi / 2, "+")
    if sign != "+":
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    ket = math.cos(theta2) * qs.bell_ket("phi-") + math.sin(theta2) * qs.bell_ket("psi+")
    return qs.projector_onto(ket)


def quadrature_pair_projector(theta2, sign):
    if abs(math.cos(2.0 * theta2)) > 1e-9:
        raise ValueError(
            "the +-i superposition pair is orthogonal only at theta2 = pi/4 + k pi/2"
        )
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    phase = 1.0j if sign == "+" else -1.0j
    ket = math.cos(theta2) * qs.bell_ket("phi-") + phase * math.sin(theta2) * qs.bell_ket("psi+")
    return qs.projector_onto(ket)


def bob_kets(rows):
    angles = [*rows, *(t + math.pi / 2 for t in rows)]
    cos, sin = ([f(t) for t in angles] for f in (math.cos, math.sin))
    kets = (np.array(cos)[:, None] * qs.bell_ket("phi-")
            + np.array(sin)[:, None] * qs.bell_ket("psi+"))
    norm = np.sqrt(sum((sq[:, :1] + sq[:, 1:2]) + (sq[:, 2:3] + sq[:, 3:])
                       for sq in (kets.real * kets.real, kets.imag * kets.imag)))
    if not np.all((norm >= 1e-12) & (norm < math.inf)):  # NaN fails too
        raise ValueError("cannot project onto a zero or non-finite vector")
    kets = (kets / norm).reshape(2, -1, 4)
    overlap = np.abs(np.sum(kets[0].conj() * kets[1], axis=1))
    if overlap.max() > 1e-10:
        row = int(np.argmax(overlap))
        raise ValueError(f"theta2 = {rows[row]!r} does not resolve theta2 + pi/2: Bob's "
                         f"'+' and '-' analyzers overlap by {overlap[row]:.3g}")
    return kets
