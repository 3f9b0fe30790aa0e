"""Bob's analyzer one validated projector at a time: the oracle of the
stacked ``circuit._bob_projectors``.

``bob_projector(theta2, sign)`` is the per-row body that the stack replaced:
``projector_onto(cos(t)|phi-> + sin(t)|psi+>)`` with t = theta2 for "+" and
theta2 + pi/2 for "-".  Every row of the stack must equal it bit for bit.
"""

from __future__ import annotations

import math

from qduality import qstate as qs


def bob_projector(theta2, sign):
    if sign == "-":
        return bob_projector(theta2 + math.pi / 2, "+")
    if sign != "+":
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    ket = math.cos(theta2) * qs.bell_ket("phi-") + math.sin(theta2) * qs.bell_ket("psi+")
    return qs.projector_onto(ket)
