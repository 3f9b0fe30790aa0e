"""The term-list expansion of ``ModeState.transform`` and the hand-written
element substitutions, kept as the oracles of the Fock layer.

``transform(state, mode_map)`` rebuilds the list of (modes, coefficient)
terms once per photon of a pattern and calls ``mode_map`` for every photon
of every pattern.  ``fock.ModeState.transform`` must return exactly the same
amplitudes: the same patterns in the same order with ``==`` values.

``polarization_map``, ``ppbs_transform``, ``pbs_transform`` and ``attenuate``
write each element as its own substitution closure, run through
``transform``.  The matrix-built elements of ``fock`` must give ``==``
states.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from qduality.fock import POL_H, POL_V, Mode, ModeState


def _pattern_norm_factor(pattern) -> float:
    """sqrt(prod n_m!) over the occupation multiplicities of a pattern."""
    fac = 1
    seen = {}
    for m in pattern:
        seen[m] = seen.get(m, 0) + 1
    for n in seen.values():
        fac *= math.factorial(n)
    return math.sqrt(fac)


def transform(state: ModeState, mode_map) -> ModeState:
    """Substitute a_m -> sum_k c_k a_k per the map, expanding products.

    ``mode_map(mode)`` returns a list of (new_mode, coefficient) or None
    for identity.
    """
    out = defaultdict(complex)
    for pattern, amp in state.amps.items():
        terms = [((), amp / _pattern_norm_factor(pattern))]
        for mode in pattern:
            images = mode_map(mode)
            if images is None:
                images = [(mode, 1.0)]
            terms = [
                (modes + (new_mode,), coef * c)
                for modes, coef in terms
                for new_mode, c in images
            ]
        for modes, coef in terms:
            out[tuple(sorted(modes))] += coef
    amps = {
        p: a * _pattern_norm_factor(p)
        for p, a in out.items()
        if abs(a) > 1e-15
    }
    return ModeState(amps)


def polarization_map(spatial, jones):
    """Waveplate/rotation acting on the polarization of one spatial port."""
    jones = np.asarray(jones, dtype=complex)

    def mapper(mode):
        if mode.spatial != spatial:
            return None
        col = 0 if mode.pol == POL_H else 1
        return [
            (Mode(mode.spatial, pol, mode.temporal), jones[row, col])
            for row, pol in ((0, POL_H), (1, POL_V))
            if abs(jones[row, col]) > 0.0
        ]

    return mapper


def ppbs_transform(state, in_modes, t_h, t_v):
    """Partial polarizing beam splitter: a -> rt a + rr b, b -> rr a - rt b per polarization."""
    port_a, port_b = in_modes
    trans = {POL_H: t_h, POL_V: t_v}

    def mapper(mode):
        if mode.spatial not in (port_a, port_b):
            return None
        t = trans[mode.pol]
        rt, rr = math.sqrt(t), math.sqrt(1.0 - t)
        a = Mode(port_a, mode.pol, mode.temporal)
        b = Mode(port_b, mode.pol, mode.temporal)
        if mode.spatial == port_a:
            return [(a, rt), (b, rr)]
        return [(a, rr), (b, -rt)]

    return transform(state, mapper)


def pbs_transform(state, in_modes):
    """Polarizing beam splitter: H transmits, V swaps ports."""
    port_a, port_b = in_modes

    def mapper(mode):
        if mode.spatial not in (port_a, port_b) or mode.pol == POL_H:
            return None
        other = port_b if mode.spatial == port_a else port_a
        return [(Mode(other, POL_V, mode.temporal), 1.0)]

    return transform(state, mapper)


def attenuate(state, spatial, pol, transmission, loss_label):
    """Route 1-T of one port's polarization into a loss port."""
    rt, rr = math.sqrt(transmission), math.sqrt(1.0 - transmission)

    def mapper(mode):
        if mode.spatial != spatial or mode.pol != pol:
            return None
        return [(mode, rt), (Mode(loss_label, pol, mode.temporal), rr)]

    return transform(state, mapper)
