"""The term-list expansion of ``ModeState.transform``, kept as its oracle.

``transform(state, mode_map)`` rebuilds the list of (modes, coefficient)
terms once per photon of a pattern and calls ``mode_map`` for every photon
of every pattern.  ``fock.ModeState.transform`` must return exactly the same
amplitudes: the same patterns in the same order with ``==`` values.
"""

from __future__ import annotations

import math
from collections import defaultdict

from qduality.fock import ModeState


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
