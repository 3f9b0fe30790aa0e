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

``gate_chain``, ``rotate_arms`` and ``apply_bsm_elements`` are the pipelines
as functions that build their element maps on every call, and
``physical_gate``, ``bsm_projector_physical``, ``bsm_scan`` and
``physical_correlation`` run the public Fock pipelines through them.  The
element-tuple pipelines of ``fock`` must give the same bytes.  Here
``physical_correlation`` forms theta2 + pi/2 itself, and ``bsm_scan``
checks its positions with ``finite_positions``, the scans' own check before
they took the circuit's grid check.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict

import numpy as np

from qduality import circuit as _circuit
from qduality import fock
from qduality.fock import POL_H, POL_V, Mode, ModeState
from qduality.qstate import Projector, w_gate, waveplate

_SQRT2 = math.sqrt(2.0)


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


def _require_ports(state, in_modes):
    if not set(in_modes) & state.spatial_labels():
        raise ValueError(f"spatial labels {in_modes} not present in the state")
    return state


def gate_chain(with_w):
    """PPBS controlled-phase chain on ports ('s', 'c'), its element maps built per call."""
    maps = [fock._ppbs_map(("s", "c"), 1.0, 1.0 / 3.0),
            fock._attenuation_map("s", POL_H, 1.0 / 3.0, "loss_s"),
            fock._attenuation_map("c", POL_H, 1.0 / 3.0, "loss_c"),
            fock.polarization_map("c", -np.eye(2))]
    if with_w:
        w = w_gate().matrix
        maps = [fock.polarization_map("s", w.conj().T), *maps, fock.polarization_map("s", w)]
    return lambda state: functools.reduce(ModeState.transform, maps,
                                          _require_ports(state, ("s", "c")))


def apply_bsm_elements(state, theta2):
    """Half-wave plates at theta2/2 on 'c' and at 0 on 'a', then the PBS."""
    state = state.transform(
        fock.polarization_map("c", waveplate("half", theta2 / 2.0).matrix)
    )
    state = state.transform(fock.polarization_map("a", waveplate("half", 0.0).matrix))
    return fock.pbs_transform(state, ("c", "a"))


def rotate_arms(state):
    """The fixed polarization rotations of the control and ancilla arms."""
    state = state.transform(
        fock.polarization_map("c", _circuit.control_arm_rotation().matrix)
    )
    return state.transform(
        fock.polarization_map("a", _circuit.ancilla_arm_rotation().matrix)
    )


def transfer(chain, ports, labels):
    """Post-selected 4x4 maps of a two-photon chain, one per temporal configuration."""
    maps = defaultdict(lambda: np.zeros((4, 4), dtype=complex))
    for col, (pol0, pol1) in enumerate(itertools.product((POL_H, POL_V), repeat=2)):
        start = ModeState.from_patterns(
            [((Mode(ports[0], pol0, labels[0]), Mode(ports[1], pol1, labels[1])), 1.0)]
        )
        for key, tensor in fock._port_amplitudes(chain(start), ports).items():
            maps[key][:, col] = tensor.reshape(4)
    return [maps[key] for key in sorted(maps)]


def physical_gate(v, with_w):
    """``fock.physical_ch`` (``with_w``) or ``fock.physical_cz``."""
    chain = gate_chain(with_w)
    gate_map = fock.PostselectedMap(
        math.sqrt(w) * kraus
        for w, labels in fock._overlap_branches(v, ("t0", "t0"), ("t0", "t1")) if w > 1e-15
        for kraus in transfer(chain, ("c", "s"), labels)
    )
    return gate_map, gate_map.success_probability()


def analyzer_probs(state, theta2, ports, bras):
    tensors = fock._port_amplitudes(apply_bsm_elements(state, theta2), ports)
    return sum((np.abs(bras @ t.reshape(-1)) ** 2 for t in tensors.values()),
               np.zeros(len(bras)))


def bsm_projector_physical(theta2):
    chain = functools.partial(apply_bsm_elements, theta2=theta2)
    (matrix,) = transfer(chain, ("c", "a"), ("t0", "t0"))
    rows = fock._analyzer_bras(("DA", "AD")) @ matrix
    return Projector(rows.conj().T @ rows)


def finite_positions(positions):
    positions = tuple(float(x) for x in positions)
    if not positions:
        raise ValueError("positions must be nonempty")
    if not all(map(math.isfinite, positions)):
        raise ValueError("positions must be finite")
    return positions


def bsm_scan(theta2, overlap, positions):
    positions = finite_positions(positions)
    outcomes = ("DA", "AD", "DD", "AA")
    bras = fock._analyzer_bras(outcomes)
    probs = []
    for t_c, t_a in (("t0", "t0"), ("t0", "t1")):
        pair = rotate_arms(ModeState.from_patterns([
            ((Mode("c", POL_H, t_c), Mode("a", POL_V, t_a)), 1.0 / _SQRT2),
            ((Mode("c", POL_V, t_c), Mode("a", POL_H, t_a)), 1.0 / _SQRT2),
        ]))
        probs.append(analyzer_probs(pair, theta2, ("c", "a"), bras).tolist())
    same, dist = probs
    rates = {out: [] for out in outcomes}
    for x in positions:
        v = overlap.value(x)
        for k, out in enumerate(outcomes):
            rates[out].append(v * same[k] + (1.0 - v) * dist[k])
    return fock.BsmScanResult(positions=positions,
                              rates={k: tuple(vals) for k, vals in rates.items()})


def physical_correlation(config, v):
    branches = fock._overlap_branches(v, ("t0", "t0", "t0"), ("t1", "t0", "t0"))
    c1, s1 = math.cos(config.theta1), math.sin(config.theta1)
    bras = np.kron(np.array([[c1, s1], [-s1, c1]]), fock._analyzer_bras(("DA", "AD")))
    rates = np.zeros((2, 2))  # [alice sign, bob sign]
    chain = gate_chain(with_w=True)
    for weight, (t_s, t_c, t_a) in branches:
        state = ModeState.from_patterns([
            ((Mode("s", POL_V, t_s), Mode("c", POL_H, t_c), Mode("a", POL_V, t_a)),
             1.0 / _SQRT2),
            ((Mode("s", POL_V, t_s), Mode("c", POL_V, t_c), Mode("a", POL_H, t_a)),
             np.exp(1j * config.delta) / _SQRT2),
        ])
        state = state.transform(
            fock.polarization_map("s", waveplate("half", math.pi / 8).matrix)
        )
        state = state.transform(
            fock.polarization_map("s", np.diag([1.0, np.exp(1j * config.phi)]))
        )
        state = rotate_arms(chain(state))
        for bob, theta2 in enumerate((config.theta2, config.theta2 + math.pi / 2)):
            probs = analyzer_probs(state, theta2, ("s", "c", "a"), bras)
            rates[:, bob] += weight * probs.reshape(2, 2).sum(axis=1)

    total = rates.sum()
    if total <= 0.0:
        raise ValueError("no post-selected events; correlation undefined")
    return float((rates[0, 0] - rates[0, 1] - rates[1, 0] + rates[1, 1]) / total)
