"""Second-quantized linear optics for the physical gate models.

Photons live in modes labelled by (spatial port, polarization, temporal
wavepacket).  States are maps from occupation patterns to complex
amplitudes in the normalized Fock basis; passive elements act by linear
substitution on creation operators.  Partial distinguishability is a
two-component mixture: weight v on a fully indistinguishable run (shared
temporal label) and 1-v on a fully distinguishable one (distinct labels),
which reproduces the linear scaling of two-photon interference dips.

Post-selection on one photon per output port is applied explicitly and the
discarded norm is reported as a success probability, never dropped
silently.
"""

from __future__ import annotations

import itertools
import math
import reprlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import circuit as _circuit
from .qstate import (
    KET_A, KET_D, Projector, _SQRT2, _finite, _finite_grid, _frozen_array, _instance,
    _unit_interval, bell_ket, w_gate)

POL_H = "H"
POL_V = "V"
_POLS = (POL_H, POL_V)


class Mode(NamedTuple):
    spatial: str
    pol: str
    temporal: str


def _pattern_norm_factor(pattern: tuple) -> float:
    """sqrt(prod n_m!) over the occupation multiplicities of a pattern."""
    distinct = set(pattern)
    if len(distinct) == len(pattern):
        return 1.0
    return math.sqrt(math.prod(math.factorial(pattern.count(m)) for m in distinct))


@dataclass
class ModeState:
    """Amplitudes over photon occupation patterns (normalized Fock basis)."""

    amps: dict

    @classmethod
    def from_patterns(cls, entries) -> "ModeState":
        amps = {}
        for modes, amp in entries:
            key = tuple(sorted(modes))
            amps[key] = amps.get(key, 0.0) + complex(amp)
        return cls(amps)

    def transform(self, mode_map: Callable[[Mode], list]) -> "ModeState":
        """Substitute a_m -> sum_k c_k a_k per the map, expanding products.

        ``mode_map(mode)`` returns a list of (new_mode, coefficient) or None
        for identity.
        """
        out = defaultdict(complex)
        images = {}  # each distinct mode is mapped once per call
        for pattern, amp in self.amps.items():
            factors = []
            for mode in pattern:
                image = images.get(mode)
                if image is None:
                    image = mode_map(mode)
                    image = images[mode] = [(mode, 1.0)] if image is None else image
                factors.append(image)
            scaled = amp / _pattern_norm_factor(pattern)
            for combo in itertools.product(*factors):
                coef = scaled
                for _, c in combo:
                    coef *= c
                out[tuple(sorted([m for m, _ in combo]))] += coef
        amps = {
            p: a * _pattern_norm_factor(p)
            for p, a in out.items()
            if abs(a) > 1e-15
        }
        return ModeState(amps)

    def postselect_one_per_port(self, ports) -> tuple["ModeState", float]:
        """Keep patterns with exactly one photon in each listed port.

        Returns the (unnormalized) conditional state and its success
        probability.
        """
        wanted = tuple(sorted(ports))
        kept = {
            p: a
            for p, a in self.amps.items()
            if tuple(sorted(m.spatial for m in p)) == wanted
        }
        return ModeState(kept), float(sum(abs(a) ** 2 for a in kept.values()))


def _linear_map(modes, matrix) -> Callable[[Mode], list]:
    """Mapper of a linear map on the listed (port, polarization) modes.

    The k-th mode goes to sum_r matrix[r, k] times the r-th, with the
    photon's temporal label kept; other modes pass unchanged, and zero
    coefficients are dropped.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (len(modes), len(modes)):
        raise ValueError(f"matrix shape {matrix.shape} does not fit {len(modes)} modes")
    columns = dict(zip(modes, matrix.T.tolist()))
    if len(columns) < len(modes):
        raise ValueError(f"modes {modes} are not distinct")

    def mapper(mode: Mode):
        column = columns.get(mode[:2])
        if column is None:
            return None
        return [(Mode(port, pol, mode.temporal), c)
                for (port, pol), c in zip(modes, column) if c != 0]

    return mapper


def polarization_map(spatial: str, jones: np.ndarray) -> Callable[[Mode], list]:
    """Waveplate/rotation acting on the polarization of one spatial port."""
    return _linear_map([(spatial, pol) for pol in _POLS], jones)


def _ppbs_map(in_modes, t_h: float, t_v: float) -> Callable[[Mode], list]:
    """Partial polarizing beam splitter on a pair of spatial ports.

    Per polarization p with transmission T_p: a -> sqrt(T) a + sqrt(1-T) b,
    b -> sqrt(1-T) a - sqrt(T) b (real symmetric convention).  T_h = T_v = 1/2
    degenerates to a balanced beam splitter.
    """
    _unit_interval("t_h", t_h)
    _unit_interval("t_v", t_v)
    th, tv = math.sqrt(t_h), math.sqrt(t_v)
    rh, rv = math.sqrt(1.0 - t_h), math.sqrt(1.0 - t_v)
    matrix = [[th, 0, rh, 0], [0, tv, 0, rv], [rh, 0, -th, 0], [0, rv, 0, -tv]]
    return _linear_map([(port, pol) for port in in_modes for pol in _POLS], matrix)


def _pbs_map(in_modes) -> Callable[[Mode], list]:
    """Polarizing beam splitter: H transmits, V swaps ports (real convention)."""
    matrix = [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]
    return _linear_map([(port, pol) for port in in_modes for pol in _POLS], matrix)


def _attenuation_map(spatial: str, pol: str, transmission: float,
                     loss_label: str) -> Callable[[Mode], list]:
    """Route 1-T of one port's polarization into a dedicated loss port.

    Photon number is conserved globally; the loss port simply never
    satisfies the post-selection condition.
    """
    _unit_interval("transmission", transmission)
    rt, rr = math.sqrt(transmission), math.sqrt(1.0 - transmission)
    return _linear_map([(spatial, pol), (loss_label, pol)], [[rt, 0.0], [rr, 1.0]])


@dataclass(frozen=True)
class OverlapModel:
    """Mode overlap v, optionally as a Gaussian function of stage position."""

    v: float = 1.0
    x0: float | None = None
    sigma: float | None = None

    def __post_init__(self):
        _unit_interval("v", self.v)
        if (self.x0 is None) != (self.sigma is None):
            raise ValueError("x0 and sigma must be given together")
        if self.x0 is not None:
            _finite("x0", self.x0, "position")
            if _finite("sigma", self.sigma, "width") <= 0:
                raise ValueError("sigma must be positive")

    def value(self, x: float) -> float:
        if self.x0 is None:
            return self.v
        z = (x - self.x0) / self.sigma
        return math.exp(-0.5 * z * z)


@dataclass(frozen=True)
class HomScanResult:
    positions: tuple
    coincidence: tuple
    baseline: float
    contrast: float


def hom_scan(transmission: float, overlap: OverlapModel, positions) -> HomScanResult:
    """Two-photon coincidence dip across a delay scan.

    P(x) = T^2 + R^2 - 2 T R v(x); the reported contrast is
    (baseline - min P) / baseline with baseline = T^2 + R^2.
    """
    _unit_interval("transmission", transmission)
    _instance("overlap", overlap, OverlapModel)
    positions = tuple(_finite_grid("positions", positions, "values").tolist())
    t, r = transmission, 1.0 - transmission
    baseline = t * t + r * r
    curve = tuple(baseline - 2.0 * t * r * overlap.value(x) for x in positions)
    contrast = (baseline - min(curve)) / baseline if baseline > 0 else 0.0
    return HomScanResult(positions=positions, coincidence=curve,
                         baseline=baseline, contrast=contrast)


class PostselectedMap:
    """Completely positive two-qubit map from a post-selected interferometer.

    ``kraus`` is the read-only (k, 4, 4) stack of its Kraus operators, each
    scaled by the square root of its temporal-distinguishability branch's
    weight; a branch's terms are labelled by orthogonal temporal configurations.
    """

    __slots__ = ("kraus",)

    def __init__(self, kraus):
        self.kraus = _frozen_array(kraus)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Unnormalized conditional output state of a finite 4x4 ``rho``."""
        try:
            mat = np.asarray(rho, dtype=complex)
        except (TypeError, ValueError):  # a str, or a ragged nesting
            mat = np.empty(0)
        if mat.shape != (4, 4) or not np.all(np.isfinite(mat)):
            raise ValueError(f"rho must be a finite 4x4 matrix, got {reprlib.repr(rho)}")
        out = np.zeros_like(mat)
        for k in self.kraus:
            out += k @ mat @ k.conj().T
        return out

    def success_probability(self) -> float:
        """Heralding probability for a maximally mixed input."""
        return float(np.real(np.trace(self.apply(np.eye(4, dtype=complex) / 4.0))))

    @property
    def coherent_operator(self) -> np.ndarray:
        """The single Kraus operator, when the map is a pure rescaled unitary."""
        if len(self.kraus) != 1:
            raise ValueError("map is not coherent (multiple Kraus operators)")
        return self.kraus[0]


def _run(state: ModeState, elements) -> ModeState:
    """``state`` through a tuple of element maps, one ``transform`` each, in order."""
    for element in elements:
        state = state.transform(element)
    return state


# The fixed optics, built and checked once.  Controlled phase on ports ("s",
# "c"): PPBS with T_h = 1, T_v = 1/3, 1/3-transmission balancing of each
# output's horizontal component, then a path phase of pi on the control port
# (the phase reference that absorbs the sign of the beam-splitter
# convention).  The controlled Hadamard wraps it in the target-side W.
_CZ_CHAIN = (_ppbs_map(("s", "c"), 1.0, 1.0 / 3.0),
             _attenuation_map("s", POL_H, 1.0 / 3.0, "loss_s"),
             _attenuation_map("c", POL_H, 1.0 / 3.0, "loss_c"),
             polarization_map("c", -np.eye(2)))
_W = w_gate().matrix
_CH_CHAIN = (polarization_map("s", _W.conj().T), *_CZ_CHAIN, polarization_map("s", _W))
# the control and ancilla arms' fixed polarization rotations, the last two of
# the circuit's fixed gates, as one matrix on (c, a) polarizations, index 2*c + a
_ARM = _frozen_array(np.kron(*_circuit._FIXED_GATES[2:]))
# the analyzer's interference beam splitter, where its two photons meet
_ANALYZER_FIXED = (_pbs_map(("c", "a")),)
_DA_KETS = {"D": KET_D, "A": KET_A}
# Bob's diagonal-basis outcomes as rows <oc| (x) <oa| on (c, a); the cross
# outcomes DA and AD come first
_SCAN_OUTCOMES = ("DA", "AD", "DD", "AA")
_SCAN_BRAS = np.array([np.kron(_DA_KETS[oc], _DA_KETS[oa]) for oc, oa in _SCAN_OUTCOMES]).conj()
_CROSS_BRAS = _SCAN_BRAS[:2]


def _port_amplitudes(state: ModeState, ports) -> dict:
    """Post-select one photon per port; a polarization tensor per temporal configuration.

    Keys are the temporal labels in port order, tensor indices the
    polarizations in port order (H = 0, V = 1).  Distinct temporal
    configurations are orthogonal environments and never interfere.
    """
    kept, _ = state.postselect_one_per_port(ports)
    tensors = defaultdict(lambda: np.zeros((2,) * len(ports), dtype=complex))
    for pattern, amp in kept.amps.items():
        by_port = {m.spatial: m for m in pattern}
        modes = [by_port[port] for port in ports]
        key = tuple(m.temporal for m in modes)
        tensors[key][tuple(_POLS.index(m.pol) for m in modes)] += amp
    return tensors


def _transfer(elements, ports, labels) -> list:
    """Post-selected 4x4 maps of a two-photon pipeline, one per temporal configuration.

    Row and column index 2*i + j for polarization i on ``ports[0]`` and j on
    ``ports[1]``; the input photons carry the temporal ``labels``.  The maps
    are the Kraus terms of the pipeline, sorted by temporal configuration.
    """
    maps = defaultdict(lambda: np.zeros((4, 4), dtype=complex))
    for col, (pol0, pol1) in enumerate(itertools.product(_POLS, repeat=2)):
        start = ModeState.from_patterns(
            [((Mode(ports[0], pol0, labels[0]), Mode(ports[1], pol1, labels[1])), 1.0)]
        )
        for key, tensor in _port_amplitudes(_run(start, elements), ports).items():
            maps[key][:, col] = tensor.reshape(4)
    return [maps[key] for key in sorted(maps)]


# the analyzer's fixed optics as post-selected Kraus terms on (c, a), one stack per
# pair of input temporal labels (l_c, l_a): the beam splitter's maps times the right
# factor kron(I, HWP(0)) = diag(1, -1, 1, -1), the ancilla's half-wave plate at 0
_ANALYZER_KRAUS = {labels: np.array(_transfer(_ANALYZER_FIXED, ("c", "a"), labels))
                   * [1.0, -1.0, 1.0, -1.0]
                   for labels in (("t0", "t0"), ("t0", "t1"), ("t1", "t0"))}
# the same terms read out on the cross outcomes, (k, 1, 2, 4); axis 1 takes Bob's plates
_CROSS_KRAUS = {labels: _frozen_array((_CROSS_BRAS @ kraus)[:, None])
                for labels, kraus in _ANALYZER_KRAUS.items()}
# a photon pair's temporal labels in its two overlap branches: shared, then distinct
_PAIR_LABELS = (("t0", "t0"), ("t0", "t1"))
# the gate chains as post-selected Kraus stacks on (c, s), one per branch; a
# gate call only weights them
_CZ_KRAUS, _CH_KRAUS = (tuple(np.array(_transfer(chain, ("c", "s"), labels))
                              for labels in _PAIR_LABELS) for chain in (_CZ_CHAIN, _CH_CHAIN))


# the pair (|HV> + |VH>)/sqrt2 on (c, a) that bsm_scan feeds the analyzer
_SCAN_KET = _frozen_array(_ARM @ bell_ket("psi+"))


def _plates(angles) -> np.ndarray:
    """Bob's theta2 plates kron(HWP(t/2), I) on (c, a), one per angle t, as an (n, 4, 4) stack.

    A plate acts on port c alone and keeps every temporal label, so it is one
    right factor of each of the analyzer's fixed maps."""
    return np.array([[[c, 0.0, s, 0.0], [0.0, c, 0.0, s], [s, 0.0, -c, 0.0], [0.0, s, 0.0, -c]]
                     for c, s in ((math.cos(t), math.sin(t)) for t in angles)])


def _overlap_branches(v: float, same, distinct) -> list:
    """Weight v on the shared-label branch ``same``, 1 - v on ``distinct``, as floats."""
    v = float(_unit_interval("v", v))
    return [(w, branch) for w, branch in ((v, same), (1.0 - v, distinct)) if w > 0.0]


def _physical_gate(v: float, stacks: tuple) -> tuple[PostselectedMap, float]:
    """Gate map in the (control, target) basis, index 2*c + s with H = 0, V = 1."""
    gate_map = PostselectedMap(np.concatenate(
        [math.sqrt(w) * kraus for w, kraus in _overlap_branches(v, *stacks) if w > 1e-15]))
    return gate_map, gate_map.success_probability()


def physical_cz(v: float) -> tuple[PostselectedMap, float]:
    """Post-selected controlled-phase gate from two-photon interference.

    At v = 1 the renormalized map is diag(1, 1, 1, -1) with success
    probability 1/9; at v < 1 the conditional map decoheres through the
    temporal-label mixture.  The returned probability is for a maximally
    mixed input.
    """
    return _physical_gate(v, _CZ_KRAUS)


def physical_ch(v: float) -> tuple[PostselectedMap, float]:
    """The controlled-phase chain conjugated by the target-side rotation."""
    return _physical_gate(v, _CH_KRAUS)


def bsm_projector_physical(theta2: float) -> Projector:
    """Effective two-photon projector realized by the analyzer chain.

    The cross outcomes DA and AD herald the "+" result; the matrix equals
    the circuit-level projector onto cos(theta2)|phi-> + sin(theta2)|psi+>.
    """
    (transfer,) = _ANALYZER_KRAUS["t0", "t0"] @ _plates([_finite("theta2", theta2)])[0]
    rows = _CROSS_BRAS @ transfer
    return Projector(rows.conj().T @ rows)


@dataclass(frozen=True)
class BsmScanResult:
    positions: tuple
    rates: dict  # keys "DA", "AD", "DD", "AA" -> read-only float64 array, one rate per position


def bsm_scan(theta2: float, overlap: OverlapModel, positions) -> BsmScanResult:
    """Diagonal-basis coincidence curves across the analyzer delay scan.

    At full overlap the cross outcomes DA/AD peak while DD/AA vanish; with
    no overlap all four rates coincide.
    """
    _instance("overlap", overlap, OverlapModel)
    positions = tuple(_finite_grid("positions", positions, "values").tolist())
    (plate,) = _plates([_finite("theta2", theta2)])
    probs = []
    for labels in _PAIR_LABELS:
        amps = _SCAN_BRAS @ (_ANALYZER_KRAUS[labels] @ plate) @ _SCAN_KET  # (Kraus term, outcome)
        probs.append((np.abs(amps) ** 2).sum(axis=0).tolist())
    same, dist = probs
    v = np.array([overlap.value(x) for x in positions], dtype=float)
    # per position the same two products and one sum as the scalar formula
    rates = {out: _frozen_array(v * same[k] + (1.0 - v) * dist[k], float)
             for k, out in enumerate(_SCAN_OUTCOMES)}
    return BsmScanResult(positions=positions, rates=rates)


def physical_correlation(config: _circuit.ExperimentConfig, v: float) -> float:
    """End-to-end correlation from the second-quantized pipeline.

    v is the temporal overlap of photons S and C at the gate beam splitter,
    and the only imperfection modelled: ``config.noise`` is ignored.  The
    analyzer interference is taken as aligned.  The "-" analyzer outcome is
    a separate run at theta2 + pi/2, as in the counting procedure, with both
    angles from ``circuit._bob_angles``, which names a theta2 whose quarter
    turn does not resolve in floats; the four post-selected rates combine
    exactly like coincidence counts.  S meets no photon before the gate, so
    it enters as the ket ``particle_state(phi)`` beside the source pair on
    (c, a); only the gate chain runs per overlap branch, post-selected on
    ports s, c and a.  Each kept tensor then takes two matmuls: Bob's two
    plates as one stack, then the analyzer's maps on the cross outcomes.
    """
    _instance("config", config, _circuit.ExperimentConfig)
    branches = _overlap_branches(v, ("t0", "t0", "t0"), ("t1", "t0", "t0"))
    c1, s1 = math.cos(config.theta1), math.sin(config.theta1)
    alice = np.array([[c1, s1], [-s1, c1]])  # her "+" and "-" bras on photon S
    # S as the source's plate and the phase plate leave it, beside the pair
    # (|HV> + e^{i delta}|VH>)/sqrt2 on (c, a)
    signal = _circuit.particle_state(config.phi).amplitudes.tolist()
    pair = ((POL_H, POL_V, 1.0 / _SQRT2), (POL_V, POL_H, np.exp(1j * config.delta) / _SQRT2))
    plates = _plates(_circuit._bob_angles([config.theta2]))  # Bob's "+" and "-" runs
    rates = np.zeros((2, 2))  # [alice sign, bob sign]
    for weight, (t_s, t_c, t_a) in branches:
        state = _run(ModeState.from_patterns(
            ((Mode("s", p_s, t_s), Mode("c", p_c, t_c), Mode("a", p_a, t_a)), a_s * a_ca)
            for p_s, a_s in zip(_POLS, signal) for p_c, p_a, a_ca in pair), _CH_CHAIN)
        # Post-selecting here is exact: after the gate only the analyzer moves
        # a photon between ports, and port a holds photon A alone until then.
        # Tensors with distinct temporal keys stay orthogonal.
        for (_, t_c, t_a), tensor in _port_amplitudes(state, ("s", "c", "a")).items():
            rows = alice @ tensor.reshape(2, 4) @ _ARM.T  # (Alice's outcome, c-a polarizations)
            amps = _CROSS_KRAUS[t_c, t_a] @ (plates @ rows.T)  # (term, Bob, cross outcome, Alice)
            rates += weight * (np.abs(amps) ** 2).sum(axis=(0, 2)).T

    total = rates.sum()
    if total <= 0.0:
        raise ValueError("no post-selected events; correlation undefined")
    return float((rates[0, 0] - rates[0, 1] - rates[1, 0] + rates[1, 1]) / total)
