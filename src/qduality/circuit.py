"""The three-photon experiment at the qubit level.

Register order is (S, C, A): the system photon S traverses a polarization
interferometer whose output beam splitter is a controlled-Hadamard gate,
with the control photon C entangled with an ancilla photon A.  Alice
analyzes S along an angle theta1; Bob projects the C,A pair onto a tunable
superposition of two Bell states, cos(theta2)|phi-> + sin(theta2)|psi+>.
Bob's "-" outcome is, by construction, the "+" outcome at theta2 + pi/2.
"""

from __future__ import annotations

import math
import operator
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .qstate import (
    ATOL,
    GateOp,
    StateVector,
    bell_ket,
    controlled_hadamard,
    hadamard,
    _SQRT2,
    _apply_matrix,
    _finite,
    _finite_grid,
    _instance,
    _unit_interval,
    _unit_ket,
)

# Default measurement grids: nine analyzer angles spanning [-pi/2, pi/2] and
# nine interferometer phases spanning [0, 2*pi], endpoints included.
THETA2_GRID_9 = tuple(-math.pi / 2 + k * math.pi / 8 for k in range(9))
PHI_GRID_9 = tuple(k * math.pi / 4 for k in range(9))


@dataclass(frozen=True)
class NoiseParams:
    """Two-parameter phenomenological noise model.

    ``visibility`` scales the correlation part of every outcome
    distribution; ``background`` admixes a uniform accidental-coincidence
    floor.  (1, 0) is the ideal case.
    """

    visibility: float = 1.0
    background: float = 0.0

    def __post_init__(self):
        _unit_interval("visibility", self.visibility)
        _unit_interval("background", self.background)

    @property
    def correlation_scale(self) -> float:
        return (1.0 - self.background) * self.visibility


IDEAL = NoiseParams()


@dataclass(frozen=True)
class ExperimentConfig:
    """One measurement setting (theta1, theta2, phi) plus noise parameters."""

    phi: float
    theta1: float = 0.0
    theta2: float = 0.0
    delta: float = math.pi / 4
    noise: NoiseParams = field(default_factory=NoiseParams)

    def __post_init__(self):
        for name in ("phi", "theta1", "theta2", "delta"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        _instance("noise", self.noise, NoiseParams)


@dataclass(frozen=True, slots=True)
class OutcomeDistribution:
    """Joint probabilities for (Alice +-, Bob +-), held as Python floats."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def __post_init__(self):
        for name in ("p_pp", "p_pm", "p_mp", "p_mm"):
            object.__setattr__(self, name, _finite(name, getattr(self, name), "probability"))
        probs = self.as_array()
        if not np.all((probs >= -1e-10) & (probs <= 1.0 + 1e-10)):  # NaN fails too
            raise ValueError(f"probabilities outside [0, 1]: {probs}")
        if not abs(float(probs.sum()) - 1.0) <= 1e-10:
            raise ValueError(f"probabilities sum to {probs.sum()}, expected 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.p_pp, self.p_pm, self.p_mp, self.p_mm], dtype=float)

    @property
    def correlation(self) -> float:
        return self.p_pp - self.p_pm - self.p_mp + self.p_mm


def initial_state(delta: float) -> StateVector:
    """|V>_S (x) (|HV> + e^{i delta}|VH>)_CA / sqrt2, register order (S, C, A)."""
    delta = _finite("delta", delta)
    amps = np.zeros(8, dtype=complex)
    amps[0b101] = 1.0 / _SQRT2                  # |V H V>
    amps[0b110] = np.exp(1j * delta) / _SQRT2   # |V V H>
    return StateVector(amps)


def particle_state(phi: float) -> StateVector:
    """(|H> - e^{i phi}|V>)/sqrt2: H/V statistics independent of phi."""
    return StateVector([1.0 / _SQRT2, -np.exp(1j * _finite("phi", phi)) / _SQRT2])


def wave_state(phi: float) -> StateVector:
    """e^{i phi/2}(-i sin(phi/2)|H> + cos(phi/2)|V>): fringes in phi."""
    half = _finite("phi", phi) / 2.0
    pref = np.exp(1j * half)
    return StateVector([pref * (-1j) * math.sin(half), pref * math.cos(half)])


def control_arm_rotation() -> GateOp:
    """Fixed rotation on photon C: |H> -> |R>, |V> -> |L>."""
    mat = np.array([[1.0, 1.0], [-1.0j, 1.0j]], dtype=complex) / _SQRT2
    return GateOp(mat, label="C:H->R,V->L")


def ancilla_arm_rotation() -> GateOp:
    """Fixed rotation on photon A: |V> -> |R>, |H> -> |L>."""
    mat = np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) / _SQRT2
    return GateOp(mat, label="A:V->R,H->L")


# The four gates of ``_final_states`` that depend on neither phi nor delta,
# in the order it applies them: Hadamard on S, controlled-Hadamard (C, S) and
# the arm rotations on C and A.  Built and checked once, by their validated
# constructors; the matrices are read-only, so every call shares them.
_FIXED_GATES = tuple(gate().matrix for gate in (
    hadamard, controlled_hadamard, control_arm_rotation, ancilla_arm_rotation))


def final_state(phi: float, delta: float = ExperimentConfig.delta) -> StateVector:
    """The output state of the full interferometer: one row of ``_final_states``.

    Hadamard and phase shifter on S, controlled-Hadamard with control C and
    target S, then the fixed circular-basis rotations on C and A.  The
    result is (1/2)[|p>_S(|phi-> - i|psi+>) + e^{i delta}|w>_S(|phi-> + i|psi+>)]
    with |p>/|w> the particle/wave states at phase phi.  ``phi`` is checked
    here and ``delta`` by ``initial_state``; the state owns a copy of its
    amplitudes.
    """
    return StateVector(_final_states(np.array([_finite("phi", phi)]), delta)[0])


def _alice_kets(theta1: float) -> np.ndarray:
    """Alice's "+" ket cos(theta1)|H> + sin(theta1)|V> and its orthogonal "-" one."""
    c, s = math.cos(theta1), math.sin(theta1)
    return np.array([_unit_ket([c, s]), _unit_ket([-s, c])])


def _bob_angles(rows) -> list:
    """Bob's "+" analyzer angles theta2, then his "-" ones, theta2 + pi/2.

    The two analyzers overlap by |cos| of the float difference of their
    angles.  Where rounding leaves that above 1e-10, the quarter turn does
    not resolve: the first theta2 with the largest overlap is named.  A
    non-finite row (NaN overlap) is never named; the caller's checks catch it.
    """
    minus = [t + math.pi / 2 for t in rows]
    overlap = [abs(math.cos(m - t)) for t, m in zip(rows, minus)]
    worst = max(overlap)
    if worst > 1e-10:
        row = overlap.index(worst)
        raise ValueError(f"theta2 = {rows[row]!r} does not resolve theta2 + pi/2: Bob's "
                         f"'+' and '-' analyzers overlap by {worst:.3g}")
    return [*rows, *minus]


def _bob_kets(rows, basis: str = "real") -> np.ndarray:
    """(2, R, 4) kets of Bob's "+" and "-" outcomes per theta2 row.

    "real": cos(t)|phi-> + sin(t)|psi+> at the angles t of ``_bob_angles``,
    which names a theta2 whose quarter turn does not resolve in floats.
    "quadrature": cos(theta2)|phi-> +- i sin(theta2)|psi+>, a measurement
    only at theta2 = pi/4 + k pi/2.  Each ket is divided by its norm.
    """
    if basis == "real":
        cos, sin = ([f(t) for t in _bob_angles(rows)] for f in (math.cos, math.sin))
    elif any(abs(math.cos(2.0 * t)) > 1e-9 for t in rows):
        raise ValueError("the +-i superposition pair is orthogonal only at theta2 = pi/4 + k pi/2")
    else:
        cos = [math.cos(t) for t in rows] * 2
        sin = [phase * math.sin(t) for phase in (1.0j, -1.0j) for t in rows]
    kets = np.array(cos)[:, None] * bell_ket("phi-") + np.array(sin)[:, None] * bell_ket("psi+")
    norm = np.sqrt(sum((sq[:, :1] + sq[:, 1:2]) + (sq[:, 2:3] + sq[:, 3:])
                       for sq in (kets.real * kets.real, kets.imag * kets.imag)))
    if not np.all((norm >= 1e-12) & (norm < math.inf)):  # NaN fails too
        raise ValueError("cannot project onto a zero or non-finite vector")
    return (kets / norm).reshape(2, -1, 4)


def coincidence_probabilities(config: ExperimentConfig) -> OutcomeDistribution:
    """Joint (Alice, Bob) outcome probabilities at one setting.

    Noise is applied at the probability level: the ideal distribution is
    mixed with the uniform one, first by the visibility and then by the
    background fraction, so the correlation scales as (1-b)*V while fair
    marginals stay fair.  The ideal part is ``_joints`` at the one setting.
    """
    _instance("config", config, ExperimentConfig)
    ideal = _joints(np.array([config.theta2]), np.array([config.phi]),
                    _alice_kets(config.theta1), config.delta, "real")[0].ravel()
    scale = config.noise.correlation_scale
    return OutcomeDistribution(*np.clip(scale * ideal + (1.0 - scale) * 0.25, 0.0, 1.0))


def correlation(config: ExperimentConfig) -> float:
    """E = p++ - p+- - p-+ + p--, in [-1, 1]."""
    return coincidence_probabilities(config).correlation


def chsh(phi: float,
         theta1_pair=(0.0, math.pi / 4),
         theta2_pair=(math.pi / 8, 3 * math.pi / 8),
         noise: NoiseParams = IDEAL) -> float:
    """|E(t1,t2) + E(t1,t2') - E(t1',t2) + E(t1',t2')| for the ordered pairs.

    The sign pattern is fixed; the roles of the two Alice angles swap with
    the sign of sin(phi), so callers pick the pair order that matches their
    working point.
    """
    phi_grid = np.array([_finite("phi", phi)], dtype=float)
    pairs = []
    for name, pair in (("theta1_pair", theta1_pair), ("theta2_pair", theta2_pair)):
        pairs.append(_finite_grid(name, pair).tolist())
        if len(pairs[-1]) != 2:
            raise ValueError(f"{name} must hold two angles, got {len(pairs[-1])}")
    (t1, t1p), (t2, t2p) = pairs
    if math.isclose(t1, t1p) or math.isclose(t2, t2p):
        raise ValueError("setting pairs must contain two distinct angles")
    (e, ep), (f, fp) = (correlation_surface(a, (t2, t2p), phi_grid, noise)[:, 0].tolist()
                        for a in (t1, t1p))
    return abs(e + ep - f + fp)


# Blocks of the surface kernel: up to 1024 phases, and rows x phases up to 128,
# so at about 1 KiB per point and 10 KiB per row the workspace stays under 2 MiB
_PHI_BLOCK = 1024
_BLOCK_POINTS = 128


def _final_states(phi_grid: np.ndarray, delta: float) -> np.ndarray:
    """(P, 8) amplitudes of ``final_state(phi, delta)`` for each phi in the grid.

    The gates of ``final_state`` in order, each as one matmul over the
    stack.  Only the phase shifter is built per call; the other four gates
    are the module's ``_FIXED_GATES``, built once at import.
    """
    h, ch, c_arm, a_arm = _FIXED_GATES
    amps = _apply_matrix(initial_state(delta).amplitudes, 3, h, (0,))
    phases = np.zeros((phi_grid.size, 2, 2), dtype=complex)
    phases[:, 0, 0] = 1.0
    phases[:, 1, 1] = np.exp(1j * phi_grid)
    amps = _apply_matrix(amps, 3, phases, (0,))
    amps = _apply_matrix(amps, 3, ch, (1, 0))
    amps = _apply_matrix(amps, 3, c_arm, (1,))
    return _apply_matrix(amps, 3, a_arm, (2,))


def _born(states: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """(4, R, P) Born-rule probabilities, in the order ++ +- -+ --, clamped to [0, 1].

    ``states`` is a (P, 8) stack, ``alice`` Alice's two kets and ``bob``
    Bob's (2, R) kets; each value is <psi|(|a><a| (x) |b><b|)|psi>.  States
    stacked as (R, 1, 8) pair up instead: state r meets only row r, and the
    result is (4, R, 1).
    """
    alice = alice[:, :, None] * alice.conj()[:, None, :]
    bob = bob[..., :, None] * bob.conj()[..., None, :]
    # np.kron(alice[a], bob[b, r]) for every row r at once, by the same
    # products: axes (a, b, r, i, k, j, l) -> (2a + b, r, 4i + k, 4j + l)
    products = (alice[:, None, None, :, None, :, None]
                * bob[:, :, None, :, None, :]).reshape(4, -1, 8, 8)
    # P psi on all three qubits: _apply_matrix's permutation is the identity
    kets = products[:, :, None] @ states.reshape(states.shape + (1,))
    # <psi|P|psi> as conj(psi) @ (P psi): the BLAS dot np.vdot makes,
    # with the conjugation moved onto the (exactly negated) input
    ideal = (states.conj()[..., None, :] @ kets)[..., 0, 0].real
    outside = ~((ideal >= -ATOL) & (ideal <= 1.0 + ATOL))  # NaN too
    if outside.any():
        raise ValueError(f"probability {ideal[outside][0]} outside [0, 1]")
    return np.clip(ideal, 0.0, 1.0)


def _joints(theta2, phi, alice, delta: float, basis: str) -> np.ndarray:
    """Fresh (n, 2, 2) Born probabilities q[j, a, b] at n checked settings (theta2[j], phi[j]).

    One paired ``_born`` call per block of settings: each state
    final_state(phi[j], delta) meets only its own setting's Bob kets.
    """
    q = np.empty((len(phi), 2, 2))
    for first in range(0, len(phi), _BLOCK_POINTS):
        rows = slice(first, first + _BLOCK_POINTS)
        kets = _bob_kets(theta2[rows].tolist(), basis)
        q[rows] = _born(_final_states(phi[rows], delta)[:, None], alice, kets)[..., 0].T.reshape(-1, 2, 2)
    return q


def correlation_surface(theta1: float,
                        theta2_grid=None,
                        phi_grid=None,
                        noise: NoiseParams = IDEAL) -> np.ndarray:
    """E(theta2, phi) table, rows over theta2 and columns over phi.

    Each entry is bit-identical to ``correlation``, which runs the same
    kernel on one setting: one stacked pass of the gate chain per block of
    phases, then ``_born``, the noise mix and the checks per block of theta2
    rows.  The grids are checked once, here; beyond the (T, P) result the
    workspace is bounded by the block size, whatever the shape of the grid.
    """
    _finite("theta1", theta1)
    _instance("noise", noise, NoiseParams)
    theta2_grid = _finite_grid(
        "theta2_grid", THETA2_GRID_9 if theta2_grid is None else theta2_grid)
    phi_grid = _finite_grid("phi_grid", PHI_GRID_9 if phi_grid is None else phi_grid)
    delta = ExperimentConfig.delta  # the default every per-point config gets
    alice = _alice_kets(theta1)
    scale = noise.correlation_scale
    table = np.empty((theta2_grid.size, phi_grid.size))
    for start in range(0, phi_grid.size, _PHI_BLOCK):
        columns = slice(start, start + _PHI_BLOCK)
        states = _final_states(phi_grid[columns], delta)
        step = max(1, _BLOCK_POINTS // len(states))
        for first in range(0, theta2_grid.size, step):
            rows = theta2_grid[first:first + step].tolist()
            noisy = scale * _born(states, alice, _bob_kets(rows)) + (1.0 - scale) * 0.25
            noisy = np.clip(noisy, 0.0, 1.0)
            sums = noisy.sum(axis=0)
            bad = ~(np.abs(sums - 1.0) <= 1e-10)
            if bad.any():
                row, col = np.argwhere(bad)[0]
                raise ValueError(f"probabilities not summing to 1 (sum {sums[row, col]}) "
                                 f"at theta2 = {rows[row]}")
            table[first:first + step, columns] = noisy[0] - noisy[1] - noisy[2] + noisy[3]
    return table


def rng_stream(seed) -> np.random.Generator:
    """Seeded portable generator; a seed that ``np.random.SeedSequence`` rejects is a ValueError,
    and so are None, which it would fill from OS entropy, and a bool, which it reads as 0 or 1."""
    try:
        if seed is None or isinstance(seed, (bool, np.bool_)):
            raise TypeError
        sequence = np.random.SeedSequence(seed)
    except (TypeError, ValueError):  # a str or float, a negative integer, None or a bool
        raise ValueError(f"seed must be a non-negative integer or a sequence of them, "
                         f"got {reprlib.repr(seed)}") from None
    return np.random.Generator(np.random.PCG64(sequence))


# Uniforms drawn per block while sampling: 512 KiB of float64, plus a 64 KiB
# mask, allocated once per call and reused for every block of all three
# binomial steps, whatever the number of shots.  PCG64 yields the same doubles
# however the draws are split, so the counts do not depend on this size.
_SAMPLE_CHUNK = 1 << 16


def sample_counts(distribution: OutcomeDistribution, total: int, seed) -> np.ndarray:
    """Multinomial draw of ``total`` events over the four outcomes.

    Sampled by sequential binomial conditioning, each binomial realized by
    counting uniforms below the conditional probability, so the counts are
    a pure function of the PCG64 stream for the given seed.  The uniforms
    are drawn from ``rng_stream(seed)``, one per remaining event at each
    binomial step, into one reused 512 KiB block, so the working set does
    not grow with ``total``.  ``total`` must be an integer (numpy integers
    included, bools not) from 1 to the int64 maximum 2**63 - 1; anything else
    raises ``TypeError``, and an integer out of that range a ValueError.  ``seed`` is
    what ``rng_stream`` takes; anything else raises a ValueError.
    """
    if isinstance(total, (bool, np.bool_)):  # operator.index reads a bool as 0 or 1
        raise TypeError(f"{type(total).__name__!r} object cannot be interpreted as an integer")
    total = operator.index(total)
    if not 1 <= total < 2**63:  # what the int64 counts hold
        raise ValueError(f"total must be from 1 to 2**63 - 1, got {total}")
    probs = _instance("distribution", distribution, OutcomeDistribution).as_array()
    rng = rng_stream(seed)
    counts = np.zeros(4, dtype=np.int64)
    block = np.empty(min(_SAMPLE_CHUNK, total))
    below = np.empty(block.size, dtype=bool)
    remaining = total
    tail = 1.0
    for k in range(3):
        if remaining == 0 or tail <= 0.0:
            break
        p = min(max(probs[k] / tail, 0.0), 1.0)
        hits = 0
        for start in range(0, remaining, _SAMPLE_CHUNK):
            n = min(_SAMPLE_CHUNK, remaining - start)
            uniforms = rng.random(out=block[:n])
            hits += int(np.count_nonzero(np.less(uniforms, p, out=below[:n])))
        counts[k] = hits
        remaining -= hits
        tail -= probs[k]
    counts[3] = remaining
    return counts


def fit_visibility(theta2_values, measured, theta1: float, phi: float) -> float:
    """Least-squares visibility of a measured correlation curve.

    Fits measured ~= V * E_ideal(theta2) at fixed (theta1, phi); closed-form
    linear regression through the origin.  Both curves must be nonempty,
    equally long and finite; a ValueError names the one that is not.
    """
    theta2_values = _finite_grid("theta2_values", theta2_values)
    measured = _finite_grid("measured", measured, "values")
    if measured.size != theta2_values.size:
        raise ValueError("measured must hold one value per theta2_values angle")
    ideal = correlation_surface(theta1, theta2_values, np.array([_finite("phi", phi)], dtype=float))[:, 0]
    denom = float(np.dot(ideal, ideal))
    if denom < 1e-12:
        raise ValueError("ideal curve is identically zero; visibility undefined")
    return float(np.dot(ideal, measured) / denom)
