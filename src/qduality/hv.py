"""Hidden-variable models with intrinsic wave/particle tags.

Each deterministic strategy carries a binary tag that fixes the system
photon's single-photon statistics (phase-independent for ``particle``,
fringe-like for ``wave``) together with a pre-assigned analyzer outcome
for every measurement setting.  A model is one weight vector over
strategies, shared by all settings, so setting-independence of the hidden
variable is structural rather than checked at runtime.  Feasibility of a
target family of joint distributions is decided by linear programming:
exactly over the rationals when the inputs are rational, in floating
point with a reported residual otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import lp as _lp
from .circuit import bob_projector, final_state, joint_probability
from .qstate import Projector, bell_ket, projector_onto

FEASIBILITY_TOL = 1e-9

TAG_PARTICLE = "particle"
TAG_WAVE = "wave"
_TAGS = (TAG_PARTICLE, TAG_WAVE)
_OUTCOMES = ("+", "-")


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use.

    scipy.optimize is slow to import and only the float LP needs it, so
    every other user of this module, the CLI included, starts without it.
    """
    from scipy.optimize import linprog as _linprog

    return _linprog(*args, **kwargs)


def particle_stats() -> tuple:
    """Phase-independent outcome statistics (s = 0, 1)."""
    return (0.5, 0.5)


def wave_stats(phi: float) -> tuple:
    """Fringe statistics (cos^2(phi/2), sin^2(phi/2)); sums to 1 exactly."""
    p0 = math.cos(phi / 2.0) ** 2
    return (p0, 1.0 - p0)


def wave_stats_from_cos(cos_phi) -> tuple:
    """Fringe statistics from cos(phi); keeps Fractions exact."""
    one = Fraction(1) if isinstance(cos_phi, (Fraction, int)) else 1.0
    half = one / 2
    return ((one + cos_phi) * half, (one - cos_phi) * half)


@dataclass(frozen=True)
class HVStrategy:
    """One deterministic response: a wave/particle tag plus analyzer outcomes."""

    tag: str
    bob_outcomes: tuple

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"tag must be one of {_TAGS}, got {self.tag!r}")
        outcomes = tuple(self.bob_outcomes)
        if not outcomes or any(o not in _OUTCOMES for o in outcomes):
            raise ValueError(f"bob_outcomes must be '+'/'-' per setting, got {outcomes}")
        object.__setattr__(self, "bob_outcomes", outcomes)


@dataclass(frozen=True)
class HVModel:
    """Probability distribution over deterministic strategies."""

    strategies: tuple
    weights: tuple

    def __post_init__(self):
        strategies = tuple(self.strategies)
        weights = tuple(self.weights)
        if len(strategies) != len(weights) or not strategies:
            raise ValueError("strategies and weights must be equal-length, nonempty")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        total = sum(weights)
        exact = all(isinstance(w, (Fraction, int)) for w in weights)
        if exact:
            if total != 1:
                raise ValueError(f"weights sum to {total}, expected exactly 1")
        elif abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, expected 1 within 1e-12")
        n = len(strategies[0].bob_outcomes)
        if any(len(s.bob_outcomes) != n for s in strategies):
            raise ValueError("all strategies must cover the same settings")
        object.__setattr__(self, "strategies", strategies)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class SettingsList:
    """Measurement settings (theta2, phi) the hidden variable must answer."""

    entries: tuple

    def __post_init__(self):
        entries = tuple((float(t2), float(phi)) for t2, phi in self.entries)
        if not entries:
            raise ValueError("settings list must be nonempty")
        if not all(math.isfinite(v) for entry in entries for v in entry):
            raise ValueError("settings must be finite")
        if len(set(entries)) != len(entries):
            raise ValueError("settings must be distinct")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)


def enumerate_strategies(num_settings: int) -> list:
    """All deterministic strategies, ordered by (tag, outcome bits)."""
    return [
        HVStrategy(tag=tag, bob_outcomes=outcomes)
        for tag in _TAGS
        for outcomes in itertools.product(_OUTCOMES, repeat=num_settings)
    ]


def _stats_for(tag: str, wave_probs):
    return (Fraction(1, 2), Fraction(1, 2)) if tag == TAG_PARTICLE else wave_probs


def predicted_joint(model: HVModel, settings: SettingsList, wave_probs=None):
    """Per-setting joint distributions p(s, b) implied by the model.

    ``wave_probs`` optionally overrides the per-setting fringe statistics
    (e.g. with exact Fractions); by default they are computed from each
    setting's phi.  Returns a list of 2x2 nested lists indexed [s][b] with
    b = 0 for '+' and 1 for '-'.
    """
    n = len(settings)
    if len(model.strategies[0].bob_outcomes) != n:
        raise ValueError("model strategies do not cover the settings list")
    if wave_probs is None:
        wave_probs = [wave_stats(phi) for _, phi in settings.entries]
    if len(wave_probs) != n:
        raise ValueError("wave_probs must align with the settings list")
    joints = []
    for j in range(n):
        table = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
        for strategy, weight in zip(model.strategies, model.weights):
            b = _OUTCOMES.index(strategy.bob_outcomes[j])
            stats = _stats_for(strategy.tag, wave_probs[j])
            for s in (0, 1):
                table[s][b] += weight * stats[s]
        joints.append(table)
    return joints


def _alice_projector_hv(s: int) -> Projector:
    # outcome label s = 0 is the cos^2(phi/2) branch, i.e. Alice's |V> port
    ket = [0.0, 1.0] if s == 0 else [1.0, 0.0]
    return projector_onto(ket)


def quadrature_pair_projector(theta2: float, sign: str) -> Projector:
    """Projector onto cos(theta2)|phi-> +- i sin(theta2)|psi+>.

    The pair is orthogonal only at theta2 = pi/4 + k pi/2; elsewhere the
    two kets do not form a measurement and a ValueError is raised.
    """
    if abs(math.cos(2.0 * theta2)) > 1e-9:
        raise ValueError(
            "the +-i superposition pair is orthogonal only at theta2 = pi/4 + k pi/2"
        )
    phase = 1.0j if sign == "+" else -1.0j
    ket = math.cos(theta2) * bell_ket("phi-") + phase * math.sin(theta2) * bell_ket("psi+")
    return projector_onto(ket)


def quantum_joint(theta2: float, phi: float, basis: str = "real") -> np.ndarray:
    """Joint quantum distribution q(s, b) at one setting.

    Alice measures the system photon in the H/V basis (s = 0 is |V>); Bob
    projects the pair.  ``basis="real"`` uses the real tunable
    superposition cos|phi-> + sin|psi+> and its orthogonal partner at
    theta2 + pi/2; ``basis="quadrature"`` uses the +-i superposition pair,
    which is a valid measurement only at theta2 = pi/4 + k pi/2.
    """
    state = final_state(phi)
    if basis == "real":
        bob = {b: bob_projector(theta2, b) for b in _OUTCOMES}
    elif basis == "quadrature":
        bob = {b: quadrature_pair_projector(theta2, b) for b in _OUTCOMES}
    else:
        raise ValueError(f"basis must be 'real' or 'quadrature', got {basis!r}")
    q = np.zeros((2, 2))
    for s in (0, 1):
        alice = _alice_projector_hv(s)
        for bi, b in enumerate(_OUTCOMES):
            q[s, bi] = joint_probability(state, alice, bob[b])
    return q


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    residual: object  # float or Fraction: min over models of max TV distance
    model: HVModel | None
    method: str  # "exact" or "float"


def _sums_to_one(values) -> bool:
    """Exactly for Fractions and ints, within 1e-9 otherwise."""
    total = sum(values)
    if all(isinstance(v, (Fraction, int)) for v in values):
        return total == 1
    return abs(float(total) - 1.0) <= 1e-9


def _validate_targets(targets, n):
    if len(targets) != n:
        raise ValueError("targets must align with the settings list")
    flat = []
    for table in targets:
        rows = [list(r) for r in table]
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("each target must be a 2x2 joint distribution")
        entries = [rows[s][b] for s in (0, 1) for b in (0, 1)]
        exact = all(isinstance(e, (Fraction, int)) for e in entries)
        if exact:
            if any(e < 0 for e in entries):
                raise ValueError("target probabilities must be nonnegative")
        else:
            if any(e < -1e-12 for e in entries):
                raise ValueError("target probabilities must be nonnegative")
            entries = [max(0.0, float(e)) for e in entries]
        if not _sums_to_one(entries):
            raise ValueError("each target distribution must sum to 1")
        flat.append(entries)
    return flat


def _standard_form(flat_targets, wave_probs, one):
    """min t s.t. A x = b, x >= 0, over the tags' per-setting marginals.

    Columns: W (wave weight), t (residual), per setting x_j (wave weight on
    '+'), m_j+ and m_j-, then one slack per "<=" row.  A setting's
    total-variation distance is 1/2 sum_b max(|sigma_b - S_b|, |k omega_b -
    D_b|) for Bob marginal sigma and wave weights omega; the best sigma_+ in
    [x_j, x_j + 1 - W] leaves |sigma_+ - S_+| = max(0, x_j - S_+, W - x_j - S_-).
    """
    zero, half = 0 * one, one / 2
    rows = [({0: one}, one)]  # ({column: coefficient}, rhs)
    for j, ((q0p, q0m, q1p, q1m), (w0, w1)) in enumerate(zip(flat_targets, wave_probs)):
        s_p, s_m = one * (q0p + q1p), one * (q0m + q1m)
        d_p, d_m = one * (q0p - q1p), one * (q0m - q1m)
        k = one * (w0 - w1)
        x, m_p, m_m = 2 + 3 * j, 3 + 3 * j, 4 + 3 * j
        rows += [({x: one, 0: -one}, zero)]
        for m in (m_p, m_m):
            rows += [({x: one, m: -one}, s_p), ({0: one, x: -one, m: -one}, s_m)]
        rows += [({x: k, m_p: -one}, d_p), ({x: -k, m_p: -one}, -d_p),
                 ({0: k, x: -k, m_m: -one}, d_m), ({0: -k, x: k, m_m: -one}, -d_m),
                 ({m_p: half, m_m: half, 1: -one}, zero)]
    cols = 3 * len(flat_targets) + 2
    a = [[coeffs.get(col, zero) for col in range(cols)]
         + [one if r == i else zero for r in range(len(rows))]
         for i, (coeffs, _) in enumerate(rows)]
    c = [zero, one] + [zero] * (len(a[0]) - 2)
    return c, a, [rhs for _, rhs in rows]


def _witness(x, flat_targets, threshold) -> HVModel:
    """Glue an LP optimum into one model, at most n + 1 strategies per tag.

    Each tag's weight interval is cut at its per-setting '+' masses; a
    piece between two cuts answers '+' at setting j iff it lies below cut j.
    """
    wave_weight = x[0]
    wave_plus = [x[2 + 3 * j] for j in range(len(flat_targets))]
    particle_plus = [q[0] + q[2] - xj for q, xj in zip(flat_targets, wave_plus)]
    pieces = []
    for tag, total, plus in ((TAG_PARTICLE, 1 - wave_weight, particle_plus),
                             (TAG_WAVE, wave_weight, wave_plus)):
        cuts = [min(max(p, 0), total) for p in plus]
        edges = sorted({0, total, *cuts})
        for lo, hi in zip(edges, edges[1:]):
            outcomes = tuple("+" if hi <= cut else "-" for cut in cuts)
            pieces.append((HVStrategy(tag=tag, bob_outcomes=outcomes), hi - lo))
    kept = [(s, w) for s, w in pieces if w > threshold]
    total = sum(w for _, w in kept)
    return HVModel(strategies=tuple(s for s, _ in kept),
                   weights=tuple(w / total for _, w in kept))


def feasibility(targets, settings: SettingsList, wave_probs=None) -> FeasibilityResult:
    """Decide whether a tagged-strategy mixture reproduces the targets.

    Solves min over models of the maximum per-setting total-variation
    distance.  The optimum is zero iff the targets admit a model; otherwise
    it is returned as the infeasibility residual.  Only each tag's
    per-setting outcome marginals enter the distance, and any marginals
    glue into a joint model, so the LP has 3n + 2 variables.  Arithmetic is
    exact when every target (and wave_probs) entry is a Fraction or int,
    floating point with tolerance 1e-9 otherwise.
    """
    n = len(settings)
    flat_targets = _validate_targets(targets, n)
    if wave_probs is None:
        wave_probs = [wave_stats(phi) for _, phi in settings.entries]
    if len(wave_probs) != n:
        raise ValueError("wave_probs must align with the settings list")
    if not all(_sums_to_one(pair) for pair in wave_probs):
        raise ValueError("wave statistics must sum to 1")

    exact = all(isinstance(v, (Fraction, int))
                for v in itertools.chain(*flat_targets, *wave_probs))
    one = Fraction(1) if exact else 1.0
    c, a, b = _standard_form(flat_targets, wave_probs, one)

    if exact:
        res = _lp.solve(c, a, b)
        if res.status != _lp.OPTIMAL:
            raise RuntimeError(f"exact LP unexpectedly {res.status}")
        x, residual = res.x, res.objective
        feasible = residual == 0
    else:
        res = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        if not res.success:
            raise RuntimeError(f"LP solver failed: {res.message}")
        x, residual = res.x, max(res.fun, 0.0)
        feasible = residual <= FEASIBILITY_TOL
    model = _witness(x, flat_targets, 0 if exact else 1e-12) if feasible else None
    return FeasibilityResult(feasible=feasible, residual=residual, model=model,
                             method="exact" if exact else "float")


def chsh_local_bound() -> float:
    """Maximum |S| over all deterministic local assignments; exactly 2."""
    best = 0
    for a1, a2, b1, b2 in itertools.product((-1, 1), repeat=4):
        s = abs(a1 * b1 + a1 * b2 - a2 * b1 + a2 * b2)
        best = max(best, s)
    return float(best)
