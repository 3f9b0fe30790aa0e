"""Hidden-variable models with intrinsic wave/particle tags.

Each deterministic strategy carries a binary tag that fixes the system
photon's single-photon statistics (phase-independent for ``particle``,
fringe-like for ``wave``) together with a pre-assigned analyzer outcome
for every measurement setting.  A model is one weight vector over
strategies, shared by all settings, so setting-independence of the hidden
variable is structural rather than checked at runtime.  Feasibility of a
target family of joint distributions is a linear program whose optimum is
the minimum of a convex piecewise-linear function of the wave weight.
Kelley cuts find it to 1e-12 for floats and exactly for rational inputs,
whose cuts run in integer coordinates and break ties by (value, +-slope),
the first candidate winning; a float loop that stalls finishes exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import reprlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circuit import ExperimentConfig, _BLOCK_POINTS, _born, _bob_kets, _final_states
from .qstate import _COMPLEX, _finite, _instance

FEASIBILITY_TOL = 1e-9
_FLOAT_TOL = 1e-12  # a float Kelley loop stops when g is this close to its lower bound
_FLOAT_ROUNDING = 64 * np.finfo(float).eps  # bounds the rounding of a float cut's distances
_FLOAT_CUTS = 64  # a float Kelley loop finishes on the exact one after this many cuts

TAG_PARTICLE = "particle"
TAG_WAVE = "wave"
_TAGS = (TAG_PARTICLE, TAG_WAVE)
_OUTCOMES = ("+", "-")
# Alice's H/V analyzer kets, s = 0 first: the cos^2(phi/2) branch is her |V> port
_ALICE_HV = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use.

    No program path or test calls it.  It stays only because the
    benchmark's tracer (``perfbench/spans.py``) wraps ``hv.linprog`` by name,
    and every traced run and the benchmark self-test crash without it; it
    goes with the benchmark rework of ROADMAP item 1.
    """
    from scipy.optimize import linprog as _linprog

    return _linprog(*args, **kwargs)


def wave_stats(phi: float) -> tuple:
    """Fringe statistics (cos^2(phi/2), sin^2(phi/2)); sums to 1 exactly."""
    p0 = math.cos(_finite("phi", phi) / 2.0) ** 2
    return (p0, 1.0 - p0)


@dataclass(frozen=True, slots=True)
class HVStrategy:
    """One deterministic response: a wave/particle tag plus analyzer outcomes."""

    tag: str
    bob_outcomes: str  # one '+' or '-' per setting

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"tag must be one of {_TAGS}, got {self.tag!r}")
        outcomes = self.bob_outcomes
        if not (isinstance(outcomes, str) and outcomes and not outcomes.strip("+-")):
            raise ValueError(f"bob_outcomes must be '+'/'-' per setting, got {outcomes!r}")


@dataclass(frozen=True, slots=True)
class HVModel:
    """Probability distribution over deterministic strategies."""

    strategies: tuple
    weights: tuple

    def __post_init__(self):
        strategies = tuple(self.strategies)
        weights = tuple(self.weights)
        if len(strategies) != len(weights) or not strategies:
            raise ValueError("strategies and weights must be equal-length, nonempty")
        if not all(isinstance(s, HVStrategy) for s in strategies):
            raise ValueError(f"strategies must be HVStrategy instances, got {reprlib.repr(strategies)}")
        if not all(isinstance(w, numbers.Real) for w in weights):
            raise ValueError(f"weights must be real numbers, got {reprlib.repr(weights)}")
        exact = all(isinstance(w, (Fraction, int)) for w in weights)
        if not exact and not all(map(math.isfinite, weights)):
            raise ValueError("weights must be finite")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        total = sum(weights)
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


def _number(value) -> float:
    """``float(value)``, with a TypeError for a str or bytes, which ``float`` would parse,
    and for a complex number, whose imaginary part ``float`` would drop for numpy's."""
    if isinstance(value, (str, bytes, *_COMPLEX)):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _settings_table(settings) -> np.ndarray:
    """``settings`` as an (n, 2) float array of finite (theta2, phi) pairs, n >= 1."""
    try:
        table = np.array(tuple(settings))
        if table.dtype.kind not in "fiub":  # Fractions, say, are read one at a time
            if table.dtype != object:  # str, bytes or complex
                raise TypeError
            table = np.array([_number(v) for v in table.flat]).reshape(table.shape)
    except OverflowError:  # an int too large for a float
        raise ValueError("settings must be finite") from None
    except (TypeError, ValueError):  # also pairs of unequal length
        raise ValueError("settings must be (theta2, phi) pairs of numbers") from None
    if not len(table):
        raise ValueError("settings list must be nonempty")
    if table.shape[1:] != (2,):
        raise ValueError("settings must be (theta2, phi) pairs of numbers")
    table = table.astype(float, copy=False)
    if not np.all(np.isfinite(table)):
        raise ValueError("settings must be finite")
    return table


@dataclass(frozen=True, slots=True)
class SettingsList:
    """Measurement settings (theta2, phi) the hidden variable must answer."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(map(tuple, _settings_table(self.entries).tolist()))
        if len(set(entries)) != len(entries):
            raise ValueError("settings must be distinct")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)


def enumerate_strategies(num_settings: int) -> list:
    """All deterministic strategies, ordered by (tag, outcome bits)."""
    return [
        HVStrategy(tag=tag, bob_outcomes="".join(outcomes))
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
    n = len(_instance("settings", settings, SettingsList))
    if len(_instance("model", model, HVModel).strategies[0].bob_outcomes) != n:
        raise ValueError("model strategies do not cover the settings list")
    wave_probs = _wave_probs(wave_probs, settings)
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


def quantum_joint(theta2: float, phi: float, basis: str = "real") -> np.ndarray:
    """One setting's ``quantum_joints`` table, as a fresh 2x2 array that owns its data."""
    setting = (_finite("theta2", theta2), _finite("phi", phi))
    return quantum_joints([setting], basis)[0].copy()


def quantum_joints(settings, basis: str = "real") -> np.ndarray:
    """Joint quantum distributions q(s, b) per (theta2, phi) setting, as a fresh (n, 2, 2) array.

    Alice measures the system photon in the H/V basis (s = 0 is |V>); Bob
    projects the pair.  ``basis="real"`` uses the real tunable
    superposition cos|phi-> + sin|psi+> and its orthogonal partner at
    theta2 + pi/2; ``basis="quadrature"`` uses the +-i superposition pair,
    which is a valid measurement only at theta2 = pi/4 + k pi/2.  Per block
    of settings, the circuit's ``_born`` pairs each state ``final_state(phi)``
    with its own setting's kets only.
    """
    table = _settings_table(settings)
    if basis not in ("real", "quadrature"):
        raise ValueError(f"basis must be 'real' or 'quadrature', got {basis!r}")
    q = np.empty((len(table), 2, 2))
    for first in range(0, len(table), _BLOCK_POINTS):
        theta2, phi = table[first:first + _BLOCK_POINTS].T.tolist()
        states = _final_states(np.array(phi), ExperimentConfig.delta)[:, None]
        ideal = _born(states, _ALICE_HV, _bob_kets(theta2, basis))
        q[first:first + _BLOCK_POINTS] = ideal[..., 0].T.reshape(-1, 2, 2)
    return q


@dataclass(frozen=True, slots=True)
class FeasibilityResult:
    feasible: bool
    residual: object  # float or Fraction: min over models of max TV distance
    model: HVModel | None
    method: str  # "exact" or "float"
    cuts: int  # Kelley cuts made, in both loops when a float solve reaches the cap


def _python_fraction(value):
    """A Fraction or int as a Fraction of Python ints (numpy ones cannot hash); others as is."""
    if isinstance(value, (Fraction, int)):
        return Fraction(int(value.numerator), int(value.denominator))
    return value


def _sums_to_one(values) -> bool:
    """Exactly for Fractions and ints, within 1e-9 otherwise."""
    total = sum(values)
    if all(isinstance(v, (Fraction, int)) for v in values):
        return total == 1
    return abs(float(total) - 1.0) <= 1e-9


def _length(name: str, values) -> int:
    """``len(values)``, or a ValueError naming ``name`` when it is not a sequence."""
    try:
        return len(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, got {reprlib.repr(values)}") from None


def _wave_probs(wave_probs, settings: SettingsList) -> list:
    """Per-setting fringe statistics, checked; by default each setting's ``wave_stats``."""
    if wave_probs is None:
        wave_probs = [wave_stats(phi) for _, phi in settings.entries]
    if _length("wave_probs", wave_probs) != len(settings):
        raise ValueError("wave_probs must align with the settings list")
    try:
        wave_probs = [tuple(map(_python_fraction, pair)) for pair in wave_probs]
    except TypeError:  # an entry that is not a sequence
        wave_probs = [()]
    if not all(len(pair) == 2 for pair in wave_probs):
        raise ValueError("wave_probs must hold one pair of numbers per setting")
    if not all(isinstance(w, numbers.Real) and 0 <= w <= 1  # NaN fails too
               for pair in wave_probs for w in pair):
        raise ValueError("wave statistics must lie in [0, 1]")
    if not all(_sums_to_one(pair) for pair in wave_probs):
        raise ValueError("wave statistics must sum to 1")
    return wave_probs


def _validate_targets(targets, n):
    if _length("targets", targets) != n:
        raise ValueError("targets must align with the settings list")
    flat = []
    for table in targets:
        try:
            rows = [list(r) for r in table]
        except TypeError:  # a table or a row that is not a sequence
            rows = []
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("each target must be a 2x2 joint distribution")
        entries = [rows[s][b] for s in (0, 1) for b in (0, 1)]
        exact = all(isinstance(e, (Fraction, int)) for e in entries)
        if exact:
            entries = [_python_fraction(e) for e in entries]
            if any(e < 0 for e in entries):
                raise ValueError("target probabilities must be nonnegative")
        else:
            try:
                entries = [_number(e) for e in entries]
            except (TypeError, ValueError):  # None, a str or a complex entry
                raise ValueError("target probabilities must be real numbers") from None
            if not all(map(math.isfinite, entries)):
                raise ValueError("target probabilities must be finite")
            if any(e < -1e-12 for e in entries):
                raise ValueError("target probabilities must be nonnegative")
            entries = [max(0.0, e) for e in entries]
        if not _sums_to_one(entries):
            raise ValueError("each target distribution must sum to 1")
        flat.append(entries)
    return flat


def _distance_pieces(q, k, one=1):
    """The pieces (a, b, c) of a x + b W + c in the plus and minus maxima.

    ``q`` is (q0+, q0-, q1+, q1-) and ``k`` is cos phi, as numbers or as
    arrays over settings, each scaled by ``one``.
    """
    q0p, q0m, q1p, q1m = q
    s_p, s_m, d_p, d_m = q0p + q1p, q0m + q1m, q0p - q1p, q0m - q1m
    zero = k - k  # of k's type: a number or an array
    shared = [(zero, zero, zero), (zero + one, zero, -s_p), (zero - one, zero + one, -s_m)]
    return (shared + [(k, zero, -d_p), (-k, zero, d_p)],
            shared + [(-k, k, -d_m), (k, -k, d_m)])


def _setting_pieces(q, wave):
    """One setting's candidate optima x = (p W + r) / den, each with its distance lines.

    Twice the setting's distance at x in [0, W] is max(plus) + max(minus)
    over pieces a x + b W + c.  Its minimum over x lies at x = 0, x = W or
    where two pieces of one max cross, each affine in W; substituting a
    candidate turns every piece into a line in W.  All of it is integer:
    the targets and cos phi scaled by their least common denominator d,
    each candidate a reduced (p, r, den) with den > 0, sorted by (p / den,
    r / den), and its lines (slope, intercept) over dd = d * den.
    """
    values = (*q, wave[0] - wave[1])
    d = math.lcm(*(v.denominator for v in values))
    *q, k = (v.numerator * (d // v.denominator) for v in values)
    plus, minus = _distance_pieces(q, k, d)
    candidates = {(0, 0, 1), (1, 0, 1)}
    for pieces in (plus, minus):
        for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(pieces, 2):
            if a1 != a2:
                g = math.gcd(b2 - b1, c2 - c1, a1 - a2) * (1 if a1 > a2 else -1)
                candidates.add(((b2 - b1) // g, (c2 - c1) // g, (a1 - a2) // g))
    lcd = math.lcm(*(den for _, _, den in candidates))
    ordered = sorted(candidates, key=lambda x: (x[0] * lcd // x[2], x[1] * lcd // x[2]))
    return [(p, r, den, d * den, [(a * p + b * den, a * r + c * den) for a, b, c in plus],
             [(a * p + b * den, a * r + c * den) for a, b, c in minus]) for p, r, den in ordered]


def _below(line, other, side):
    """Whether line's (value, side * slope) is below other's, cross-multiplied by dd."""
    return ((line[0] * other[3], side * line[1] * other[3])
            < (other[0] * line[3], side * other[1] * line[3]))


def _setting_line(pieces, pw, qw, side):
    """Twice r_j's line just to one side of w = pw / qw, and the x_j there.

    Returns (value, slope, intercept, dd, x, den): the line over dd, its
    value at w over qw * dd, and x_j = x / (qw * den).  The largest piece of
    each max, then the smallest candidate win, the first among equals.
    """
    best = None
    for p, r, den, dd, plus, minus in pieces:
        x = p * pw + r * qw
        if (x, side * p) < (0, 0) or (den * pw - x, side * (den - p)) < (0, 0):
            continue  # x leaves [0, W] on that side of w
        v_p, _, s_p, i_p = max((s * pw + i * qw, side * s, s, i) for s, i in plus)
        v_m, _, s_m, i_m = max((s * pw + i * qw, side * s, s, i) for s, i in minus)
        option = v_p + v_m, s_p + s_m, i_p + i_m, dd, x, den
        if best is None or _below(option, best, side):
            best = option
    return best


def _exact_cut(flat_targets, wave_probs):
    """The ``cut`` of ``_kelley`` for Fractions, in integer coordinates.

    w enters as its numerator and denominator; only the returned line and
    x_j are Fractions.  The largest setting wins, the first among equals.
    """
    settings = [_setting_pieces(q, wave) for q, wave in zip(flat_targets, wave_probs)]

    def cut(w, side):
        lines = [_setting_line(pieces, w.numerator, w.denominator, side) for pieces in settings]
        _, slope, intercept, dd, _, _ = functools.reduce(
            lambda top, line: line if _below(top, line, side) else top, lines)
        return ((Fraction(slope, dd), Fraction(intercept, dd)),
                [Fraction(x, w.denominator * den) for *_, x, den in lines])

    return cut


def _lex_argmax(value, slope):
    """Index along axis 0 of the largest (value, slope) pair.

    Values within _FLOAT_ROUNDING of the largest count as tied, so that
    rounding does not decide on which side of a kink of g a cut's line lies.
    """
    top = value >= value.max(axis=0) - _FLOAT_ROUNDING
    return np.argmax(np.where(top, slope, -np.inf), axis=0)


def _lex_nonnegative(value, slope, err):
    """(value, slope) >= (0, 0), with values within err of 0 tied with it."""
    return (value > err) | ((value >= -err) & (slope >= 0))


def _float_cut(flat_targets, wave_probs):
    """The ``cut`` of ``_kelley`` in floats, every setting at once in numpy.

    The table holds, per setting, the candidates of ``_setting_pieces`` as
    x = p W + r (a crossing of two parallel pieces repeats x = 0) and the
    slope in W of every piece along every candidate.  A cut evaluates the
    pieces at x itself, not through lines in W, whose coefficients grow as
    1 / |a1 - a2| when two pieces are nearly parallel.
    """
    q = np.array(flat_targets, dtype=float).T
    k = np.array([w0 - w1 for w0, w1 in wave_probs], dtype=float)
    a, b, c = np.array(_distance_pieces(q, k)).transpose(2, 1, 0, 3)[..., None, :]
    first, second = np.array(list(itertools.combinations(range(5), 2))).T
    den = a[first] - a[second]

    def crossings(z):  # (b2 - b1) / (a1 - a2) for p, (c2 - c1) / (a1 - a2) for r
        cross = np.divide(z[second] - z[first], den, out=np.zeros_like(den), where=den != 0)
        return cross.reshape(-1, len(k))

    zeros, ones = np.zeros((1, len(k))), np.ones((1, len(k)))
    p = np.concatenate([zeros, ones, crossings(b)])
    r = np.concatenate([zeros, zeros, crossings(c)])
    slopes = a * p + b  # (piece, max, candidate, setting)
    # a candidate whose x is within rounding of 0 or W counts as inside:
    # dropping the one that carries r_j's one-sided slope would tilt the cut
    x_err = _FLOAT_ROUNDING * (abs(p) + abs(r) + 1)
    index = np.indices(slopes.shape[1:])
    settings = np.arange(len(k))

    def cut(w, side):
        x = p * w + r
        inside = (_lex_nonnegative(x, side * p, x_err)
                  & _lex_nonnegative(w - x, side * (1 - p), x_err))
        x = np.clip(x, 0.0, w)
        values = a * x + (b * w + c)
        pick = (_lex_argmax(values, side * slopes), *index)  # the largest piece of each max
        value, slope = values[pick].sum(axis=0), slopes[pick].sum(axis=0)
        pick = _lex_argmax(np.where(inside, -value, -np.inf), -side * slope)  # the smallest candidate
        value, slope, x = (z[pick, settings] for z in (value, slope, x))
        j = _lex_argmax(value, side * slope)
        return (float(slope[j]), float(value[j] - slope[j] * w)), x

    return cut


def _kelley(cut, one, tol=0, cap=math.inf):
    """Minimise g(W) = max_j r_j(W) over W in [0, 1] by 1-D Kelley cuts.

    Once the wave weight W is fixed the settings decouple (Fine 1982), so
    the LP optimum is the minimum of g, convex and piecewise linear in one
    variable.  ``cut(w, side)`` returns twice g's line just right (side = 1)
    or left (side = -1) of w, and the x_j that attain each r_j(w).
    Kelley's cutting planes (1960) start from the lines just right of
    W = 0 and just left of W = 1, and move a bracket to where the two lines
    cross: the line just right of the crossing becomes the lower bracket's
    if its slope is < 0 and the upper one's if it is > 0.  Each move brings
    in a new line of g, so the loop ends: when that slope is 0, or when g
    at the crossing exceeds the lines' crossing by at most ``tol``.  Then
    the minimum lies between the two, and the lower is returned.  So a left
    cut (side = -1) is taken at W = 1 only.
    Returns the number of cuts and (W, residual, [x_j]), with None for the
    optimum once ``cap`` cuts have not found it.
    """
    zero, cuts = one - one, 0
    lo = hi = None
    while cuts < cap:
        cuts += 1
        if lo is None:
            (a, b), xs = cut(zero, 1)
            if a >= 0:
                return cuts, (zero, b / 2, xs)
            lo = a, b
            continue
        if hi is None:
            (a, b), xs = cut(one, -1)
            if a <= 0:
                return cuts, (one, (a + b) / 2, xs)
            hi = a, b
            continue
        w = min(max((hi[1] - lo[1]) / (lo[0] - hi[0]), zero), one)
        (a, b), xs = cut(w, 1)
        value, bound = a * w + b, lo[0] * w + lo[1]
        if value - bound <= tol:
            return cuts, (w, min(value, bound) / 2, xs)
        if a < 0:
            lo = a, b
        elif a > 0:
            hi = a, b
        else:
            return cuts, (w, value / 2, xs)
    return cuts, None


def _witness(wave_weight, wave_plus, flat_targets, threshold) -> HVModel:
    """Glue an optimum into one model, at most n + 1 strategies per tag.

    Each tag's weight interval is cut at its per-setting '+' masses; a
    piece between two cuts answers '+' at setting j iff it lies below cut j.
    Walking the pieces upwards, setting j turns to '-' once, when the upper
    edge passes cut j: one byte of the outcomes flips per cut, and each
    kept piece decodes its string.
    """
    particle_plus = [q[0] + q[2] - xj for q, xj in zip(flat_targets, wave_plus)]
    strategies, weights = [], []
    for tag, total, plus in ((TAG_PARTICLE, 1 - wave_weight, particle_plus),
                             (TAG_WAVE, wave_weight, wave_plus)):
        cuts = [min(max(p, 0), total) for p in plus]
        edges = sorted({0, total, *cuts})
        rising = sorted(range(len(cuts)), key=cuts.__getitem__)
        outcomes, passed = bytearray(b"+" * len(cuts)), 0
        for lo, hi in zip(edges, edges[1:]):
            while passed < len(rising) and cuts[rising[passed]] < hi:
                outcomes[rising[passed]] = ord("-")
                passed += 1
            if hi - lo > threshold:
                strategies.append(HVStrategy(tag=tag, bob_outcomes=outcomes.decode()))
                weights.append(hi - lo)
    total = sum(weights)
    return HVModel(strategies=strategies, weights=[w / total for w in weights])


def feasibility(targets, settings: SettingsList, wave_probs=None) -> FeasibilityResult:
    """Decide whether a tagged-strategy mixture reproduces the targets.

    Solves min over models of the maximum per-setting total-variation
    distance.  The optimum is zero iff the targets admit a model; otherwise
    it is returned as the infeasibility residual.  Only each tag's
    per-setting outcome marginals enter the distance, and any marginals
    glue into a joint model.  Both number types run the same Kelley loop
    over the wave weight (``_kelley``).  When every target and wave_probs
    entry is a Fraction or int the optimum is exact; otherwise one numpy
    table evaluates every setting per cut, and the residual is within 1e-12
    of the optimum.  A float loop that reaches ``_FLOAT_CUTS`` cuts starts
    over on the exact loop, with the same floats read as Fractions, and its
    optimum gives the float residual and witness.  ``cuts`` counts both loops.
    """
    flat_targets = _validate_targets(targets, len(_instance("settings", settings, SettingsList)))
    wave_probs = _wave_probs(wave_probs, settings)

    exact = all(isinstance(v, (Fraction, int))
                for v in itertools.chain(*flat_targets, *wave_probs))
    if exact:
        cuts, (wave_weight, residual, wave_plus) = _kelley(
            _exact_cut(flat_targets, wave_probs), Fraction(1))
        feasible = residual == 0
    else:
        cuts, optimum = _kelley(_float_cut(flat_targets, wave_probs), 1.0,
                                _FLOAT_TOL, _FLOAT_CUTS)
        if optimum is None:  # the exact loop on the same floats read as Fractions
            exact_targets, exact_wave = ([[Fraction(float(v)) for v in row] for row in rows]
                                         for rows in (flat_targets, wave_probs))
            exact_cuts, (wave_weight, residual, wave_plus) = _kelley(
                _exact_cut(exact_targets, exact_wave), Fraction(1))
            cuts += exact_cuts
            optimum = float(wave_weight), residual, np.array(wave_plus, dtype=float)
        wave_weight, residual, wave_plus = optimum
        residual = max(float(residual), 0.0)
        feasible = residual <= FEASIBILITY_TOL
    model = (_witness(wave_weight, wave_plus, flat_targets, 0 if exact else 1e-12)
             if feasible else None)
    return FeasibilityResult(feasible=feasible, residual=residual, model=model,
                             method="exact" if exact else "float", cuts=cuts)


def chsh_local_bound() -> float:
    """Maximum |S| over all deterministic local assignments; exactly 2."""
    best = 0
    for a1, a2, b1, b2 in itertools.product((-1, 1), repeat=4):
        s = abs(a1 * b1 + a1 * b2 - a2 * b1 + a2 * b2)
        best = max(best, s)
    return float(best)
