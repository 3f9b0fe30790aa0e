import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from qduality import hv
from qduality import lp
from qduality.hv import HVModel, HVStrategy, SettingsList

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def random_model(rng, strategies, exact=False):
    pick = rng.choice(len(strategies), size=min(5, len(strategies)),
                      replace=False)
    if exact:
        raw = [Fraction(int(rng.integers(1, 10))) for _ in pick]
        total = sum(raw)
        weights = tuple(w / total for w in raw)
    else:
        raw = rng.random(len(pick))
        weights = tuple(float(w) for w in raw / raw.sum())
    return HVModel(strategies=tuple(strategies[i] for i in pick),
                   weights=weights)


class TestStats:
    def test_particle_stats(self):
        assert hv.particle_stats() == (0.5, 0.5)

    def test_wave_stats_endpoints(self):
        assert hv.wave_stats(0.0) == (1.0, 0.0)
        p0, p1 = hv.wave_stats(math.pi)
        assert p0 == pytest.approx(0.0, abs=1e-12)
        assert p1 == pytest.approx(1.0, abs=1e-12)

    def test_normalization_exact_for_all_phases(self):
        for phi in np.linspace(0, 2 * math.pi, 101):
            p0, p1 = hv.wave_stats(float(phi))
            assert p0 + p1 == 1.0
        assert sum(hv.particle_stats()) == 1.0

    def test_rational_form(self):
        probs = hv.wave_stats_from_cos(Fraction(1, 2))
        assert probs == (Fraction(3, 4), Fraction(1, 4))


class TestQuantumJoint:
    def test_sums_to_one(self):
        for theta2 in np.linspace(-1.5, 1.5, 5):
            for phi in np.linspace(0, 2 * math.pi, 5):
                q = hv.quantum_joint(float(theta2), float(phi))
                assert q.sum() == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_conditionals_at_reference_setting(self):
        # state-vector oracle: at (theta2=0, phi=pi/2) the "+" outcome
        # heralds Alice's |H> and the "-" outcome her |V>
        q = hv.quantum_joint(0.0, math.pi / 2)
        assert q[1, 0] == pytest.approx(0.5, abs=1e-10)  # s=1 (H) with +
        assert q[0, 1] == pytest.approx(0.5, abs=1e-10)  # s=0 (V) with -
        assert q[0, 0] == pytest.approx(0.0, abs=1e-10)
        assert q[1, 1] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("phi", [0.4, 1.9, 3 * math.pi / 2])
    def test_orthogonal_pair_heralds_wave_and_particle(self, phi):
        q = hv.quantum_joint(math.pi / 4, phi, basis="quadrature")
        plus = q[:, 0] / q[:, 0].sum()
        minus = q[:, 1] / q[:, 1].sum()
        assert plus == pytest.approx(hv.wave_stats(phi), abs=1e-10)
        assert minus == pytest.approx(hv.particle_stats(), abs=1e-10)

    def test_quadrature_basis_needs_orthogonal_angle(self):
        with pytest.raises(ValueError):
            hv.quantum_joint(0.3, 1.0, basis="quadrature")

    def test_bob_marginals_fair_at_working_phases(self):
        for phi in (math.pi / 2, 3 * math.pi / 2):
            for theta2 in np.linspace(-1.5, 1.5, 7):
                q = hv.quantum_joint(float(theta2), phi)
                assert q[:, 0].sum() == pytest.approx(0.5, abs=1e-10)
                assert q[:, 1].sum() == pytest.approx(0.5, abs=1e-10)


class TestPredictedJoint:
    def test_single_always_plus_particle(self):
        settings = SettingsList(entries=[(0.0, 1.0)])
        model = HVModel(
            strategies=(HVStrategy(tag="particle", bob_outcomes=("+",)),),
            weights=(1.0,),
        )
        (table,) = hv.predicted_joint(model, settings)
        assert table[0][0] == pytest.approx(0.5)
        assert table[1][0] == pytest.approx(0.5)
        assert table[0][1] == table[1][1] == 0

    def test_hand_evaluated_mixture(self):
        # brute-force oracle: at phi = 0 the wave statistics are (1, 0), so
        # a half/half mixture of (wave, +) and (particle, -) puts weight
        # 1/2 on (0, +) and 1/4 on each particle outcome with "-"
        settings = SettingsList(entries=[(0.3, 0.0)])
        model = HVModel(
            strategies=(
                HVStrategy(tag="wave", bob_outcomes=("+",)),
                HVStrategy(tag="particle", bob_outcomes=("-",)),
            ),
            weights=(0.5, 0.5),
        )
        (table,) = hv.predicted_joint(model, settings)
        assert table[0][0] == pytest.approx(0.5)
        assert table[1][0] == pytest.approx(0.0)
        assert table[0][1] == pytest.approx(0.25)
        assert table[1][1] == pytest.approx(0.25)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            HVModel(
                strategies=(HVStrategy(tag="wave", bob_outcomes=("+",)),),
                weights=(0.7,),
            )
        with pytest.raises(ValueError):
            HVModel(
                strategies=(HVStrategy(tag="wave", bob_outcomes=("+",)),),
                weights=(-0.2,),
            )

    def test_distributions_valid_exactly_in_rational_arithmetic(self):
        rng = np.random.default_rng(9)
        settings = SettingsList(entries=[(0.1, 1.0), (0.4, 2.0), (0.9, 3.0)])
        wave_probs = [
            hv.wave_stats_from_cos(Fraction(c, 5)) for c in (-3, 0, 4)
        ]
        strategies = hv.enumerate_strategies(3)
        for _ in range(20):
            model = random_model(rng, strategies, exact=True)
            joints = hv.predicted_joint(model, settings, wave_probs=wave_probs)
            for table in joints:
                entries = [table[s][b] for s in (0, 1) for b in (0, 1)]
                assert all(isinstance(e, Fraction) for e in entries)
                assert all(e >= 0 for e in entries)
                assert sum(entries) == 1


class TestFeasibility:
    def test_round_trip_float(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            entries = [
                (float(rng.uniform(-math.pi / 2, math.pi / 2)),
                 float(rng.uniform(0, 2 * math.pi)))
                for _ in range(n)
            ]
            settings = SettingsList(entries=entries)
            model = random_model(rng, hv.enumerate_strategies(n))
            target = hv.predicted_joint(model, settings)
            result = hv.feasibility(target, settings)
            assert result.feasible
            reproduced = hv.predicted_joint(result.model, settings)
            for got, want in zip(reproduced, target):
                for s in (0, 1):
                    for b in (0, 1):
                        assert got[s][b] == pytest.approx(want[s][b], abs=1e-9)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(33)
        settings = SettingsList(entries=[(0.2, math.pi / 2), (0.8, math.pi / 3)])
        wave_probs = [hv.wave_stats_from_cos(Fraction(0)),
                      hv.wave_stats_from_cos(Fraction(1, 2))]
        strategies = hv.enumerate_strategies(2)
        for _ in range(10):
            model = random_model(rng, strategies, exact=True)
            target = hv.predicted_joint(model, settings, wave_probs=wave_probs)
            result = hv.feasibility(target, settings, wave_probs=wave_probs)
            assert result.method == "exact"
            assert result.feasible
            assert result.residual == 0
            reproduced = hv.predicted_joint(result.model, settings,
                                            wave_probs=wave_probs)
            assert reproduced == target

    def test_quantum_statistics_infeasible_at_reference_setting(self):
        # analytic argument: both tagged statistics are uniform at
        # phi = pi/2, so no mixture can produce deterministic conditionals
        settings = SettingsList(entries=[(0.0, math.pi / 2)])
        target = [hv.quantum_joint(0.0, math.pi / 2)]
        result = hv.feasibility(target, settings)
        assert not result.feasible
        assert result.model is None
        assert result.residual == pytest.approx(0.5, abs=1e-6)

    def test_exact_infeasibility_certificate(self):
        half = Fraction(1, 2)
        target = [[[Fraction(0), half], [half, Fraction(0)]]]
        settings = SettingsList(entries=[(0.0, math.pi / 2)])
        result = hv.feasibility(target, settings, wave_probs=[(half, half)])
        assert result.method == "exact"
        assert not result.feasible
        assert result.residual == Fraction(1, 2)

    def test_quantum_feasible_at_orthogonal_pair_setting(self):
        for phi in (0.7, math.pi / 2, 3 * math.pi / 2, 5.1):
            settings = SettingsList(entries=[(math.pi / 4, phi)])
            target = [hv.quantum_joint(math.pi / 4, phi, basis="quadrature")]
            result = hv.feasibility(target, settings)
            assert result.feasible, f"phi={phi}"

    def test_quantum_infeasible_for_multi_setting_lists(self):
        lists = [
            [(0.0, math.pi / 2), (math.pi / 8, 3 * math.pi / 2)],
            [(math.pi / 8, math.pi / 2), (3 * math.pi / 8, math.pi / 2),
             (-math.pi / 4 + 0.1, 1.0)],
            [(0.5, 2.0), (-0.3, 4.0)],
        ]
        for entries in lists:
            settings = SettingsList(entries=entries)
            target = [hv.quantum_joint(t2, phi) for t2, phi in entries]
            result = hv.feasibility(target, settings)
            assert not result.feasible, f"entries={entries}"
            assert result.residual > 1e-3

    @pytest.mark.parametrize("n", [17, 40])
    def test_large_float_lists_solve(self, n):
        rng = np.random.default_rng(n)
        entries = [(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0, 6.2)))
                   for _ in range(n)]
        settings = SettingsList(entries=entries)
        quantum = hv.feasibility([hv.quantum_joint(t2, phi) for t2, phi in entries],
                                 settings)
        assert quantum.method == "float" and not quantum.feasible
        model = random_model(rng, [HVStrategy(tag, tuple(rng.choice(["+", "-"], n)))
                                   for tag in ("particle", "wave") for _ in range(3)])
        target = hv.predicted_joint(model, settings)
        result = hv.feasibility(target, settings)
        assert result.feasible
        reproduced = hv.predicted_joint(result.model, settings)
        assert np.allclose(np.array(reproduced, dtype=float), np.array(target, dtype=float),
                           atol=1e-9)

    def test_non_finite_settings_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SettingsList([(0.0, float("nan"))])
        with pytest.raises(ValueError, match="finite"):
            SettingsList([(float("inf"), 1.0)])

    def test_exact_inputs_must_sum_to_one_exactly(self):
        settings = SettingsList(entries=[(0.0, 1.0)])
        half, tiny = Fraction(1, 2), Fraction(1, 10**12)
        with pytest.raises(ValueError):
            hv.feasibility([[[half, tiny], [half, 0]]], settings,
                           wave_probs=[(half, half)])
        with pytest.raises(ValueError):
            hv.feasibility([[[half, 0], [half, 0]]], settings,
                           wave_probs=[(half, half + tiny)])

    def test_malformed_target_rejected(self):
        settings = SettingsList(entries=[(0.0, 1.0)])
        with pytest.raises(ValueError):
            hv.feasibility([[[0.5, 0.5], [0.5, 0.5]]], settings)
        with pytest.raises(ValueError):
            hv.feasibility([[[-0.1, 0.6], [0.3, 0.2]]], settings)
        with pytest.raises(ValueError):
            hv.feasibility([np.eye(2) / 2, np.eye(2) / 2], settings)


def enumerated_residual(targets, wave_probs, exact):
    """The LP over every deterministic strategy: one weight per strategy.

    min t s.t. |M w - q| <= e entrywise, sum_j-block e <= 2t, sum w = 1,
    in standard form with one slack per inequality.
    """
    n = len(targets)
    one = Fraction(1) if exact else 1.0
    zero = 0 * one
    strategies = hv.enumerate_strategies(n)
    m, num_e = len(strategies), 4 * n
    ineq = []
    for j in range(n):
        for idx, (s, b) in enumerate((s, b) for s in (0, 1) for b in (0, 1)):
            stats = [one * (Fraction(1, 2) if st.tag == "particle" else wave_probs[j][s])
                     if st.bob_outcomes[j] == "+-"[b] else zero for st in strategies]
            e = [zero] * (num_e + 1)
            e[4 * j + idx] = -one
            q = one * targets[j][s][b]
            ineq.append((stats + e, q))
            ineq.append(([-v for v in stats] + e, -q))
        row = [zero] * (m + num_e + 1)
        row[m + 4 * j:m + 4 * j + 4] = [one] * 4
        row[-1] = -2 * one
        ineq.append((row, zero))
    k = len(ineq)
    a = [row + [one if i == r else zero for i in range(k)]
         for r, (row, _) in enumerate(ineq)]
    a.append([one] * m + [zero] * (num_e + 1 + k))
    b = [rhs for _, rhs in ineq] + [one]
    c = [zero] * (m + num_e) + [one] + [zero] * k
    if exact:
        return lp.solve(c, a, b).objective
    from scipy.optimize import linprog

    return max(linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs").fun, 0.0)


def rational_joint(rng):
    raw = [Fraction(int(v)) for v in rng.integers(0, 7, size=4)]
    raw[int(rng.integers(4))] += 1
    flat = [v / sum(raw) for v in raw]
    return [flat[:2], flat[2:]]


def oracle_cases(rng, n, exact):
    """(targets, wave_probs, settings) drawn from quantum, random and tagged-model targets."""
    cosines = [Fraction(int(c)) if c in (-1, 0, 1) else Fraction(int(c), 5)
               for c in rng.choice([-1, 0, 1, -4, -2, 3], size=n)]
    phis = [math.acos(float(c)) for c in cosines]
    settings = SettingsList([(float(rng.uniform(-1.5, 1.5)), phi) for phi in phis])
    wave = ([hv.wave_stats_from_cos(c) for c in cosines] if exact
            else [hv.wave_stats(phi) for phi in phis])
    quantum = [hv.quantum_joint(t2, phi) for t2, phi in settings.entries]
    if exact:
        quantum = [[[Fraction(float(v)).limit_denominator(50) for v in row] for row in q]
                   for q in quantum]
        for table in quantum:
            table[0][0] += 1 - sum(table[0]) - sum(table[1])
        if any(v < 0 for table in quantum for row in table for v in row):
            quantum = [rational_joint(rng) for _ in range(n)]
        randoms = [rational_joint(rng) for _ in range(n)]
    else:
        randoms = [rng.dirichlet(np.ones(4)).reshape(2, 2) for _ in range(n)]
    model = random_model(rng, hv.enumerate_strategies(n), exact=exact)
    tagged = hv.predicted_joint(model, settings, wave_probs=wave)
    return [(t, wave, settings) for t in (quantum, randoms, tagged)]


class TestAgainstEnumeratedStrategies:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_float_residuals_match(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(4):
            for targets, wave, settings in oracle_cases(rng, n, exact=False):
                result = hv.feasibility(targets, settings, wave_probs=wave)
                assert result.method == "float"
                want = enumerated_residual(targets, wave, exact=False)
                assert abs(result.residual - want) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_residuals_equal(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(3 if n < 3 else 1):
            for targets, wave, settings in oracle_cases(rng, n, exact=True):
                result = hv.feasibility(targets, settings, wave_probs=wave)
                assert result.method == "exact"
                assert result.residual == enumerated_residual(targets, wave, exact=True)

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_witness_reproduces_exact_targets(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(3):
            targets, wave, settings = oracle_cases(rng, n, exact=True)[2]
            result = hv.feasibility(targets, settings, wave_probs=wave)
            assert result.feasible and result.residual == 0
            for tag in ("particle", "wave"):
                assert sum(s.tag == tag for s in result.model.strategies) <= n + 1
            assert hv.predicted_joint(result.model, settings, wave_probs=wave) == targets


class TestLocalBound:
    def test_bound_is_two(self):
        assert hv.chsh_local_bound() == 2.0

    def test_constant_strategy_achieves_bound(self):
        a1 = a2 = b1 = b2 = 1
        assert abs(a1 * b1 + a1 * b2 - a2 * b1 + a2 * b2) == 2

    def test_every_deterministic_strategy_bounded(self):
        import itertools

        for a1, a2, b1, b2 in itertools.product((-1, 1), repeat=4):
            assert abs(a1 * b1 + a1 * b2 - a2 * b1 + a2 * b2) <= 2

    def test_quantum_value_exceeds_bound(self):
        from qduality import circuit as ct

        assert ct.chsh(3 * math.pi / 2) > hv.chsh_local_bound()


class TestExactSimplex:
    def test_simple_optimum(self):
        # min -x - y  s.t.  x + y + s = 1
        res = lp.solve(
            c=[Fraction(-1), Fraction(-1), Fraction(0)],
            A=[[Fraction(1), Fraction(1), Fraction(1)]],
            b=[Fraction(1)],
        )
        assert res.status == lp.OPTIMAL
        assert res.objective == Fraction(-1)

    def test_infeasible_detected(self):
        # x + y = -1 with x, y >= 0
        res = lp.solve(
            c=[Fraction(0), Fraction(0)],
            A=[[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],
            b=[Fraction(1), Fraction(2)],
        )
        assert res.status == lp.INFEASIBLE

    def test_unbounded_detected(self):
        # min -x  s.t.  x - y = 0
        res = lp.solve(
            c=[Fraction(-1), Fraction(0)],
            A=[[Fraction(1), Fraction(-1)]],
            b=[Fraction(0)],
        )
        assert res.status == lp.UNBOUNDED

    def test_degenerate_and_redundant_rows(self):
        # duplicate constraints force artificial variables to leave a
        # redundant row behind
        res = lp.solve(
            c=[Fraction(1), Fraction(2)],
            A=[[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]],
            b=[Fraction(1), Fraction(2)],
        )
        assert res.status == lp.OPTIMAL
        assert res.objective == Fraction(1)
        assert res.x[0] == Fraction(1)

    def test_matches_scipy_on_random_problems(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(8)
        for _ in range(15):
            m, n = 3, 6
            a = rng.integers(-3, 4, size=(m, n))
            x0 = rng.integers(0, 3, size=n)
            b = a @ x0  # guaranteed feasible
            c = rng.integers(-2, 3, size=n)
            exact = lp.solve(
                [Fraction(int(v)) for v in c],
                [[Fraction(int(v)) for v in row] for row in a],
                [Fraction(int(v)) for v in b],
            )
            ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
            if exact.status == lp.OPTIMAL:
                assert ref.status == 0
                assert float(exact.objective) == pytest.approx(ref.fun, abs=1e-7)
            elif exact.status == lp.UNBOUNDED:
                assert ref.status == 3


def test_scipy_loaded_only_by_float_lp():
    script = """
import math, sys
import qduality.cli
from qduality import hv
assert "scipy" not in sys.modules, "scipy imported with the package"
settings = hv.SettingsList(entries=[(math.pi / 4, math.pi / 2)])
hv.feasibility([hv.quantum_joint(math.pi / 4, math.pi / 2)], settings)
assert "scipy" in sys.modules, "float feasibility did not load scipy"
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
