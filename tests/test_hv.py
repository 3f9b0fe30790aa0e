import importlib.util
import itertools
import json
import math
import os
import re
import reprlib
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import lp
import reference as ref
from qduality import cli, hv
from qduality.hv import HVModel, HVStrategy, SettingsList

REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_DIR, "src")
WAVE_PLUS = HVStrategy(tag="wave", bob_outcomes="+")


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
        # a particle-tagged strategy answers 1/2, 1/2 exactly at every phase,
        # in the column of its outcome
        settings = SettingsList([(0.1, 0.0), (0.2, 1.3), (0.3, math.pi)])
        model = HVModel((HVStrategy("particle", "+-+"),), (1,))
        half, zero = Fraction(1, 2), Fraction(0)
        plus, minus = [[half, zero], [half, zero]], [[zero, half], [zero, half]]
        assert hv.predicted_joint(model, settings) == [plus, minus, plus]

    def test_wave_stats_endpoints(self):
        assert hv.wave_stats(0.0) == (1.0, 0.0)
        p0, p1 = hv.wave_stats(math.pi)
        assert p0 == pytest.approx(0.0, abs=1e-12)
        assert p1 == pytest.approx(1.0, abs=1e-12)

    def test_normalization_exact_for_all_phases(self):
        settings = SettingsList([(0.0, phi) for phi in np.linspace(0, 2 * math.pi, 101).tolist()])
        for phi in np.linspace(0, 2 * math.pi, 101):
            p0, p1 = hv.wave_stats(float(phi))
            assert p0 + p1 == 1.0
        for tag in ("particle", "wave"):
            model = HVModel((HVStrategy(tag, "+" * len(settings)),), (1,))
            for (p0, _), (p1, _) in hv.predicted_joint(model, settings):
                assert p0 + p1 == 1

    def test_rational_form(self):
        # exact statistics at cos(phi) = 1/2 agree with the float ones at pi/3,
        # and a wave strategy passes them through exactly
        probs = ref.exact_wave_stats(Fraction(1, 2))
        assert probs == (Fraction(3, 4), Fraction(1, 4))
        assert hv.wave_stats(math.pi / 3) == pytest.approx(probs, abs=1e-15)
        model = HVModel((HVStrategy("wave", "-"),), (1,))
        joint = hv.predicted_joint(model, SettingsList([(0.2, math.pi / 3)]), wave_probs=[probs])
        assert joint == [[[0, Fraction(3, 4)], [0, Fraction(1, 4)]]]


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
        assert minus == pytest.approx((0.5, 0.5), abs=1e-10)

    def test_quadrature_basis_needs_orthogonal_angle(self):
        with pytest.raises(ValueError, match="orthogonal only"):
            hv.quantum_joint(0.3, 1.0, basis="quadrature")

    @pytest.mark.parametrize("theta2, phi", [
        (0.0, math.nan), (math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0),
    ])
    def test_non_finite_angles_rejected(self, theta2, phi):
        with pytest.raises(ValueError, match="finite"):
            hv.quantum_joint(theta2, phi)

    def test_matches_oracle_on_dense_random_settings(self):
        # the oracle: the joint in closed form, and quantum_joints' bits
        settings = np.random.default_rng(2024).uniform(-10.0, 10.0, size=(2000, 2))
        got = np.array([hv.quantum_joint(theta2, phi) for theta2, phi in settings.tolist()])
        assert np.max(np.abs(got - ref.quantum_joints(settings))) < 1e-13
        assert got.tobytes() == hv.quantum_joints(settings).tobytes()

    def test_matches_oracle_in_quadrature_basis(self):
        rng = np.random.default_rng(2025)
        settings = [(math.pi / 4 + k * math.pi / 2, phi)
                    for k in range(-8, 9) for phi in rng.uniform(-10.0, 10.0, size=12).tolist()]
        got = np.array([hv.quantum_joint(*setting, "quadrature") for setting in settings])
        assert np.max(np.abs(got - ref.quantum_joints(settings, "quadrature"))) < 1e-13
        assert got.tobytes() == hv.quantum_joints(settings, "quadrature").tobytes()

    def test_returns_an_owned_float_table(self):
        # a view would keep the kernel's whole (4, 1, 1) block alive
        q = hv.quantum_joint(0.3, 1.2)
        assert q.shape == (2, 2)
        assert q.dtype == np.float64
        assert q.flags.owndata

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError, match="basis"):
            hv.quantum_joint(0.3, 1.0, basis="circular")

    def test_bob_marginals_fair_at_working_phases(self):
        for phi in (math.pi / 2, 3 * math.pi / 2):
            for theta2 in np.linspace(-1.5, 1.5, 7):
                q = hv.quantum_joint(float(theta2), phi)
                assert q[:, 0].sum() == pytest.approx(0.5, abs=1e-10)
                assert q[:, 1].sum() == pytest.approx(0.5, abs=1e-10)


class TestQuantumJoints:
    """``hv.quantum_joints``; the oracle is the closed form ``reference.quantum_joints``."""

    SIZES = [1, 127, 128, 129, 1024, cli.MAX_SETTINGS]  # blocks of 128 settings, and the cap

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_oracle_across_blocks(self, n):
        settings = np.random.default_rng(3000 + n).uniform(-10.0, 10.0, size=(n, 2))
        got = hv.quantum_joints(settings.tolist())
        assert np.max(np.abs(got - ref.quantum_joints(settings))) < 1e-13

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_oracle_across_blocks_in_quadrature_basis(self, n):
        rng = np.random.default_rng(4000 + n)
        turns, phis = rng.integers(-40, 41, n).tolist(), rng.uniform(-10.0, 10.0, n).tolist()
        settings = [(math.pi / 4 + k * math.pi / 2, phi) for k, phi in zip(turns, phis)]
        got = hv.quantum_joints(settings, "quadrature")
        assert np.max(np.abs(got - ref.quantum_joints(settings, "quadrature"))) < 1e-13

    def test_matches_oracle_in_quadrature_basis(self):
        # every setting alone gives its row's bits
        rng = np.random.default_rng(3001)
        settings = [(math.pi / 4 + k * math.pi / 2, phi)
                    for k in range(-8, 9) for phi in rng.uniform(-10.0, 10.0, size=12).tolist()]
        got = hv.quantum_joints(settings, "quadrature")
        assert np.max(np.abs(got - ref.quantum_joints(settings, "quadrature"))) < 1e-13
        for setting, row in zip(settings, got):
            assert hv.quantum_joints([setting], "quadrature")[0].tobytes() == row.tobytes()

    def test_returns_an_owned_float_stack(self):
        q = hv.quantum_joints(SettingsList(entries=[(0.3, 1.2), (-0.4, 2.0), (1.0, 0.0)]).entries)
        assert q.shape == (3, 2, 2)
        assert q.dtype == np.float64
        assert q.flags.owndata

    def test_arrays_are_settings(self):
        settings = [(0.3, 1.2), (-0.4, 2.0)]
        np.testing.assert_array_equal(hv.quantum_joints(np.array(settings)),
                                      hv.quantum_joints(settings))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_setting_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            hv.quantum_joints([(0.1, 0.2)] * 200 + [(0.3, bad)])

    @pytest.mark.parametrize("bad", [1e8, 1e300])
    def test_unresolvable_theta2_named(self, bad):
        hv.quantum_joints([(1e5, 0.3)])
        with pytest.raises(ValueError, match=re.escape(f"theta2 = {bad!r} does not resolve")):
            hv.quantum_joints([(0.1, 0.2), (bad, 0.3)])

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError, match="basis"):
            hv.quantum_joints([(0.3, 1.0)], basis="circular")

    @pytest.mark.parametrize("settings", [[], [(0.1, 0.2, 0.3)], [0.1, 0.2], np.zeros((2, 2, 2))])
    def test_settings_that_are_not_pairs_rejected(self, settings):
        message = (r"settings must be \(theta2, phi\) pairs of numbers" if len(settings)
                   else "settings list must be nonempty")
        with pytest.raises(ValueError, match=f"^{message}$"):
            hv.quantum_joints(settings)

    @pytest.mark.parametrize("entries, expected", [
        ([(-math.pi / 4, phi) for phi in np.linspace(0.1, 1.5, cli.MAX_SETTINGS).tolist()],
         cli.EXIT_OK),
        (np.random.default_rng(3002).uniform(-3.0, 3.0, (cli.MAX_SETTINGS, 2)).tolist(),
         cli.EXIT_INFEASIBLE),
    ], ids=["feasible", "infeasible"])
    def test_hvcheck_at_the_cap_matches_oracle_targets(self, capsys, monkeypatch, tmp_path,
                                                       entries, expected):
        path = tmp_path / "settings.csv"
        path.write_text(cli.SETTINGS_HEADER + "\n"
                        + "".join(f"{t2!r},{phi!r}\n" for t2, phi in entries))
        targets, joints = [], hv.quantum_joints

        def recorded(*args):
            targets.append(joints(*args))
            return targets[-1]

        monkeypatch.setattr(hv, "quantum_joints", recorded)
        assert cli.main(["hvcheck", "--settings", str(path)]) == expected
        assert len(targets) == 1 and targets[0].shape == (cli.MAX_SETTINGS, 2, 2)
        assert np.max(np.abs(targets[0] - ref.quantum_joints(entries))) < 1e-13
        if expected == cli.EXIT_OK:
            assert capsys.readouterr().out.startswith("FEASIBLE residual=0.000e+00\n")


class TestPredictedJoint:
    def test_single_always_plus_particle(self):
        settings = SettingsList(entries=[(0.0, 1.0)])
        model = HVModel(
            strategies=(HVStrategy(tag="particle", bob_outcomes="+"),),
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
                HVStrategy(tag="wave", bob_outcomes="+"),
                HVStrategy(tag="particle", bob_outcomes="-"),
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
                strategies=(HVStrategy(tag="wave", bob_outcomes="+"),),
                weights=(0.7,),
            )
        with pytest.raises(ValueError):
            HVModel(
                strategies=(HVStrategy(tag="wave", bob_outcomes="+"),),
                weights=(-0.2,),
            )

    @pytest.mark.parametrize("outcomes", [("+",), "", "+x-"])
    def test_outcomes_other_than_one_sign_string_rejected(self, outcomes):
        with pytest.raises(ValueError, match=re.escape(repr(outcomes))):
            HVStrategy(tag="wave", bob_outcomes=outcomes)

    @pytest.mark.parametrize("weights", [(float("nan"),), (0.5, float("nan"))])
    def test_non_finite_weights_rejected(self, weights):
        strategies = (HVStrategy(tag="wave", bob_outcomes="+"),
                      HVStrategy(tag="particle", bob_outcomes="-"))
        with pytest.raises(ValueError, match="finite"):
            HVModel(strategies=strategies[:len(weights)], weights=weights)

    @pytest.mark.parametrize("strategies, weights, name", [
        (("wave",), (1,), "strategies"),
        ((None,), (1,), "strategies"),
        ((WAVE_PLUS, ("particle", "+")), (0.5, 0.5), "strategies"),
        ((WAVE_PLUS,), ("1",), "weights"),
        ((WAVE_PLUS,), (b"1",), "weights"),
        ((WAVE_PLUS,), (None,), "weights"),
        ((WAVE_PLUS,), (1j,), "weights"),
        ((WAVE_PLUS,), (np.complex128(1.0),), "weights"),
    ])
    def test_strategies_and_weights_of_another_type_rejected(self, strategies, weights, name):
        # a ValueError that names the argument, not an AttributeError or a
        # TypeError from the checks behind it
        with pytest.raises(ValueError, match=f"^{name} must be ") as info:
            HVModel(strategies, weights)
        assert reprlib.repr((strategies, weights)[name == "weights"]) in str(info.value)

    @pytest.mark.parametrize("wave, message", [
        ([(2, -1)], "wave statistics must lie in [0, 1]"),
        ([(math.nan, 0.5)], "wave statistics must lie in [0, 1]"),
        ([(0.5, -math.inf)], "wave statistics must lie in [0, 1]"),
        ([(0.5, 0.4)], "wave statistics must sum to 1"),
        ([(Fraction(1, 2), Fraction(1, 3))], "wave statistics must sum to 1"),
        ([("0.5", "0.5")], "wave statistics must lie in [0, 1]"),
        ([(0.5, 0.5j)], "wave statistics must lie in [0, 1]"),
        # a pair of another length once gave a joint that sums to 0.75, or an IndexError
        ([(0.5, 0.25, 0.25)], "wave_probs must hold one pair of numbers per setting"),
        ([(1.0,)], "wave_probs must hold one pair of numbers per setting"),
        ([None], "wave_probs must hold one pair of numbers per setting"),
        ([0.5], "wave_probs must hold one pair of numbers per setting"),
    ])
    def test_wave_statistics_checked_as_feasibility_checks_them(self, wave, message):
        settings = SettingsList([(0.1, 0.2)])
        model = HVModel((WAVE_PLUS,), (1,))
        for call in (lambda: hv.predicted_joint(model, settings, wave),
                     lambda: hv.feasibility([[[0.5, 0.0], [0.5, 0.0]]], settings, wave)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    @pytest.mark.parametrize("build, message", [
        (lambda: HVStrategy(tag="photon", bob_outcomes="+"), "tag must be one of"),
        (lambda: HVModel(strategies=(WAVE_PLUS,), weights=(0.5, 0.5)),
         "strategies and weights must be equal-length, nonempty"),
        (lambda: HVModel(strategies=(WAVE_PLUS,), weights=(Fraction(1, 2),)),
         "weights sum to 1/2, expected exactly 1"),
        (lambda: HVModel(strategies=(WAVE_PLUS, HVStrategy("particle", "+-")), weights=(0.5, 0.5)),
         "all strategies must cover the same settings"),
        (lambda: SettingsList([]), "settings list must be nonempty"),
        (lambda: SettingsList([(0.1, 0.2), (0.3, 0.2), (0.1, 0.2)]), "settings must be distinct"),
        (lambda: SettingsList([(None, 1.0)]), "settings must be (theta2, phi) pairs of numbers"),
        (lambda: SettingsList([(0.0, "x")]), "settings must be (theta2, phi) pairs of numbers"),
        (lambda: SettingsList([1.0]), "settings must be (theta2, phi) pairs of numbers"),
        (lambda: SettingsList([(0.1, 0.2, 0.3)]), "settings must be (theta2, phi) pairs of numbers"),
        (lambda: SettingsList([(0.1,)]), "settings must be (theta2, phi) pairs of numbers"),
        (lambda: hv.predicted_joint(HVModel((WAVE_PLUS,), (1,)),
                                    SettingsList([(0.0, 1.0), (0.5, 1.0)])),
         "model strategies do not cover the settings list"),
        (lambda: hv.predicted_joint(HVModel((WAVE_PLUS,), (1,)), SettingsList([(0.0, 1.0)]),
                                    wave_probs=[(0.5, 0.5), (0.5, 0.5)]),
         "wave_probs must align with the settings list"),
    ])
    def test_model_and_settings_that_do_not_fit_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            build()

    def test_distributions_valid_exactly_in_rational_arithmetic(self):
        rng = np.random.default_rng(9)
        settings = SettingsList(entries=[(0.1, 1.0), (0.4, 2.0), (0.9, 3.0)])
        wave_probs = [
            ref.exact_wave_stats(Fraction(c, 5)) for c in (-3, 0, 4)
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
        wave_probs = [ref.exact_wave_stats(Fraction(0)),
                      ref.exact_wave_stats(Fraction(1, 2))]
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

    def test_fractions_of_numpy_integers_solve_as_python_ones(self):
        # a Fraction with np.int64 parts cannot be hashed, as gluing a witness does
        def numpy_parts(value):
            return Fraction(np.int64(value.numerator), np.int64(value.denominator))

        settings = SettingsList(entries=[(0.2, math.pi / 2), (0.8, math.pi / 3)])
        wave_probs = [ref.exact_wave_stats(Fraction(0)),
                      ref.exact_wave_stats(Fraction(1, 2))]
        model = HVModel(strategies=(HVStrategy("particle", "+-"), HVStrategy("wave", "-+")),
                        weights=(Fraction(1, 3), Fraction(2, 3)))
        feasible = hv.predicted_joint(model, settings, wave_probs=wave_probs)
        half = Fraction(1, 2)
        infeasible = [[[Fraction(0), half], [half, Fraction(0)]], [[half, 0], [0, half]]]
        for target, verdict in ((feasible, True), (infeasible, False)):
            want = hv.feasibility(target, settings, wave_probs=wave_probs)
            assert want.feasible is verdict
            got = hv.feasibility([[[numpy_parts(v) for v in row] for row in table]
                                  for table in target], settings,
                                 wave_probs=[tuple(map(numpy_parts, pair)) for pair in wave_probs])
            assert got == want
            assert type(got.residual.numerator) is int

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
        model = random_model(rng, [HVStrategy(tag, "".join(rng.choice(["+", "-"], n)))
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_targets_rejected(self, bad):
        settings = SettingsList([(0.0, 1.0)])
        with pytest.raises(ValueError, match="target probabilities must be finite"):
            hv.feasibility([[[bad, 0.5], [0.5, 0.0]]], settings)
        with pytest.raises(ValueError, match="target probabilities must be finite"):
            hv.feasibility([[[Fraction(1, 2), bad], [Fraction(1, 2), 0]]], settings)

    def test_exact_inputs_must_sum_to_one_exactly(self):
        settings = SettingsList(entries=[(0.0, 1.0)])
        half, tiny = Fraction(1, 2), Fraction(1, 10**12)
        with pytest.raises(ValueError):
            hv.feasibility([[[half, tiny], [half, 0]]], settings,
                           wave_probs=[(half, half)])
        with pytest.raises(ValueError):
            hv.feasibility([[[half, 0], [half, 0]]], settings,
                           wave_probs=[(half, half + tiny)])

    @pytest.mark.parametrize("target, wave", [
        ([[Fraction(1, 2), 0], [Fraction(1, 2), 0]], (Fraction(3, 2), Fraction(-1, 2))),
        ([[0.5, 0.0], [0.5, 0.0]], (1.5, -0.5)),
    ])
    def test_wave_statistics_outside_unit_interval_rejected(self, target, wave):
        settings = SettingsList(entries=[(0.0, 1.0)])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            hv.feasibility([target], settings, wave_probs=[wave])

    def test_malformed_target_rejected(self):
        settings = SettingsList(entries=[(0.0, 1.0)])
        with pytest.raises(ValueError):
            hv.feasibility([[[0.5, 0.5], [0.5, 0.5]]], settings)
        with pytest.raises(ValueError):
            hv.feasibility([[[-0.1, 0.6], [0.3, 0.2]]], settings)
        with pytest.raises(ValueError):
            hv.feasibility([np.eye(2) / 2, np.eye(2) / 2], settings)

    @pytest.mark.parametrize("targets, wave_probs, message", [
        ([[[0.5, 0.0], [0.5, 0.0]]], [], "wave_probs must align with the settings list"),
        ([[[0.5, 0.0, 0.0], [0.5, 0.0]]], None, "each target must be a 2x2 joint distribution"),
        ([[[0.5, 0.5]]], None, "each target must be a 2x2 joint distribution"),
        ([[[Fraction(-1, 2), 1], [Fraction(1, 2), 0]]], None,
         "target probabilities must be nonnegative"),
    ])
    def test_targets_that_do_not_fit_rejected(self, targets, wave_probs, message):
        settings = SettingsList(entries=[(0.0, 1.0)])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hv.feasibility(targets, settings, wave_probs)


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


def solver_cases(rng, n, exact):
    """(targets, wave_probs, settings) drawn from quantum, random and tagged-model targets."""
    cosines = [Fraction(int(c)) if c in (-1, 0, 1) else Fraction(int(c), 5)
               for c in rng.choice([-1, 0, 1, -4, -2, 3], size=n)]
    phis = [math.acos(float(c)) for c in cosines]
    settings = SettingsList([(float(rng.uniform(-1.5, 1.5)), phi) for phi in phis])
    wave = ([ref.exact_wave_stats(c) for c in cosines] if exact
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
    @pytest.mark.highs
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_float_residuals_match(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(4):
            for targets, wave, settings in solver_cases(rng, n, exact=False):
                result = hv.feasibility(targets, settings, wave_probs=wave)
                assert result.method == "float"
                want = enumerated_residual(targets, wave, exact=False)
                assert abs(result.residual - want) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_residuals_equal(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(3 if n < 3 else 1):
            for targets, wave, settings in solver_cases(rng, n, exact=True):
                result = hv.feasibility(targets, settings, wave_probs=wave)
                assert result.method == "exact"
                assert result.residual == enumerated_residual(targets, wave, exact=True)

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_witness_reproduces_exact_targets(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(3):
            targets, wave, settings = solver_cases(rng, n, exact=True)[2]
            result = hv.feasibility(targets, settings, wave_probs=wave)
            assert result.feasible and result.residual == 0
            for tag in ("particle", "wave"):
                assert sum(s.tag == tag for s in result.model.strategies) <= n + 1
            assert hv.predicted_joint(result.model, settings, wave_probs=wave) == targets


def assert_glues(wave_weight, wave_plus, flat_targets, threshold):
    """``hv._witness`` gives each tag its weight and, at each setting, its clipped '+' mass.

    Exactly for Fractions, to 1e-12 for floats, with at most n + 1 strategies per tag.
    """
    model = hv._witness(wave_weight, wave_plus, flat_targets, threshold)
    n = len(flat_targets)
    particle_plus = [q[0] + q[2] - x for q, x in zip(flat_targets, wave_plus)]
    for tag, total, plus in (("particle", 1 - wave_weight, particle_plus),
                             ("wave", wave_weight, wave_plus)):
        glued = [(s.bob_outcomes, w) for s, w in zip(model.strategies, model.weights) if s.tag == tag]
        assert len(glued) <= n + 1
        got = [sum(w for outcomes, w in glued if outcomes[j] == "+") for j in range(n)]
        want = [min(max(p, 0), total) for p in plus]
        got.append(sum(w for _, w in glued))
        want.append(total)
        if threshold == 0:
            assert got == want
        else:
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12


def witness_case(rng, n, exact):
    """An optimum to glue, with its cuts drawn in eighths from below 0 to above the total.

    So cuts fall on 0, on each tag's total and on one another.  Float cases
    mix in uniform draws, some a rounding away from a grid point.
    """
    def value(low, high):
        eighths = int(rng.integers(low, high + 1))
        if exact:
            return Fraction(eighths, 8)
        near = eighths / 8 + float(rng.choice([0.0, 0.0, 1e-13, -1e-13, 1e-9]))
        return float(rng.choice([near, rng.uniform(low / 8, high / 8)]))

    wave_weight = value(0, 8)
    if not exact:
        wave_weight = min(max(wave_weight, 0.0), 1.0)
    flat = [[value(0, 8), value(0, 8), value(0, 8), value(0, 8)] for _ in range(n)]
    wave_plus = [value(-2, 10) for _ in range(n)]
    return wave_weight, (wave_plus if exact else np.array(wave_plus)), flat


class TestWitnessStrings:
    """``hv._witness`` glues the marginals it is given, whatever the order of its cuts."""

    @pytest.mark.parametrize("exact", [True, False])
    def test_reproduces_the_marginals_it_glues(self, exact):
        rng = np.random.default_rng(41 if exact else 43)
        for _ in range(300):
            assert_glues(*witness_case(rng, int(rng.integers(1, 30)), exact), 0 if exact else 1e-12)

    @pytest.mark.parametrize("wave_weight", [Fraction(0), Fraction(1, 3), Fraction(1)])
    def test_cuts_on_zero_the_total_and_each_other(self, wave_weight):
        total = wave_weight
        wave_plus = [Fraction(0), total, -total - 1, total + 1, total / 2, total / 2]
        assert_glues(wave_weight, wave_plus, [[Fraction(1, 4)] * 4] * 6, 0)

    def test_reproduces_the_marginals_of_solved_optima(self):
        rng = np.random.default_rng(47)
        for n in (3, 8, 40):
            settings = random_settings(rng, n)
            flat = hv._validate_targets(admixed_targets(rng, settings), n)
            wave = [hv.wave_stats(phi) for _, phi in settings.entries]
            _, (wave_weight, _, wave_plus) = hv._kelley(hv._float_cut(flat, wave), 1.0,
                                                        hv._FLOAT_TOL)
            assert_glues(wave_weight, wave_plus, flat, 1e-12)


def rationalize(q):
    """A float 2x2 distribution as Fractions summing to 1; rounding goes to the largest entry."""
    flat = [Fraction(float(v)).limit_denominator(1000) for v in np.ravel(q)]
    top = flat.index(max(flat))
    flat[top] += 1 - sum(flat)
    return [flat[:2], flat[2:]]


def rational_settings(cosines):
    """Distinct settings at phi = acos(c), with their exact wave statistics."""
    settings = SettingsList([(0.1 * j, math.acos(float(c))) for j, c in enumerate(cosines)])
    return settings, [ref.exact_wave_stats(c) for c in cosines]


class TestExactOptimum:
    @staticmethod
    def highs_gap(targets, settings, wave):
        """The exact result, and its distance from HiGHS on the same inputs as floats."""
        exact = hv.feasibility(targets, settings, wave_probs=wave)
        floats = hv.feasibility(np.array(targets, dtype=float), settings,
                                wave_probs=[tuple(map(float, w)) for w in wave])
        assert exact.method == "exact" and floats.method == "float"
        return exact, abs(float(exact.residual) - floats.residual)

    @pytest.mark.parametrize("n", [8, 12, 24, 48])
    def test_matches_highs_on_rationalized_quantum_targets(self, n):
        rng = np.random.default_rng(400 + n)
        settings, wave = rational_settings([Fraction(int(c), 5) for c in rng.integers(-5, 6, n)])
        targets = [rationalize(hv.quantum_joint(t2, phi)) for t2, phi in settings.entries]
        exact, gap = self.highs_gap(targets, settings, wave)
        assert isinstance(exact.residual, Fraction) and not exact.feasible
        assert gap <= 1e-9

    def test_matches_highs_on_random_rational_targets(self):
        rng = np.random.default_rng(500)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            settings, wave = rational_settings([Fraction(int(c), 8) for c in rng.integers(-8, 9, n)])
            assert self.highs_gap([rational_joint(rng) for _ in range(n)], settings, wave)[1] <= 1e-9

    def test_tagged_model_at_twelve_settings_reproduced_exactly(self):
        rng = np.random.default_rng(412)
        settings, wave = rational_settings([Fraction(int(c), 8) for c in rng.integers(-8, 9, 12)])
        strategies = [HVStrategy(tag, "".join(rng.choice(["+", "-"], 12)))
                      for tag in ("particle", "wave") for _ in range(4)]
        targets = hv.predicted_joint(random_model(rng, strategies, exact=True), settings,
                                     wave_probs=wave)
        result = hv.feasibility(targets, settings, wave_probs=wave)
        assert result.method == "exact" and result.feasible and result.residual == 0
        assert hv.predicted_joint(result.model, settings, wave_probs=wave) == targets

    @pytest.mark.parametrize("tag", ["particle", "wave"])
    def test_single_tag_model_puts_the_optimum_on_the_boundary(self, tag):
        # with cos phi != 0 only the model's own tag reproduces its fringes,
        # so the only zero-residual wave weight is W = 0 or W = 1
        rng = np.random.default_rng(17)
        settings, wave = rational_settings([Fraction(1), Fraction(-2, 5), Fraction(3, 5)])
        strategies = [s for s in hv.enumerate_strategies(3) if s.tag == tag]
        for _ in range(3):
            targets = hv.predicted_joint(random_model(rng, strategies, exact=True), settings,
                                         wave_probs=wave)
            result = hv.feasibility(targets, settings, wave_probs=wave)
            assert result.feasible and result.residual == 0
            assert {s.tag for s in result.model.strategies} == {tag}
            assert hv.predicted_joint(result.model, settings, wave_probs=wave) == targets

    @pytest.mark.parametrize("cos, target, residual", [
        # particles alone fit best: the fringe would add s = 0 events
        (Fraction(1), [[Fraction(1, 6), Fraction(1, 6)], [Fraction(1, 6), Fraction(1, 2)]],
         Fraction(1, 6)),
        # s = 0 always is more fringe than the wave gives, so waves alone fit best
        (Fraction(1, 2), [[Fraction(1, 2), Fraction(1, 2)], [Fraction(0), Fraction(0)]],
         Fraction(1, 4)),
    ])
    def test_infeasible_optimum_on_the_boundary(self, cos, target, residual):
        settings, wave = rational_settings([cos])
        result = hv.feasibility([target], settings, wave_probs=wave)
        assert result.method == "exact" and not result.feasible
        assert result.residual == residual == enumerated_residual([target], wave, exact=True)

    def test_settings_with_cos_phi_zero(self):
        # cos phi = 0 gives the wave tag the particle's statistics, so the
        # residual is flat in W
        rng = np.random.default_rng(23)
        settings, wave = rational_settings([Fraction(0), Fraction(0), Fraction(3, 5)])
        for _ in range(4):
            targets = [rational_joint(rng) for _ in range(3)]
            result = hv.feasibility(targets, settings, wave_probs=wave)
            assert result.residual == enumerated_residual(targets, wave, exact=True)
            model = random_model(rng, hv.enumerate_strategies(3), exact=True)
            targets = hv.predicted_joint(model, settings, wave_probs=wave)
            result = hv.feasibility(targets, settings, wave_probs=wave)
            assert result.feasible and result.residual == 0
            assert hv.predicted_joint(result.model, settings, wave_probs=wave) == targets


def recorded(make_cut, log):
    """``make_cut`` whose cuts append (w, side, (line, xs)) to ``log``."""
    def make(flat_targets, wave_probs):
        cut = make_cut(flat_targets, wave_probs)

        def recording(w, side):
            log.append((w, side, cut(w, side)))
            return log[-1][2]
        return recording
    return make


@pytest.mark.parametrize("name, exact", [("_float_cut", False), ("_exact_cut", True)])
def test_left_cut_taken_at_w_one_only(monkeypatch, name, exact):
    # an interior step keeps the line just right of the crossing, whatever its slope
    log = []
    monkeypatch.setattr(hv, name, recorded(getattr(hv, name), log))
    rng = np.random.default_rng(900)
    for n in (1, 2, 3, 5, 8):
        for targets, wave, settings in solver_cases(rng, n, exact):
            hv.feasibility(targets, settings, wave_probs=wave)
    assert any(side == 1 and 0 < w < 1 for w, side, _ in log)
    assert any(side == -1 for _, side, _ in log)
    assert all(w == 1 for w, side, _ in log if side == -1)


def load_exact_reference_cases():
    """(targets, settings, wave, residual) of each exact perfbench reference case."""
    cases = load_perfbench_cases()
    with open(os.path.join(REPO_DIR, "perfbench", "reference", "hv_feasibility.json")) as fh:
        reference = json.load(fh)
    for n, pool in reference["exact"].items():
        for case in pool:
            targets = [[[Fraction(v) for v in row] for row in table] for table in case["targets"]]
            wave = [ref.exact_wave_stats(Fraction(c)) for c in case["cos"]]
            settings = SettingsList(cases.hv_settings("exact", int(n), case["case"]))
            yield targets, settings, wave, Fraction(case["residual"])


class TestIntegerCut:
    """``hv._exact_cut`` through ``feasibility``, against the identities of the exact optimum.

    At a fixed residual level, each setting's wave weights form an interval,
    and intervals on a line share a point if every two of them do (Helly).
    So the residual of n settings is the largest over pairs of settings, and
    adding a setting never lowers it.  Both hold with ``==`` on Fractions.
    """

    @staticmethod
    def assert_identities(targets, settings, wave):
        def solve(rows):
            rows = list(rows)
            result = hv.feasibility([targets[j] for j in rows],
                                    SettingsList([settings.entries[j] for j in rows]),
                                    wave_probs=[wave[j] for j in rows])
            assert result.method == "exact" and type(result.residual) is Fraction
            return result

        n = len(settings)
        result = solve(range(n))
        chain = [solve(range(k)).residual for k in range(1, n)] + [result.residual]
        assert chain == sorted(chain)
        if n > 1:
            pairs = itertools.combinations(range(n), 2)
            assert result.residual == max(solve(pair).residual for pair in pairs)
        if result.feasible:
            assert hv.predicted_joint(result.model, settings, wave_probs=wave) == targets
        return result

    @pytest.mark.parametrize("seed", range(6))
    def test_random_targets_at_degenerate_phases(self, seed):
        # cos phi in {0, +-1, +-k/9} makes pieces parallel or equal, and
        # targets with zero entries put candidates on the ends of [0, W];
        # a model's own predictions give residual 0
        rng = np.random.default_rng(700 + seed)
        for i in range(100):
            n = int(rng.integers(1, 7))
            cosines = [Fraction(int(c), 9) for c in rng.choice([-9, 0, 9, *range(-8, 9)], n)]
            settings, wave = rational_settings(cosines)
            if i % 2:
                targets = [rational_joint(rng) for _ in range(n)]
            else:
                model = random_model(rng, hv.enumerate_strategies(n), exact=True)
                targets = hv.predicted_joint(model, settings, wave_probs=wave)
            result = self.assert_identities(targets, settings, wave)
            assert result.residual == 0 or i % 2

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12, 16, 24, 32, 48])
    def test_rationalized_quantum_targets(self, n):
        rng = np.random.default_rng(800 + n)
        settings, wave = rational_settings([Fraction(int(c), 9) for c in rng.integers(-9, 10, n)])
        targets = [rationalize(hv.quantum_joint(t2, phi)) for t2, phi in settings.entries]
        assert not self.assert_identities(targets, settings, wave).feasible

    def test_perfbench_exact_reference_cases(self):
        cases = list(load_exact_reference_cases())
        assert len(cases) == 64
        for targets, settings, wave, residual in cases:
            assert self.assert_identities(targets, settings, wave).residual == residual


def highs(targets, settings):
    """HiGHS on the same LP: its residual and, when feasible, its witness."""
    flat = hv._validate_targets(targets, len(settings))
    wave = [hv.wave_stats(phi) for _, phi in settings.entries]
    wave_weight, residual, wave_plus = lp.highs_optimum(flat, wave)
    residual = max(residual, 0.0)
    if residual > hv.FEASIBILITY_TOL:
        return residual, None
    return residual, hv._witness(wave_weight, wave_plus, flat, 1e-12)


def assert_matches_highs(targets, settings, same_witness=True):
    """The float kernel gives HiGHS's residual, verdict and, if asked, witness.

    A witness always reproduces the targets.  Where the optimal wave weight
    is not unique, as when cos phi = 0 gives both tags the same statistics,
    the two solvers may glue different ones.
    """
    result = hv.feasibility(targets, settings)
    residual, witness = highs(targets, settings)
    assert result.method == "float" and result.cuts < hv._FLOAT_CUTS
    assert abs(result.residual - residual) <= 1e-12
    assert result.feasible == (witness is not None)
    if not result.feasible:
        return
    reproduced = np.array(hv.predicted_joint(result.model, settings), dtype=float)
    assert np.allclose(reproduced, np.array(targets, dtype=float), rtol=0, atol=1e-9)
    if same_witness:
        assert result.model.strategies == witness.strategies
        assert np.allclose(result.model.weights, witness.weights, rtol=0, atol=1e-9)


def random_settings(rng, n, phi=None):
    phi = phi or (lambda: float(rng.uniform(0, 2 * math.pi)))
    return SettingsList(list({(float(rng.uniform(-1.5, 1.5)), phi()) for _ in range(n)}))


def admixed_targets(rng, settings):
    """A random tagged model's statistics, with no or up to 5% quantum admixture."""
    n = len(settings)
    strategies = [HVStrategy(str(rng.choice(["particle", "wave"])),
                             "".join(rng.choice(["+", "-"], n)))
                  for _ in range(int(rng.integers(1, 6)))]
    model = random_model(rng, strategies)
    eps = float(rng.choice([0.0, rng.uniform(0, 0.05)]))
    quantum = np.array([hv.quantum_joint(t2, phi) for t2, phi in settings.entries])
    return (1 - eps) * np.array(hv.predicted_joint(model, settings), dtype=float) + eps * quantum


def nearly_parallel_phases(rng):
    """A draw of phases 1e-3 to 1e-9 away from 0, pi/2 or pi."""
    def phi():
        offset = float(rng.choice([-1.0, 1.0])) * 10.0 ** -float(rng.integers(3, 10))
        return float(rng.choice([0.0, math.pi / 2, math.pi])) + offset

    return phi


def load_perfbench_cases():
    spec = importlib.util.spec_from_file_location(
        "perfbench_cases", os.path.join(REPO_DIR, "perfbench", "cases.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFloatKernel:
    @pytest.mark.highs
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_highs_on_random_cases(self, seed):
        rng = np.random.default_rng(600 + seed)
        for i in range(100):
            settings = random_settings(rng, int(rng.integers(1, 9)))
            targets = ([hv.quantum_joint(t2, phi) for t2, phi in settings.entries] if i % 2
                       else admixed_targets(rng, settings))
            assert_matches_highs(targets, settings)

    @pytest.mark.highs
    def test_matches_highs_on_quantum_targets_up_to_forty_settings(self):
        rng = np.random.default_rng(640)
        for n in range(1, 41):
            settings = random_settings(rng, n)
            assert_matches_highs([hv.quantum_joint(t2, phi) for t2, phi in settings.entries],
                                 settings)

    @pytest.mark.highs
    @pytest.mark.parametrize("phis, unique", [
        ((0.0, math.pi), True),
        ((math.pi / 2,), False),
        ((0.0, math.pi / 2, math.pi), False),
        # cos phi = +-1e-12: pieces k x and -k x cross far outside [0, W]
        ((math.pi / 2 - 1e-12, math.pi / 2 + 1e-12), False),
    ])
    def test_matches_highs_at_degenerate_phases(self, phis, unique):
        rng = np.random.default_rng(650)
        for i in range(40):
            settings = random_settings(rng, int(rng.integers(1, 7)), lambda: float(rng.choice(phis)))
            targets = ([hv.quantum_joint(t2, phi) for t2, phi in settings.entries] if i % 2
                       else admixed_targets(rng, settings))
            assert_matches_highs(targets, settings, same_witness=unique)

    def test_matches_the_exact_solver_on_nearly_parallel_pieces(self):
        # phases 1e-3 to 1e-9 away from 0, pi/2 or pi put cos phi near 0 or
        # +-1, where two pieces of one max are nearly parallel and their
        # crossing is ill-conditioned.  The oracle is the exact solver on the
        # same floats read as Fractions: HiGHS strays from it by more than
        # 1e-12 on many of these inputs.
        rng = np.random.default_rng(670)
        for i in range(40):
            settings = random_settings(rng, int(rng.integers(1, 6)), nearly_parallel_phases(rng))
            targets = ([hv.quantum_joint(t2, phi) for t2, phi in settings.entries] if i % 2
                       else admixed_targets(rng, settings))
            result = hv.feasibility(targets, settings)
            flat = [[Fraction(v) for v in q] for q in hv._validate_targets(targets, len(settings))]
            wave = [tuple(map(Fraction, hv.wave_stats(phi))) for _, phi in settings.entries]
            _, (_, residual, _) = hv._kelley(hv._exact_cut(flat, wave), Fraction(1))
            assert abs(result.residual - float(residual)) <= 1e-12

    @pytest.mark.highs
    def test_finishes_on_the_exact_loop_at_the_cut_cap(self, monkeypatch):
        rng = np.random.default_rng(660)
        for i in range(6):
            settings = random_settings(rng, 4)
            targets = ([hv.quantum_joint(t2, phi) for t2, phi in settings.entries] if i % 2
                       else admixed_targets(rng, settings))
            uncapped = hv.feasibility(targets, settings)
            with monkeypatch.context() as m:
                m.setattr(hv, "_FLOAT_CUTS", 0)
                result = hv.feasibility(targets, settings)
            residual, _ = highs(targets, settings)
            assert result.cuts > 0 and result.method == "float"
            assert abs(result.residual - uncapped.residual) <= 1e-12
            assert abs(result.residual - residual) <= 1e-9
            assert result.feasible == uncapped.feasible
            if result.feasible:
                reproduced = np.array(hv.predicted_joint(result.model, settings), dtype=float)
                assert np.allclose(reproduced, np.array(targets, dtype=float), rtol=0, atol=1e-9)

    def test_exact_finish_matches_the_kernel_on_nearly_parallel_pieces(self, monkeypatch):
        rng = np.random.default_rng(680)
        for i in range(40):
            settings = random_settings(rng, 1 + i % 5, nearly_parallel_phases(rng))
            targets = ([hv.quantum_joint(t2, phi) for t2, phi in settings.entries] if i % 2
                       else admixed_targets(rng, settings))
            uncapped = hv.feasibility(targets, settings)
            with monkeypatch.context() as m:
                m.setattr(hv, "_FLOAT_CUTS", 0)
                result = hv.feasibility(targets, settings)
            assert abs(result.residual - uncapped.residual) <= 1e-12
            assert result.feasible == uncapped.feasible

    def test_exact_finish_memory_bounded(self, monkeypatch):
        # HiGHS's dense standard form traced 120 MB here
        rng = np.random.default_rng(200)
        settings = random_settings(rng, 200)
        targets = [hv.quantum_joint(t2, phi) for t2, phi in settings.entries]
        monkeypatch.setattr(hv, "_FLOAT_CUTS", 0)
        tracemalloc.start()
        try:
            result = hv.feasibility(targets, settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"{peak / 2**20:.0f} MB"
        assert not result.feasible and result.cuts > 0

    def test_perfbench_reference_cases_stay_below_the_cap(self):
        # floats match the recorded residuals to 1e-9 and Fractions exactly
        cases = load_perfbench_cases()
        with open(os.path.join(REPO_DIR, "perfbench", "reference", "hv_feasibility.json")) as fh:
            reference = json.load(fh)
        for n, pool in reference["float"].items():
            for i, (feasible, residual) in enumerate(pool):
                entries = cases.hv_settings("float", int(n), i)
                result = hv.feasibility([hv.quantum_joint(t2, phi) for t2, phi in entries],
                                        SettingsList(entries))
                assert result.cuts < hv._FLOAT_CUTS, (n, i, result.cuts)
                assert result.feasible == feasible and abs(result.residual - residual) <= 1e-9
        for targets, settings, wave, residual in load_exact_reference_cases():
            result = hv.feasibility(targets, settings, wave_probs=wave)
            assert result.residual == residual

    def test_memory_and_time_bounded_in_the_number_of_settings(self):
        # n = 200 comes first, so a build quadratic in n fails there, long
        # before n = 2,000 could exhaust the machine's memory.  The feasible
        # family glues a witness of up to 2(n + 1) strategies of n outcomes.
        feasible = SettingsList([(-math.pi / 4, phi)
                                 for phi in np.linspace(0.1, 1.5, 2000).tolist()])
        cases = [(random_settings(np.random.default_rng(n), n), False, 64) for n in (200, 2000)]
        for settings, expected, mib in cases + [(feasible, True, 32)]:
            n = len(settings)
            targets = [hv.quantum_joint(t2, phi) for t2, phi in settings.entries]
            tracemalloc.start()
            try:
                start = time.perf_counter()
                result = hv.feasibility(targets, settings)
                elapsed = time.perf_counter() - start
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < mib * 2**20, f"n={n}: {peak / 2**20:.1f} MB"
            assert elapsed < 5, f"n={n}: {elapsed:.1f} s"
            assert result.feasible == expected and result.cuts < hv._FLOAT_CUTS


class TestLocalBound:
    def test_bound_is_two(self):
        assert hv.chsh_local_bound() == 2.0

    def test_constant_strategy_achieves_bound(self):
        a1 = a2 = b1 = b2 = 1
        assert abs(a1 * b1 + a1 * b2 - a2 * b1 + a2 * b2) == hv.chsh_local_bound()

    def test_every_deterministic_strategy_bounded(self):
        for a1, a2, b1, b2 in itertools.product((-1, 1), repeat=4):
            assert abs(a1 * b1 + a1 * b2 - a2 * b1 + a2 * b2) <= hv.chsh_local_bound()

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

    @pytest.mark.highs
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


def test_no_program_path_needs_scipy():
    # scipy only serves the HiGHS reference of these tests; every command and
    # a float solve that reaches the cut cap run with it blocked
    script = """
import math, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from fractions import Fraction
from qduality import cli, hv
table, feasible, infeasible = sys.argv[1:]
half = Fraction(1, 2)
result = hv.feasibility([[[0, half], [half, 0]]], hv.SettingsList(entries=[(0.0, math.pi / 2)]),
                        wave_probs=[(half, half)])
assert result.method == "exact" and result.residual == half, result
for argv, code in [
    (["simulate", "--theta1", "0", "--theta2", "pi/8", "--phi", "3pi/2", "--shots", "100"], 0),
    (["surface", "--theta1", "0"], 0),
    (["chsh", "--phi", "3pi/2"], 0),
    (["chsh", "--from", table], 0),
    (["hom", "--from", "10", "--to", "12", "--steps", "5"], 0),
    (["analyze", "--from", table], 0),
    (["hvcheck", "--settings", feasible], 0),
    (["hvcheck", "--settings", infeasible], 3),
    (["hvcheck", "--settings", feasible, "--mode", "chsh-bound"], 0),
    (["hvcheck", "--settings", infeasible, "--mode", "chsh-bound"], 0),
]:
    assert cli.main(argv) == code, argv
hv._FLOAT_CUTS = 0
settings = hv.SettingsList(entries=[(0.3, 1.0), (math.pi / 4, math.pi / 2)])
result = hv.feasibility([hv.quantum_joint(t2, phi) for t2, phi in settings.entries], settings)
assert result.cuts > 0 and not result.feasible, result
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    paths = [os.path.join(REPO_DIR, "data", "table_a1.csv")] + [
        os.path.join(REPO_DIR, "perfbench", "data", f"settings_{name}.csv")
        for name in ("feasible", "infeasible")]
    proc = subprocess.run([sys.executable, "-c", script, *paths], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
