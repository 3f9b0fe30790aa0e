import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

import reference as ref
from qduality import circuit as ct
from qduality import qstate as qs

SQRT2 = math.sqrt(2.0)


def random_setting(rng):
    """Random angles well past their principal ranges, random delta and noise."""
    noise = ct.NoiseParams(visibility=rng.uniform(0.0, 1.0),
                           background=rng.uniform(0.0, 1.0) * rng.integers(0, 2))
    return ct.ExperimentConfig(phi=rng.uniform(-15.0, 15.0), theta1=rng.uniform(-7.0, 7.0),
                               theta2=rng.uniform(-10.0, 10.0),
                               delta=rng.uniform(-10.0, 10.0), noise=noise)


class TestInitialState:
    def test_delta_zero(self):
        amps = ct.initial_state(0.0).amplitudes
        expected = np.zeros(8)
        expected[0b101] = expected[0b110] = 1 / SQRT2
        assert np.allclose(amps, expected, atol=1e-12)

    def test_delta_pi(self):
        amps = ct.initial_state(math.pi).amplitudes
        assert amps[0b101] == pytest.approx(1 / SQRT2, abs=1e-12)
        assert amps[0b110] == pytest.approx(-1 / SQRT2, abs=1e-12)

    def test_delta_quarter(self):
        amps = ct.initial_state(math.pi / 4).amplitudes
        assert amps[0b110] == pytest.approx(np.exp(1j * math.pi / 4) / SQRT2,
                                            abs=1e-12)


class TestParticleWave:
    def test_particle_at_zero(self):
        assert np.allclose(ct.particle_state(0.0).amplitudes,
                           [1 / SQRT2, -1 / SQRT2], atol=1e-12)

    def test_wave_at_zero_is_v(self):
        assert ct.wave_state(0.0).fidelity(qs.product_state(qs.KET_V)) == \
            pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("phi", np.linspace(0, 2 * math.pi, 13))
    def test_born_statistics(self, phi):
        # direct Born-rule oracle on the raw amplitudes
        p = ct.particle_state(phi).amplitudes
        w = ct.wave_state(phi).amplitudes
        assert abs(p[0]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(p[1]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(w[0]) ** 2 == pytest.approx(math.sin(phi / 2) ** 2, abs=1e-12)
        assert abs(w[1]) ** 2 == pytest.approx(math.cos(phi / 2) ** 2, abs=1e-12)


class TestFinalState:
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    def test_matches_closed_form(self, phi):
        got = ct.final_state(phi, math.pi / 4)
        assert got.fidelity(qs.StateVector(ref.final_state(phi))) >= 1 - 1e-12

    def test_closed_form_on_dense_grid(self):
        for phi in np.linspace(0, 2 * math.pi, 32):
            got = ct.final_state(phi)
            assert got.fidelity(qs.StateVector(ref.final_state(phi))) >= 1 - 1e-12

    def test_maximally_entangled_at_quarter_phase(self):
        coeffs = qs.schmidt_coefficients(ct.final_state(math.pi / 2), (0,))
        assert np.allclose(coeffs, [1 / SQRT2, 1 / SQRT2], atol=1e-10)

    @pytest.mark.parametrize("phi", [0.3, 1.2, 4.0])
    def test_projecting_pair_prepares_wave(self, phi):
        # projector oracle: conditioning the pair on (|phi-> + i|psi+>)/sqrt2
        # must leave the system photon exactly in the wave state
        state = ct.final_state(phi).amplitudes.reshape(2, 4)
        ket = (qs.bell_ket("phi-") + 1j * qs.bell_ket("psi+")) / SQRT2
        conditional = state @ ket.conj()
        conditional /= np.linalg.norm(conditional)
        overlap = abs(np.vdot(ct.wave_state(phi).amplitudes, conditional)) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ct.final_state(bad)
        with pytest.raises(ValueError, match="finite"):
            ct.final_state(0.3, bad)

    def test_matches_the_closed_form_at_random_phases(self):
        rng = np.random.default_rng(21)
        for phi, delta in rng.uniform(-15.0, 15.0, (2000, 2)).tolist():
            got = ct.final_state(phi, delta).amplitudes
            assert np.max(np.abs(got - ref.final_state(phi, delta))) < 1e-15

    def test_fixed_gates_are_the_validated_constructors_read_only(self):
        gates = (qs.hadamard(), qs.controlled_hadamard(),
                 ct.control_arm_rotation(), ct.ancilla_arm_rotation())
        assert len(ct._FIXED_GATES) == len(gates)
        for matrix, gate in zip(ct._FIXED_GATES, gates):
            np.testing.assert_array_equal(matrix.view(np.int64), gate.matrix.view(np.int64))
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 0.0

    def test_calls_build_no_gate(self, monkeypatch):
        # nor a Projector: the kernel paths validate no operator object
        from qduality import hv

        built = []
        for cls in (qs.GateOp, qs.Projector):
            def counted(op, check=cls.__post_init__):
                built.append(type(op).__name__)
                check(op)

            monkeypatch.setattr(cls, "__post_init__", counted)
        qs.hadamard(), qs.projector_onto(qs.KET_H)
        assert built == ["GateOp", "Projector"]  # the count sees both kinds
        built.clear()
        ct._final_states(np.linspace(0.0, 6.0, 7), 0.4)
        config = ct.ExperimentConfig(phi=1.1, theta1=0.2, theta2=-0.7)
        ct.correlation(config)
        ct.coincidence_probabilities(config)
        ct.correlation_surface(0.4, np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 6.0, 3))
        for basis in ("real", "quadrature"):
            hv.quantum_joint(math.pi / 4, 2.0, basis)
            hv.quantum_joints([(math.pi / 4, 0.3), (-math.pi / 4, 1.9)], basis)
        assert built == []

    def test_state_owns_its_amplitudes(self):
        amps = ct.final_state(1.3, 0.4).amplitudes
        assert amps.flags.owndata and amps.base is None
        assert not amps.flags.writeable


def outer_products(kets):
    """|k><k| for every ket of a (..., d) stack."""
    return kets[..., :, None] * kets.conj()[..., None, :]


def alice_projectors(theta1):
    """Alice's "+" and "-" projectors, from the kernel's kets."""
    return outer_products(ct._alice_kets(theta1))


def bob_projectors(theta2):
    """Bob's "+" and "-" projectors at one theta2, from the kernel's kets."""
    return outer_products(ct._bob_kets([theta2])[:, 0])


class TestProjectors:
    def test_alice_zero_is_h(self):
        assert np.allclose(alice_projectors(0.0)[0], np.diag([1.0, 0.0]), atol=1e-12)

    def test_alice_diag(self):
        expected = np.full((2, 2), 0.5)
        assert np.allclose(alice_projectors(math.pi / 4)[0], expected, atol=1e-12)

    @pytest.mark.parametrize("theta1", np.linspace(-1.5, 1.5, 7))
    def test_alice_completeness(self, theta1):
        total = alice_projectors(theta1).sum(axis=0)
        assert np.max(np.abs(total - np.eye(2))) < 1e-12

    def test_bob_zero_is_phi_minus(self):
        expected = qs.projector_onto(qs.bell_ket("phi-")).matrix
        assert np.allclose(bob_projectors(0.0)[0], expected, atol=1e-12)

    def test_bob_right_angle_is_psi_plus(self):
        expected = qs.projector_onto(qs.bell_ket("psi+")).matrix
        assert np.allclose(bob_projectors(math.pi / 2)[0], expected, atol=1e-12)

    def test_bob_quarter_in_local_basis(self):
        # algebraic expansion oracle: (|phi-> + |psi+>)/sqrt2 = (|HD> + |VA>)/sqrt2
        hd = np.kron(qs.KET_H, qs.KET_D)
        va = np.kron(qs.KET_V, qs.KET_A)
        expected = qs.projector_onto((hd + va) / SQRT2).matrix
        assert np.allclose(bob_projectors(math.pi / 4)[0], expected, atol=1e-12)

    def test_bob_minus_is_plus_at_rotated_angle(self):
        for theta2 in np.linspace(-1.2, 1.2, 9):
            minus = bob_projectors(theta2)[1]
            rotated = bob_projectors(theta2 + math.pi / 2)[0]
            assert np.array_equal(minus, rotated)

    def test_bob_outcomes_orthogonal(self):
        plus, minus = bob_projectors(0.7)
        assert np.max(np.abs(plus @ minus)) < 1e-12

    def test_alice_kets_match_the_oracle(self):
        # the oracle: cos|H> + sin|V> and -sin|H> + cos|V>, in closed form
        for theta1 in np.random.default_rng(18).uniform(-7.0, 7.0, 200).tolist() + [0.0, -0.0]:
            assert np.max(np.abs(ct._alice_kets(theta1) - ref.alice_kets(theta1))) < 1e-15


class TestBobStack:
    """The kets of ``_bob_kets`` against their closed form, to 1e-15."""

    @staticmethod
    def assert_matches_closed_form(rows, basis="real"):
        kets = ct._bob_kets(rows, basis)
        assert kets.shape == (2, len(rows), 4)
        assert np.max(np.abs(kets - ref.bob_kets(rows, basis))) < 1e-15

    def test_dense_random_angles(self):
        self.assert_matches_closed_form(np.random.default_rng(17).uniform(-10.0, 10.0, 20000).tolist())

    def test_exact_angles(self):
        quarter, half = math.pi / 4, math.pi / 2
        self.assert_matches_closed_form([0.0, -0.0, quarter, -quarter, half, -half]
                                        + [k * math.pi / 8 for k in range(-40, 41)])

    def test_quadrature_angles(self):
        self.assert_matches_closed_form([math.pi / 4 + k * math.pi / 2 for k in range(-40, 41)],
                                        "quadrature")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        with pytest.raises(ValueError):
            ct._bob_kets([0.2, bad])

    def test_large_angle_that_still_resolves(self):
        self.assert_matches_closed_form([0.2, 1e5, -1e5])
        plus, minus = outer_products(ct._bob_kets([1e5])[:, 0])
        assert np.max(np.abs(plus @ minus)) < 1e-10
        config = ct.ExperimentConfig(phi=0.4, theta2=1e5)
        assert abs(ct.correlation(config) - ref.config_correlation(config)) < 1e-13

    @pytest.mark.parametrize("bad", [1e8, -1e8, 2.0**54, 1e300])
    def test_angle_whose_quarter_turn_does_not_resolve_named(self, bad):
        message = re.escape(f"theta2 = {bad!r} does not resolve theta2 + pi/2")
        with pytest.raises(ValueError, match=message):
            ct._bob_kets([0.2, bad, 0.3])
        with pytest.raises(ValueError, match=message):
            ct.correlation(ct.ExperimentConfig(phi=0.0, theta2=bad))
        with pytest.raises(ValueError, match=message):
            ct.correlation_surface(0.0, (0.1, bad), (0.0, 1.0))

    def test_kets_match_the_ket_rule_oracle(self):
        # the ket rule: each ket a unit vector, Bob's two outcomes orthogonal
        for rows in (np.random.default_rng(17).uniform(-10.0, 10.0, 2000).tolist(),
                     [0.0, -0.0, math.pi / 4, -math.pi / 2]
                     + [k * math.pi / 8 for k in range(-40, 41)],
                     [0.2, 1e5, -1e5]):
            plus, minus = ct._bob_kets(rows)
            assert np.max(np.abs(np.linalg.norm(plus, axis=1) - 1.0)) < 1e-15
            assert np.max(np.abs(np.sum(plus.conj() * minus, axis=1))) < 1e-10


def quarter_turn_error(build, rows):
    """The message of the ValueError that ``build(rows)`` raises, or None."""
    try:
        build(rows)
    except ValueError as exc:
        return str(exc)
    return None


def large_angles(seed, size):
    """+-10^u for u uniform in [5, 20], where the quarter turn starts to fail."""
    rng = np.random.default_rng(seed)
    return (rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(5.0, 20.0, size)).tolist()


class TestQuarterTurnRule:
    """``_bob_angles`` rejects a theta2 whose two analyzer kets overlap by more than 1e-10."""

    NAMED = re.compile(r"^theta2 = (\S+) does not resolve theta2 \+ pi/2: "
                       r"Bob's '\+' and '-' analyzers overlap by (\S+)$")

    @staticmethod
    def overlaps(rows):
        """|<+|->| of Bob's two kets per row, from their closed form."""
        plus, minus = ref.bob_kets(rows)
        return np.abs(np.sum(plus * minus, axis=1))

    def test_single_angles_accepted_and_rejected_alike(self):
        edges = [5e7, 7e7, 9e7, 1e8, -1e8, 2.0**26, 2.0**27, 2.0**54, 1e300, 1e5, -1e5]
        stack = ([0.0, -0.0, math.pi / 4, math.pi / 2]
                 + [k * math.pi / 8 for k in range(-40, 41)]
                 + np.random.default_rng(17).uniform(-10.0, 10.0, 200).tolist())
        angles = large_angles(31, 20000) + edges + stack
        rejected = 0
        for theta2, overlap in zip(angles, self.overlaps(angles).tolist()):
            got = quarter_turn_error(ct._bob_angles, [theta2])
            assert (got is not None) == (overlap > 1e-10), theta2
            if got is not None:
                named, printed = self.NAMED.match(got).groups()
                assert named == repr(theta2) and math.isclose(float(printed), overlap, rel_tol=1e-2)
                rejected += 1
        assert 10000 < rejected < 20000  # both outcomes are well represented

    @pytest.mark.parametrize("size", [2, 7, 128])
    def test_several_bad_rows_name_the_largest_overlap(self, size):
        # rows in one binade share their float quarter turn, so their
        # overlaps tie exactly: the first of the tied rows is named
        angles = large_angles(32, 128 * 40)
        for first in range(0, len(angles), size):
            rows = angles[first:first + size]
            got = quarter_turn_error(ct._bob_angles, rows)
            assert (got is None) == (self.overlaps(rows).max() <= 1e-10)
            if got is None:
                continue
            quarter = [abs(math.cos((t + math.pi / 2) - t)) for t in rows]
            tied = [repr(t) for t, o in zip(rows, quarter) if o == max(quarter)]
            assert got == (f"theta2 = {tied[0]} does not resolve theta2 + pi/2: Bob's "
                           f"'+' and '-' analyzers overlap by {max(quarter):.3g}")


class TestInvariants:
    """Identities of the physics that hold for any correct kernel, in any order of arithmetic."""

    def test_correlation_is_linear_in_cos_and_sin_of_twice_theta1(self):
        # Alice's observable is cos(2 theta1) Z + sin(2 theta1) X
        rng = np.random.default_rng(40)
        for _ in range(20):
            theta2_grid, phi_grid = rng.uniform(-4.0, 4.0, 30), rng.uniform(-8.0, 8.0, 30)
            z, x = (ct.correlation_surface(t, theta2_grid, phi_grid) for t in (0.0, math.pi / 4))
            theta1 = rng.uniform(-4.0, 4.0)
            got = ct.correlation_surface(theta1, theta2_grid, phi_grid)
            want = math.cos(2 * theta1) * z + math.sin(2 * theta1) * x
            assert np.max(np.abs(got - want)) < 1e-13

    def test_no_signalling(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            phi, delta = rng.uniform(-15.0, 15.0), rng.uniform(-10.0, 10.0)
            theta1, theta1b, theta2, theta2b = rng.uniform(-7.0, 7.0, 4)

            def joint(t1, t2):
                return ct.coincidence_probabilities(ct.ExperimentConfig(
                    phi=phi, theta1=t1, theta2=t2, delta=delta)).as_array().reshape(2, 2)

            # Alice's marginal is blind to theta2, Bob's to theta1
            assert np.max(np.abs(joint(theta1, theta2).sum(axis=1)
                                 - joint(theta1, theta2b).sum(axis=1))) < 1e-13
            assert np.max(np.abs(joint(theta1, theta2).sum(axis=0)
                                 - joint(theta1b, theta2).sum(axis=0))) < 1e-13

    def test_bob_quarter_turn_flips_the_correlation(self):
        # Bob's "-" outcome at theta2 is his "+" at theta2 + pi/2, so
        # E(theta1, theta2 + pi/2, phi) = -E(theta1, theta2, phi) under any noise
        rng = np.random.default_rng(42)
        for _ in range(2000):
            config = random_setting(rng)
            turned = dataclasses.replace(config, theta2=config.theta2 + math.pi / 2)
            assert abs(ct.correlation(turned) + ct.correlation(config)) < 1e-13
        theta2_grid = rng.uniform(-10.0, 10.0, 60)
        noise = ct.NoiseParams(visibility=0.8, background=0.1)
        table = ct.correlation_surface(rng.uniform(-7.0, 7.0),
                                       np.concatenate([theta2_grid, theta2_grid + math.pi / 2]),
                                       rng.uniform(-15.0, 15.0, 40), noise)
        assert np.max(np.abs(table[60:] + table[:60])) < 1e-13


class TestCoincidences:
    def test_perfectly_correlated_point(self):
        dist = ct.coincidence_probabilities(
            ct.ExperimentConfig(phi=math.pi / 2, theta1=0.0, theta2=0.0))
        assert np.allclose(dist.as_array(), [0.5, 0.0, 0.0, 0.5], atol=1e-12)

    def test_half_anticorrelated_point(self):
        dist = ct.coincidence_probabilities(
            ct.ExperimentConfig(phi=0.0, theta1=0.0, theta2=math.pi / 4))
        assert dist.correlation == pytest.approx(-0.5, abs=1e-10)

    def test_zero_visibility_is_uniform(self):
        for theta2, phi in ((0.3, 1.0), (-0.9, 5.0)):
            dist = ct.coincidence_probabilities(
                ct.ExperimentConfig(phi=phi, theta1=0.4, theta2=theta2,
                                    noise=ct.NoiseParams(visibility=0.0)))
            assert np.allclose(dist.as_array(), [0.25] * 4, atol=1e-12)

    def test_distributions_valid_under_random_noise(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            cfg = ct.ExperimentConfig(
                phi=rng.uniform(0, 2 * math.pi),
                theta1=rng.uniform(-math.pi, math.pi),
                theta2=rng.uniform(-math.pi, math.pi),
                noise=ct.NoiseParams(visibility=rng.random(),
                                     background=rng.random()),
            )
            probs = ct.coincidence_probabilities(cfg).as_array()
            assert np.all(probs >= -1e-12)
            assert abs(probs.sum() - 1.0) < 1e-10

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            ct.NoiseParams(visibility=1.2)
        with pytest.raises(ValueError):
            ct.NoiseParams(background=-0.1)

    @pytest.mark.parametrize("probs", [
        (math.nan, 0.5, 0.25, 0.25),
        (0.25, 0.25, 0.25, math.nan),
        (math.inf, 0.0, 0.0, 0.0),
    ])
    def test_non_finite_probabilities_rejected(self, probs):
        with pytest.raises(ValueError):
            ct.OutcomeDistribution(*probs)

    def test_probabilities_not_summing_to_one_rejected(self):
        with pytest.raises(ValueError, match="probabilities sum to 1.5, expected 1"):
            ct.OutcomeDistribution(0.5, 0.5, 0.25, 0.25)

    @pytest.mark.parametrize("name", ["phi", "theta1", "theta2", "delta"])
    def test_non_finite_config_angle_named(self, name):
        kwargs = {"phi": 0.0, name: math.nan}
        with pytest.raises(ValueError, match=f"^{name} must be a finite angle, got nan$"):
            ct.ExperimentConfig(**kwargs)

    def test_matches_the_closed_form_at_random_settings(self):
        rng = np.random.default_rng(23)
        configs = [random_setting(rng) for _ in range(3000)]
        want = ref.coincidences(*np.array([
            (c.theta1, c.theta2, c.phi, c.delta, c.noise.visibility, c.noise.background)
            for c in configs]).T)
        got = np.array([ct.coincidence_probabilities(c).as_array() for c in configs])
        assert np.max(np.abs(got - want)) < 1e-13

    @pytest.mark.parametrize("theta1, n_theta2, n_phi, noise", [
        (0.0, 9, 9, ct.IDEAL),
        (0.0, 9, 9, ct.NoiseParams(visibility=0.86)),
        (math.pi / 4, 17, 33, ct.NoiseParams(visibility=0.9)),
    ])
    def test_bit_identical_on_the_command_line_grids(self, theta1, n_theta2, n_phi, noise):
        # the point kernel gives the surface's bits, and the closed form to 1e-13
        theta2_grid = np.linspace(-math.pi / 2, math.pi / 2, n_theta2)
        phi_grid = np.linspace(0.0, 2 * math.pi, n_phi)
        table = ct.correlation_surface(theta1, theta2_grid, phi_grid, noise)
        want = ref.coincidences(theta1, theta2_grid[:, None], phi_grid, math.pi / 4,
                                noise.visibility, noise.background)
        for (i, theta2), (j, phi) in itertools.product(enumerate(theta2_grid), enumerate(phi_grid)):
            config = ct.ExperimentConfig(phi=phi, theta1=theta1, theta2=theta2, noise=noise)
            assert np.max(np.abs(ct.coincidence_probabilities(config).as_array() - want[i, j])) < 1e-13
            assert ct.correlation(config).hex() == table[i, j].hex()

    def test_fields_are_plain_floats_in_slots(self):
        dist = ct.coincidence_probabilities(ct.ExperimentConfig(phi=1.1, theta1=0.4,
                                                                theta2=-0.3))
        assert all(type(p) is float for p in (dist.p_pp, dist.p_pm, dist.p_mp, dist.p_mm))
        assert type(dist.correlation) is float
        assert not hasattr(dist, "__dict__")
        assert type(ct.OutcomeDistribution(*np.full(4, 0.25)).p_mm) is float


class TestCorrelation:
    def test_reference_point(self):
        e = ct.correlation(ct.ExperimentConfig(phi=3 * math.pi / 2,
                                               theta1=0.0, theta2=math.pi / 8))
        assert e == pytest.approx(-1 / SQRT2, abs=1e-10)

    def test_perfect_correlation(self):
        e = ct.correlation(ct.ExperimentConfig(phi=math.pi / 2,
                                               theta1=0.0, theta2=0.0))
        assert e == pytest.approx(1.0, abs=1e-10)

    def test_matches_closed_form_on_grid(self):
        for theta1 in (0.0, math.pi / 4):
            for theta2 in ct.THETA2_GRID_9:
                for phi in ct.PHI_GRID_9:
                    got = ct.correlation(
                        ct.ExperimentConfig(phi=phi, theta1=theta1, theta2=theta2))
                    assert got == pytest.approx(
                        ref.printed_correlation(theta1, theta2, phi), abs=1e-10)

    def test_antisymmetry_in_bob_angle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            theta1 = rng.uniform(-math.pi, math.pi)
            theta2 = rng.uniform(-math.pi, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            plus = ct.correlation(
                ct.ExperimentConfig(phi=phi, theta1=theta1, theta2=theta2))
            shifted = ct.correlation(
                ct.ExperimentConfig(phi=phi, theta1=theta1,
                                    theta2=theta2 + math.pi / 2))
            assert shifted == pytest.approx(-plus, abs=1e-10)

    def test_noise_scales_linearly(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            theta1 = rng.uniform(-math.pi, math.pi)
            theta2 = rng.uniform(-math.pi, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            v, b = rng.random(), rng.random()
            ideal = ct.correlation(
                ct.ExperimentConfig(phi=phi, theta1=theta1, theta2=theta2))
            noisy = ct.correlation(
                ct.ExperimentConfig(phi=phi, theta1=theta1, theta2=theta2,
                                    noise=ct.NoiseParams(visibility=v,
                                                         background=b)))
            assert noisy == pytest.approx((1 - b) * v * ideal, abs=1e-10)

    def test_alice_marginal_fair_at_fringe_extrema(self):
        # fair marginals hold at the working phases sin(phi) = +-1; at
        # generic phi the system photon's reduced state is phase-biased
        for theta1 in (0.0, math.pi / 4):
            for phi in (math.pi / 2, 3 * math.pi / 2):
                for theta2 in ct.THETA2_GRID_9:
                    dist = ct.coincidence_probabilities(
                        ct.ExperimentConfig(phi=phi, theta1=theta1,
                                            theta2=theta2))
                    assert dist.alice_plus_marginal == pytest.approx(0.5,
                                                                     abs=1e-10)


def chsh_of(correlation, phi, theta1_pair=(0.0, math.pi / 4),
            theta2_pair=(math.pi / 8, 3 * math.pi / 8), noise=ct.IDEAL):
    """|E(t1,t2) + E(t1,t2') - E(t1',t2) + E(t1',t2')| from ``correlation(config)``."""
    (t1, t1p), (t2, t2p) = theta1_pair, theta2_pair

    def e(a, b):
        return correlation(ct.ExperimentConfig(phi=phi, theta1=a, theta2=b, noise=noise))

    return abs(e(t1, t2) + e(t1, t2p) - e(t1p, t2) + e(t1p, t2p))


def assert_chsh(phi, *pairs, noise=ct.IDEAL):
    """``chsh`` has the bits of four point correlations, and the closed form's value."""
    s = ct.chsh(phi, *pairs, noise=noise)
    assert type(s) is float
    assert s.hex() == chsh_of(ct.correlation, phi, *pairs, noise=noise).hex()
    assert abs(s - chsh_of(ref.config_correlation, phi, *pairs, noise=noise)) < 1e-13


def random_chsh_case(seed):
    """Random phase, pairs and noise; angles reach well past their principal ranges."""
    rng = np.random.default_rng(seed)
    noise = ct.NoiseParams(visibility=rng.uniform(0.0, 1.0),
                           background=rng.uniform(0.0, 1.0) * rng.integers(0, 2))
    return (rng.uniform(-15.0, 15.0), tuple(rng.uniform(-7.0, 7.0, 2).tolist()),
            tuple(rng.uniform(-10.0, 10.0, 2).tolist()), noise)


class TestChsh:
    def test_ideal_maximum_at_both_working_points(self):
        assert ct.chsh(3 * math.pi / 2) == pytest.approx(2 * SQRT2, abs=1e-10)
        assert ct.chsh(math.pi / 2, theta1_pair=(math.pi / 4, 0.0)) == \
            pytest.approx(2 * SQRT2, abs=1e-10)

    def test_reduced_visibility_reproduces_measured_value(self):
        s = ct.chsh(3 * math.pi / 2, noise=ct.NoiseParams(visibility=0.7718))
        assert s == pytest.approx(2.1829, abs=1e-3)

    def test_threshold_visibility_hits_local_bound(self):
        s = ct.chsh(3 * math.pi / 2, noise=ct.NoiseParams(visibility=1 / SQRT2))
        assert s == pytest.approx(2.0, abs=1e-10)

    def test_degenerate_pairs_rejected(self):
        with pytest.raises(ValueError):
            ct.chsh(0.0, theta1_pair=(0.1, 0.1))
        with pytest.raises(ValueError):
            ct.chsh(0.0, theta2_pair=(0.2, 0.2))

    def test_bit_identical_to_per_point_chsh(self):
        for seed in range(100):
            phi, theta1_pair, theta2_pair, noise = random_chsh_case(seed)
            for pairs in ((theta1_pair, theta2_pair), (theta1_pair[::-1], theta2_pair),
                          (theta1_pair, theta2_pair[::-1])):
                assert_chsh(phi, *pairs, noise=noise)

    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, math.pi, 3 * math.pi / 2,
                                     -3 * math.pi / 2, 11.0])
    def test_bit_identical_at_the_default_pairs(self, phi):
        for theta1_pair in ((0.0, math.pi / 4), (math.pi / 4, 0.0)):
            for noise in (ct.IDEAL, ct.NoiseParams(visibility=0.7718),
                          ct.NoiseParams(visibility=0.9, background=0.05)):
                assert_chsh(phi, theta1_pair, noise=noise)

    @pytest.mark.parametrize("kwargs", [
        {"phi": math.nan}, {"phi": math.inf},
        {"phi": 0.0, "theta1_pair": (0.0, math.nan)},
        {"phi": 0.0, "theta1_pair": (-math.inf, 0.5)},
        {"phi": 0.0, "theta2_pair": (math.nan, 0.2)},
        {"phi": 0.0, "theta2_pair": (0.2, math.inf)},
        {"phi": 0.0, "theta1_pair": (0.3, 0.3 + 1e-12)},
        {"phi": 0.0, "theta2_pair": (-0.7, -0.7)},
    ])
    def test_non_finite_angles_and_degenerate_pairs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ct.chsh(**kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        ({"phi": math.nan}, "phi"),
        ({"phi": 1.0, "theta1_pair": (0.0, math.inf)}, "theta1_pair"),
        ({"phi": 1.0, "theta2_pair": (math.nan, 0.3)}, "theta2_pair"),
    ])
    def test_non_finite_argument_named_before_any_work(self, monkeypatch, kwargs, name):
        def no_work(*args, **kwargs):
            raise AssertionError("the surface ran before the arguments were checked")

        monkeypatch.setattr(ct, "correlation_surface", no_work)
        message = ("phi must be a finite angle, got nan" if name == "phi"
                   else f"{name} must hold finite angles only")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ct.chsh(**kwargs)

    @pytest.mark.parametrize("name", ["theta1_pair", "theta2_pair"])
    @pytest.mark.parametrize("pair", [(0.3,), (0.0, 0.5, 1.0)])
    def test_pair_of_the_wrong_length_named(self, name, pair):
        with pytest.raises(ValueError, match=f"^{name} must hold two angles, got {len(pair)}$"):
            ct.chsh(1.0, **{name: pair})


class TestSurface:
    def test_ideal_extremes(self):
        table = ct.correlation_surface(0.0)
        assert table.shape == (9, 9)
        assert table.min() == pytest.approx(-1.0, abs=1e-10)
        assert table.max() == pytest.approx(1.0, abs=1e-10)

    def test_degraded_extremes(self):
        table = ct.correlation_surface(0.0, noise=ct.NoiseParams(visibility=0.86))
        assert table.min() == pytest.approx(-0.86, abs=1e-10)
        assert table.max() == pytest.approx(0.86, abs=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_noiseless_surface_has_rank_two(self, seed):
        # each amplitude is alpha + e^{i phi} beta, and the noiseless E is a
        # sum of two products of a theta2 factor and a phi factor, as the
        # paper's cos(2 theta2 + pi/4) +- sin(phi) cos(2 theta2 - pi/4) is
        rng = np.random.default_rng(seed)
        table = ct.correlation_surface(rng.uniform(-7.0, 7.0), rng.uniform(-10.0, 10.0, 200),
                                       rng.uniform(-15.0, 15.0, 200))
        sigma = np.linalg.svd(table, compute_uv=False)
        assert sigma[1] > 1e-3 * sigma[0]
        assert sigma[2] <= 1e-12 * sigma[0]

    def test_single_point_grid_reduces_to_correlation(self):
        table = ct.correlation_surface(0.0, theta2_grid=(0.3,), phi_grid=(1.1,))
        expected = ct.correlation(ct.ExperimentConfig(phi=1.1, theta1=0.0,
                                                      theta2=0.3))
        assert table.shape == (1, 1)
        assert table[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ct.correlation_surface(0.0, theta2_grid=(), phi_grid=(1.0,))


def assert_surface(theta1, theta2_grid, phi_grid, noise):
    """The surface has the bits of ``correlation`` per point, and the closed form's values."""
    table = ct.correlation_surface(theta1, theta2_grid, phi_grid, noise)
    points = np.array([[ct.correlation(ct.ExperimentConfig(
        phi=phi, theta1=theta1, theta2=t2, noise=noise)) for phi in phi_grid] for t2 in theta2_grid])
    np.testing.assert_array_equal(table.view(np.int64), points.view(np.int64))
    want = ref.correlation(theta1, np.asarray(theta2_grid)[:, None], phi_grid, math.pi / 4,
                           noise.visibility, noise.background)
    assert np.max(np.abs(table - want)) < 1e-13


def random_surface_case(seed, n_theta2, n_phi):
    """Random theta1 and noise; angles reach well past their principal ranges."""
    rng = np.random.default_rng(seed)
    noise = ct.NoiseParams(visibility=rng.uniform(0.0, 1.0),
                           background=rng.uniform(0.0, 1.0) * rng.integers(0, 2))
    return (rng.uniform(-7.0, 7.0), rng.uniform(-10.0, 10.0, n_theta2),
            rng.uniform(-15.0, 15.0, n_phi), noise)


class TestSurfaceKernel:
    @pytest.mark.parametrize("seed, n_theta2, n_phi", [
        (1, 1, 1), (2, 1, 40), (3, 40, 1), (4, 2, 3), (5, 7, 13),
        (6, 13, 7), (7, 21, 21), (8, 40, 40), (10, 300, 2),
        (11, 300, 1),  # a tall grid: three blocks of up to 128 theta2 rows
    ])
    def test_bit_identical_to_per_point_correlation(self, seed, n_theta2, n_phi):
        theta1, theta2_grid, phi_grid, noise = random_surface_case(seed, n_theta2, n_phi)
        assert_surface(theta1, theta2_grid, phi_grid, noise)

    @pytest.mark.parametrize("theta1, n_theta2, n_phi, noise", [
        (0.0, 9, 9, ct.IDEAL),  # exact zeros: their signs must match too
        (0.0, 9, 9, ct.NoiseParams(visibility=0.86)),
        (math.pi / 4, 17, 33, ct.NoiseParams(visibility=0.9)),
        (-math.pi / 4, 5, 17, ct.NoiseParams(visibility=1.0, background=1.0)),
    ])
    def test_bit_identical_on_the_command_line_grids(self, theta1, n_theta2, n_phi, noise):
        theta2_grid = np.linspace(-math.pi / 2, math.pi / 2, n_theta2)
        phi_grid = np.linspace(0.0, 2 * math.pi, n_phi)
        assert_surface(theta1, theta2_grid, phi_grid, noise)

    def test_tall_grid_matches_correlation(self):
        # 300 rows at one phase cross two 128-row block boundaries
        theta1, theta2_grid, phi_grid, noise = random_surface_case(12, 300, 1)
        assert_surface(theta1, theta2_grid, phi_grid, noise)

    def test_bit_identical_across_phase_blocks(self, monkeypatch):
        monkeypatch.setattr(ct, "_PHI_BLOCK", 4)
        theta1, theta2_grid, phi_grid, noise = random_surface_case(9, 3, 11)
        assert_surface(theta1, theta2_grid, phi_grid, noise)

    @pytest.mark.parametrize("factor, message", [
        (2.0, r"^probability \S+ outside \[0, 1\]$"), (0.9, "not summing to 1"),
    ])
    def test_probability_checks_run_on_the_stack(self, monkeypatch, factor, message):
        # unnormalized states, as no gate chain makes: the per-point checks
        # of outcome_probability and OutcomeDistribution still apply
        kernel = ct._final_states
        monkeypatch.setattr(ct, "_final_states", lambda *args: factor * kernel(*args))
        with pytest.raises(ValueError, match=message):
            ct.correlation_surface(0.0)

    def test_final_states_match_final_state(self):
        phi_grid = np.random.default_rng(10).uniform(-15.0, 15.0, 25)
        states = ct._final_states(phi_grid, 0.7)
        for phi, amps in zip(phi_grid, states):
            np.testing.assert_array_equal(amps.view(np.int64),
                                          ct.final_state(phi, 0.7).amplitudes.view(np.int64))
            assert np.max(np.abs(amps - ref.final_state(phi, 0.7))) < 1e-15

    def test_arrays_and_generators_are_grids(self):
        theta2_grid, phi_grid = (0.1, -0.4, 2.0), (0.0, 1.5)
        expected = ct.correlation_surface(0.3, theta2_grid, phi_grid)
        np.testing.assert_array_equal(
            ct.correlation_surface(0.3, np.array(theta2_grid), np.array(phi_grid)),
            expected)
        np.testing.assert_array_equal(
            ct.correlation_surface(0.3, (t for t in theta2_grid), iter(phi_grid)),
            expected)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta1_rejected(self, bad):
        with pytest.raises(ValueError, match="theta1"):
            ct.correlation_surface(bad)

    @pytest.mark.parametrize("name", ["theta2_grid", "phi_grid"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_value_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must hold finite angles"):
            ct.correlation_surface(0.0, **{name: (0.0, 1.0, bad)})

    @pytest.mark.parametrize("name", ["theta2_grid", "phi_grid"])
    @pytest.mark.parametrize("empty", [(), [], np.array([]), iter(())])
    def test_empty_grid_named(self, name, empty):
        with pytest.raises(ValueError, match=f"{name} must be nonempty"):
            ct.correlation_surface(0.0, **{name: empty})

    @pytest.mark.parametrize("name", ["theta2_grid", "phi_grid"])
    @pytest.mark.parametrize("shaped", [np.zeros((2, 3)), [[0.0], [1.0]], np.array(0.5)])
    def test_grid_that_is_not_one_dimensional_rejected(self, name, shaped):
        with pytest.raises(ValueError, match=f"{name} must be one-dimensional"):
            ct.correlation_surface(0.0, **{name: shaped})

    @pytest.mark.parametrize("name", ["theta2_grid", "phi_grid"])
    @pytest.mark.parametrize("bad", [("a", "b"), [0.0, [1.0, 2.0]], 0.5])
    def test_grid_that_is_not_angles_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be"):
            ct.correlation_surface(0.0, **{name: bad})

    @pytest.mark.parametrize("kwargs", [
        {"theta1": math.nan},
        {"theta1": 0.0, "theta2_grid": (0.0, math.nan)},
        {"theta1": 0.0, "phi_grid": ()},
    ])
    def test_checked_before_any_work(self, monkeypatch, kwargs):
        def no_work(*args):
            raise AssertionError("the kernel ran before the grids were checked")

        monkeypatch.setattr(ct, "_final_states", no_work)
        monkeypatch.setattr(ct, "_alice_kets", no_work)
        with pytest.raises(ValueError):
            ct.correlation_surface(**kwargs)

    @pytest.mark.parametrize("n_theta2, n_phi, bound", [
        (500, 64, 2**18),  # a (T, P, 4) intermediate alone would be 1 MiB
        (1, 20000, 2**21),  # (P, 8) states alone would be 2.4 MiB
        (4096, 1, 2**21),  # (T, 4, 8, 8) product projectors alone would be 16 MiB
    ])
    def test_workspace_is_bounded(self, n_theta2, n_phi, bound):
        theta2_grid = np.linspace(-1.0, 1.0, n_theta2)
        phi_grid = np.linspace(0.0, 6.0, n_phi)
        ct.correlation_surface(0.2, theta2_grid[:1], phi_grid[:1])  # warm caches
        tracemalloc.start()
        try:
            ct.correlation_surface(0.2, theta2_grid, phi_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * n_theta2 * n_phi < bound


def one_shot_counts(distribution, total, seed):
    """Reference sampler: each binomial step draws all its uniforms at once."""
    rng = ct.rng_stream(seed)
    probs = distribution.as_array()
    counts = np.zeros(4, dtype=np.int64)
    remaining = total
    tail = 1.0
    for k in range(3):
        if remaining == 0 or tail <= 0.0:
            break
        p = min(max(probs[k] / tail, 0.0), 1.0)
        counts[k] = int(np.count_nonzero(rng.random(remaining) < p))
        remaining -= counts[k]
        tail -= probs[k]
    counts[3] = remaining
    return counts


class TestSampling:
    @pytest.mark.parametrize("total", [1, ct._SAMPLE_CHUNK - 1, ct._SAMPLE_CHUNK,
                                       ct._SAMPLE_CHUNK + 1, 2**20 - 1, 2**20,
                                       2**20 + 1, 3_000_003])
    @pytest.mark.parametrize("seed", [0, 7, (99, 3)])
    def test_counts_match_one_shot_sampler(self, total, seed):
        dist = ct.coincidence_probabilities(ct.ExperimentConfig(
            phi=3 * math.pi / 2, theta1=0.0, theta2=math.pi / 8,
            noise=ct.NoiseParams(visibility=0.86, background=0.05)))
        assert np.array_equal(ct.sample_counts(dist, total, seed),
                              one_shot_counts(dist, total, seed))

    def test_memory_does_not_grow_with_shots(self):
        dist = ct.OutcomeDistribution(0.4, 0.1, 0.2, 0.3)
        tracemalloc.start()
        try:
            ct.sample_counts(dist, 2**23, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("total, expected", [
        (5585, [417, 2320, 2461, 387]),
        (10**6, [72961, 426816, 426890, 73333]),
        (10**7, [731350, 4267120, 4269128, 732402]),
    ])
    def test_readme_setting_counts_are_pinned(self, total, expected):
        # the README / command-line setting; these literals pin the PCG64
        # stream and the block loop byte for byte
        dist = ct.coincidence_probabilities(ct.ExperimentConfig(
            phi=3 * math.pi / 2, theta1=0.0, theta2=math.pi / 8))
        assert ct.sample_counts(dist, total, seed=7).tolist() == expected

    # a bool is no count of shots, although operator.index reads it as 0 or 1
    @pytest.mark.parametrize("total", [2.5, 3.0, "10", None, True, False, np.True_])
    def test_non_integral_total_rejected(self, total):
        dist = ct.OutcomeDistribution(0.25, 0.25, 0.25, 0.25)
        with pytest.raises(TypeError):
            ct.sample_counts(dist, total, seed=1)

    def test_numpy_integer_total_accepted(self):
        dist = ct.OutcomeDistribution(0.25, 0.25, 0.25, 0.25)
        assert ct.sample_counts(dist, np.int64(10), seed=1).sum() == 10

    def test_degenerate_distribution(self):
        dist = ct.OutcomeDistribution(1.0, 0.0, 0.0, 0.0)
        counts = ct.sample_counts(dist, 100, seed=0)
        assert list(counts) == [100, 0, 0, 0]

    def test_seed_determinism(self):
        dist = ct.OutcomeDistribution(0.4, 0.1, 0.2, 0.3)
        a = ct.sample_counts(dist, 5000, seed=42)
        b = ct.sample_counts(dist, 5000, seed=42)
        assert np.array_equal(a, b)
        assert a.sum() == 5000

    def test_zero_total_rejected(self):
        dist = ct.OutcomeDistribution(0.25, 0.25, 0.25, 0.25)
        with pytest.raises(ValueError):
            ct.sample_counts(dist, 0, seed=1)

    def test_sample_mean_matches_analytic_correlation(self):
        # law of large numbers against the analytic value -0.85/sqrt2
        cfg = ct.ExperimentConfig(phi=3 * math.pi / 2, theta1=0.0,
                                  theta2=math.pi / 8,
                                  noise=ct.NoiseParams(visibility=0.85))
        dist = ct.coincidence_probabilities(cfg)
        total = 5585
        values = []
        for seed in range(1000):
            counts = ct.sample_counts(dist, total, seed=seed)
            values.append((counts[0] - counts[1] - counts[2] + counts[3]) / total)
        values = np.asarray(values)
        expected = -0.85 / SQRT2
        stderr = math.sqrt((1 - expected**2) / total) / math.sqrt(len(values))
        assert abs(values.mean() - expected) < 3 * stderr


class TestVisibilityFit:
    def test_recovers_known_visibility(self):
        theta2 = np.linspace(-math.pi / 2, math.pi / 2, 17)
        noise = ct.NoiseParams(visibility=0.833)
        measured = [
            ct.correlation(ct.ExperimentConfig(phi=3 * math.pi / 2, theta1=0.0,
                                               theta2=t2, noise=noise))
            for t2 in theta2
        ]
        fitted = ct.fit_visibility(theta2, measured, theta1=0.0,
                                   phi=3 * math.pi / 2)
        assert fitted == pytest.approx(0.833, abs=1e-10)

    def test_recovers_visibility_from_sampled_counts(self):
        rng_seed = 123
        theta2 = np.linspace(-math.pi / 2, math.pi / 2, 9)
        noise = ct.NoiseParams(visibility=0.77)
        measured = []
        for i, t2 in enumerate(theta2):
            cfg = ct.ExperimentConfig(phi=math.pi / 2, theta1=math.pi / 4,
                                      theta2=t2, noise=noise)
            counts = ct.sample_counts(ct.coincidence_probabilities(cfg), 20000,
                                      seed=(rng_seed, i))
            measured.append(
                (counts[0] - counts[1] - counts[2] + counts[3]) / counts.sum())
        fitted = ct.fit_visibility(theta2, measured, theta1=math.pi / 4,
                                   phi=math.pi / 2)
        assert fitted == pytest.approx(0.77, abs=0.02)

    def test_matches_the_fit_to_the_closed_form(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            theta1, phi = rng.uniform(-7.0, 7.0), rng.uniform(-15.0, 15.0)
            theta2 = rng.uniform(-10.0, 10.0, rng.integers(1, 40))
            measured = rng.uniform(-1.0, 1.0, theta2.size)
            fitted = ct.fit_visibility(tuple(theta2), list(measured), theta1, phi)
            assert type(fitted) is float
            ideal = ref.correlation(theta1, theta2, phi)
            want = ideal @ measured / (ideal @ ideal)
            assert abs(fitted - want) < 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("theta2, measured, theta1, phi", [
        ([0.1, math.nan], [0.5, 0.5], 0.0, 1.0),
        ([0.1, 0.2], [0.5, 0.5], math.inf, 1.0),
        ([0.1, 0.2], [0.5, 0.5], 0.0, -math.inf),
        ([0.1, 0.2], [0.5, 0.5], 0.0, math.nan),
        ([], [], 0.0, 1.0),
        ([0.1, 0.2], [0.5], 0.0, 1.0),
        ([[0.1], [0.2]], [0.5, 0.5], 0.0, 1.0),
        ([math.pi / 8, math.pi / 8 + math.pi], [0.3, 0.1], 0.0, 0.0),  # E = 0 there
    ])
    def test_non_finite_angles_and_degenerate_curves_rejected(self, theta2, measured,
                                                               theta1, phi):
        with pytest.raises(ValueError):
            ct.fit_visibility(theta2, measured, theta1, phi)

    @pytest.mark.parametrize("measured", [[0.5, math.nan], [math.inf, 0.5], [0.5, -math.inf]])
    def test_non_finite_measured_named(self, measured):
        with pytest.raises(ValueError, match="^measured must hold finite values only$"):
            ct.fit_visibility([0.1, 0.2], measured, 0.0, 1.0)

    @pytest.mark.parametrize("theta2, measured, name", [
        ([[0.1, 0.2]], [[0.5, 0.5]], "theta2_values"),
        (np.zeros((2, 2)), np.zeros((2, 2)), "theta2_values"),
        ([0.1, 0.2], [[0.5], [0.5]], "measured"),
    ])
    def test_two_dimensional_input_named(self, theta2, measured, name):
        with pytest.raises(ValueError, match=f"^{name} must be one-dimensional"):
            ct.fit_visibility(theta2, measured, 0.0, 1.0)

    @pytest.mark.parametrize("theta2, measured, message", [
        ([0.1, 0.2], [0.5], "measured must hold one value per theta2_values angle"),
        ([], [], "theta2_values must be nonempty"),
        ([0.1], [], "measured must be nonempty"),
        (["a"], [0.5], "theta2_values must be a sequence of angles"),
        ([0.1], ["b"], "measured must be a sequence of values"),
    ])
    def test_inputs_checked_at_entry(self, monkeypatch, theta2, measured, message):
        def no_work(*args, **kwargs):
            raise AssertionError("the kernel ran before the inputs were checked")

        monkeypatch.setattr(ct, "correlation_surface", no_work)
        with pytest.raises(ValueError, match=message):
            ct.fit_visibility(theta2, measured, 0.0, 1.0)

    @pytest.mark.parametrize("phi", [math.nan, math.inf])
    def test_non_finite_phi_named(self, phi):
        with pytest.raises(ValueError, match=f"^phi must be a finite angle, got {phi!r}$"):
            ct.fit_visibility([0.1, 0.2], [0.5, 0.5], 0.0, phi)
