import math

import numpy as np
import pytest

from qduality import qstate as qs
from qduality.circuit import final_state, particle_state, wave_state

SQRT2 = math.sqrt(2.0)
PROJ_H = qs.Projector(np.outer(qs.KET_H, qs.KET_H.conj()))


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return qs.StateVector(amps / np.linalg.norm(amps))


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestApplyGate:
    def test_identity_returns_same_state(self):
        state = qs.StateVector(np.kron(qs.KET_D, qs.KET_R))
        ident = qs.GateOp(np.eye(2), label="I")
        out = qs.apply_gate(state, ident, (1,))
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_hadamard_on_v(self):
        out = qs.apply_gate(qs.StateVector(qs.KET_V), qs.hadamard(), (0,))
        assert np.allclose(out.amplitudes, [1 / SQRT2, -1 / SQRT2], atol=1e-12)

    def test_ch_turns_particle_into_wave_when_control_v(self):
        # independent oracle: explicit kron of the dense 4x4 block matrix,
        # multiplied against the raw amplitude vector
        phi = 0.9
        psi = np.kron(particle_state(phi).amplitudes, qs.KET_V)
        ch = np.eye(4, dtype=complex)
        ch[2:, 2:] = np.array([[1, 1], [1, -1]]) / SQRT2
        # register order (S, C): control is qubit 1, so conjugate by a swap
        swap = np.eye(4)[[0, 2, 1, 3]]
        expected = swap @ ch @ swap @ psi

        state = qs.StateVector(psi)
        out = qs.apply_gate(state, qs.controlled_hadamard(), (1, 0))
        assert np.allclose(out.amplitudes, expected, atol=1e-12)
        # and the conditional output equals the wave-state builder
        wave = np.kron(wave_state(phi).amplitudes, qs.KET_V)
        assert abs(np.vdot(wave, out.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved_for_random_gates(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            state = random_state(rng, n)
            k = int(rng.integers(1, min(n, 2) + 1))
            targets = tuple(rng.choice(n, size=k, replace=False))
            gate = qs.GateOp(random_unitary(rng, 2**k))
            out = qs.apply_gate(state, gate, targets)
            assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12

    def test_dimension_mismatch_rejected(self):
        state = qs.StateVector(np.kron(qs.KET_H, qs.KET_H))
        with pytest.raises(ValueError):
            qs.apply_gate(state, qs.hadamard(), (0, 1))

    def test_bad_targets_rejected(self):
        state = qs.StateVector(np.kron(qs.KET_H, qs.KET_H))
        with pytest.raises(ValueError):
            qs.apply_gate(state, qs.controlled_hadamard(), (0, 0))
        with pytest.raises(ValueError):
            qs.apply_gate(state, qs.hadamard(), (2,))


class TestWaveplates:
    def test_half_at_pi_over_8_is_hadamard(self):
        mat = qs.waveplate("half", math.pi / 8).matrix
        assert np.allclose(mat, np.array([[1, 1], [1, -1]]) / SQRT2, atol=1e-12)

    def test_half_at_zero(self):
        assert np.allclose(qs.waveplate("half", 0.0).matrix, np.diag([1, -1]),
                           atol=1e-12)

    def test_quarter_at_zero(self):
        assert np.allclose(qs.waveplate("quarter", 0.0).matrix, np.diag([1, 1j]),
                           atol=1e-12)

    def test_half_is_involution_on_grid(self):
        for theta in np.linspace(0, 2 * math.pi, 64):
            mat = qs.waveplate("half", theta).matrix
            assert np.max(np.abs(mat @ mat - np.eye(2))) < 1e-12

    def test_builders_are_unitary(self):
        for theta in np.linspace(-math.pi, math.pi, 17):
            for kind in ("half", "quarter"):
                mat = qs.waveplate(kind, theta).matrix
                assert np.max(np.abs(mat @ mat.conj().T - np.eye(2))) < 1e-12
        for phi in np.linspace(0, 2 * math.pi, 9):
            mat = qs.phase_shifter(phi).matrix
            assert np.max(np.abs(mat @ mat.conj().T - np.eye(2))) < 1e-12

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            qs.waveplate("third", 0.1)

    @pytest.mark.parametrize("kind", ["half", "quarter"])
    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, kind, angle):
        with pytest.raises(ValueError, match="finite"):
            qs.waveplate(kind, angle)


class TestPhaseShifter:
    def test_zero_is_identity(self):
        assert np.allclose(qs.phase_shifter(0.0).matrix, np.eye(2), atol=1e-12)

    def test_pi_is_sign_flip(self):
        assert np.allclose(qs.phase_shifter(math.pi).matrix, np.diag([1, -1]),
                           atol=1e-12)

    def test_quarter_turn_maps_d_to_l(self):
        out = qs.apply_gate(qs.StateVector(qs.KET_D),
                            qs.phase_shifter(math.pi / 2), (0,))
        assert out.fidelity(qs.StateVector(qs.KET_L)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, phi):
        # raised before np.exp, which warns on inf
        with pytest.raises(ValueError, match="finite"):
            qs.phase_shifter(phi)


class TestControlledHadamard:
    def test_control_off_identity(self):
        state = qs.StateVector(np.kron(qs.KET_H, qs.KET_V))  # (control, target)
        out = qs.apply_gate(state, qs.controlled_hadamard(), (0, 1))
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_control_on_hadamard(self):
        state = qs.StateVector(np.kron(qs.KET_V, qs.KET_V))
        out = qs.apply_gate(state, qs.controlled_hadamard(), (0, 1))
        expected = qs.StateVector(np.kron(qs.KET_V, qs.KET_A))
        assert out.fidelity(expected) == pytest.approx(1.0, abs=1e-12)

    def test_w_conjugation_of_z_is_hadamard(self):
        w = qs.w_gate().matrix
        wzw = w @ np.diag([1, -1]) @ w.conj().T
        assert np.max(np.abs(wzw - qs.hadamard().matrix)) < 1e-12

    def test_decomposition_matches_block_form(self):
        # CH = (I (x) W) CZ (I (x) W+), the identity the Fock gate chain wraps
        iw = np.kron(np.eye(2), qs.w_gate().matrix)
        decomposed = iw @ qs.cz_gate().matrix @ iw.conj().T
        assert np.max(np.abs(qs.controlled_hadamard().matrix - decomposed)) < 1e-12


class TestBellStates:
    def test_psi_plus_amplitudes(self):
        assert np.allclose(qs.bell_state("psi+").amplitudes,
                           [0, 1 / SQRT2, 1 / SQRT2, 0], atol=1e-12)

    def test_phi_minus_amplitudes(self):
        assert np.allclose(qs.bell_state("phi-").amplitudes,
                           [1 / SQRT2, 0, 0, -1 / SQRT2], atol=1e-12)

    def test_orthonormal_basis(self):
        labels = ("phi+", "phi-", "psi+", "psi-")
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                ip = np.vdot(qs.bell_state(a).amplitudes,
                             qs.bell_state(b).amplitudes)
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-12

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            qs.bell_state("omega")


class TestOutcomeProbability:
    def test_certain_outcome(self):
        assert qs.outcome_probability(qs.StateVector(qs.KET_H), PROJ_H, (0,)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_diagonal_half(self):
        assert qs.outcome_probability(qs.StateVector(qs.KET_D), PROJ_H, (0,)) == \
            pytest.approx(0.5, abs=1e-12)

    def test_bell_projector_on_entangled_final_state(self):
        # oracle: explicit summation of <psi|P|psi> over basis indices
        state = final_state(math.pi / 2, math.pi / 4)
        ket = qs.bell_ket("psi+")
        proj = qs.Projector(np.outer(ket, ket.conj()))
        embedded = np.kron(np.eye(2), proj.matrix)
        expected = 0.0
        for i in range(8):
            for j in range(8):
                expected += (state.amplitudes[i].conjugate()
                             * embedded[i, j] * state.amplitudes[j]).real
        got = qs.outcome_probability(state, proj, (1, 2))
        assert 0.0 <= got <= 1.0
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qs.outcome_probability(qs.StateVector(np.kron(qs.KET_H, qs.KET_H)),
                                   PROJ_H, (0, 1))


class TestSchmidt:
    def test_product_state(self):
        state = qs.StateVector(np.kron(qs.KET_H, qs.KET_V))
        coeffs = qs.schmidt_coefficients(state, (0,))
        assert np.allclose(coeffs, [1.0, 0.0], atol=1e-12)

    def test_bell_state_maximal(self):
        coeffs = qs.schmidt_coefficients(qs.bell_state("psi+"), (0,))
        assert np.allclose(coeffs, [1 / SQRT2, 1 / SQRT2], atol=1e-12)

    def test_final_state_balanced_at_quarter_phase(self):
        # SVD oracle: the system-side reduced state is maximally mixed
        state = final_state(math.pi / 2, math.pi / 4)
        coeffs = qs.schmidt_coefficients(state, (0,))
        assert np.allclose(coeffs, [1 / SQRT2, 1 / SQRT2], atol=1e-10)

    def test_squares_sum_to_one_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            state = random_state(rng, n)
            k = int(rng.integers(1, n))
            part = tuple(rng.choice(n, size=k, replace=False))
            coeffs = qs.schmidt_coefficients(state, part)
            assert abs(np.sum(coeffs**2) - 1.0) < 1e-10

    def test_invalid_partition(self):
        state = qs.bell_state("phi+")
        with pytest.raises(ValueError):
            qs.schmidt_coefficients(state, ())
        with pytest.raises(ValueError):
            qs.schmidt_coefficients(state, (0, 1))

    @pytest.mark.parametrize("qubit", [2, -1])
    def test_qubit_out_of_range_rejected(self, qubit):
        with pytest.raises(ValueError, match=f"^qubit {qubit} out of range$"):
            qs.schmidt_coefficients(qs.bell_state("psi+"), (qubit,))


class TestValidation:
    def test_non_normalized_state_rejected(self):
        with pytest.raises(ValueError):
            qs.StateVector(np.array([1.0, 1.0]))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            qs.StateVector(np.array([1.0, 0.0, 0.0]))

    def test_fidelity_across_register_sizes_rejected(self):
        with pytest.raises(ValueError, match="fidelity requires equal register sizes"):
            qs.StateVector(qs.KET_H).fidelity(qs.bell_state("psi+"))

    def test_sizes_come_from_the_arrays(self):
        for n in range(1, 5):
            state = qs.StateVector(np.eye(2**n)[0])
            assert state.num_qubits == n
            proj = qs.Projector(np.outer(state.amplitudes, state.amplitudes))
            assert (proj.dimension, proj.num_qubits) == (2**n, n)
        assert (qs.hadamard().dimension, qs.hadamard().num_qubits) == (2, 1)
        assert (qs.cz_gate().dimension, qs.cz_gate().num_qubits) == (4, 2)
        for bad in (np.eye(32)[0], np.eye(3)[0]):
            with pytest.raises(ValueError, match="amplitude length"):
                qs.StateVector(bad)
        for cls, bad in ((qs.GateOp, np.eye(8)), (qs.GateOp, np.eye(2)[:1]),
                         (qs.Projector, np.eye(3)), (qs.Projector, np.eye(4)[0])):
            with pytest.raises(ValueError, match="matrix shape"):
                cls(bad)

    def test_non_unitary_gate_rejected(self):
        with pytest.raises(ValueError):
            qs.GateOp(np.array([[1, 0], [0, 2.0]]))

    def test_non_idempotent_projector_rejected(self):
        with pytest.raises(ValueError):
            qs.Projector(np.array([[0.5, 0], [0, 2.0]]))

    def test_nan_amplitudes_rejected(self):
        # a NaN norm fails "|norm - 1| > tol" as well as "<= tol"
        with pytest.raises(ValueError, match="normalized"):
            qs.StateVector([math.nan, 0.0])

    @pytest.mark.parametrize("amps", [[], np.array([]), [1.0]])
    def test_too_short_amplitudes_name_the_length(self, amps):
        with pytest.raises(ValueError, match=f"amplitude length {len(amps)} is not 2"):
            qs.StateVector(amps)

    @pytest.mark.parametrize("cls", [qs.GateOp, qs.Projector])
    def test_nan_matrix_entry_rejected(self, cls):
        with pytest.raises(ValueError):
            cls(np.array([[math.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("ket", [[0.0, 0.0], [math.nan, 0.0], [math.inf, 1.0]])
    def test_zero_or_non_finite_ket_rejected(self, ket):
        # raised before the division by the norm, which warns on NaN and inf
        with pytest.raises(ValueError, match="zero or non-finite"):
            qs._unit_ket(ket)

    def test_nan_probability_rejected(self):
        # a state that skipped validation still cannot yield a NaN probability
        state = object.__new__(qs.StateVector)
        object.__setattr__(state, "amplitudes", np.array([math.nan, 0.0], dtype=complex))
        with pytest.raises(ValueError, match="outside"):
            qs.outcome_probability(state, PROJ_H, (0,))

    def test_states_are_immutable(self):
        state = qs.bell_state("phi+")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
