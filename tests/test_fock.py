import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from qduality import circuit as ct
from qduality import fock
from qduality import qstate as qs
from qduality.fock import Mode, ModeState, OverlapModel

SQRT2 = math.sqrt(2.0)
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def single_photons(*specs):
    """ModeState with one photon per (spatial, pol, temporal) spec."""
    return ModeState.from_patterns([(tuple(Mode(*s) for s in specs), 1.0)])


def norm_sq(state):
    return sum(abs(a) ** 2 for a in state.amps.values())


class TestPpbsTransform:
    def test_single_h_photon_unchanged_at_full_transmission(self):
        state = single_photons(("a", "H", "t"))
        out = state.transform(fock._ppbs_map(("a", "b"), 1.0, 0.5))
        assert len(out.amps) == 1
        ((pattern, amp),) = out.amps.items()
        assert pattern == (Mode("a", "H", "t"),)
        assert amp == pytest.approx(1.0, abs=1e-12)

    def test_balanced_bunching_suppresses_coincidence(self):
        state = single_photons(("a", "V", "t"), ("b", "V", "t"))
        out = state.transform(fock._ppbs_map(("a", "b"), 1.0, 0.5))
        coincidence = out.amps.get((Mode("a", "V", "t"), Mode("b", "V", "t")), 0.0)
        assert abs(coincidence) < 1e-12

    def test_one_third_transmission_coincidence(self):
        # amplitude-bookkeeping oracle: the coincidence term carries R - T,
        # so the probability is (1 - 2/3 - 1/3... ) -> (R - T)^2 = 1/9
        t = 1.0 / 3.0
        expected = (1.0 - t - t) ** 2
        state = single_photons(("a", "V", "t"), ("b", "V", "t"))
        out = state.transform(fock._ppbs_map(("a", "b"), 1.0, t))
        coincidence = out.amps[(Mode("a", "V", "t"), Mode("b", "V", "t"))]
        assert abs(coincidence) ** 2 == pytest.approx(expected, abs=1e-12)
        assert abs(coincidence) ** 2 == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_distinguishable_photons_do_not_interfere(self):
        state = single_photons(("a", "V", "t0"), ("b", "V", "t1"))
        out = state.transform(fock._ppbs_map(("a", "b"), 1.0, 0.5))
        kept, prob = out.postselect_one_per_port(("a", "b"))
        assert prob == pytest.approx(0.5, abs=1e-12)  # T^2 + R^2

    def test_photon_number_conserved(self):
        rng = np.random.default_rng(2)
        pols = ("H", "V")
        for _ in range(25):
            n = int(rng.integers(1, 4))
            specs = [("ab"[rng.integers(2)], pols[rng.integers(2)],
                      f"t{rng.integers(2)}") for _ in range(n)]
            state = single_photons(*specs)
            out = state.transform(fock._ppbs_map(("a", "b"), rng.random(), rng.random()))
            assert {len(p) for p in out.amps} == {n}
            assert norm_sq(out) == pytest.approx(1.0, abs=1e-12)

    def test_per_polarization_matrices_unitary(self):
        for t in (0.0, 1.0 / 3.0, 0.5, 0.77, 1.0):
            rt, rr = math.sqrt(t), math.sqrt(1 - t)
            mat = np.array([[rt, rr], [rr, -rt]])
            assert np.max(np.abs(mat @ mat.T - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("t", [math.nan, -0.2, 1.5])
    def test_attenuate_transmission_outside_unit_interval_rejected(self, t):
        # NaN used to drop the photon silently, -0.2 and 1.5 raised a bare
        # "math domain error"
        with pytest.raises(ValueError, match=r"^transmission must be in \[0, 1\], got "):
            fock._attenuation_map("a", "H", t, "loss")


class TestHomScan:
    def test_balanced_ideal_dip(self):
        res = fock.hom_scan(0.5, OverlapModel(v=1.0), [0.0])
        assert res.coincidence[0] == pytest.approx(0.0, abs=1e-12)
        assert res.contrast == pytest.approx(1.0, abs=1e-12)

    def test_one_third_dip(self):
        res = fock.hom_scan(1.0 / 3.0, OverlapModel(v=1.0), [0.0])
        assert res.coincidence[0] == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert res.contrast == pytest.approx(0.8, abs=1e-12)

    def test_no_overlap_flat(self):
        res = fock.hom_scan(0.4, OverlapModel(v=0.0), [0.0, 1.0, 2.0])
        baseline = 0.4**2 + 0.6**2
        assert all(p == pytest.approx(baseline, abs=1e-12)
                   for p in res.coincidence)
        assert res.contrast == pytest.approx(0.0, abs=1e-12)

    def test_contrast_nondecreasing_in_overlap(self):
        contrasts = [fock.hom_scan(1.0 / 3.0, OverlapModel(v=v), [0.0]).contrast
                     for v in np.linspace(0, 1, 21)]
        assert all(b >= a - 1e-15 for a, b in zip(contrasts, contrasts[1:]))

    def test_gaussian_profile_dips_at_center(self):
        overlap = OverlapModel(x0=11.63, sigma=0.25)
        positions = np.linspace(10.5, 12.8, 47)
        res = fock.hom_scan(1.0 / 3.0, overlap, positions)
        assert positions[int(np.argmin(res.coincidence))] == pytest.approx(
            11.63, abs=0.05)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fock.hom_scan(1.2, OverlapModel(), [0.0])
        with pytest.raises(ValueError):
            fock.hom_scan(0.5, OverlapModel(), [])
        with pytest.raises(ValueError):
            OverlapModel(v=1.5)
        with pytest.raises(ValueError):
            OverlapModel(x0=1.0)
        with pytest.raises(ValueError, match="sigma must be positive"):
            OverlapModel(x0=1.0, sigma=0.0)

    @pytest.mark.parametrize("x0,sigma", [(math.nan, 0.5), (math.inf, 0.5),
                                          (11.63, math.nan), (11.63, math.inf)])
    def test_non_finite_profile_rejected(self, x0, sigma):
        with pytest.raises(ValueError, match="finite"):
            OverlapModel(x0=x0, sigma=sigma)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_positions_rejected(self, x):
        overlap = OverlapModel(x0=11.63, sigma=0.5)
        with pytest.raises(ValueError, match="^positions must hold finite values only$"):
            fock.hom_scan(1.0 / 3.0, overlap, [0.0, x])
        with pytest.raises(ValueError, match="^positions must hold finite values only$"):
            fock.bsm_scan(0.0, overlap, [x])

    @pytest.mark.parametrize("bad, message", [
        (np.zeros((2, 2)), "positions must be one-dimensional"),
        ([[0.0], [1.0]], "positions must be one-dimensional"),
        (np.array(0.5), "positions must be one-dimensional"),
        (0.5, "positions must be a sequence of values"),
        (None, "positions must be a sequence of values"),
        (["a"], "positions must be a sequence of values"),
        ([0.0, [1.0, 2.0]], "positions must be a sequence of values"),
        ([], "positions must be nonempty"),
    ])
    def test_positions_that_are_not_a_grid_named(self, bad, message):
        overlap = OverlapModel(x0=11.63, sigma=0.5)
        with pytest.raises(ValueError, match=f"^{message}"):
            fock.hom_scan(1.0 / 3.0, overlap, bad)
        with pytest.raises(ValueError, match=f"^{message}"):
            fock.bsm_scan(0.0, overlap, bad)

    @pytest.mark.parametrize("positions", [
        np.linspace(10.5, 12.8, 47), [1, 2, 3], (0.25, -0.0, 7),
        np.float32([1.5, 2.1]), np.arange(4), range(3),
    ])
    def test_positions_as_the_scans_own_check_gave_them(self, positions):
        overlap = OverlapModel(x0=1.63, sigma=0.5)
        want = tuple(float(x) for x in positions)
        for scan in (fock.hom_scan(1.0 / 3.0, overlap, positions),
                     fock.bsm_scan(0.3, overlap, positions)):
            assert type(scan.positions) is tuple and all(type(x) is float for x in scan.positions)
            assert list(map(float.hex, scan.positions)) == list(map(float.hex, want))
        assert fock.hom_scan(1.0 / 3.0, overlap, iter(want)) == fock.hom_scan(1.0 / 3.0, overlap, want)

    def test_extreme_profile_stays_finite(self):
        # far positions and a tiny width overflow the squared offset; the
        # overlap must then be 0, not an OverflowError or ZeroDivisionError
        assert OverlapModel(x0=11.63, sigma=0.5).value(1e300) == 0.0
        assert OverlapModel(x0=-1e308, sigma=1e-300).value(1e308) == 0.0
        assert OverlapModel(x0=0.5, sigma=1e-200).value(0.5) == 1.0
        assert OverlapModel(x0=0.0, sigma=1e-200).value(0.5) == 0.0


class TestPhysicalCz:
    def test_full_overlap_is_exact_controlled_phase(self):
        gate_map, success = fock.physical_cz(1.0)
        kraus = gate_map.coherent_operator
        assert np.max(np.abs(3.0 * kraus - qs.cz_gate().matrix)) < 1e-10
        assert success == pytest.approx(1.0 / 9.0, abs=1e-10)

    def test_basis_amplitudes(self):
        gate_map, _ = fock.physical_cz(1.0)
        kraus = gate_map.coherent_operator
        assert abs(kraus[0, 0]) ** 2 == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert kraus[3, 3] / kraus[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_no_overlap_mixes_bunching_pathways(self):
        # mixture oracle: the distinguishable branch is K_pass = I/3 plus a
        # swap term -(2/3)|VV><VV|, so a diagonal input gains an incoherent
        # |VV> population while every surviving term keeps its coherence
        gate_map, _ = fock.physical_cz(0.0)
        dd = np.kron([1, 1], [1, 1]) / 2.0
        rho = gate_map.apply(np.outer(dd, dd))
        assert np.trace(rho).real == pytest.approx(2.0 / 9.0, abs=1e-12)
        rho /= np.trace(rho).real
        expected = 0.5 * np.outer(dd, dd) + 0.5 * np.diag([0, 0, 0, 1.0])
        assert np.max(np.abs(rho - expected)) < 1e-12

    def test_coherence_crossover_with_overlap(self):
        # unnormalized <VV|rho|HH> = (1 - 2v)/36 for a diagonal input:
        # equal magnitude with opposite sign at the two endpoints, zero at
        # the balance point v = 1/2
        dd = np.kron([1, 1], [1, 1]) / 2.0
        for v in (0.0, 0.25, 0.5, 0.75, 1.0):
            gate_map, _ = fock.physical_cz(v)
            rho = gate_map.apply(np.outer(dd, dd))
            assert rho[3, 0].real == pytest.approx((1 - 2 * v) / 36.0, abs=1e-12)
            assert abs(rho[3, 0].imag) < 1e-12

    def test_success_probability_increases_without_interference(self):
        _, p_coherent = fock.physical_cz(1.0)
        _, p_mixed = fock.physical_cz(0.0)
        assert p_mixed > p_coherent

    def test_invalid_overlap(self):
        with pytest.raises(ValueError):
            fock.physical_cz(-0.1)

    def test_partial_overlap_has_no_coherent_operator(self):
        with pytest.raises(ValueError, match="map is not coherent"):
            fock.physical_cz(0.5)[0].coherent_operator


class TestPhysicalCh:
    def test_full_overlap_matches_ideal_gate(self):
        gate_map, success = fock.physical_ch(1.0)
        kraus = gate_map.coherent_operator
        assert np.max(np.abs(3.0 * kraus - qs.controlled_hadamard().matrix)) < 1e-10
        assert success == pytest.approx(1.0 / 9.0, abs=1e-10)

    def test_process_action_on_random_inputs(self):
        # process-matrix comparison oracle: the renormalized conditional
        # output must match the ideal gate on arbitrary pure inputs
        gate_map, _ = fock.physical_ch(1.0)
        ch = qs.controlled_hadamard().matrix
        rng = np.random.default_rng(4)
        for _ in range(20):
            ket = rng.normal(size=4) + 1j * rng.normal(size=4)
            ket /= np.linalg.norm(ket)
            rho = gate_map.apply(np.outer(ket, ket.conj()))
            rho /= np.trace(rho).real
            ideal = ch @ ket
            assert np.max(np.abs(rho - np.outer(ideal, ideal.conj()))) < 1e-10

    def test_no_overlap_changes_conditional_statistics(self):
        # mixture oracle: expected output assembled from the two branches
        # of the v = 0 controlled-phase map conjugated by the local rotation
        w = qs.w_gate().matrix
        iw = np.kron(np.eye(2), w)
        cz_map, _ = fock.physical_cz(0.0)
        control_d = np.array([1.0, 1.0]) / SQRT2
        target = ct.particle_state(0.0).amplitudes
        ket = np.kron(control_d, target)
        expected = iw @ cz_map.apply(iw.conj().T @ np.outer(ket, ket.conj()) @ iw) @ iw.conj().T

        ch_map, _ = fock.physical_ch(0.0)
        got = ch_map.apply(np.outer(ket, ket.conj()))
        assert np.max(np.abs(got - expected)) < 1e-12

        ideal = qs.controlled_hadamard().matrix @ ket
        got /= np.trace(got).real
        assert np.max(np.abs(got - np.outer(ideal, ideal.conj()))) > 0.05


class TestPostselectedMap:
    """A gate map holds one read-only (k, 4, 4) stack of Kraus operators."""

    @pytest.mark.parametrize("build", [fock.physical_cz, fock.physical_ch])
    def test_kraus_is_one_read_only_stack(self, build):
        for v, terms in ((1.0, 1), (0.0, 2), (0.5, 3)):
            gate_map, _ = build(v)
            kraus = gate_map.kraus
            assert isinstance(kraus, np.ndarray) and kraus.dtype == np.complex128
            assert kraus.shape == (terms, 4, 4) and not kraus.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                kraus[-1, 0, 0] = 1.0
            assert not hasattr(gate_map, "__dict__")
        coherent, _ = build(1.0)
        assert np.array_equal(coherent.coherent_operator, coherent.kraus[0])

    @pytest.mark.parametrize("chain, build", [(fock._CZ_CHAIN, fock.physical_cz),
                                              (fock._CH_CHAIN, fock.physical_ch)])
    def test_apply_is_the_list_based_sum(self, chain, build):
        # the Kraus operators as a list, one 4x4 array per term, each branch's
        # terms from the chain run through ModeState and scaled by the
        # square root of its weight; the map sums them term by term
        same, distinct = (fock._transfer(chain, ("c", "s"), labels) for labels in fock._PAIR_LABELS)

        def listed_sum(v, rho):
            out = np.zeros((4, 4), dtype=complex)
            for w, terms in ((v, same), (1.0 - v, distinct)):
                for k in (math.sqrt(w) * term for term in terms if w > 1e-15):
                    out += k @ rho @ k.conj().T
            return out

        ket = np.random.default_rng(29).normal(size=(4, 2)) @ [1.0, 1.0j]
        rho = np.outer(ket, ket.conj())
        for v in np.linspace(0.0, 1.0, 65).tolist():
            gate_map, success = build(v)
            assert np.array_equal(gate_map.apply(rho), listed_sum(v, rho))
            want = float(np.real(np.trace(listed_sum(v, np.eye(4, dtype=complex) / 4.0))))
            assert success == gate_map.success_probability() == want


def bob_plus_projector(theta2):
    """|b><b| for Bob's "+" ket cos(theta2)|phi-> + sin(theta2)|psi+>."""
    ket = ref.bob_kets([theta2])[0, 0]
    return np.outer(ket, ket.conj())


class TestBsmProjector:
    @pytest.mark.parametrize("theta2", [0.0, math.pi / 2, math.pi / 4])
    def test_named_angles(self, theta2):
        got = fock.bsm_projector_physical(theta2).matrix
        assert np.max(np.abs(got - bob_plus_projector(theta2))) < 1e-13

    def test_matches_circuit_projector_on_grid(self):
        for theta2 in np.linspace(-math.pi, math.pi, 50):
            got = fock.bsm_projector_physical(theta2).matrix
            assert np.max(np.abs(got - bob_plus_projector(theta2))) < 1e-13


class TestBsmScan:
    def test_full_overlap_cross_outcomes_only(self):
        res = fock.bsm_scan(0.0, OverlapModel(v=1.0), [0.0])
        assert res.rates["DA"][0] == pytest.approx(0.5, abs=1e-12)
        assert res.rates["AD"][0] == pytest.approx(0.5, abs=1e-12)
        assert res.rates["DD"][0] == pytest.approx(0.0, abs=1e-12)
        assert res.rates["AA"][0] == pytest.approx(0.0, abs=1e-12)

    def test_no_overlap_all_equal(self):
        res = fock.bsm_scan(0.0, OverlapModel(v=0.0), [0.0])
        rates = [res.rates[k][0] for k in ("DA", "AD", "DD", "AA")]
        assert np.allclose(rates, rates[0], atol=1e-12)

    @pytest.mark.parametrize("v", [0.0, 0.3, 1.0])
    def test_rates_follow_cos2_over_theta2(self, v):
        # DA = AD = cos^2(theta2) (1 + v) / 4 and DD = AA = cos^2(theta2) (1 - v) / 4;
        # at theta2 = +-pi/2 nothing survives post-selection and all rates are 0.
        for theta2 in np.linspace(-math.pi / 2, math.pi / 2, 9):
            rates = fock.bsm_scan(theta2, OverlapModel(v=v), [0.0]).rates
            c2 = math.cos(theta2) ** 2
            for key, want in (("DA", c2 * (1 + v) / 4), ("AD", c2 * (1 + v) / 4),
                              ("DD", c2 * (1 - v) / 4), ("AA", c2 * (1 - v) / 4)):
                assert rates[key][0] == pytest.approx(want, abs=1e-12)

    def test_peak_at_overlap_maximum(self):
        overlap = OverlapModel(x0=14.42, sigma=0.3)
        positions = np.linspace(13.0, 16.0, 61)
        res = fock.bsm_scan(0.0, overlap, positions)
        da = np.asarray(res.rates["DA"])
        dd = np.asarray(res.rates["DD"])
        assert positions[int(np.argmax(da))] == pytest.approx(14.42, abs=0.05)
        assert positions[int(np.argmin(dd))] == pytest.approx(14.42, abs=0.05)


class TestPhysicalCorrelation:
    def test_reference_point(self):
        cfg = ct.ExperimentConfig(phi=3 * math.pi / 2, theta1=0.0,
                                  theta2=math.pi / 8)
        assert fock.physical_correlation(cfg, 1.0) == pytest.approx(
            -1 / SQRT2, abs=1e-10)

    def test_matches_circuit_on_grid(self):
        for theta1 in (0.0, math.pi / 4):
            for theta2 in np.linspace(-math.pi / 2, math.pi / 2, 5):
                for phi in np.linspace(0.0, 2 * math.pi, 5):
                    cfg = ct.ExperimentConfig(phi=float(phi), theta1=theta1,
                                              theta2=float(theta2))
                    assert fock.physical_correlation(cfg, 1.0) == pytest.approx(
                        ct.correlation(cfg), abs=1e-10)

    def test_no_overlap_bounded_by_mixture_oracle(self):
        # with no gate interference the conditional map mixes the pass-
        # through and swap pathways; the correlation collapses to zero at
        # this setting
        cfg = ct.ExperimentConfig(phi=3 * math.pi / 2, theta1=0.0,
                                  theta2=math.pi / 8)
        e0 = fock.physical_correlation(cfg, 0.0)
        e1 = fock.physical_correlation(cfg, 1.0)
        assert abs(e0) < abs(e1)
        assert abs(e0) < 1e-10

    def test_monotone_in_overlap(self):
        cfg = ct.ExperimentConfig(phi=3 * math.pi / 2, theta1=0.0,
                                  theta2=math.pi / 8)
        values = [fock.physical_correlation(cfg, v)
                  for v in np.linspace(0.0, 1.0, 11)]
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-12) or np.all(diffs >= -1e-12)
        assert min(values) >= fock.physical_correlation(cfg, 1.0) - 1e-12

    def test_intermediate_overlap_between_endpoints(self):
        cfg = ct.ExperimentConfig(phi=3 * math.pi / 2, theta1=0.0,
                                  theta2=math.pi / 8)
        e0 = fock.physical_correlation(cfg, 0.0)
        e1 = fock.physical_correlation(cfg, 1.0)
        e9 = fock.physical_correlation(cfg, 0.9)
        low, high = sorted((e0, e1))
        assert low - 1e-12 <= e9 <= high + 1e-12


# physical_correlation at v = 0, 0.3 and 0.7 on a 3x3x3 (theta1, theta2, phi)
# grid, recorded from the full three-photon dict pipeline that ran the source
# and gate chain once per analyzer angle.  No closed form covers 0 < v < 1, so
# these values are the oracle for any restructuring of the Fock pipeline.
PINNED_THETA1 = (0.0, math.pi / 4, 1.1)
PINNED_THETA2 = (-math.pi / 3, math.pi / 8, 1.2)
PINNED_PHI = (0.4, 3 * math.pi / 2, 5.0)
PINNED_OVERLAPS = (0.0, 0.3, 0.7)
PINNED_CORRELATIONS = (
    (-1.7103563732939997e-16, -0.01577329854353678, -0.046546280178038024),
    (0.0, 0.1924500897298753, 0.5271458979557454),
    (1.1707263515563934e-16, 0.1770106683780485, 0.49706432982472754),
    (0.0, 0.05235150327290328, 0.15448688379010828),
    (-4.163336342344342e-17, -0.1571348402636773, -0.43041282333094194),
    (-3.902421171854646e-17, -0.14323204816760154, -0.4022104581843446),
    (2.7365701972703996e-16, -0.13659871059198633, -0.4030965265523792),
    (8.326672684688684e-17, -0.15010292901136676, -0.41115150120504823),
    (-1.560968468741858e-16, -0.1429517876562877, -0.4014234575786235),
    (-0.13057753644929285, -0.020390098768993146, 0.19458053573269485),
    (8.326672684688684e-17, -0.11111111111111101, -0.3043478260869562),
    (-0.04587742751439627, -0.13587879793328045, -0.298610617442951),
    (0.0, -0.052351503272903235, -0.15448688379010825),
    (-8.326672684688684e-17, 0.1571348402636772, 0.4304128233309419),
    (7.80484234370929e-17, 0.14323204816760154, 0.4022104581843447),
    (0.5040288759732884, 0.2761893093615383, -0.16831522972417604),
    (-3.330669073875474e-16, -0.16386527012027716, -0.4488483485903236),
    (0.1770867244964961, -0.015817101623577762, -0.36460724191582056),
    (-0.10557146863887491, -0.007202717712583776, 0.1847102012820288),
    (-8.326672684688683e-17, -0.20309002657965539, -0.556290072805143),
    (-0.037091735161883396, -0.21402849559098314, -0.5339485237946053),
    (6.841425493175998e-17, -0.07313492029679228, -0.2158177936933729),
    (-4.163336342344341e-17, 0.21951698232286304, 0.6012856472321901),
    (7.80484234370929e-17, 0.20009481622862518, 0.5618870130339436),
    (0.4075055336456337, 0.30368655719124354, 0.1011404982977599),
    (-1.6653345369377368e-16, -0.04414874017668043, -0.12092915787525477),
    (0.14317397991960762, 0.07133921696786248, -0.05854549061799644),
)


def test_physical_correlation_matches_pinned_values():
    grid = itertools.product(PINNED_THETA1, PINNED_THETA2, PINNED_PHI)
    for (theta1, theta2, phi), want in zip(grid, PINNED_CORRELATIONS, strict=True):
        cfg = ct.ExperimentConfig(phi=phi, theta1=theta1, theta2=theta2)
        for v, expected in zip(PINNED_OVERLAPS, want, strict=True):
            assert abs(fock.physical_correlation(cfg, v) - expected) < 1e-12


class TestModeState:
    def test_bunched_amplitudes_normalized(self):
        # two indistinguishable photons on a balanced splitter: |2,0> and
        # |0,2> with amplitude 1/sqrt2 each in the normalized Fock basis
        state = single_photons(("a", "V", "t"), ("b", "V", "t"))
        out = state.transform(fock._ppbs_map(("a", "b"), 0.5, 0.5))
        bunched_a = out.amps[(Mode("a", "V", "t"), Mode("a", "V", "t"))]
        bunched_b = out.amps[(Mode("b", "V", "t"), Mode("b", "V", "t"))]
        assert abs(bunched_a) == pytest.approx(1 / SQRT2, abs=1e-12)
        assert abs(bunched_b) == pytest.approx(1 / SQRT2, abs=1e-12)
        assert norm_sq(out) == pytest.approx(1.0, abs=1e-12)

    def test_postselection_reports_success(self):
        state = single_photons(("a", "V", "t"), ("b", "V", "t"))
        out = state.transform(fock._ppbs_map(("a", "b"), 1.0, 1.0 / 3.0))
        kept, prob = out.postselect_one_per_port(("a", "b"))
        assert prob == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert all(
            sorted(m.spatial for m in p) == ["a", "b"] for p in kept.amps
        )

    def test_all_passive_transforms_preserve_norm(self):
        state = single_photons(("a", "H", "t0"), ("b", "V", "t1"))
        for element in (
            fock._ppbs_map(("a", "b"), 0.3, 0.9),
            fock._pbs_map(("a", "b")),
            fock._attenuation_map("a", "H", 0.4, "loss"),
            fock.polarization_map("a", qs.hadamard().matrix),
        ):
            out = state.transform(element)
            assert norm_sq(out) == pytest.approx(1.0, abs=1e-12)
            assert {len(p) for p in out.amps} == {2}


@pytest.fixture
def permanent_checked(monkeypatch):
    """Check every ModeState.transform against the permanent reference.

    Returns the list of input states seen, one per transform call.
    """
    seen = []
    transform = ModeState.transform

    def checked(self, mode_map):
        got = transform(self, mode_map)
        ref.assert_same_state(got, ref.permanent_transform(self, mode_map))
        seen.append(self)
        return got

    monkeypatch.setattr(ModeState, "transform", checked)
    return seen


def random_unitary(rng, n=2):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, ports):
    """A superposition of 1-4 patterns of 1-3 photons; port "a" is occupied."""
    entries = []
    for k in range(int(rng.integers(1, 5))):
        modes = [Mode(str(rng.choice(ports)), str(rng.choice(["H", "V"])),
                      str(rng.choice(["t0", "t1"])))
                 for _ in range(int(rng.integers(1, 4)))]
        if k == 0:
            modes[0] = modes[0]._replace(spatial="a")
        entries.append((modes, complex(rng.normal(), rng.normal())))
    return ModeState.from_patterns(entries)


class TestTransformOracle:
    """``ModeState.transform`` against the permanents of its mode map."""

    def elements(self, rng, state):
        """Every element builder on ports "a" and "b", random parameters."""
        zero_column = np.array([[0.6, 0.0], [0.8j, 0.0]])
        return [
            state.transform(fock.polarization_map("a", random_unitary(rng))),
            state.transform(fock.polarization_map("b", random_unitary(rng))),
            state.transform(fock.polarization_map("a", zero_column)),
            state.transform(fock._ppbs_map(("a", "b"), rng.random(), rng.random())),
            state.transform(fock._ppbs_map(("a", "b"), 1.0, 1.0 / 3.0)),
            state.transform(fock._pbs_map(("a", "b"))),
            state.transform(fock._attenuation_map("a", "H", rng.random(), "loss")),
            state.transform(fock._attenuation_map("b", "V", 1.0 / 3.0, "loss")),
        ]

    @pytest.mark.parametrize("ports", [("a", "b"), ("a", "b", "c")])
    def test_random_states_through_every_element(self, permanent_checked, ports):
        rng = np.random.default_rng(len(ports))
        states = [random_state(rng, ports) for _ in range(60)]
        outputs = [out for state in states for out in self.elements(rng, state)]
        assert len(permanent_checked) == len(outputs) == 8 * len(states)
        # bunched inputs (a repeated mode) and outputs both occur
        assert any(len(set(p)) < len(p) for s in states for p in s.amps)
        assert any(len(set(p)) < len(p) for s in outputs for p in s.amps)

    def test_fully_bunched_patterns(self, permanent_checked):
        rng = np.random.default_rng(5)
        h0, v1 = Mode("a", "H", "t0"), Mode("b", "V", "t1")
        state = ModeState.from_patterns(
            [((h0, h0, h0), 0.6), ((h0, h0, v1), 0.48j), ((v1, v1), -0.64)])
        self.elements(rng, state)
        assert len(permanent_checked) == 8

    def test_hong_ou_mandel_cancellation(self, permanent_checked):
        for pol in ("H", "V"):
            state = single_photons(("a", pol, "t0"), ("b", pol, "t0"))
            out = state.transform(fock._ppbs_map(("a", "b"), 0.5, 0.5))
            assert (Mode("a", pol, "t0"), Mode("b", pol, "t0")) not in out.amps
            assert len(out.amps) == 2
        assert len(permanent_checked) == 2

    def test_random_six_mode_unitaries(self):
        # 1-3 photons, bunched ones among them, under unitaries that mix all
        # six (port, polarization) modes of ports a, b and c
        rng = np.random.default_rng(8)
        modes = [(port, pol) for port in "abc" for pol in "HV"]
        for _ in range(300):
            state, unitary = random_state(rng, ("a", "b", "c")), random_unitary(rng, 6)
            want = ref.permanent_transform(state, ref.linear_images(modes, unitary.tolist()))
            ref.assert_same_state(state.transform(fock._linear_map(modes, unitary)), want, 1e-15)

    def test_each_distinct_mode_mapped_once(self):
        rng = np.random.default_rng(6)
        state = random_state(rng, ("a", "b", "c"))
        for _ in range(5):
            state = state.transform(fock._ppbs_map(("a", "b"), 0.5, 0.3))
        calls = []
        mapper = fock.polarization_map("a", random_unitary(rng))
        state.transform(lambda mode: calls.append(mode) or mapper(mode))
        assert sorted(calls) == sorted({m for p in state.amps for m in p})
        assert len(calls) < sum(len(p) for p in state.amps)

    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
    def test_physical_correlation_states(self, permanent_checked, v):
        rng = np.random.default_rng(7)
        for phi, t1, t2 in rng.uniform(-math.pi, math.pi, (4, 3)).tolist():
            fock.physical_correlation(ct.ExperimentConfig(phi=phi, theta1=t1, theta2=t2), v)
        # per overlap branch: the CH chain's 6 transforms, up to the gate; S's
        # ket enters as it leaves the phi plate, and the arm rotations and the
        # analyzer are matrices built at import and checked in
        # test_gate_maps_and_analyzer
        assert len(permanent_checked) == 4 * (12 if 0.0 < v < 1.0 else 6)

    def test_gate_maps_and_analyzer(self, permanent_checked):
        # the gate maps, the analyzer's fixed maps and bsm_scan's pair are
        # built at import, so these calls run no transform at all
        for build in (fock.physical_cz, fock.physical_ch):
            for v in (0.0, 0.3, 1.0):
                build(v)
        fock.bsm_scan(0.3, OverlapModel(x0=14.42, sigma=0.5), np.linspace(13.0, 16.0, 5))
        fock.bsm_projector_physical(0.3)
        assert permanent_checked == []
        # each import-time constant, rebuilt under the check
        for labels, kraus in fock._ANALYZER_KRAUS.items():
            rebuilt = fock._transfer(fock._ANALYZER_FIXED, ("c", "a"), labels)
            assert np.array_equal(np.array(rebuilt) * [1.0, -1.0, 1.0, -1.0], kraus)
        for chain, stacks in ((fock._CZ_CHAIN, fock._CZ_KRAUS), (fock._CH_CHAIN, fock._CH_KRAUS)):
            for labels, kraus in zip(fock._PAIR_LABELS, stacks, strict=True):
                assert np.array_equal(np.array(fock._transfer(chain, ("c", "s"), labels)), kraus)
        for t_c, t_a in fock._PAIR_LABELS:
            pair = ModeState.from_patterns([((Mode("c", p, t_c), Mode("a", q, t_a)), 1.0 / SQRT2)
                                            for p, q in (("H", "V"), ("V", "H"))])
            (ket,) = fock._port_amplitudes(fock._run(pair, ARM_MAPS), ("c", "a")).values()
            assert np.array_equal(ket.reshape(4), fock._SCAN_KET)
        # four input columns through the analyzer's beam splitter (3 label
        # pairs), the CZ chain's 4 and the CH chain's 6 (2 pairs each); the
        # scan's pair through the 2 arm rotations' element maps (2 pairs)
        assert len(permanent_checked) == 4 * (3 * 1 + 2 * 4 + 2 * 6) + 2 * 2


class TestElementOracle:
    """Each element against the permanents of the matrix its docstring gives."""

    TRANSMISSIONS = (0.0, 1.0 / 3.0, 1.0)

    @classmethod
    def pairs(cls, rng, state, ports):
        """(element output, reference amplitudes) for every element on ``ports``."""
        a, b = ports
        both = [(port, pol) for port in ports for pol in "HV"]
        zero_column = np.array([[0.6, 0.0], [0.8j, 0.0]])
        out = []
        for jones in (random_unitary(rng), zero_column, zero_column.T):
            out.append((state.transform(fock.polarization_map(a, jones)),
                        ref.linear_images([(a, "H"), (a, "V")], jones.tolist())))
        for t_h, t_v in itertools.product((*cls.TRANSMISSIONS, rng.random()), repeat=2):
            # a -> sqrt(T) a + sqrt(1 - T) b and b -> sqrt(1 - T) a - sqrt(T) b
            th, tv, rh, rv = map(math.sqrt, (t_h, t_v, 1.0 - t_h, 1.0 - t_v))
            out.append((state.transform(fock._ppbs_map(ports, t_h, t_v)),
                        ref.linear_images(both, [[th, 0, rh, 0], [0, tv, 0, rv],
                                                 [rh, 0, -th, 0], [0, rv, 0, -tv]])))
        # H transmits, V swaps ports
        out.append((state.transform(fock._pbs_map(ports)), ref.linear_images(
            both, [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])))
        for t in (*cls.TRANSMISSIONS, rng.random()):
            for port, pol in ((a, "H"), (b, "V")):
                out.append((state.transform(fock._attenuation_map(port, pol, t, "loss")),
                            ref.linear_images([(port, pol), ("loss", pol)],
                                              [[math.sqrt(t), 0], [math.sqrt(1 - t), 1]])))
        return [(got, ref.permanent_transform(state, images)) for got, images in out]

    @pytest.mark.parametrize("ports", [("a", "b"), ("b", "a"), ("a", "x"), ("x", "y")])
    def test_random_states(self, ports):
        rng = np.random.default_rng(11)
        states = [random_state(rng, ("a", "b", "c")) for _ in range(40)]
        assert any(len(set(p)) < len(p) for s in states for p in s.amps)  # bunched
        for state in states:
            for got, want in self.pairs(rng, state, ports):
                ref.assert_same_state(got, want)

    def test_fully_bunched_patterns(self):
        rng = np.random.default_rng(12)
        h0, v1 = Mode("a", "H", "t0"), Mode("b", "V", "t1")
        state = ModeState.from_patterns(
            [((h0, h0, h0), 0.6), ((h0, h0, v1), 0.48j), ((v1, v1), -0.64)])
        for got, want in self.pairs(rng, state, ("a", "b")):
            ref.assert_same_state(got, want)

    def test_mapper_images(self):
        # column k of the matrix, zeros dropped, the temporal label kept
        mapper = fock.polarization_map("a", np.array([[0.6, 0.0], [0.8j, 0.0]]))
        h, v = Mode("a", "H", "t1"), Mode("a", "V", "t1")
        assert mapper(h) == [(h, 0.6), (v, 0.8j)]
        assert mapper(v) == []
        assert mapper(Mode("b", "H", "t1")) is None

    def test_matrix_of_the_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="does not fit 2 modes"):
            fock.polarization_map("a", np.eye(3))

    def test_one_port_twice_rejected(self):
        # a port listed twice would count its photons twice
        with pytest.raises(ValueError, match="not distinct"):
            fock._ppbs_map(("a", "a"), t_h=0.5, t_v=0.5)
        with pytest.raises(ValueError, match="not distinct"):
            fock._pbs_map(("a", "a"))
        with pytest.raises(ValueError, match="not distinct"):
            fock._attenuation_map("a", "H", 0.5, "a")


class TestPipelineOracle:
    """The Fock pipelines against the circuit, their closed forms and their invariants."""

    @pytest.mark.parametrize("v", [0.0, 1.0, None])
    def test_physical_correlation(self, v):
        # at v = 1 the circuit's correlation; at any v, Bob's quarter turn
        # flips E, and E is linear in cos 2 theta1 and sin 2 theta1
        rng = np.random.default_rng(13)
        settings = rng.uniform(-2 * math.pi, 2 * math.pi, (400 if v == 1.0 else 60, 4))
        for phi, theta1, theta2, delta in settings.tolist():
            cfg = ct.ExperimentConfig(phi=phi, theta1=theta1, theta2=theta2, delta=delta)
            if v == 1.0:
                assert abs(fock.physical_correlation(cfg, 1.0) - ct.correlation(cfg)) < 1e-13
                continue
            overlap = rng.random() if v is None else v

            def e(**change):
                return fock.physical_correlation(dataclasses.replace(cfg, **change), overlap)

            z, x = e(theta1=0.0), e(theta1=math.pi / 4)
            assert abs(e() - (math.cos(2 * theta1) * z + math.sin(2 * theta1) * x)) < 1e-13
            assert abs(e(theta2=theta2 + math.pi / 2) + e()) < 1e-13

    @pytest.mark.parametrize("with_w", [False, True])
    def test_gate_maps(self, with_w):
        # at v = 1 the one Kraus operator CZ/3; at v = 0 the pass-through I/3
        # and the swap -(2/3)|VV><VV|, both conjugated by I (x) W for CH; in
        # between, weights v and 1 - v on the two
        build = fock.physical_ch if with_w else fock.physical_cz
        iw = np.kron(np.eye(2), qs.w_gate().matrix) if with_w else np.eye(4)
        coherent = [iw @ qs.cz_gate().matrix @ iw.conj().T / 3.0]
        distinct = [iw @ k @ iw.conj().T for k in (np.eye(4) / 3.0, np.diag([0, 0, 0, -2.0 / 3.0]))]
        ket = np.random.default_rng(14).normal(size=(4, 2)) @ [1.0, 1.0j]
        rho = np.outer(ket, ket.conj()) / (ket.conj() @ ket)

        def mixed(v, rho):
            return sum(w * k @ rho @ k.conj().T for w, kraus in ((v, coherent), (1 - v, distinct))
                       for k in kraus)

        for v in (*np.linspace(0.0, 1.0, 21).tolist(), 1e-16, 1.0 - 1e-16):
            gate_map, success = build(v)
            assert np.max(np.abs(gate_map.apply(rho) - mixed(v, rho))) < 1e-15
            assert abs(success - np.trace(mixed(v, np.eye(4) / 4.0)).real) < 1e-15

    def test_analyzer(self):
        # DA = AD = cos^2(theta2) (1 + v) / 4 and DD = AA = cos^2(theta2) (1 - v) / 4,
        # with v the Gaussian overlap at each position
        overlap = OverlapModel(x0=14.42, sigma=0.3)
        positions = np.linspace(13.0, 16.0, 7)
        v = np.exp(-0.5 * ((positions - 14.42) / 0.3) ** 2)
        angles = (*np.linspace(-math.pi, math.pi, 50).tolist(), 0.0, math.pi / 2, -math.pi / 2)
        for theta2 in angles:
            rates = fock.bsm_scan(theta2, overlap, positions).rates
            assert list(rates) == ["DA", "AD", "DD", "AA"]
            for key, sign in (("DA", 1), ("AD", 1), ("DD", -1), ("AA", -1)):
                curve = rates[key]
                assert curve.dtype == np.float64 and not curve.flags.writeable
                assert np.max(np.abs(curve - math.cos(theta2) ** 2 * (1 + sign * v) / 4)) < 1e-13
        # at pi/2 the closed form is cos^2(pi/2) = 3.7e-33 in floats, times
        # (1 +- v)/4; the call returns (it once raised AttributeError)
        rates = fock.bsm_scan(math.pi / 2, overlap, positions).rates
        assert all(np.max(curve) < 1e-30 for curve in rates.values())

    def test_pinned_physical_value(self):
        # both overlap branches, then each alone: distinct labels, shared ones
        cfg = ct.ExperimentConfig(phi=2.0, theta1=0.3, theta2=-1.1, delta=0.9)
        for v, pin in ((0.7, "0.081239967134"), (0.0, "0.046460726804"), (1.0, "0.101405018498")):
            assert f"{fock.physical_correlation(cfg, v):.12f}" == pin


# the arm rotations on ports c and a as element maps, the path that the
# module's one 4x4 matrix ``fock._ARM`` stands for
ARM_MAPS = tuple(fock.polarization_map(port, gate) for port, gate in zip("ca", ct._FIXED_GATES[2:]))
# the ancilla's half-wave plate at 0 as an element map, the path that the right
# factor diag(1, -1, 1, -1) of each ``fock._ANALYZER_KRAUS`` term stands for
ANCILLA_PLATE = fock.polarization_map("a", qs.waveplate("half", 0.0).matrix)
# the source's half-wave plate at pi/8 on S, which turns its |V> into the
# particle state at phi = 0
SOURCE_PLATE = fock.polarization_map("s", qs.waveplate("half", math.pi / 8).matrix)


class TestEarlyPostselection:
    """``physical_correlation`` post-selects ports s, c and a right after the gate."""

    PORTS = ("s", "c", "a")

    @pytest.mark.parametrize("labels, v", [(("t0", "t0", "t0"), 1.0), (("t1", "t0", "t0"), 0.0)],
                             ids=["same", "distinct"])
    def test_dropped_patterns_never_reach_postselection(self, monkeypatch, labels, v):
        rng = np.random.default_rng(19)
        t_s, t_c, t_a = labels
        inputs = []  # the states physical_correlation runs through the gate chain
        run = fock._run
        monkeypatch.setattr(fock, "_run", lambda state, elements: (
            inputs.append(state) if elements is fock._CH_CHAIN else None) or run(state, elements))
        for phi, theta2, delta in rng.uniform(-2 * math.pi, 2 * math.pi, (25, 3)).tolist():
            # the input as its optics made it: |V> on S through the source's
            # plate and the phi plate, beside the source pair on (c, a)
            phase = fock.polarization_map("s", np.diag([1.0, np.exp(1j * phi)]))
            old = fock._run(ModeState.from_patterns([
                ((Mode("s", "V", t_s), Mode("c", "H", t_c), Mode("a", "V", t_a)), 1.0 / SQRT2),
                ((Mode("s", "V", t_s), Mode("c", "V", t_c), Mode("a", "H", t_a)),
                 np.exp(1j * delta) / SQRT2),
            ]), (SOURCE_PLATE, phase))
            inputs.clear()
            fock.physical_correlation(ct.ExperimentConfig(phi=phi, theta2=theta2, delta=delta), v)
            (given,) = inputs
            ref.assert_same_state(given, old.amps, 1e-15)
            state = fock._run(given, fock._CH_CHAIN)
            kept, _ = state.postselect_one_per_port(self.PORTS)
            dropped = ModeState({p: a for p, a in state.amps.items() if p not in kept.amps})
            assert kept.amps and len(dropped.amps) > 2 * len(kept.amps)
            # the arm rotations as one matrix on the kept (c, a) tensors
            rotated = fock._port_amplitudes(fock._run(kept, ARM_MAPS), self.PORTS)
            tensors = fock._port_amplitudes(state, self.PORTS)
            assert list(rotated) == list(tensors)
            for key, tensor in tensors.items():
                got = tensor.reshape(2, 4) @ fock._ARM.T
                assert np.max(np.abs(got - rotated[key].reshape(2, 4))) <= 1e-15
            for angle in ct._bob_angles([theta2]):
                plate = fock.polarization_map("c", qs.waveplate("half", angle / 2).matrix)
                optics = (*ARM_MAPS, plate, ANCILLA_PLATE, *fock._ANALYZER_FIXED)
                assert not fock._port_amplitudes(fock._run(dropped, optics), self.PORTS)
                # so the kept patterns alone give the same tensors, byte for byte
                full = fock._port_amplitudes(fock._run(state, optics), self.PORTS)
                early = fock._port_amplitudes(fock._run(kept, optics), self.PORTS)
                assert list(early) == list(full)
                assert all(early[k].tobytes() == full[k].tobytes() for k in full)


class TestAnalyzerFactorization:
    """Bob's theta2 plate is one right factor of the analyzer's fixed post-selected maps."""

    ANGLES = (*np.random.default_rng(23).uniform(-10.0, 10.0, 200).tolist(),
              0.0, math.pi / 4, -math.pi / 4, math.pi / 2, -math.pi / 2, 1e5)

    @pytest.mark.parametrize("labels", [("t0", "t0"), ("t0", "t1"), ("t1", "t0")])
    def test_matches_the_plate_run_through_the_optics(self, labels):
        for theta2 in self.ANGLES:
            plate = fock.polarization_map("c", qs.waveplate("half", theta2 / 2).matrix)
            want = fock._transfer((plate, ANCILLA_PLATE, *fock._ANALYZER_FIXED), ("c", "a"), labels)
            got = fock._ANALYZER_KRAUS[labels] @ fock._plates([theta2])[0]
            assert len(got) == len(want) == (1 if labels[0] == labels[1] else 2)
            assert np.max(np.abs(got - np.array(want))) <= 1e-15, theta2
            # read out on the cross outcomes, as physical_correlation folds them
            cross = fock._CROSS_KRAUS[labels][:, 0] @ fock._plates([theta2])[0]
            assert np.max(np.abs(cross - fock._CROSS_BRAS @ np.array(want))) <= 1e-15, theta2

    def test_plate_stack_is_the_kron_of_the_half_wave_plate(self):
        # a dense grid, signed zeros, quarter turns and huge angles; a
        # subnormal theta2 is left out, because theta2 / 2 underflows there
        grid = (*np.linspace(-4 * math.pi, 4 * math.pi, 4001).tolist(), *self.ANGLES,
                -0.0, math.pi, -math.pi, 1e-300, -1e-300, 1e300, -1e300, 2.0**-1021)
        plates = fock._plates(grid)
        assert plates.shape == (len(grid), 4, 4)
        for theta2, plate in zip(grid, plates):
            want = np.kron(qs.waveplate("half", theta2 / 2).matrix, np.eye(2))
            assert np.array_equal(plate, want), theta2
        # Bob's two runs are one stack: each plate as built on its own
        for theta2 in self.ANGLES:
            pair = ct._bob_angles([theta2])
            assert np.array_equal(fock._plates(pair), [fock._plates([t])[0] for t in pair])


def error_message(call):
    """The message of the ValueError that ``call()`` raises, or None."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


class TestQuarterTurn:
    """The Fock pipeline takes Bob's two analyzer angles from the circuit's rule."""

    ANGLES = ([sign * 10.0**k for k in range(6, 21) for sign in (1, -1)]
              + [math.nextafter(1e8, 0.0), 1e8, math.nextafter(1e8, math.inf)]
              + [0.0, -0.0, math.pi / 4, math.pi / 2] + [k * math.pi / 8 for k in range(-16, 17)]
              + [0.2, 1e5, -1e5, -1e8, 2.0**54, 1e300])

    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
    def test_raises_exactly_when_the_circuit_does(self, v):
        rejected = 0
        for theta2 in self.ANGLES:
            cfg = ct.ExperimentConfig(phi=0.3, theta1=0.2, theta2=theta2)
            want = error_message(lambda: ct.correlation(cfg))
            assert error_message(lambda: fock.physical_correlation(cfg, v)) == want, theta2
            rejected += want is not None
        assert rejected > 20


class TestFixedOptics:
    """The fixed elements are built once, at import; a call builds only its own plates."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every element built from now on: the (port, polarization) modes of
        an element map, or the label of a checked gate such as a waveplate."""
        built = []
        linear_map, check_gate = fock._linear_map, qs.GateOp.__post_init__

        def counted_map(mode_list, matrix):
            built.append(tuple(mode_list))
            return linear_map(mode_list, matrix)

        def counted_gate(gate):
            built.append(gate.label)
            check_gate(gate)

        monkeypatch.setattr(fock, "_linear_map", counted_map)
        monkeypatch.setattr(qs.GateOp, "__post_init__", counted_gate)
        return built

    def test_physical_correlation_builds_no_element(self, built):
        # phi enters through S's ket, not a plate's element map; Bob's two
        # theta2 plates are one stack written from cos and sin, so no
        # waveplate GateOp
        cfg = ct.ExperimentConfig(phi=2.0, theta1=0.3, theta2=-1.1, delta=0.9)
        fock.physical_correlation(cfg, 0.7)
        assert built == []

    def test_gate_maps_build_nothing_and_the_analyzer_its_plate(self, built):
        # the analyzer's plate comes from the same cos/sin stack: no element
        # map and no waveplate GateOp
        for v in (0.0, 0.5, 1.0):
            fock.physical_cz(v)
            fock.physical_ch(v)
        fock.bsm_scan(0.3, OverlapModel(v=0.5), [0.0, 1.0])
        fock.bsm_projector_physical(0.3)
        assert built == []

    def test_import_builds_each_fixed_element_once(self):
        # a fresh interpreter, profiled while it imports the Fock layer and
        # the circuit layer whose fixed gates it shares
        script = """
import collections, json, os, sys
from qduality import qstate
calls = collections.Counter()
def profile(frame, event, arg):
    if event == "call":
        calls[os.path.basename(frame.f_code.co_filename), frame.f_code.co_name] += 1
sys.setprofile(profile)
from qduality import circuit, fock
sys.setprofile(None)
print(json.dumps({f"{f}:{n}": c for (f, n), c in calls.items()}))
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        calls = json.loads(proc.stdout)
        # the CZ chain (4), W and its inverse, and the analyzer's PBS; the
        # arm rotations and the ancilla's plate are matrices, not element maps
        assert calls["fock.py:_linear_map"] == 7
        assert calls["fock.py:_ppbs_map"] == 1
        assert calls["fock.py:_attenuation_map"] == 2
        assert calls["fock.py:_pbs_map"] == 1
        # the analyzer's fixed maps, one per pair of input temporal labels,
        # and the CZ and CH Kraus stacks, one per overlap branch
        assert calls["fock.py:_transfer"] == 3 + 2 + 2
        # four input columns each: the PBS for 3 label pairs, the CZ chain's
        # 4 and the CH chain's 6 elements for 2
        assert calls["fock.py:transform"] == 4 * (3 * 1 + 2 * 4 + 2 * 6)
        assert "fock.py:_plates" not in calls
        # unitarity: one GateOp check for W and for each of the circuit's
        # four fixed gates, the two arm rotations among them, plus the
        # Hadamard inside controlled-Hadamard; no waveplate
        assert calls["qstate.py:w_gate"] == 1
        assert "qstate.py:waveplate" not in calls
        assert calls["qstate.py:hadamard"] == 2
        assert calls["qstate.py:controlled_hadamard"] == 1
        assert calls["circuit.py:control_arm_rotation"] == 1
        assert calls["circuit.py:ancilla_arm_rotation"] == 1
        assert calls["qstate.py:__post_init__"] == 6
