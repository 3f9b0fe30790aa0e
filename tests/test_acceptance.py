"""Acceptance gate: every release criterion at its stated tolerance.

Run ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.
"""

import math

import numpy as np
import pytest

import reference as ref
from qduality import circuit as ct
from qduality import cli
from qduality import fock
from qduality import hv
from qduality import qstate as qs

SQRT2 = math.sqrt(2.0)
PI_8, PI3_8, PI_4 = math.pi / 8, 3 * math.pi / 8, math.pi / 4
PHI_CHSH = 3 * math.pi / 2


def _report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"[criterion {num}] {description}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_1_state_equivalence():
    worst = min(
        ct.final_state(phi).fidelity(qs.StateVector(ref.final_state(phi)))
        for phi in np.linspace(0.0, 2 * math.pi, 32)
    )
    _report(1, "gate evolution reproduces the closed-form final state",
            worst >= 1 - 1e-12, f"min fidelity {worst}")


def test_criterion_2_correlation_surfaces():
    worst = 0.0
    for theta1 in (0.0, PI_4):
        table = ct.correlation_surface(theta1)
        for i, theta2 in enumerate(ct.THETA2_GRID_9):
            for j, phi in enumerate(ct.PHI_GRID_9):
                worst = max(worst, abs(
                    table[i, j] - ref.printed_correlation(theta1, theta2, phi)))
    ideal = ct.correlation_surface(0.0)
    degraded = ct.correlation_surface(0.0, noise=ct.NoiseParams(visibility=0.86))
    ok = (
        worst < 1e-10
        and abs(ideal.min() + 1.0) < 1e-10 and abs(ideal.max() - 1.0) < 1e-10
        and abs(degraded.min() + 0.86) < 1e-10
        and abs(degraded.max() - 0.86) < 1e-10
    )
    _report(2, "correlation surfaces match the closed forms and extremes",
            ok, f"worst deviation {worst}")


def test_criterion_3_ideal_chsh():
    s_hi = ct.chsh(PHI_CHSH, theta1_pair=(0.0, PI_4), theta2_pair=(PI_8, PI3_8))
    s_lo = ct.chsh(math.pi / 2, theta1_pair=(PI_4, 0.0),
                   theta2_pair=(PI_8, PI3_8))
    ok = abs(s_hi - 2 * SQRT2) < 1e-10 and abs(s_lo - 2 * SQRT2) < 1e-10
    _report(3, "ideal CHSH parameter reaches 2*sqrt(2) at both working phases",
            ok, f"S={s_hi}, {s_lo}")


def test_criterion_4_data_reproduction(table_a1_path):
    records = cli.ingest_counts(table_a1_path)
    expected = {
        (0.0, PI_8): -0.5993,
        (0.0, PI3_8): -0.5330,
        (PI_4, PI_8): 0.5056,
        (PI_4, PI3_8): -0.5450,
    }
    ok = len(records) == 4
    detail = []
    for record in records:
        result = cli.correlation_with_error(record)
        want = expected[(record.theta1, record.theta2)]
        if abs(result.E - want) > 5e-4:
            ok = False
            detail.append(f"E({record.theta1:.3f},{record.theta2:.3f})={result.E}")
        if result.sigma != math.sqrt((1 - result.E**2) / record.total):
            ok = False
            detail.append("sigma rule mismatch")
    s, _ = cli.chsh_from_records(records)
    if abs(s - 2.1829) > 1e-3:
        ok = False
        detail.append(f"S={s}")
    _report(4, "shipped counts reproduce the four correlations and S",
            ok, "; ".join(detail))


def test_criterion_5_visibility_consistency():
    fitted = {
        (0.0, PHI_CHSH): 0.833,
        (PI_4, PHI_CHSH): 0.767,
        (0.0, math.pi / 2): 0.762,
        (PI_4, math.pi / 2): 0.788,
    }
    theta2_grid = np.linspace(-math.pi / 2, math.pi / 2, 181)

    def model_max(theta1, phi, vis):
        noise = ct.NoiseParams(visibility=vis)
        return max(
            abs(ct.correlation(ct.ExperimentConfig(phi=phi, theta1=theta1,
                                                   theta2=float(t2),
                                                   noise=noise)))
            for t2 in theta2_grid
        )

    quoted = {
        (0.0, PHI_CHSH): (0.825, 0.028),
        (PI_4, math.pi / 2): (0.806, 0.032),
    }
    ok = True
    detail = []
    for key, (center, err) in quoted.items():
        peak = model_max(*key, fitted[key])
        if not center - err <= peak <= center + err:
            ok = False
            detail.append(f"peak {peak:.4f} outside {center}+-{err}")
    if not all(v > 1 / SQRT2 for v in fitted.values()):
        ok = False
        detail.append("a fitted visibility fell below the threshold")
    _report(5, "fitted visibilities reproduce the quoted maxima and beat 1/sqrt2",
            ok, "; ".join(detail))


def test_criterion_6_physical_gate_equivalence():
    cz_map, cz_success = fock.physical_cz(1.0)
    ch_map, ch_success = fock.physical_ch(1.0)
    # at full overlap each map is one Kraus term, a rescaled unitary
    ok = (
        len(cz_map.kraus) == 1 and len(ch_map.kraus) == 1
        and np.max(np.abs(3.0 * cz_map.kraus[0] - qs.cz_gate().matrix)) < 1e-10
        and abs(cz_success - 1.0 / 9.0) < 1e-10
        and np.max(np.abs(3.0 * ch_map.kraus[0]
                          - qs.controlled_hadamard().matrix)) < 1e-10
        and abs(ch_success - 1.0 / 9.0) < 1e-10
    )
    worst = 0.0
    for theta1 in (0.0, PI_4):
        for theta2 in np.linspace(-math.pi / 2, math.pi / 2, 5):
            for phi in np.linspace(0.0, 2 * math.pi, 5):
                cfg = ct.ExperimentConfig(phi=float(phi), theta1=theta1,
                                          theta2=float(theta2))
                worst = max(worst, abs(
                    fock.physical_correlation(cfg, 1.0) - ct.correlation(cfg)))
    ok = ok and worst < 1e-10
    _report(6, "post-selected optics reproduce the ideal gates and correlations",
            ok, f"worst correlation deviation {worst}")


def test_criterion_7_hom_properties():
    balanced = fock.hom_scan(0.5, fock.OverlapModel(v=1.0), [0.0]).contrast
    third = fock.hom_scan(1.0 / 3.0, fock.OverlapModel(v=1.0), [0.0]).contrast
    contrasts = [
        fock.hom_scan(1.0 / 3.0, fock.OverlapModel(v=float(v)), [0.0]).contrast
        for v in np.linspace(0.0, 1.0, 21)
    ]
    monotone = all(b >= a - 1e-15 for a, b in zip(contrasts, contrasts[1:]))
    ok = (abs(balanced - 1.0) < 1e-12 and abs(third - 0.8) < 1e-12 and monotone)
    _report(7, "two-photon dip contrasts and monotonicity",
            ok, f"contrasts {balanced}, {third}")


def test_criterion_8_hidden_variable_feasibility():
    rng = np.random.default_rng(2024)
    ok = True
    detail = []

    # 100 random objective models round-trip as feasible
    for trial in range(100):
        n = int(rng.integers(1, 7))
        entries = [
            (float(rng.uniform(-math.pi / 2, math.pi / 2)),
             float(rng.uniform(0.0, 2 * math.pi)))
            for _ in range(n)
        ]
        settings = hv.SettingsList(entries=entries)
        strategies = ref.enumerate_strategies(n)
        pick = rng.choice(len(strategies), size=min(6, len(strategies)),
                          replace=False)
        raw = rng.random(len(pick))
        model = hv.HVModel(
            strategies=tuple(strategies[i] for i in pick),
            weights=tuple(float(w) for w in raw / raw.sum()),
        )
        result = hv.feasibility(hv.predicted_joint(model, settings), settings)
        if not result.feasible:
            ok = False
            detail.append(f"round-trip {trial} infeasible")
            break

    # quantum statistics at the reference setting are infeasible
    reference_setting = hv.SettingsList(entries=[(0.0, math.pi / 2)])
    result = hv.feasibility([hv.quantum_joint(0.0, math.pi / 2)], reference_setting)
    if result.feasible:
        ok = False
        detail.append("reference setting wrongly feasible")

    # every tested multi-setting list away from the degenerate angles
    for entries in (
        [(0.0, math.pi / 2), (PI_8, PHI_CHSH)],
        [(PI_8, math.pi / 2), (PI3_8, math.pi / 2), (0.6, 2.0)],
        [(0.5, 2.0), (-0.3, 4.0)],
        [(0.1, 1.0), (-0.5, 2.5), (0.35, 5.5), (1.0, 0.7)],
    ):
        settings = hv.SettingsList(entries=entries)
        targets = [hv.quantum_joint(t2, phi) for t2, phi in entries]
        result = hv.feasibility(targets, settings)
        if result.feasible:
            ok = False
            detail.append(f"multi-setting list {entries} wrongly feasible")

    # the orthogonal-pair setting admits the two-strategy model for any phi
    for phi in (0.7, math.pi / 2, PHI_CHSH):
        settings = hv.SettingsList(entries=[(PI_4, phi)])
        target = [hv.quantum_joint(PI_4, phi, basis="quadrature")]
        result = hv.feasibility(target, settings)
        if not result.feasible:
            ok = False
            detail.append(f"orthogonal-pair setting infeasible at phi={phi}")

    if hv.chsh_local_bound() != 2.0:
        ok = False
        detail.append("local bound != 2")
    _report(8, "hidden-variable feasibility pattern and local bound",
            ok, "; ".join(detail))


def test_criterion_9_monte_carlo_soundness():
    noise = ct.NoiseParams(visibility=0.772)
    settings = [(t1, t2) for t1 in (0.0, PI_4) for t2 in (PI_8, PI3_8)]
    totals = [5585, 5747, 5461, 5741]
    dists = [
        ct.coincidence_probabilities(
            ct.ExperimentConfig(phi=PHI_CHSH, theta1=t1, theta2=t2, noise=noise))
        for t1, t2 in settings
    ]

    def sampled_s(seed):
        e = []
        for i, (dist, total) in enumerate(zip(dists, totals)):
            counts = ct.sample_counts(dist, total, seed=(seed, i))
            e.append((counts[0] - counts[1] - counts[2] + counts[3]) / total)
        return abs(e[0] + e[1] - e[2] + e[3])

    values = np.array([sampled_s(seed) for seed in range(1000)])
    stderr = values.std(ddof=1) / math.sqrt(len(values))
    mean_ok = abs(values.mean() - 2.183) < 3 * stderr

    replay = np.array([sampled_s(seed) for seed in range(50)])
    reproducible = replay.tobytes() == values[:50].tobytes()

    _report(9, "sampled CHSH mean matches and is seed-reproducible",
            mean_ok and reproducible,
            f"mean {values.mean():.5f}, stderr {stderr:.2e}")
