"""The input rules of ``qstate``, at every entry point that takes a scalar, a grid or an object.

Each scalar argument is checked by ``qstate._finite`` (a finite real
number) or ``qstate._unit_interval`` (a real number in [0, 1]), each grid
by ``qstate._finite_grid`` and each object argument by
``qstate._instance``.  A bad value raises a ValueError
whose message starts with the argument's name, never a TypeError or an
AttributeError from the code behind the check.
"""

import math
import re
import reprlib
from fractions import Fraction

import numpy as np
import pytest

from qduality import circuit as ct
from qduality import fock
from qduality import hv
from qduality import qstate as qs
from qduality.fock import Mode, ModeState, OverlapModel


def photon():
    return ModeState.from_patterns([((Mode("a", "H", "t"),), 1.0)])


# (entry point, argument name, rule, call with the argument set to x)
ENTRY_POINTS = [
    ("waveplate half", "angle", "finite", lambda x: qs.waveplate("half", x)),
    ("waveplate quarter", "angle", "finite", lambda x: qs.waveplate("quarter", x)),
    ("phase_shifter", "phi", "finite", qs.phase_shifter),
    ("NoiseParams", "visibility", "unit", lambda x: ct.NoiseParams(visibility=x)),
    ("NoiseParams", "background", "unit", lambda x: ct.NoiseParams(background=x)),
    ("ExperimentConfig", "phi", "finite", lambda x: ct.ExperimentConfig(phi=x)),
    ("ExperimentConfig", "theta1", "finite", lambda x: ct.ExperimentConfig(0.0, theta1=x)),
    ("ExperimentConfig", "theta2", "finite", lambda x: ct.ExperimentConfig(0.0, theta2=x)),
    ("ExperimentConfig", "delta", "finite", lambda x: ct.ExperimentConfig(0.0, delta=x)),
    ("OutcomeDistribution", "p_pp", "finite", lambda x: ct.OutcomeDistribution(x, 0.0, 0.5, 0.5)),
    ("initial_state", "delta", "finite", ct.initial_state),
    ("particle_state", "phi", "finite", ct.particle_state),
    ("wave_state", "phi", "finite", ct.wave_state),
    ("final_state", "phi", "finite", ct.final_state),
    ("final_state", "delta", "finite", lambda x: ct.final_state(0.3, x)),
    ("correlation_surface", "theta1", "finite", ct.correlation_surface),
    ("chsh", "phi", "finite", ct.chsh),
    ("fit_visibility", "phi", "finite", lambda x: ct.fit_visibility([0.1, 0.2], [0.5, 0.4], 0.0, x)),
    ("OverlapModel", "v", "unit", lambda x: OverlapModel(v=x)),
    ("OverlapModel", "x0", "finite", lambda x: OverlapModel(x0=x, sigma=0.5)),
    ("OverlapModel", "sigma", "finite", lambda x: OverlapModel(x0=0.0, sigma=x)),
    ("hom_scan", "transmission", "unit", lambda x: fock.hom_scan(x, OverlapModel(), [0.0])),
    # the partial polarizing beam splitter and the attenuator, whose element
    # maps check their transmissions when they are built
    ("ppbs_transform", "t_h", "unit", lambda x: photon().transform(fock._ppbs_map("ab", x, 0.5))),
    ("ppbs_transform", "t_v", "unit", lambda x: photon().transform(fock._ppbs_map("ab", 0.5, x))),
    ("attenuate", "transmission", "unit",
     lambda x: photon().transform(fock._attenuation_map("a", "H", x, "loss"))),
    ("physical_cz", "v", "unit", fock.physical_cz),
    ("physical_ch", "v", "unit", fock.physical_ch),
    ("physical_correlation", "v", "unit",
     lambda x: fock.physical_correlation(ct.ExperimentConfig(phi=0.3), x)),
    ("bsm_scan", "theta2", "finite", lambda x: fock.bsm_scan(x, OverlapModel(), [0.0])),
    ("bsm_projector_physical", "theta2", "finite", fock.bsm_projector_physical),
    ("wave_stats", "phi", "finite", hv.wave_stats),
    ("quantum_joint", "theta2", "finite", lambda x: hv.quantum_joint(x, 1.0)),
    ("quantum_joint", "phi", "finite", lambda x: hv.quantum_joint(0.3, x)),
]

NOT_NUMBERS = ["x", None, 1j, np.complex128(0.5), np.complex64(0.5), np.array([0.1, 0.2]),
               math.nan, math.inf, -math.inf]
OUTSIDE_UNIT_INTERVAL = [-0.1, 1.5]


def bad_cases():
    for label, name, rule, call in ENTRY_POINTS:
        values = NOT_NUMBERS + (OUTSIDE_UNIT_INTERVAL if rule == "unit" else [])
        for value in values:
            if name in ("x0", "sigma") and value is None:
                continue  # None is their default: no profile, which needs both unset
            yield pytest.param(name, call, value, id=f"{label}-{name}-{value!r}")


@pytest.mark.parametrize("name, call, value", bad_cases())
def test_bad_scalar_is_a_value_error_that_names_it(name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must ") as info:
        call(value)
    assert repr(value) in str(info.value)


def test_profile_needs_both_x0_and_sigma():
    for kwargs in ({"x0": None, "sigma": 0.5}, {"x0": 0.0, "sigma": None}):
        with pytest.raises(ValueError, match="^x0 and sigma must be given together$"):
            OverlapModel(**kwargs)


# values each entry point accepts: by default the ends of [0, 1], an int, a
# numpy float and a Fraction
GOOD = {"OutcomeDistribution": (0.0, 0, np.float64(0.0)),
        "sigma": (0.5, 1.0, 1, np.float64(0.5), Fraction(1, 3))}


@pytest.mark.parametrize("label, name, rule, call", ENTRY_POINTS,
                         ids=[f"{label}-{name}" for label, name, _, _ in ENTRY_POINTS])
def test_good_scalar_accepted(label, name, rule, call):
    default = (0.0, 1.0, 1, np.float64(0.5), Fraction(1, 3))
    for value in GOOD.get(label, GOOD.get(name, default)):
        call(value)


def test_large_int_is_a_value_error():
    with pytest.raises(ValueError, match="^phi must be a finite angle, got 1000"):
        ct.ExperimentConfig(phi=10**400)


def test_rules_keep_the_value_as_given():
    # the finite rule keeps the value as a Python float, for arrays and labels
    for value in (0.25, 1, np.float64(0.5), Fraction(1, 3)):
        finite = qs._finite("x", value)
        assert type(finite) is float and finite == float(value)
        assert qs._unit_interval("x", value) is value


def test_fractions_give_the_float_results():
    third = Fraction(1, 3)
    for kind in ("half", "quarter"):
        got, want = qs.waveplate(kind, third), qs.waveplate(kind, 1 / 3)
        assert np.array_equal(got.matrix, want.matrix) and got.label == want.label
    assert qs.phase_shifter(third).label == "phase(0.333333)"
    assert np.array_equal(ct.final_state(third, third).amplitudes,
                          ct.final_state(1 / 3, 1 / 3).amplitudes)
    config = ct.ExperimentConfig(phi=third, theta1=third, theta2=third, delta=third)
    assert config == ct.ExperimentConfig(1 / 3, 1 / 3, 1 / 3, 1 / 3)
    assert ct.correlation(config) == ct.correlation(ct.ExperimentConfig(1 / 3, 1 / 3, 1 / 3, 1 / 3))
    assert fock.physical_correlation(config, third) == fock.physical_correlation(config, 1 / 3)


# an int too large for a float is a number, but not a finite one
NOT_FINITE = [(10**400, 0.1), (0.1, -10**400)]


@pytest.mark.parametrize("entry", [("0.1", 0.2), (0.1, "0.2"), (b"0.1", 0.2), "ab", (0.1,), None,
                                   ("0.1", "0.2"), (0.1, 0.2j), (0.1, np.complex128(0.2)),
                                   (Fraction(1, 3), np.complex64(0.2)), (None, 0.2), *NOT_FINITE])
def test_settings_that_are_not_pairs_of_numbers(entry):
    # the settings list, and the joints, which take their settings as plain
    # pairs, word a bad entry and an empty list alike
    message = ("^settings must be finite$" if any(entry is bad for bad in NOT_FINITE)
               else r"^settings must be \(theta2, phi\) pairs of numbers$")
    for call in (hv.SettingsList, hv.quantum_joints):
        for settings in ([(0.3, 0.4), entry], [entry]):
            with pytest.raises(ValueError, match=message):
                call(settings)
        with pytest.raises(ValueError, match="^settings list must be nonempty$"):
            call([])


def test_joints_take_fractions_and_numpy_reals_as_the_equal_floats():
    want = hv.quantum_joints([(1 / 3, 0.5), (0.25, 2.0)])
    for settings in ([(Fraction(1, 3), Fraction(1, 2)), (0.25, 2)],
                     [(np.float64(1 / 3), np.float32(0.5)), (np.float16(0.25), np.int64(2))],
                     np.array([(1 / 3, 0.5), (0.25, 2.0)])):
        assert hv.quantum_joints(settings).tobytes() == want.tobytes()


# (entry point, argument name, kind, call with one entry of the grid set to x):
# each grid argument is checked by ``qstate._finite_grid``
GRID_ARGUMENTS = [
    ("correlation_surface", "theta2_grid", "angles",
     lambda x: ct.correlation_surface(0.0, [0.3, x], [0.1])),
    ("correlation_surface", "phi_grid", "angles", lambda x: ct.correlation_surface(0.0, [0.3], [x])),
    ("chsh", "theta1_pair", "angles", lambda x: ct.chsh(0.1, theta1_pair=(0, x))),
    ("chsh", "theta2_pair", "angles", lambda x: ct.chsh(0.1, theta2_pair=(x, 0.4))),
    ("fit_visibility", "theta2_values", "angles",
     lambda x: ct.fit_visibility([0.1, x], [0.5, 0.4], 0.0, 0.3)),
    ("fit_visibility", "measured", "values",
     lambda x: ct.fit_visibility([0.1, 0.2], [x, 0.4], 0.0, 0.3)),
    ("hom_scan", "positions", "values", lambda x: fock.hom_scan(0.5, OverlapModel(), [0.0, x])),
    ("bsm_scan", "positions", "values", lambda x: fock.bsm_scan(0.3, OverlapModel(), [x])),
]


@pytest.mark.parametrize("label, name, kind, call", GRID_ARGUMENTS,
                         ids=[f"{label}-{name}" for label, name, _, _ in GRID_ARGUMENTS])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, -10**400],
                         ids=["nan", "inf", "-inf", "int", "-int"])
def test_grid_entry_that_is_not_finite_is_a_value_error_that_names_it(label, name, kind, call,
                                                                       value):
    # an int too large for a float is a number, but not a finite one
    with pytest.raises(ValueError, match=f"^{name} must hold finite {kind} only$"):
        call(value)


# (entry point, argument name, call with the argument set to x): each object
# argument must be an instance of its class, checked where it enters
OBJECT_ARGUMENTS = [
    ("ExperimentConfig", "noise", lambda x: ct.ExperimentConfig(phi=0.1, noise=x)),
    ("correlation_surface", "noise", lambda x: ct.correlation_surface(0.0, noise=x)),
    ("chsh", "noise", lambda x: ct.chsh(0.3, noise=x)),
    ("coincidence_probabilities", "config", ct.coincidence_probabilities),
    ("correlation", "config", ct.correlation),
    ("sample_counts", "distribution", lambda x: ct.sample_counts(x, 10, 0)),
    ("physical_correlation", "config", lambda x: fock.physical_correlation(x, 1.0)),
    ("feasibility", "settings", lambda x: hv.feasibility([[[0.5, 0.0], [0.5, 0.0]]], x)),
    ("predicted_joint", "model", lambda x: hv.predicted_joint(x, hv.SettingsList([(0.1, 0.2)]))),
    ("predicted_joint", "settings", lambda x: hv.predicted_joint(
        hv.HVModel((hv.HVStrategy("wave", "+"),), (1,)), x)),
    ("hom_scan", "overlap", lambda x: fock.hom_scan(0.5, x, [0.1])),
    ("bsm_scan", "overlap", lambda x: fock.bsm_scan(0.3, x, [0.1])),
]


@pytest.mark.parametrize("label, name, call", OBJECT_ARGUMENTS,
                         ids=[f"{label}-{name}" for label, name, _ in OBJECT_ARGUMENTS])
@pytest.mark.parametrize("value", ["x", None, [(0.1, 0.2)], 0.5])
def test_object_of_another_type_is_a_value_error_that_names_it(label, name, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be of type [A-Za-z]+, got ") as info:
        call(value)
    assert repr(value) in str(info.value)


@pytest.mark.parametrize("rho", [np.eye(2), np.eye(8), np.ones(4), np.ones((4, 4, 1)),
                                 np.full((4, 4), math.nan), np.diag([1.0, 1.0, math.inf, 1.0]),
                                 "x", None, {"a": 1}, [[1.0, 0.0], [0.0]]],
                         ids=["2x2", "8x8", "vector", "4x4x1", "nan", "inf", "str", "None", "dict",
                              "ragged"])
def test_density_matrix_must_be_finite_4x4(rho):
    # a gate map checks its input once, where it enters, not numpy's matmul
    gate_map, _ = fock.physical_cz(0.5)
    with pytest.raises(ValueError, match="^rho must be a finite 4x4 matrix, got ") as info:
        gate_map.apply(rho)
    assert reprlib.repr(rho) in str(info.value)


def test_density_matrix_as_nested_lists_gives_the_array_result():
    gate_map, _ = fock.physical_ch(0.3)
    rho = np.arange(16.0).reshape(4, 4) / 16
    assert np.array_equal(gate_map.apply(rho.tolist()), gate_map.apply(rho))


# (entry point, argument name, call with the argument set to x)
SEQUENCE_ARGUMENTS = [
    ("feasibility", "targets", lambda x: hv.feasibility(x, hv.SettingsList([(0.1, 0.2)]))),
    ("feasibility", "wave_probs",
     lambda x: hv.feasibility([[[0.5, 0.0], [0.5, 0.0]]], hv.SettingsList([(0.1, 0.2)]), x)),
    ("predicted_joint", "wave_probs",
     lambda x: hv.predicted_joint(hv.HVModel((hv.HVStrategy("wave", "+"),), (1,)),
                                  hv.SettingsList([(0.1, 0.2)]), x)),
]


@pytest.mark.parametrize("label, name, call", SEQUENCE_ARGUMENTS,
                         ids=[f"{label}-{name}" for label, name, _ in SEQUENCE_ARGUMENTS])
@pytest.mark.parametrize("value", [5, 0.5, object()], ids=["int", "float", "object"])
def test_argument_that_is_not_a_sequence_is_a_value_error_that_names_it(label, name, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be a sequence, got ") as info:
        call(value)
    assert reprlib.repr(value) in str(info.value)


@pytest.mark.parametrize("table", [None, 0.5, [None, None], [[0.5, 0.0], 0.5]])
def test_target_tables_that_are_not_sequences(table):
    with pytest.raises(ValueError, match="^each target must be a 2x2 joint distribution$"):
        hv.feasibility([table], hv.SettingsList([(0.1, 0.2)]))


@pytest.mark.parametrize("entry", [None, "0.5", b"0.5", 0.5j, np.complex128(0.5)])
def test_target_entries_that_are_not_real_numbers(entry):
    with pytest.raises(ValueError, match="^target probabilities must be real numbers$"):
        hv.feasibility([[[entry, 0.0], [0.5, 0.0]]], hv.SettingsList([(0.1, 0.2)]))


# None would draw fresh OS entropy, and a bool would act as seed 0 or 1
@pytest.mark.parametrize("seed", ["x", 1.5, -1, np.int64(-1), np.float64(2.0), b"1", [1, -1], [0.5],
                                  None, True, False, np.True_])
def test_seed_that_seed_sequence_rejects_is_a_value_error(seed):
    dist = ct.OutcomeDistribution(0.25, 0.25, 0.25, 0.25)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer or a sequence") as info:
        ct.sample_counts(dist, 10, seed)
    assert reprlib.repr(seed) in str(info.value)


def test_numpy_integer_seeds_give_the_int_counts():
    dist = ct.OutcomeDistribution(0.4, 0.1, 0.3, 0.2)
    want = ct.sample_counts(dist, 5585, 7).tobytes()
    for seed in (np.int64(7), np.uint8(7), np.int32(7)):
        assert ct.sample_counts(dist, 5585, seed).tobytes() == want
