"""The input rules of ``qstate``, at every entry point that takes a scalar, an array,
an object or a probability distribution.

Each scalar argument is checked by ``qstate._finite`` (a finite real
number) or ``qstate._unit_interval`` (a real number in [0, 1]), each array
by ``qstate._numbers`` (each grid and settings table through
``qstate._finite_grid``), each sequence of qubit indices by
``qstate._qubits`` (ints, numpy ints too but no bools, in range), each
object argument by ``qstate._instance`` and each probability distribution
by ``qstate._probabilities``.  Text is never a number, and a set or a
mapping is never an array.  A bad value raises a ValueError whose message starts with the
argument's name, never a TypeError or an AttributeError from the code
behind the check.
"""

import math
import re
import reprlib
from decimal import Decimal
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

# an array with an axis is no scalar, even when it holds one value in range
NOT_NUMBERS = ["x", None, 1j, np.complex128(0.5), np.complex64(0.5), np.array(0.5 + 0.5j),
               np.array([0.1, 0.2]), np.array([0.5]), math.nan, math.inf, -math.inf]
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
    for value in (0.25, 1, np.float64(0.5), np.array(0.5), Fraction(1, 3)):
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


@pytest.mark.parametrize("huge", [10**400, -10**400])
def test_int_too_large_for_a_float_among_floats_is_not_finite(huge):
    strategies = (hv.HVStrategy("wave", "+"), hv.HVStrategy("particle", "+"))
    with pytest.raises(ValueError, match="^weights must be finite, got "):
        hv.HVModel(strategies, (huge, 0.5))
    with pytest.raises(ValueError, match="^targets must be finite, got "):
        hv.feasibility([[[huge, 0.0], [0, 0.5]]], hv.SettingsList([(0.1, 0.2)]))


@pytest.mark.parametrize("entry", [("0.1", 0.2), (0.1, "0.2"), (b"0.1", 0.2), "ab", (0.1,), None,
                                   ("0.1", "0.2"), (0.1, 0.2j), (0.1, np.complex128(0.2)),
                                   (Fraction(1, 3), np.complex64(0.2)), (None, 0.2), *NOT_FINITE])
def test_settings_that_are_not_pairs_of_numbers(entry):
    # the settings list, and the joints, which take their settings as plain
    # pairs, read them with the grid rule and word a bad entry and an empty list alike
    message = (r"^settings must hold finite \(theta2, phi\) pairs only$"
               if any(entry is bad for bad in NOT_FINITE)
               else r"^settings must be a sequence of \(theta2, phi\) pairs[:,] ")
    for call in (hv.SettingsList, hv.quantum_joints):
        for settings in ([(0.3, 0.4), entry], [entry]):
            with pytest.raises(ValueError, match=message):
                call(settings)
        with pytest.raises(ValueError, match="^settings must be nonempty$"):
            call([])


def test_joints_take_fractions_and_numpy_reals_as_the_equal_floats():
    want = hv.quantum_joints([(1 / 3, 0.5), (0.25, 2.0)])
    for settings in ([(Fraction(1, 3), Fraction(1, 2)), (0.25, 2)],
                     [(np.float64(1 / 3), np.float32(0.5)), (np.float16(0.25), np.int64(2))],
                     np.array([(1 / 3, 0.5), (0.25, 2.0)])):
        assert hv.quantum_joints(settings).tobytes() == want.tobytes()


# (entry point, argument name, kind, a valid grid, call with the grid set to x):
# each grid argument is checked by ``qstate._finite_grid``
GRID_ARGUMENTS = [
    ("correlation_surface", "theta2_grid", "angles", (0.3, 0.5),
     lambda x: ct.correlation_surface(0.0, x, [0.1])),
    ("correlation_surface", "phi_grid", "angles", (0.1, 0.5),
     lambda x: ct.correlation_surface(0.0, [0.3], x)),
    ("chsh", "theta1_pair", "angles", (0.0, 0.5), lambda x: ct.chsh(0.1, theta1_pair=x)),
    ("chsh", "theta2_pair", "angles", (0.2, 0.5), lambda x: ct.chsh(0.1, theta2_pair=x)),
    ("fit_visibility", "theta2_values", "angles", (0.1, 0.5),
     lambda x: ct.fit_visibility(x, [0.4, 0.5], 0.0, 0.3)),
    ("fit_visibility", "measured", "values", (0.4, 0.5),
     lambda x: ct.fit_visibility([0.1, 0.2], x, 0.0, 0.3)),
    ("hom_scan", "positions", "values", (0.0, 0.5), lambda x: fock.hom_scan(0.5, OverlapModel(), x)),
    ("bsm_scan", "positions", "values", (0.0, 0.5), lambda x: fock.bsm_scan(0.3, OverlapModel(), x)),
]


@pytest.mark.parametrize("label, name, kind, valid, call", GRID_ARGUMENTS,
                         ids=[f"{label}-{name}" for label, name, *_ in GRID_ARGUMENTS])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, -10**400],
                         ids=["nan", "inf", "-inf", "int", "-int"])
def test_grid_entry_that_is_not_finite_is_a_value_error_that_names_it(label, name, kind, valid,
                                                                       call, value):
    # an int too large for a float is a number, but not a finite one
    with pytest.raises(ValueError, match=f"^{name} must hold finite {kind} only$"):
        call(valid[:-1] + (value,))


# (entry point, argument name, kind, a valid argument, call with the argument set to x):
# the settings tables, read by the grid rule two angles to a row, and the complex
# arrays of qstate and fock, read by the same rule without a shape
SETTINGS_ARGUMENTS = [
    ("SettingsList", "settings", "(theta2, phi) pairs", ((0.1, 0.5), (0.3, 0.5)), hv.SettingsList),
    ("quantum_joints", "settings", "(theta2, phi) pairs", ((0.1, 0.5), (0.3, 0.5)), hv.quantum_joints),
]
COMPLEX_ARGUMENTS = [
    ("StateVector", "amplitudes", "numbers", (0.5, 0.5, 0.5, 0.5), qs.StateVector),
    ("GateOp", "matrix", "numbers", np.kron(qs.hadamard().matrix, qs.hadamard().matrix).real.round(12),
     qs.GateOp),
    ("Projector", "matrix", "numbers", ((0.5, 0.5), (0.5, 0.5)), qs.Projector),
    ("PostselectedMap", "kraus", "numbers", np.full((1, 4, 4), 0.5), fock.PostselectedMap),
    ("PostselectedMap.apply", "rho", "numbers", np.full((4, 4), 0.5),
     lambda x: fock.physical_cz(0.5)[0].apply(x)),
    ("polarization_map", "jones", "numbers", ((0.5, 0.5), (0.5, 0.5)),
     lambda x: fock.polarization_map("s", x)),
]
ARRAY_ARGUMENTS = GRID_ARGUMENTS + SETTINGS_ARGUMENTS + COMPLEX_ARGUMENTS


def with_last_entry(valid, entry):
    """``valid`` as nested lists, its last entry set to ``entry``."""
    table = np.array(valid, dtype=object)
    table.flat[-1] = entry
    return table.tolist()


# text that float, complex or numpy would parse: as one entry (str, bytes, a 0-d
# array of text), as an array of it (np.array(["0.5", ...])) or as the whole argument
TEXT = [("entry-str", lambda valid: with_last_entry(valid, "0.5")),
        ("entry-bytes", lambda valid: with_last_entry(valid, b"0.5")),
        ("entry-text-array", lambda valid: with_last_entry(valid, np.array("0.5"))),
        ("text-array", lambda valid: np.array(valid).astype(str)),
        ("whole-str", lambda valid: "12"),
        ("whole-bytes", lambda valid: b"07")]


@pytest.mark.parametrize("label, name, kind, valid, call", ARRAY_ARGUMENTS,
                         ids=[f"{label}-{name}" for label, name, *_ in ARRAY_ARGUMENTS])
def test_valid_array_accepted(label, name, kind, valid, call):
    # the arguments the text cases start from; each holds the value 0.5
    call(valid)


@pytest.mark.parametrize("label, name, kind, valid, call", ARRAY_ARGUMENTS,
                         ids=[f"{label}-{name}" for label, name, *_ in ARRAY_ARGUMENTS])
@pytest.mark.parametrize("case, text", TEXT, ids=[case for case, _ in TEXT])
def test_text_is_not_a_number(label, name, kind, valid, call, case, text):
    # one array rule for every array argument: text is never read as a number
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a sequence of "
                                         f"{re.escape(kind)}: not (a number|numbers): "):
        call(text(valid))


def hashable(valid):
    """``valid`` as nested tuples, which a set or a dict can hold."""
    return tuple(map(hashable, valid)) if np.ndim(valid) else valid


# containers with no order of their own: a set iterates in hash order, and a
# mapping as its keys
UNORDERED = [("set", lambda valid: set(hashable(valid))),
             ("frozenset", lambda valid: frozenset(hashable(valid))),
             ("dict", lambda valid: dict.fromkeys(hashable(valid))),
             ("dict-keys", lambda valid: dict.fromkeys(hashable(valid)).keys())]


@pytest.mark.parametrize("label, name, kind, valid, call", ARRAY_ARGUMENTS,
                         ids=[f"{label}-{name}" for label, name, *_ in ARRAY_ARGUMENTS])
@pytest.mark.parametrize("case, unordered", UNORDERED, ids=[case for case, _ in UNORDERED])
def test_set_or_mapping_is_not_an_array(label, name, kind, valid, call, case, unordered):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a sequence of "
                                         f"{re.escape(kind)}: not a sequence: "):
        call(unordered(valid))


@pytest.mark.parametrize("jones, message", [
    ([[math.nan, 0.0], [0.0, 1.0]], "^jones must hold finite numbers only$"),
    ([[1.0, 0.0], [0.0, math.inf]], "^jones must hold finite numbers only$"),
    ([[1.0, complex(0.0, math.nan)], [0.0, 1.0]], "^jones must hold finite numbers only$"),
    (np.eye(3), r"^jones shape \(3, 3\) does not fit 2 modes$"),
], ids=["nan", "inf", "complex-nan", "3x3"])
def test_jones_matrix_must_be_finite_2x2(jones, message):
    # text as jones is a row of COMPLEX_ARGUMENTS
    with pytest.raises(ValueError, match=message):
        fock.polarization_map("s", jones)


TWO_QUBITS = qs.bell_state("psi+")
# (entry point, argument name, call with the argument set to x): each sequence
# of qubit indices is read by ``qstate._qubits``
QUBIT_ARGUMENTS = [
    ("apply_gate", "targets", lambda x: qs.apply_gate(TWO_QUBITS, qs.hadamard(), x)),
    ("outcome_probability", "targets",
     lambda x: qs.outcome_probability(TWO_QUBITS, qs.Projector(np.diag([1.0, 0.0])), x)),
    ("schmidt_coefficients", "partition", lambda x: qs.schmidt_coefficients(TWO_QUBITS, x)),
]
NOT_QUBIT_INDICES = [0, 0.5, None, "0", b"0", [0.5], [np.float64(1.0)], [True], [np.True_], [None],
                     ["0"], [1j]]


@pytest.mark.parametrize("label, name, call", QUBIT_ARGUMENTS,
                         ids=[f"{label}-{name}" for label, name, _ in QUBIT_ARGUMENTS])
@pytest.mark.parametrize("value", NOT_QUBIT_INDICES, ids=[repr(v) for v in NOT_QUBIT_INDICES])
def test_qubit_indices_that_are_not_ints_name_the_argument(label, name, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be a sequence of qubit indices, got ") as info:
        call(value)
    assert reprlib.repr(value) in str(info.value)


@pytest.mark.parametrize("label, name, call", QUBIT_ARGUMENTS,
                         ids=[f"{label}-{name}" for label, name, _ in QUBIT_ARGUMENTS])
@pytest.mark.parametrize("value", [[2], [-1], [np.int64(5)]], ids=["2", "-1", "int64-5"])
def test_qubit_indices_are_ints_in_range(label, name, call, value):
    # numpy ints are read as the equal ints
    want = call([1])
    for good in ([np.int64(1)], [np.uint8(1)], np.array([1]), (1,)):
        got = call(good)
        assert np.array_equal(getattr(got, "amplitudes", got), getattr(want, "amplitudes", want))
    with pytest.raises(ValueError, match=f"^{name} must be qubit indices below 2, got "):
        call(value)


def test_duplicate_targets_refused_and_a_duplicated_partition_collapses():
    for call in (lambda x: qs.apply_gate(TWO_QUBITS, qs.cz_gate(), x),
                 lambda x: qs.outcome_probability(TWO_QUBITS, qs.Projector(np.eye(4)), x)):
        with pytest.raises(ValueError, match=r"^targets must be distinct qubit indices, got \(1, 1\)$"):
            call((1, 1))
    assert np.array_equal(qs.schmidt_coefficients(TWO_QUBITS, (0, 0)),
                          qs.schmidt_coefficients(TWO_QUBITS, (0,)))


@pytest.mark.parametrize("label", [["phi+"], {"phi+": 1}, {"phi+"}], ids=["list", "dict", "set"])
def test_unhashable_bell_label_is_unknown(label):
    for call in (qs.bell_ket, qs.bell_state):
        with pytest.raises(ValueError, match="^unknown Bell state label ") as info:
            call(label)
        assert repr(label) in str(info.value)


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
    ("apply_gate", "state", lambda x: qs.apply_gate(x, qs.hadamard(), [0])),
    ("apply_gate", "gate", lambda x: qs.apply_gate(TWO_QUBITS, x, [0])),
    ("outcome_probability", "state",
     lambda x: qs.outcome_probability(x, qs.Projector(np.diag([1.0, 0.0])), [0])),
    ("outcome_probability", "projector", lambda x: qs.outcome_probability(TWO_QUBITS, x, [0])),
    ("schmidt_coefficients", "state", lambda x: qs.schmidt_coefficients(x, [0])),
    ("StateVector.fidelity", "other", TWO_QUBITS.fidelity),
]


@pytest.mark.parametrize("label, name, call", OBJECT_ARGUMENTS,
                         ids=[f"{label}-{name}" for label, name, _ in OBJECT_ARGUMENTS])
@pytest.mark.parametrize("value", ["x", None, [(0.1, 0.2)], 0.5])
def test_object_of_another_type_is_a_value_error_that_names_it(label, name, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be of type [A-Za-z]+, got ") as info:
        call(value)
    assert repr(value) in str(info.value)


@pytest.mark.parametrize("rho", [np.eye(2), np.eye(8), np.ones(4), np.ones((4, 4, 1)),
                                 np.full((4, 4), math.nan), np.diag([1.0, 1.0, math.inf, 1.0])],
                         ids=["2x2", "8x8", "vector", "4x4x1", "nan", "inf"])
def test_density_matrix_must_be_finite_4x4(rho):
    # a gate map checks its input once, where it enters, not numpy's matmul
    gate_map, _ = fock.physical_cz(0.5)
    with pytest.raises(ValueError, match="^rho must be a finite 4x4 matrix, got ") as info:
        gate_map.apply(rho)
    assert reprlib.repr(rho) in str(info.value)


@pytest.mark.parametrize("rho", [None, {"a": 1}, [[1.0, 0.0], [0.0]]], ids=["None", "dict", "ragged"])
def test_density_matrix_that_is_no_array_of_numbers(rho):
    # the complex arrays of qstate and fock share one rule with the grids
    gate_map, _ = fock.physical_cz(0.5)
    with pytest.raises(ValueError, match="^rho must be a sequence of numbers: "):
        gate_map.apply(rho)


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
    with pytest.raises(ValueError, match="^targets must each be a 2x2 joint distribution$"):
        hv.feasibility([table], hv.SettingsList([(0.1, 0.2)]))


# a Decimal, a 0-d array and a numpy bool are no numbers.Real, as for weights
# and wave statistics, though float() would read them
@pytest.mark.parametrize("entry", [None, "0.5", b"0.5", 0.5j, np.complex128(0.5),
                                   Decimal("0.5"), np.array(0.5), np.True_])
def test_target_entries_that_are_not_real_numbers(entry):
    with pytest.raises(ValueError, match="^targets must be real numbers, got "):
        hv.feasibility([[[entry, 0.0], [0.5, 0.0]]], hv.SettingsList([(0.1, 0.2)]))


ONE_SETTING = hv.SettingsList([(0.1, 0.2)])
# (argument name, call with one distribution set to the pair x): the weights
# of a two-strategy model, one target table and one setting's wave statistics
DISTRIBUTION_ARGUMENTS = [
    ("weights", lambda x: hv.HVModel((hv.HVStrategy("wave", "+"), hv.HVStrategy("particle", "-")), x)),
    ("targets", lambda x: hv.feasibility([[[x[0], 0], [x[1], 0]]], ONE_SETTING)),
    ("wave_probs", lambda x: hv.feasibility([[[0.5, 0.0], [0.5, 0.0]]], ONE_SETTING, [x])),
    ("wave_probs", lambda x: hv.predicted_joint(
        hv.HVModel((hv.HVStrategy("wave", "+"),), (1,)), ONE_SETTING, [x])),
]
# (case, pair, what the message says it must be or do): the same bad pairs for every argument
BAD_DISTRIBUTIONS = [
    ("nan", (0.5, math.nan), "be finite"), ("inf", (math.inf, 0.5), "be finite"),
    ("-inf", (0.5, -math.inf), "be finite"),
    ("huge-int-among-floats", (10**400, 0.5), "be finite"),
    ("str", ("0.5", 0.5), "be real numbers"), ("bytes", (b"0.5", 0.5), "be real numbers"),
    ("None", (None, 0.5), "be real numbers"), ("complex", (0.5, 0.5j), "be real numbers"),
    ("numpy-complex", (np.complex128(0.5), 0.5), "be real numbers"),
    ("negative", (-0.25, 0.5), "lie in [0, 1]"), ("above-1", (1.25, 0.0), "lie in [0, 1]"),
    ("negative-fraction", (Fraction(-1, 2), Fraction(3, 2)), "lie in [0, 1]"),
    ("huge-int", (10**400, 0), "lie in [0, 1]"),
    ("float-sum", (0.5, 0.5 + 1e-6), "sum to 1 within 1e-"),
    ("fraction-sum", (Fraction(1, 4), Fraction(1, 4)), "sum to 1, got 1/2"),
]


@pytest.mark.parametrize("name, call", DISTRIBUTION_ARGUMENTS,
                         ids=[f"{name}-{k}" for k, (name, _) in enumerate(DISTRIBUTION_ARGUMENTS)])
@pytest.mark.parametrize("case, pair, must", BAD_DISTRIBUTIONS, ids=[c for c, _, _ in BAD_DISTRIBUTIONS])
def test_bad_distribution_is_a_value_error_that_names_it(name, call, case, pair, must):
    # weights, targets and wave statistics share one probability rule and its wording
    with pytest.raises(ValueError, match=f"^{name} must {re.escape(must)}"):
        call(pair)


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
