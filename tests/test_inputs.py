"""The input rules of ``qstate``, at every entry point that takes a scalar.

Each scalar argument is checked by ``qstate._finite`` (a finite real
number) or ``qstate._unit_interval`` (a real number in [0, 1]).  A bad value
raises a ValueError whose message starts with the argument's name, never a
TypeError from the arithmetic behind the check.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from qduality import circuit as ct
from qduality import fock
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
    ("ppbs_transform", "t_h", "unit", lambda x: fock.ppbs_transform(photon(), ("a", "b"), x, 0.5)),
    ("ppbs_transform", "t_v", "unit", lambda x: fock.ppbs_transform(photon(), ("a", "b"), 0.5, x)),
    ("attenuate", "transmission", "unit", lambda x: fock.attenuate(photon(), "a", "H", x, "loss")),
    ("physical_cz", "v", "unit", fock.physical_cz),
    ("physical_ch", "v", "unit", fock.physical_ch),
    ("physical_correlation", "v", "unit",
     lambda x: fock.physical_correlation(ct.ExperimentConfig(phi=0.3), x)),
    ("bsm_scan", "theta2", "finite", lambda x: fock.bsm_scan(x, OverlapModel(), [0.0])),
    ("bsm_projector_physical", "theta2", "finite", fock.bsm_projector_physical),
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


# values each entry point accepts: by default the ends of [0, 1], an int and
# a numpy float
GOOD = {"OutcomeDistribution": (0.0, 0, np.float64(0.0)),
        "sigma": (0.5, 1.0, 1, np.float64(0.5))}


@pytest.mark.parametrize("label, name, rule, call", ENTRY_POINTS,
                         ids=[f"{label}-{name}" for label, name, _, _ in ENTRY_POINTS])
def test_good_scalar_accepted(label, name, rule, call):
    default = (0.0, 1.0, 1, np.float64(0.5))
    for value in GOOD.get(label, GOOD.get(name, default)):
        call(value)


def test_large_int_is_a_value_error():
    with pytest.raises(ValueError, match="^phi must be a finite angle, got 1000"):
        ct.ExperimentConfig(phi=10**400)


def test_rules_keep_the_value_as_given():
    for value in (0.25, 1, np.float64(0.5), Fraction(1, 3)):
        assert qs._finite("x", value) is value
        assert qs._unit_interval("x", value) is value
