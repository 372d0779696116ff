"""The package's value types: immutable named tuples that compare by value;
and public refusals, of the value types and of functions that read them,
each checked by its message."""

from __future__ import annotations

import math

import pytest

from fastlight.dispersion import LorentzianAbsorptive, TaylorCubic, cad_tune
from fastlight.errors import ComputationError
from fastlight.resonator import RingCavity, ShiftedLinewidth, ShiftResult, enhancement_eta
from fastlight.sagnac import LoopGeometry, RotationState, SagnacPhase, vacuum_sagnac
from fastlight.scenario import ValueRange
from fastlight.sensitivity import NoiseBudget, min_length_passive_dispersive
from fastlight.spectrum import EnhancementSample, SpectrumTrace, SweepGrid

W0 = 2.0 * math.pi * 5.0e14
OMEGAS = (W0 - 1.0, W0, W0 + 1.0)

# each type with the arguments of one valid instance
VALUES = [
    (TaylorCubic, (1.0, -1e-16, 1e-30, W0)),
    (RingCavity, (LoopGeometry.circular(1.0), 1e3, W0)),
    (ShiftResult, (-1.0, 1.0, 2.0, ShiftedLinewidth(3.0, 0.5))),
    (ShiftedLinewidth, (3.0, 0.5, True)),
    (LoopGeometry, (math.pi, 2.0 * math.pi, 1.0)),
    (RotationState, (7.3e-5, 7.3e-5)),
    (SagnacPhase, (1e-21, 2e-6, 1e-21, 2e-6, 2e-13)),
    (ValueRange, (1e-2, 1e6, 33, "log")),
    (NoiseBudget, (1e-3, 1.0, None, 0.9)),
    (SweepGrid, (W0, 1e6, 101)),
    (SpectrumTrace, (OMEGAS, (0.5, 1.0, 0.5), W0, 2.0)),
    (EnhancementSample, (1.0, 99.0, 100.0, 158.7)),
]


@pytest.mark.parametrize("cls, args", VALUES, ids=[cls.__name__ for cls, _ in VALUES])
def test_a_value_type_is_immutable_and_compares_by_value(cls, args):
    value = cls(*args)
    # every field, and no other attribute, can be read but not set
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.note = "added"
    assert value == cls(*args)
    assert hash(value) == hash(cls(*args))
    assert value != value._replace(**{value._fields[-1]: "other"})
    fields = ", ".join(f"{name}={arg!r}" for name, arg in zip(value._fields, value))
    assert repr(value) == f"{cls.__name__}({fields})"


def test_a_cubic_index_is_the_medium_index_not_the_tuple_method():
    # the projections come before the tuple in the cubic's bases, so
    # `index` is n(omega) and not tuple.index
    assert TaylorCubic(1.5, 0.0, 0.0, W0).index(W0) == 1.5


CIRCLE = LoopGeometry.circular(1.0)
BUDGET = NoiseBudget(1e-3, 1.0)
# each refusal: the call that makes it, its error type and its message
REFUSALS = {
    "lorentzian-center": (lambda: LorentzianAbsorptive(1.0, 1.0, 0.0), ValueError, "line center must be positive"),
    "cad-center": (lambda: cad_tune(1.0, 0.0), ValueError, "line center must be positive"),
    "eta-linewidth": (lambda: enhancement_eta(0.0, 1.0), ValueError, "half linewidth must be positive"),
    "loop-radius": (
        lambda: LoopGeometry(math.pi, 2.0 * math.pi, radius=-1.0), ValueError, "loop radius must be positive",
    ),
    "sagnac-frequency": (
        lambda: vacuum_sagnac(CIRCLE, RotationState.from_geometry(7.3e-5, CIRCLE), 0.0),
        ValueError,
        "optical frequency must be positive",
    ),
    "photons-without-budget": (
        lambda: NoiseBudget(snr=10.0).photon_number(W0), ComputationError, "no photon budget in this noise model",
    ),
    "photon-frequency": (lambda: BUDGET.photon_number(0.0), ValueError, "frequency must be positive"),
    "dispersive-length-eta": (
        lambda: min_length_passive_dispersive(RingCavity(CIRCLE, 1e3, W0), BUDGET, 0.0),
        ValueError,
        "enhancement must be positive",
    ),
    "grid-center": (lambda: SweepGrid(-1.0, 1.0, 101), ValueError, "grid center must be positive"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_public_refusal_gives_its_own_message(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
