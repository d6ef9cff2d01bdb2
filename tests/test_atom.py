from dataclasses import replace

import numpy as np
import pytest

from maglattice import constants as const
from maglattice.atom import AtomState, default_rb87, field_to_temperature
from maglattice.errors import InputError


def test_default_rb87_constants():
    rb = default_rb87()
    assert rb.gF == 0.5
    assert rb.mF == 2
    assert rb.gF * rb.mF == 1.0
    assert rb.mass == 1.44316e-25
    assert rb.lambda_bar == 124e-9
    assert rb.gamma_nat == pytest.approx(2 * np.pi * 6e6, rel=1e-12)
    assert rb.a_s == 5.3e-9


def test_low_field_seeker_required():
    rb = default_rb87()
    with pytest.raises(ValueError, match="gF\\*mF"):
        AtomState(
            mass=rb.mass,
            gF=-0.5,
            mF=2,
            a_s=rb.a_s,
            lambda_bar=rb.lambda_bar,
            gamma_nat=rb.gamma_nat,
        )


def test_moment_below_the_smallest_normal_double_rejected():
    # gF mF muB = 5.9e-323 J/T: mu B / hbar underflows to 0 at trap fields
    rb = default_rb87()
    with pytest.raises(InputError, match="muB"):
        replace(rb, gF=3.1e-300)
    assert replace(rb, gF=2.3e-308 / (2 * const.muB)).mu >= 2.3e-308


@pytest.mark.parametrize("field", ["mass", "a_s", "lambda_bar", "gamma_nat"])
def test_positive_fields_required(field):
    kwargs = dict(
        mass=1.44316e-25, gF=0.5, mF=2, a_s=5.3e-9, lambda_bar=124e-9, gamma_nat=3.8e7
    )
    kwargs[field] = 0.0
    with pytest.raises(ValueError):
        AtomState(**kwargs)


def test_field_to_temperature_zero(rb87):
    assert field_to_temperature(0.0, rb87) == 0.0


def test_field_to_temperature_values(rb87):
    # gF*mF = 1: T = muB * B / kB; 1 mT -> 671.7 uK (so 0.1 mT -> 67.2 uK)
    assert field_to_temperature(1e-3, rb87) == pytest.approx(671.714e-6, rel=1e-4)
    assert field_to_temperature(0.1e-3, rb87) == pytest.approx(67.17e-6, rel=1e-3)
    # linear scaling: the 0.29 mT trap depth maps to 0.29x the 1 mT value
    assert field_to_temperature(0.29e-3, rb87) == pytest.approx(
        0.29 * field_to_temperature(1e-3, rb87), rel=1e-12
    )


def test_field_negative_rejected(rb87):
    with pytest.raises(ValueError):
        field_to_temperature(-1e-3, rb87)


def test_energy_frequency_conventions():
    # E = hbar omega and E = h f differ by 2 pi
    assert const.h == pytest.approx(2 * np.pi * const.hbar, rel=1e-12)
