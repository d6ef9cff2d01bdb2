"""Atomic species data and a small set of unit conversions.

The conversions are public helpers for scripts and analysis; no module of
the package calls them. All are linear and invertible; round trips are
identity to machine precision.
"""

import sys
from dataclasses import dataclass

from . import constants as const
from .errors import InputError


@dataclass(frozen=True)
class AtomState:
    """A trappable atom in a specific Zeeman sublevel.

    Attributes:
        mass: atomic mass (kg).
        gF: Lande g-factor of the hyperfine level.
        mF: magnetic quantum number.
        a_s: s-wave scattering length (m).
        lambda_bar: reduced wavelength of the dominant optical transition (m).
        gamma_nat: natural linewidth of that transition, angular (rad/s).

    Only low-field-seeking states (gF*mF > 0) can be held in a static
    magnetic trap, so the constructor rejects gF*mF <= 0. It also rejects a
    moment gF*mF*muB below the smallest normal double, where mu B / hbar
    underflows to 0 and a trap's Larmor ratio reads infinite.
    """

    mass: float
    gF: float
    mF: float
    a_s: float
    lambda_bar: float
    gamma_nat: float

    def __post_init__(self):
        if self.mass <= 0:
            raise InputError("mass must be positive")
        if self.a_s <= 0:
            raise InputError("a_s must be positive")
        if self.lambda_bar <= 0:
            raise InputError("lambda_bar must be positive")
        if self.gamma_nat <= 0:
            raise InputError("gamma_nat must be positive")
        if self.gF * self.mF <= 0:
            raise InputError(
                "gF*mF must be > 0 for a magnetically trappable "
                "(low-field-seeking) state"
            )
        if self.mu < sys.float_info.min:
            raise InputError(f"gF*mF*muB must be at least {sys.float_info.min:g} J/T (got {self.mu:g})")

    @property
    def mu(self) -> float:
        """Effective magnetic moment gF*mF*muB (J/T)."""
        return self.gF * self.mF * const.muB


def default_rb87() -> AtomState:
    """Rb-87 in |F=2, mF=2>.

    The scattering length is not pinned by the transition data; 5.3 nm is
    adopted so that the 10.7 nm oscillator length of a 500 kHz trap is twice
    a_s. It is a plain field, override it if you need a different value.
    """
    return AtomState(
        mass=1.44316e-25,  # kg
        gF=0.5,
        mF=2,
        a_s=5.3e-9,  # m
        lambda_bar=124e-9,  # m (D2 line, lambda / 2 pi)
        gamma_nat=2 * 3.141592653589793 * 6e6,  # rad/s
    )


def field_to_temperature(B: float, atom: AtomState) -> float:
    """Zeeman energy of a field magnitude B (T), expressed as a temperature (K)."""
    if B < 0:
        raise ValueError("field magnitude must be >= 0")
    return atom.mu * B / const.kB


def temperature_to_field(T: float, atom: AtomState) -> float:
    """Inverse of field_to_temperature."""
    if T < 0:
        raise ValueError("temperature must be >= 0")
    return T * const.kB / atom.mu


def energy_to_angular_frequency(E: float) -> float:
    """E = hbar * omega."""
    return E / const.hbar


def angular_frequency_to_energy(omega: float) -> float:
    return const.hbar * omega


def energy_to_frequency(E: float) -> float:
    """E = h * f."""
    return E / const.h


def frequency_to_energy(f: float) -> float:
    return const.h * f


def energy_to_temperature(E: float) -> float:
    """E = kB * T."""
    return E / const.kB


def temperature_to_energy(T: float) -> float:
    return const.kB * T
