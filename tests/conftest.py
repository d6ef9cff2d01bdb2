import numpy as np
import pytest

from maglattice.atom import default_rb87
from maglattice.lattice import FourierExpansion, LatticeGeometry, fourier_from_pattern
from maglattice.patterns import z_edge_band


@pytest.fixture(scope="session")
def rb87():
    return default_rb87()


def single_mode_expansion(period=1e-6, prefactor=2.105e-8, C=1.0, S=0.0):
    """One +/- mode pair along a1: the analytically solvable stripe guide.

    The lattice part of the field has magnitude b(z) = prefactor * k *
    sqrt(C^2+S^2) * exp(-k z), a vector rotating with x at fixed |b|.
    """
    geom = LatticeGeometry.from_primitives([period, 0.0], [0.0, period])
    return FourierExpansion(
        geometry=geom,
        n=np.array([1]),
        m=np.array([0]),
        C=np.array([float(C)]),
        S=np.array([float(S)]),
        prefactor=prefactor,
    )


@pytest.fixture
def stripe_expansion():
    return single_mode_expansion()


@pytest.fixture(scope="session")
def tuner_lattice():
    """The z-edge band (notch 0.10) the bias tuner is tested on."""
    return fourier_from_pattern(z_edge_band(1e-6, band_frac=0.5, notch_frac=0.10, n=32), max_order=5)
