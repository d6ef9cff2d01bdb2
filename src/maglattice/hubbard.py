"""Bose-Hubbard parameter scaling versus lattice period and depth.

U and J for a sinusoidal lattice come from the standard fitted scaling laws

    J/E_R = 1.43 s^0.98 exp(-2.07 sqrt(s)),
    U/E_R = 5.97 (a_s / lambda) s^0.88,  lambda = 2 d,

valid for s = V0/E_R roughly in [1, 50]. The J fit is cross-checked against
an exact 1-D plane-wave band-structure diagonalization (J = bandwidth / 4).
"""

from dataclasses import dataclass

import numpy as np

from . import constants as const
from .atom import AtomState
from .errors import InputError

_FIT_S_RANGE = (1.0, 50.0)
_J_FIT = (1.43, 0.98, 2.07)
_U_FIT = (5.97, 0.88)


@dataclass(frozen=True)
class HubbardParams:
    d: float  # lattice period, m
    s: float  # lattice depth V0 / E_R
    E_R: float  # J
    U: float  # J
    J_tun: float  # J

    @property
    def superexchange(self) -> float:
        """J_tun^2 / U, J."""
        return self.J_tun * self.J_tun / self.U

    @property
    def U_over_J(self) -> float:
        return self.U / self.J_tun


@dataclass(frozen=True, eq=False)
class BandResult:
    s: float
    n_plane_waves: int
    quasimomentum: np.ndarray  # units of pi/d, over the Brillouin zone
    lowest_band: np.ndarray  # J, same length
    J_band: float  # bandwidth / 4, J
    weak_lattice: bool  # True for s < 2, where tight binding is meaningless


def _check_period(d):
    """Raise InputError unless d and d*d are finite and > 0 (so a_s / 2d is
    too): a period that passes 0 < d < inf alone (1e-309 m, 1e291 m) is an
    input error, not an unreachable Mott depth."""
    if not (0 < d < np.inf and 0 < d * d < np.inf):
        raise InputError(f"lattice period must be finite and > 0, and so must its square (got {d:g} m)")


def recoil_energy(d: float, atom: AtomState) -> float:
    """Lattice recoil E_R = (pi hbar)^2 / (2 m d^2).

    Raises InputError unless d passes _check_period and E_R is finite and
    > 0: for Rb-87, 2 m d^2 underflows to 0 below about d = 1.5e-150 m, and
    E_R underflows to 0 above about d = 1e154 m.
    """
    _check_period(d)
    two_m_d2 = 2 * atom.mass * d * d
    er = (np.pi * const.hbar) ** 2 / two_m_d2 if two_m_d2 > 0 else np.inf
    if not 0 < er < np.inf:
        raise InputError(f"lattice period {d:g} m gives a recoil energy of {er:g} J; it must be finite and > 0")
    return er


def _j_over_er(s: float) -> float:
    a, p, b = _J_FIT
    return a * s**p * np.exp(-b * np.sqrt(s))


def _u_over_er(s: float, d: float, atom: AtomState) -> float:
    a, p = _U_FIT
    lam = 2 * d
    return a * (atom.a_s / lam) * s**p


def hubbard_sinusoidal(d: float, s: float, atom: AtomState) -> HubbardParams:
    """U, J and J^2/U for a sinusoidal lattice of period d and depth s*E_R."""
    lo, hi = _FIT_S_RANGE
    if not lo <= s <= hi:
        raise ValueError(f"fit out of range: s = {s:g} not in [{lo:g}, {hi:g}]")
    er = recoil_energy(d, atom)
    J = _j_over_er(s) * er
    U = _u_over_er(s, d, atom) * er
    return HubbardParams(
        d=d,
        s=s,
        E_R=er,
        U=U,
        J_tun=J,
    )


def mott_depth(d: float, atom: AtomState, j_over_u: float = 0.06) -> float:
    """Depth s at which J/U reaches the given ratio (default: the 2-D
    square-lattice Mott transition value 0.06).

    J/U is strictly decreasing in s over the fit range, so the root is
    unique; solved by bisection to 1e-4 in s (the midpoint of the last
    bracket, within 5e-5 of the root).
    """
    _check_period(d)
    if not 0.001 < j_over_u < 1:
        raise InputError(f"j_over_u must be in (0.001, 1) (got {j_over_u!r})")
    lo, hi = _FIT_S_RANGE

    def g(s):
        return _j_over_er(s) / _u_over_er(s, d, atom) - j_over_u

    if np.sign(g(lo)) * np.sign(g(hi)) > 0:  # a product of the values can overflow
        raise ValueError("target ratio unreachable within the fit range")
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_N_Q = 65  # quasimomenta sampled across the Brillouin zone


def band_J_1d(s: float, n_plane_waves: int = 41) -> BandResult:
    """Tunneling energy from exact 1-D band structure, in units of E_R.

    Diagonalizes the single-particle Hamiltonian for V(x) = s E_R
    sin^2(pi x / d) in a plane-wave basis over _N_Q quasimomenta (odd, so the
    band center and edges are sampled exactly) and takes
    J = (max - min of the lowest band) / 4. Output energies are in units of
    E_R (multiply by recoil_energy(d, atom) for joules).

    Raises RuntimeError("unconverged") if doubling the basis moves J by
    more than 0.1%.
    """
    if n_plane_waves % 2 == 0 or n_plane_waves < 11:
        raise ValueError("n_plane_waves must be odd and >= 11")

    def lowest_band(npw):
        half = npw // 2
        g = 2.0 * np.arange(-half, half + 1)  # reciprocal vectors, units pi/d
        q = np.linspace(-1.0, 1.0, _N_Q)
        band = np.empty(_N_Q)
        off = -s / 4.0 * np.eye(npw, k=1) - s / 4.0 * np.eye(npw, k=-1)
        for i, qi in enumerate(q):
            H = np.diag((qi + g) ** 2 + s / 2.0) + off
            band[i] = np.linalg.eigvalsh(H)[0]
        return q, band

    q, band = lowest_band(n_plane_waves)
    J = (band.max() - band.min()) / 4.0
    _, band2 = lowest_band(2 * n_plane_waves + 1)
    J2 = (band2.max() - band2.min()) / 4.0
    if abs(J2 - J) > 1e-3 * abs(J2):
        raise RuntimeError(
            f"unconverged: J changes by {abs(J2 - J) / abs(J2):.2%} on basis doubling"
        )
    return BandResult(
        s=s,
        n_plane_waves=n_plane_waves,
        quasimomentum=q,
        lowest_band=band,
        J_band=float(J),
        weak_lattice=bool(s < 2),
    )


def onsite_U_gaussian(freqs, atom: AtomState) -> float:
    """On-site interaction from the Gaussian ground state of a 3-D harmonic trap.

    U = (4 pi hbar^2 a_s / m) * (2 pi)^(-3/2) / (l_x l_y l_z) with
    l_i = sqrt(hbar / (m omega_i)); freqs are ordinary frequencies in Hz.
    """
    freqs = np.asarray(freqs, dtype=float)
    if np.any(freqs <= 0):
        raise ValueError("all trap frequencies must be positive")
    omega = 2 * np.pi * freqs
    lengths = np.sqrt(const.hbar / (atom.mass * omega))
    g3d = 4 * np.pi * const.hbar**2 * atom.a_s / atom.mass
    return float(g3d * (2 * np.pi) ** (-1.5) / np.prod(lengths))

