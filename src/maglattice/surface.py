"""Atom-surface effects for traps close to the chip.

Covers the non-retarded Van der Waals attraction (C3 coefficient, trap
shift, critical frequency), WKB tunneling through the barrier to the
surface, Johnson-noise spin-flip lifetimes of a conductive coating, the
oscillator/thermal length scales, and the tip field-enhancement factor.
Everything is a closed form, the WKB integral included (exact on the
linear interpolant of a sampled profile); a root-finding oracle backs the
linearized trap-shift formula.
"""

from dataclasses import dataclass

import numpy as np

from . import constants as const
from .atom import AtomState
from .errors import InputError
from .lattice import FourierExpansion, eval_field_arrays
from .traps import TrapReport


class TrapDestroyedError(ValueError):
    """Surface attraction removed the trapping minimum."""


@dataclass(frozen=True, eq=False)
class PotentialProfile1D:
    """Sampled 1-D potential V(z) and the particle energy E (all SI)."""

    z: np.ndarray  # m, strictly increasing
    V: np.ndarray  # J
    E: float  # J

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        V = np.asarray(self.V, dtype=float)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "V", V)
        if z.ndim != 1 or len(z) < 2 or len(z) != len(V):
            raise ValueError("z and V must be matching 1-D arrays")
        if np.any(np.diff(z) <= 0):
            raise ValueError("z samples must be strictly increasing")


@dataclass(frozen=True)
class MaterialParams:
    """Surface and coating properties used by the loss budget."""

    epsilon_factor: float = 0.85  # (eps_r - 1)/(eps_r + 1); 0.85 ~ silicon
    sigma: float = 45e6  # S/m, coating conductivity (gold)
    coating_t: float = 50e-9  # m, conductive coating thickness
    johnson_C0: float = 88e-6  # m/s, empirical spin-flip scaling constant

    def __post_init__(self):
        if not 0 < self.epsilon_factor <= 1:
            raise InputError("epsilon_factor must be in (0, 1]")
        if self.sigma <= 0 or self.coating_t <= 0 or self.johnson_C0 <= 0:
            raise InputError("material parameters must be positive")


@dataclass(frozen=True)
class SurfaceBudget:
    """Aggregated surface-loss figures for one trap."""

    C3: float  # J m^3
    z0: float  # m
    omega_z: float  # rad/s, frequency along the surface normal
    delta_zt: float  # m, Van der Waals trap shift (negative: toward surface)
    shift_linear_valid: bool
    omega_crit: float  # rad/s
    vdw_pass: bool  # omega_z > omega_crit
    log10_T: float  # WKB transmission exponent to the surface
    tunneling_negligible: bool
    ell_tunnel: float  # m, tunneling length at the trap's Ioffe field
    spin_flip_omega: float  # rad/s
    skin_depth: float  # m
    gamma_spinflip: float  # 1/s
    tau_johnson: float  # s
    epsilon_factor: float


def c3_coefficient(atom: AtomState, epsilon_factor: float) -> float:
    """Non-retarded Van der Waals coefficient of an alkali ground state,

        C3 = (3/16) (eps_r - 1)/(eps_r + 1) lambda_bar^3 hbar Gamma.

    The 3/16 is the image-dipole sum over the two D lines: 2/16 from D2 and
    1/16 from D1, both taken at the atom's (D2) lambda_bar and Gamma. Valid
    for distances small compared to lambda_bar; (eps_r-1)/(eps_r+1) is
    ~0.85 for silicon and ~1 for metals.
    """
    if not 0 < epsilon_factor <= 1:
        raise ValueError("epsilon_factor must be in (0, 1]")
    return (
        3.0 / 16.0 * epsilon_factor * atom.lambda_bar**3 * const.hbar * atom.gamma_nat
    )


def vdw_trap_shift(omega: float, z0: float, C3: float, atom: AtomState):
    """Lowest-order Van der Waals shift of a harmonic trap minimum,

        delta_z = -3 C3 / (m omega^2 z0^4).

    The exact minimum z_t (numeric_min_oracle) solves x (1 + x)^4 = shift/z0
    with x = (z_t - z0)/z0, so the relative error of this shift is exactly
    1 - (z_t/z0)^4 ~ 4 |shift|/z0: 10% at |shift|/z0 ~ 0.023. No minimum
    exists above |shift|/z0 = 256/3125 ~ 0.082.

    Returns (shift, linear_ok); linear_ok is False when |shift|/z0 >=
    256/3125, where the attraction has destroyed the minimum. It is a
    coarse flag: below that bound it stays True where the error already
    exceeds 10%.
    """
    if omega <= 0 or z0 <= 0:
        raise ValueError("omega and z0 must be positive")
    if z0 > 2 * atom.lambda_bar:
        raise ValueError(
            "retardation regime: z0 exceeds twice the reduced wavelength; "
            "the non-retarded C3 form does not apply"
        )
    shift = -3.0 * C3 / (atom.mass * omega**2 * z0**4)
    return shift, bool(abs(shift) / z0 < 256.0 / 3125.0)


def numeric_min_oracle(omega: float, z0: float, C3: float, atom: AtomState) -> float:
    """Exact minimum of V(z) = m omega^2 (z - z0)^2 / 2 - C3/z^3 by root finding.

    Solves V'(z) = m omega^2 (z - z0) + 3 C3 / z^4 = 0 on (0, z0]: a
    4096-point scan down from z0 brackets the trap-side root, and bisection
    narrows the bracket to 1e-18 m + 1e-15 z; the midpoint of the last
    bracket is returned. Used as the independent check of vdw_trap_shift.
    Raises TrapDestroyedError when the attraction has removed the minimum
    (omega below omega_crit scale).
    """
    if omega <= 0 or z0 <= 0:
        raise ValueError("omega and z0 must be positive")
    if C3 == 0:
        return z0

    def vprime(z):
        return atom.mass * omega**2 * (z - z0) + 3 * C3 / z**4

    # V'(z0) > 0; search downward for a sign change (the trap-side root)
    zs = np.linspace(z0, z0 * 1e-3, 4096)
    vals = vprime(zs)
    idx = np.nonzero(vals <= 0)[0]
    if len(idx) == 0:
        raise TrapDestroyedError("trap destroyed by surface attraction")
    lo, hi = zs[idx[0]], zs[idx[0] - 1]  # V'(lo) <= 0 < V'(hi)
    while hi - lo > 1e-18 + 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if vprime(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


def omega_crit(z0: float, C3: float, atom: AtomState):
    """Critical trap frequency below which the surface attraction wins,

        omega_crit = sqrt(2 (1 + sqrt(6))) * sqrt(3 C3 / (m z0^5)).

    Returns (omega_crit, bounds) where bounds maps the weaker estimates to
    their values: 'shift_small' = sqrt(3 C3/(m z0^5)) (trap shift small) and
    'curvature' = 2x that (V'' > 0 at z0). The strict-to-weakest ratio is
    sqrt(2 (1 + sqrt(6))) ~ 2.63. Raises InputError when m z0^5 is not
    finite and positive, as when a tiny mass makes it underflow.
    """
    if z0 <= 0:
        raise ValueError("z0 must be positive")
    scale = atom.mass * z0**5
    if not 0 < scale < np.inf:
        raise InputError(f"mass * z0^5 must be finite and > 0 (got {scale:g} kg m^5)")
    base = np.sqrt(3.0 * C3 / scale)
    strict = np.sqrt(2.0 * (1.0 + np.sqrt(6.0))) * base
    return float(strict), {"shift_small": float(base), "curvature": float(2.0 * base)}


def wkb_log_transmission(profile: PotentialProfile1D, atom: AtomState):
    """log10 of the WKB transmission through the classically forbidden region,

        T = exp(-2 integral sqrt(2 m (V - E)) / hbar dz).

    V is the linear interpolant of the samples, so the integral is exact:
    on a segment where u = V - E runs linearly from u0 to u1, with a, b the
    square roots of max(u0, 0), max(u1, 0), the forbidden part of length L
    (dz, or dz (a^2 + b^2) / |u1 - u0| past a turning point) contributes
    (2/3) L (a^2 + ab + b^2) / (a + b). This form stays accurate where
    u1 - u0 is a few ulps, unlike (u1^1.5 - u0^1.5) / (u1 - u0).
    Returns (log10_T, flags); log10_T = 0 with flags['no_barrier'] when V
    never exceeds E. Multiple forbidden intervals contribute additively and
    set flags['multiple_barriers'].
    """
    u = profile.V - profile.E
    above = u > 0
    if not np.any(above):
        return 0.0, {"no_barrier": True, "multiple_barriers": False}

    r = np.sqrt(np.clip(u, 0.0, None))
    a, b = r[:-1], r[1:]
    L = np.diff(profile.z)
    turn = above[:-1] != above[1:]
    L[turn] *= (a * a + b * b)[turn] / np.abs(np.diff(u)[turn])
    ab = a + b
    seg = np.divide(a * a + a * b + b * b, ab, out=np.zeros_like(ab), where=ab > 0)
    total = 2.0 / 3.0 * np.sqrt(2.0 * atom.mass) / const.hbar * np.sum(L * seg)
    log10_T = -2.0 * total * np.log10(np.e)
    rising_edges = int(above[0]) + np.count_nonzero(above[1:] & ~above[:-1])
    return float(log10_T), {
        "no_barrier": False,
        "multiple_barriers": bool(rising_edges > 1),
    }


def tunneling_length(B: float, atom: AtomState) -> float:
    """Length over which the WKB transmission drops by e in a field B,

        ell = hbar / sqrt(8 m muB B),

    with the convention gF mF = 1 (the Zeeman energy is muB B). The
    proportionality constant hbar / sqrt(8 m muB) is ~1 nm sqrt(mT) for Rb.
    """
    if B <= 0:
        raise ValueError("field must be positive")
    return const.hbar / np.sqrt(8.0 * atom.mass * const.muB * B)


def skin_depth(omega: float, sigma: float) -> float:
    """Electromagnetic skin depth sqrt(2 / (mu0 omega sigma))."""
    if omega <= 0 or sigma <= 0:
        raise ValueError("omega and sigma must be positive")
    return np.sqrt(2.0 / (const.mu0 * omega * sigma))


def johnson_rate_scaled(d: float, t: float, C0: float = MaterialParams.johnson_C0):
    """Johnson-noise spin-flip rate scaled from measured chip lifetimes,

        Gamma = (4 + 8/3)^(-1) C0 / (d (1 + d/t)),

    with d the atom-coating distance, t the coating thickness and C0 a
    copper-class constant ~88 um/s (interpreting the published "88 us" as a
    speed, the only reading that is dimensionally a rate and reproduces the
    quoted 0.023 s lifetime). Returns (rate 1/s, lifetime s).
    """
    if d <= 0 or t <= 0 or C0 <= 0:
        raise ValueError("d, t, C0 must be positive")
    rate = C0 / ((4.0 + 8.0 / 3.0) * d * (1.0 + d / t))
    return float(rate), float(1.0 / rate)


@dataclass(frozen=True)
class JohnsonSrhResult:
    tau: float  # s
    unit_convention: str
    factor_vs_16ms: float  # tau over the 16 ms reference figure
    note: str = "unit convention of the printed constant is unclear"


def johnson_lifetime_srh(
    omega: float, skin: float, d: float, h: float, unit_convention: str = "si"
) -> JohnsonSrhResult:
    """Alternative theory-side lifetime estimate,

        tau = (8/3)^2 (3e22 / 1.7e6) (omega/c)^3 skin^2 d^2 / h^2,

    evaluated exactly as printed. The units of the 3e22/1.7e6 constant are
    not stated; 'si' keeps all lengths in meters, 'micrometers' converts
    lengths (skin, d, h and 1/(omega/c)) to micrometers first. Neither
    convention reproduces the quoted 16 ms for the reference insertions, so
    the result carries the discrepancy factor instead of being trusted.
    """
    if min(omega, skin, d, h) <= 0:
        raise ValueError("all inputs must be positive")
    if unit_convention == "si":
        scale = 1.0
    elif unit_convention == "micrometers":
        scale = 1e6
    else:
        raise ValueError("unit_convention must be 'si' or 'micrometers'")
    inv_len = omega / const.c / scale  # 1/m or 1/um
    tau = (
        (8.0 / 3.0) ** 2
        * (3e22 / 1.7e6)
        * inv_len**3
        * (skin * scale) ** 2
        * (d * scale) ** 2
        / (h * scale) ** 2
    )
    return JohnsonSrhResult(
        tau=float(tau),
        unit_convention=unit_convention,
        factor_vs_16ms=float(tau / 16e-3),
    )


def oscillator_length(omega: float, atom: AtomState) -> float:
    """Harmonic oscillator length sqrt(hbar / (2 m omega)), the rms ground
    state position spread."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return np.sqrt(const.hbar / (2.0 * atom.mass * omega))


def thermal_rms_size(T: float, omega: float, atom: AtomState) -> float:
    """Thermal rms size sqrt(kB T / (m omega^2)) of a trapped ensemble."""
    if T < 0:
        raise ValueError("temperature must be >= 0")
    if omega <= 0:
        raise ValueError("omega must be positive")
    return np.sqrt(const.kB * T / atom.mass) / omega


def tip_field_enhancement(h: float, r: float) -> float:
    """Electric field enhancement ~ h/r at distance r from a post of height h."""
    if not h > r > 0:
        raise ValueError("need h > r > 0")
    return h / r


_PROFILE_Z_FLOOR = 1e-9  # m, lowest height of the vertical profile
_PROFILE_SAMPLES = 2048


def vertical_profile(
    f: FourierExpansion,
    trap: TrapReport,
    atom: AtomState,
    C3: float,
) -> PotentialProfile1D:
    """V(z) = gF mF muB |B(x0, y0, z)| - C3/z^3 on the vertical line through
    the trap, sampled at _PROFILE_SAMPLES heights from _PROFILE_Z_FLOOR, with
    E = V(z0) + hbar omega_z / 2 (zero point along z), at the trap's bias."""
    x0, y0, z0 = trap.r0
    z = np.linspace(_PROFILE_Z_FLOOR, max(4 * z0, z0 + 2e-7), _PROFILE_SAMPLES)
    pts = np.column_stack([np.full_like(z, x0), np.full_like(z, y0), z])
    _, _, B_mag, _, _, _ = eval_field_arrays(f, trap.bias, pts, order=0)
    V = atom.mu * B_mag - C3 / z**3
    # frequency along the surface normal: project principal axes on z
    iz = int(np.argmax(np.abs(trap.axes[2, :])))
    omega_z = 2 * np.pi * trap.freqs[iz]
    Vmin = float(np.interp(z0, z, V))
    return PotentialProfile1D(z=z, V=V, E=Vmin + 0.5 * const.hbar * omega_z)


def surface_budget(
    f: FourierExpansion,
    trap: TrapReport,
    atom: AtomState,
    material: MaterialParams = MaterialParams(),
) -> SurfaceBudget:
    """Assemble the complete surface-loss budget for one trap.

    The spin-flip transition frequency for the Johnson-noise entries is
    gF muB B_IP / hbar (adjacent-mF splitting at the trap bottom).
    """
    z0 = float(trap.r0[2])
    C3 = c3_coefficient(atom, material.epsilon_factor)

    iz = int(np.argmax(np.abs(trap.axes[2, :])))
    omega_z = 2 * np.pi * float(trap.freqs[iz])
    if omega_z <= 0:
        raise ValueError("trap has no confinement along the surface normal")

    w_crit, _ = omega_crit(z0, C3, atom)
    vdw_pass = omega_z > w_crit
    shift, lin_ok = vdw_trap_shift(omega_z, z0, C3, atom)

    profile = vertical_profile(f, trap, atom, C3)
    log10_T, wkb_flags = wkb_log_transmission(profile, atom)

    spin_flip_omega = atom.gF * const.muB * trap.B_IP / const.hbar
    delta = skin_depth(spin_flip_omega, material.sigma)
    rate, tau = johnson_rate_scaled(z0, material.coating_t, material.johnson_C0)

    return SurfaceBudget(
        C3=C3,
        z0=z0,
        omega_z=omega_z,
        delta_zt=shift,
        shift_linear_valid=lin_ok,
        omega_crit=w_crit,
        vdw_pass=bool(vdw_pass),
        log10_T=log10_T,
        tunneling_negligible=bool(wkb_flags["no_barrier"] is False and log10_T < -30),
        ell_tunnel=tunneling_length(max(trap.B_IP, 1e-12), atom),
        spin_flip_omega=float(spin_flip_omega),
        skin_depth=float(delta),
        gamma_spinflip=rate,
        tau_johnson=tau,
        epsilon_factor=material.epsilon_factor,
    )
