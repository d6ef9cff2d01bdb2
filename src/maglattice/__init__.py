"""maglattice: design and analysis of magnetic-lattice atom chips.

A patterned, out-of-plane magnetized film plus a uniform bias field is
turned into trap positions, frequencies, depths and barriers; on top sit
Bose-Hubbard parameter scaling, an atom-surface loss budget (Van der Waals,
WKB tunneling, Johnson noise) and a stochastic three-body-loss statistics
simulator.
"""

__version__ = "0.1.0"

from . import constants, patterns
from .atom import AtomState, default_rb87, field_to_temperature
from .errors import InputError
from .fano import TrajectoryEnsemble, fano_theory, simulate_three_body
from .hubbard import (
    BandResult,
    HubbardParams,
    band_J_1d,
    hubbard_sinusoidal,
    mott_depth,
    onsite_U_gaussian,
    recoil_energy,
)
from .lattice import (
    FieldArrays,
    FourierExpansion,
    LatticeGeometry,
    MagnetizationPattern,
    NoStructureError,
    dipole_sum_oracle,
    eval_field_arrays,
    eval_potential,
    field_on_cell_grid,
    fourier_from_pattern,
)
from .surface import (
    MaterialParams,
    PotentialProfile1D,
    SurfaceBudget,
    c3_coefficient,
    johnson_rate_scaled,
    numeric_min_oracle,
    omega_crit,
    oscillator_length,
    skin_depth,
    surface_budget,
    thermal_rms_size,
    tunneling_length,
    vdw_trap_shift,
    wkb_log_transmission,
)
from .traps import (
    BiasField,
    MajoranaError,
    SaddleError,
    TrapReport,
    TuneObjective,
    TuneUnreachableError,
    barrier_heights,
    characterize_trap,
    find_trap_minima,
    frequencies_from_hessian,
    transport_trajectory,
    tune_bias,
)
