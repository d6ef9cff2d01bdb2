"""Magnetic field of a periodically patterned, out-of-plane magnetized film.

The film is represented by a truncated Fourier series of the magnetic scalar
potential,

    phi(r) = P * sum_nm exp(-k_nm z) [C_nm cos(k_nm . rho) + S_nm sin(k_nm . rho)],

with P = mu0 * h * M0 / 2 (tesla meter) so that B = B_ext - grad(phi) comes
out in tesla. Each term solves Laplace's equation exactly, so potential,
field, Jacobian and the Hessian of |B| are all available analytically.

A brute-force dipole sum over occupied grid cells is included as an
independent cross-check of the expansion.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import constants as const
from .errors import InputError


class NoStructureError(InputError):
    """Raised when a pattern has no spatial structure (uniform occupancy)."""


class BelowFilmError(InputError):
    """Raised when a field evaluation point is not above the film (z <= 0)."""


@dataclass(frozen=True, eq=False)
class LatticeGeometry:
    """Primitive lattice vectors a1, a2 (m) and reciprocals K1, K2 (rad/m).

    K1, K2 are derived from a1, a2 and satisfy Ki . aj = 2 pi delta_ij.
    """

    a1: np.ndarray
    a2: np.ndarray
    K1: np.ndarray = field(init=False)
    K2: np.ndarray = field(init=False)

    @classmethod
    def from_primitives(cls, a1, a2) -> "LatticeGeometry":
        return cls(a1, a2)

    def __post_init__(self):
        a1 = np.asarray(self.a1, dtype=float)
        a2 = np.asarray(self.a2, dtype=float)
        if abs(a1[0] * a2[1] - a1[1] * a2[0]) <= 0.0:
            raise InputError("a1, a2 must be linearly independent")
        # rows of 2*pi*inv([a1; a2]) transposed give K1, K2
        K = 2 * np.pi * np.linalg.inv(np.array([a1, a2])).T
        for name, value in (("a1", a1), ("a2", a2), ("K1", K[0]), ("K2", K[1])):
            object.__setattr__(self, name, value)

    @property
    def cell_area(self) -> float:
        return abs(self.a1[0] * self.a2[1] - self.a1[1] * self.a2[0])

    @cached_property
    def period(self) -> float:
        """Longest primitive vector, used as the generic length scale."""
        return max(float(np.hypot(*self.a1)), float(np.hypot(*self.a2)))


def _distinct(geom, pts):
    """Classes of points equal modulo lattice translations (merge radius
    1e-3 of the period). Returns (reps, cls): one home-cell representative
    per class, the member with smallest (z, x, y), sorted by (z, x, y); and
    the index into reps of each point.

    Classes form greedily in input order: a point joins the first
    representative within the radius (minimum image) and replaces it if
    smaller, or starts a class. Each point is tested against the current
    representatives only, so no (n, n) array is built. The loop runs on
    Python floats and takes, in order, the steps of numpy's elementwise
    ones: a difference less its round-half-even, the two products, the
    square root of the summed squares (np.linalg.norm) and np.hypot."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    n = len(pts)
    A = np.array([geom.a1, geom.a2]).T
    # a stack of one-point solves and products gives each point the bits of
    # its own call; a multi-RHS solve or an einsum is 1 ulp off, and the
    # representatives are reported
    A_n = np.broadcast_to(A, (n, 2, 2))
    frac = np.linalg.solve(A_n, pts[:, :2, None]) % 1.0
    home = np.column_stack([(A_n @ frac)[:, :, 0], pts[:, 2]])
    merge_tol = 1e-3 * geom.period
    (a1x, a1y), (a2x, a2y) = geom.a1.tolist(), geom.a2.tolist()
    # flat lists: a list of lists here raised the peak RSS of a tune-bias
    # run by 0.1 MB
    fx, fy = frac[:, 0, 0].tolist(), frac[:, 1, 0].tolist()
    hx, hy, hz = home.T.tolist()
    reps, cls = [], np.empty(n, dtype=int)
    for p in range(n):
        for i, q in enumerate(reps):
            dx = fx[q] - fx[p]
            dx -= round(dx)
            dy = fy[q] - fy[p]
            dy -= round(dy)
            ex, ey = dx * a1x + dy * a2x, dx * a1y + dy * a2y
            if np.hypot(math.sqrt(ex * ex + ey * ey), hz[q] - hz[p]) < merge_tol:
                if (hz[p], hx[p], hy[p]) < (hz[q], hx[q], hy[q]):
                    reps[i] = p
                break
        else:
            i = len(reps)
            reps.append(p)
        cls[p] = i
    # a Python sort: an np.lexsort call here raised the peak RSS of a
    # surface run by 0.1-0.5 MB
    order = sorted(range(len(reps)), key=lambda i: (hz[reps[i]], hx[reps[i]], hy[reps[i]]))
    return [home[reps[i]] for i in order], np.argsort(order)[cls]


@dataclass(frozen=True, eq=False)
class MagnetizationPattern:
    """Binary occupancy of one unit cell of film.

    occupancy[i, j] = 1 means film present on the cell-center at fractional
    coordinates ((i + 1/2)/Nx, (j + 1/2)/Ny) in the (a1, a2) basis.
    """

    geometry: LatticeGeometry
    occupancy: np.ndarray  # (Nx, Ny) of 0/1
    M0: float  # A/m, out of plane
    film_h: float  # m

    def __post_init__(self):
        occ = np.asarray(self.occupancy)
        if occ.ndim != 2 or occ.shape[0] < 2 or occ.shape[1] < 2:
            raise InputError(f"occupancy must be a 2-D grid with Nx, Ny >= 2 (got shape {occ.shape})")
        if not np.all((occ == 0) | (occ == 1)):
            raise InputError("occupancy entries must be 0 or 1")
        if self.M0 <= 0:
            raise InputError("M0 must be positive")
        if self.film_h <= 0:
            raise InputError("film thickness must be positive")


@dataclass(frozen=True, eq=False)
class FourierExpansion:
    """Truncated mode list of the scalar potential, at least one mode long.

    One representative per +/- mode pair is stored; the (-n, -m) partner
    carries (C, -S) and is accounted for implicitly, i.e. the sum over the
    stored modes of C cos + S sin reproduces the zero-mean pattern.
    """

    geometry: LatticeGeometry
    n: np.ndarray  # integer index along K1
    m: np.ndarray  # integer index along K2
    C: np.ndarray
    S: np.ndarray
    prefactor: float  # mu0 * film_h * M0 / 2, tesla meter
    k_vec: np.ndarray = field(init=False)  # (nmode, 2) rad/m, n K1 + m K2
    k_mag: np.ndarray = field(init=False)  # (nmode,) rad/m, |k_vec|

    def __post_init__(self):
        if not len(self.n):
            raise NoStructureError("pattern has no spatial structure")
        if np.any((np.asarray(self.n) == 0) & (np.asarray(self.m) == 0)):
            raise ValueError("the (0, 0) mode contributes no field and is excluded")
        g = self.geometry
        k_vec = np.outer(self.n, g.K1) + np.outer(self.m, g.K2)
        k_mag = np.linalg.norm(k_vec, axis=1)
        # |k| underflows to 0 when a primitive vector is near the float limit
        # (a1 = 3.1e291 m), and the search, the saddle graph and the tuner
        # divide by it
        ok = (0 < k_mag) & (k_mag < np.inf)
        if not ok.all():
            raise InputError(f"every retained wavenumber must be finite and > 0 (got {k_mag[~ok][0]:g} rad/m)")
        object.__setattr__(self, "k_vec", k_vec)
        object.__setattr__(self, "k_mag", k_mag)

    @property
    def nmodes(self) -> int:
        return len(self.n)

    @property
    def k_min(self) -> float:
        """Smallest retained wavenumber; sets the field decay length 1/k_min."""
        return float(np.min(self.k_mag))

    @cached_property
    def _kernel_tables(self):
        """(even, odd, scale): the (M, 19) derivative table P sign prod(k) in
        _DERIVS order, split at _N_EVEN into its cos-fed and sin-fed columns,
        and the per-mode weights k |C + iS| of the local field scale.

        Built at the first evaluation and kept on the instance; a copy made
        by dataclasses.replace starts without it and builds its own.
        """
        k = np.column_stack([self.k_vec, self.k_mag, np.ones(self.nmodes)])
        table = self.prefactor * _SIGN * k[:, _DERIVS[:, 0]] * k[:, _DERIVS[:, 1]] * k[:, _DERIVS[:, 2]]
        return table[:, :_N_EVEN], table[:, _N_EVEN:], self.k_mag * np.hypot(self.C, self.S)


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Field, Jacobian and |B| Hessian at one point.

    hessian_valid is False at a field zero (Majorana point), where the
    Hessian of |B| is undefined; the array is then all-NaN by convention.
    """

    r: np.ndarray
    B: np.ndarray
    grad: np.ndarray  # dB_i/dr_j
    B_mag: float
    grad_mag: np.ndarray  # grad of |B|
    hessian_mag: np.ndarray
    hessian_valid: bool


def _representative_indices(order_x: int, order_y: int):
    """Mode indices (n, m), one per +/- pair, excluding (0, 0)."""
    pairs = []
    for m in range(1, order_y + 1):
        pairs.append((0, m))
    for n in range(1, order_x + 1):
        for m in range(-order_y, order_y + 1):
            pairs.append((n, m))
    return pairs


def fourier_from_pattern(
    pattern: MagnetizationPattern,
    threshold: float = 1e-4,
    max_order: int = 16,
    thickness_correction: bool = False,
) -> FourierExpansion:
    """Fourier-expand the normalized occupancy of a pattern.

    C and S are the real cosine/sine coefficients of the occupancy with its
    mean removed (the mean lands in the discarded (0, 0) term). They are
    computed by direct double-sum DFT over the cell-center samples, which is
    exact for the sampled pattern and cheap at desk scale.

    Args:
        threshold: modes with sqrt(C^2 + S^2) below this are dropped.
        max_order: retain |n|, |m| <= max_order. Orders are additionally
            clamped below the grid Nyquist limit (|n| < Nx/2, |m| < Ny/2)
            since anything beyond is an alias of a lower mode.
        thickness_correction: multiply each mode by (1 - exp(-k h)) / (k h),
            the finite-thickness correction to the thin-film limit. Off by
            default; the thin-film form is the documented convention.

    Raises:
        NoStructureError: from FourierExpansion, if no mode survives
            (a uniform pattern, or every amplitude below threshold).
    """
    if max_order < 1:
        raise InputError("max_order must be >= 1")
    if threshold < 0:
        raise InputError("threshold must be >= 0")

    occ = np.asarray(pattern.occupancy, dtype=float)
    Nx, Ny = occ.shape
    f = occ - occ.mean()

    # fractional cell-center coordinates
    fx = (np.arange(Nx) + 0.5) / Nx
    fy = (np.arange(Ny) + 0.5) / Ny

    geom = pattern.geometry
    order_x = min(max_order, (Nx - 1) // 2)
    order_y = min(max_order, (Ny - 1) // 2)
    ns, ms, Cs, Ss = [], [], [], []
    for (n, m) in _representative_indices(order_x, order_y):
        # k . rho = 2 pi (n fx + m fy) in fractional coordinates
        phx = np.exp(-2j * np.pi * n * fx)
        phy = np.exp(-2j * np.pi * m * fy)
        c = (phx @ f @ phy) / (Nx * Ny)
        C = 2.0 * c.real
        S = -2.0 * c.imag
        if np.hypot(C, S) < threshold:
            continue
        ns.append(n)
        ms.append(m)
        Cs.append(C)
        Ss.append(S)

    out = FourierExpansion(
        geometry=geom,
        n=np.array(ns, dtype=int),
        m=np.array(ms, dtype=int),
        C=np.array(Cs),
        S=np.array(Ss),
        prefactor=0.5 * const.mu0 * pattern.film_h * pattern.M0,
    )
    if thickness_correction:
        kh = out.k_mag * pattern.film_h
        corr = (1.0 - np.exp(-kh)) / kh
        out = replace(out, C=out.C * corr, S=out.S * corr)
    return out


def _row_norms(a):
    """np.linalg.norm(a, axis=1) of a real array, by its own formula (the
    same bits) without its dispatch."""
    return np.sqrt(np.add.reduce(a * a, axis=1))


def _check_z(z):
    if (z <= 0.0).any():
        raise BelowFilmError("evaluation point below film plane (z <= 0)")


def eval_potential(f: FourierExpansion, r) -> float:
    """Scalar potential phi(r) in tesla meter. Requires r[2] > 0."""
    r = np.asarray(r, dtype=float)
    _check_z(r[2])
    u = f.k_vec @ r[:2]
    env = np.exp(-f.k_mag * r[2])
    return f.prefactor * float(np.sum(env * (f.C * np.cos(u) + f.S * np.sin(u))))


# The 19 distinct derivatives of phi, first to third order, as sorted
# multi-indices over (x, y, z) = (0, 1, 2), padded with 3 (a factor of one),
# in the kernel table's order: the even (cos-fed) columns, then the odd ones.
_DERIVS = np.array(sorted(
    [(i, 3, 3) for i in range(3)]
    + [(i, j, 3) for i in range(3) for j in range(i, 3)]
    + [(i, j, l) for i in range(3) for j in range(i, 3) for l in range(j, 3)],
    key=lambda d: sum(a < 2 for a in d) % 2,
))
# Each in-plane derivative maps (Ac, As) to (k As, -k Ac) and each z
# derivative multiplies by -k, so a derivative with p in-plane and r z
# factors is (-1)^(p//2 + r) prod(k) times Ac for even p, As for odd p.
_N_INPLANE = np.sum(_DERIVS < 2, axis=1)
_SIGN = (-1.0) ** (_N_INPLANE // 2 + np.sum(_DERIVS == 2, axis=1))
_EVEN = _N_INPLANE % 2 == 0
_N_EVEN = int(_EVEN.sum())
_COLUMN = {tuple(d): c for c, d in enumerate(_DERIVS.tolist())}
_FIRST_IDX = np.array([_COLUMN[(i, 3, 3)] for i in range(3)])
_HESS_IDX = np.array(
    [[_COLUMN[tuple(sorted((i, j))) + (3,)] for j in range(3)] for i in range(3)]
)
_THIRD_IDX = np.array(
    [[[_COLUMN[tuple(sorted((i, j, l)))] for l in range(3)] for j in range(3)] for i in range(3)]
)


def _phi_derivatives(f: FourierExpansion, pts: np.ndarray):
    """Derivatives of phi at pts (N, 3) as (N, 19) columns in _DERIVS order,
    plus the lattice part of the local field scale, P sum env k |C + iS|.

    The (N, M) mode arrays live only inside this call.
    """
    even, odd, scale = f._kernel_tables
    u = pts[:, :2] @ f.k_vec.T  # (N, M)
    env = np.exp(-(pts[:, 2:] * f.k_mag))  # (N, M)
    cos, sin = np.cos(u), np.sin(u)
    D = np.empty((len(pts), len(_DERIVS)))
    np.matmul(env * (f.C * cos + f.S * sin), even, out=D[:, :_N_EVEN])
    np.matmul(env * (f.S * cos - f.C * sin), odd, out=D[:, _N_EVEN:])
    return D, f.prefactor * (env @ scale)


def eval_field_arrays(f: FourierExpansion, bias, points: np.ndarray, order: int = 2):
    """Vectorized field evaluation at points (N, 3), up to derivative order
    `order` of |B|.

    Returns (B (N,3), grad (N,3,3), B_mag (N,), grad_mag (N,3),
    hess_mag (N,3,3), valid (N,) bool). grad is the Jacobian dB_i/dr_j;
    hess_mag is the Hessian of |B|, NaN where |B| = 0 (valid False).

    order=2 (the default) fills every slot. order=0 returns B, B_mag and
    valid only, with None for grad, grad_mag and hess_mag; it skips the
    Jacobian, the third-derivative tensor and the Hessian algebra, and its
    B, B_mag and valid equal the order-2 arrays bit for bit. Any other order
    raises ValueError.
    """
    if order not in (0, 2):
        raise ValueError(f"order must be 0 or 2, got {order!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    _check_z(pts[:, 2])
    bias = np.asarray(bias, dtype=float)

    D, lattice_scale = _phi_derivatives(f, pts)
    field_scale = np.linalg.norm(bias) + lattice_scale
    B = bias - D[:, _FIRST_IDX]
    B_mag = _row_norms(B)
    # a zero of |B| (Majorana point) leaves rounding residue; flag anything
    # more than ten digits below the local field scale as an exact zero
    valid = B_mag > 1e-10 * field_scale
    if order == 0:
        return B, None, B_mag, None, None, valid

    grad = -D[:, _HESS_IDX]  # dB_i/dr_j = -d^2 phi
    third = -D[:, _THIRD_IDX]  # dB_i/dr_j dr_l = -d^3 phi
    with np.errstate(divide="ignore", invalid="ignore"):
        # grad|B|_j = B_i J_ij / |B|
        grad_mag = np.einsum("ni,nij->nj", B, grad) / B_mag[:, None]
        # Hess|B|_jl = (J^T J + B_i T_ijl)/|B| - grad|B| outer grad|B| / |B|
        JTJ = np.einsum("nij,nil->njl", grad, grad)
        BT = np.einsum("ni,nijl->njl", B, third)
        hess = (JTJ + BT) / B_mag[:, None, None] - np.einsum(
            "nj,nl->njl", grad_mag, grad_mag
        ) / B_mag[:, None, None]
    if not valid.all():
        grad_mag[~valid] = np.nan
        hess[~valid] = np.nan
    return B, grad, B_mag, grad_mag, hess, valid


_GRID_BLOCK_POINTS = 2**13  # about this many points per block of field_on_cell_grid


def field_on_cell_grid(f: FourierExpansion, bias, z: float, n: int):
    """Field B on the n x n cell-centre grid of one unit cell at height z.

    The points are fx a1 + fy a2 at z, with fx, fy = (i + 1/2)/n, in row
    order i * n + j for (fx_i, fy_j). Returns (points (n*n, 3), B (n*n, 3)).

    On this grid exp(i k.rho) = exp(i fx k.a1) exp(i fy k.a2), so each
    component of grad(phi) is a complex (rows x M) by (M x n) product instead
    of an (n^2 x M) table. The grid is taken in blocks of whole fx rows, 2**13
    to 2**14 points each, and each block is written straight into the returned
    arrays: points and B are the only n^2-row arrays made, 48 bytes a point
    (0.8 GB at n = 4096). eval_field_arrays is its reference.
    """
    if not 0 < z < np.inf:
        raise BelowFilmError(f"z must be a finite height above the film (got {z})")
    if n < 1:
        raise InputError(f"n must be >= 1 (got {n})")
    bias = np.asarray(bias, dtype=float)
    a1, a2 = f.geometry.a1, f.geometry.a2
    fr = (np.arange(n) + 0.5) / n
    ka1 = f.k_vec @ a1
    Y = np.exp(1j * np.outer(fr, f.k_vec @ a2))  # (n, M)
    # phi = P Re sum A exp(-k z) exp(i k.rho), A = C - iS, so that
    # d/dx_i phi = -Im(sum P k_i env A e^{ik.rho}) and d/dz phi = Re(... -P k env)
    weights = f.prefactor * np.exp(-f.k_mag * z) * (f.C - 1j * f.S)
    kw = np.column_stack([f.k_vec, -f.k_mag]).T * weights  # (3, M)
    points, B = np.empty((n * n, 3)), np.empty((n * n, 3))
    P, G = points.reshape(n, n, 3), B.reshape(n, n, 3)
    P[:, :, 2] = z
    # blocks of two rows or more: numpy hands a one-row product to gemv,
    # whose last bits differ from the gemm of a whole-grid product
    blocks = max(1, n // max(2, _GRID_BLOCK_POINTS // n))
    for b in range(blocks):
        i = slice(n * b // blocks, n * (b + 1) // blocks)
        np.multiply(fr[i, None, None], a1, out=P[i, :, :2])
        P[i, :, :2] += fr[None, :, None] * a2
        # stacked, as in a whole-grid product: at n = 1 a contiguous row takes
        # another of numpy's matmul loops, and B moves in its last bit
        XK = np.exp(1j * np.outer(fr[i], ka1))[None] * kw[:, None, :]  # (3, rows, M)
        for c in range(3):
            D = XK[c] @ Y.T  # (rows, n)
            G[i, :, c] = -D.imag if c < 2 else D.real
        np.subtract(bias, G[i], out=G[i])
    return points, B


def eval_field(f: FourierExpansion, bias, r) -> FieldSample:
    """Field sample B = B_ext - grad(phi) at a single point r (z > 0)."""
    r = np.asarray(r, dtype=float)
    B, grad, B_mag, grad_mag, hess, valid = eval_field_arrays(f, bias, r[None, :])
    return FieldSample(
        r=r,
        B=B[0],
        grad=grad[0],
        B_mag=float(B_mag[0]),
        grad_mag=grad_mag[0],
        hessian_mag=hess[0],
        hessian_valid=bool(valid[0]),
    )


def dipole_sum_oracle(
    pattern: MagnetizationPattern, bias, r, n_cells: int = 10
) -> np.ndarray:
    """Brute-force field: bias plus point dipoles at occupied cell centers.

    The film is treated as a sheet of dipoles at z = 0 (thin-film limit),
    each with moment M0 * film_h * dA * z_hat, replicated over
    (2 n_cells + 1)^2 unit cells centered on r. Intended purely as a slow
    cross-check of the Fourier expansion.
    """
    if n_cells < 5:
        raise ValueError("n_cells must be >= 5")
    r = np.asarray(r, dtype=float)
    bias = np.asarray(bias, dtype=float)
    occ = np.asarray(pattern.occupancy, dtype=float)
    Nx, Ny = occ.shape
    geom = pattern.geometry

    ii, jj = np.nonzero(occ)
    if len(ii) == 0:
        return bias.copy()

    # occupied cell centers in one unit cell
    frac = np.stack([(ii + 0.5) / Nx, (jj + 0.5) / Ny], axis=1)
    base = frac[:, 0:1] * geom.a1 + frac[:, 1:2] * geom.a2  # (n_occ, 2)

    # center the replica block on the unit cell containing r
    A = np.array([geom.a1, geom.a2]).T
    center = np.round(np.linalg.solve(A, r[:2]))

    reps = np.arange(-n_cells, n_cells + 1)
    RX, RY = np.meshgrid(reps + center[0], reps + center[1], indexing="ij")
    shifts = RX.ravel()[:, None] * geom.a1 + RY.ravel()[:, None] * geom.a2

    dA = geom.cell_area / (Nx * Ny)
    mz = pattern.M0 * pattern.film_h * dA  # dipole moment magnitude, A m^2

    Btot = np.zeros(3)
    coef = const.mu0 / (4 * np.pi) * mz
    # chunk over replicas to bound memory
    chunk = max(1, int(2e6 // max(len(base), 1)))
    for start in range(0, len(shifts), chunk):
        sh = shifts[start : start + chunk]
        pos = base[None, :, :] + sh[:, None, :]  # (c, n_occ, 2)
        dx = r[0] - pos[..., 0]
        dy = r[1] - pos[..., 1]
        dz = r[2]
        rr2 = dx * dx + dy * dy + dz * dz
        rr = np.sqrt(rr2)
        inv5 = 1.0 / (rr2 * rr2 * rr)
        # B = coef * (3 (m.r) r - m r^2) / r^5 with m along z
        Btot[0] += coef * np.sum(3.0 * dz * dx * inv5)
        Btot[1] += coef * np.sum(3.0 * dz * dy * inv5)
        Btot[2] += coef * np.sum((3.0 * dz * dz - rr2) * inv5)
    return bias + Btot
