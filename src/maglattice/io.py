"""File formats: ASCII PBM (P1) occupancy grids and CSV field maps.

Numbers in CSV output carry 9 significant digits with '.' as the decimal
separator, independent of locale. The field-map writer formats each chunk
of rows with one '%' call, and on a cell grid, where the coordinate columns
repeat, it formats each distinct coordinate only once.
"""

import numpy as np

from .errors import InputError


def load_pbm(path) -> np.ndarray:
    """Read an ASCII portable bitmap (P1) into an occupancy grid.

    PBM stores rows of the image top to bottom; the returned array is
    indexed [ix, iy] so that axis 0 runs along a1 and axis 1 along a2.
    """
    with open(path, "r") as fh:
        text = fh.read()
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    if not tokens or tokens[0] != "P1":
        raise InputError(f"{path}: not an ASCII PBM (P1) file")
    if len(tokens) < 3:
        raise InputError(f"{path}: truncated PBM header")
    try:
        width, height = int(tokens[1]), int(tokens[2])
    except ValueError as exc:
        raise InputError(f"{path}: malformed PBM dimensions") from exc
    bits = tokens[3:]
    if len(bits) != width * height:
        raise InputError(
            f"{path}: expected {width * height} pixels, found {len(bits)}"
        )
    try:
        arr = np.array([int(b) for b in bits], dtype=int).reshape(height, width)
    except ValueError as exc:
        raise InputError(f"{path}: non-binary pixel value") from exc
    if not np.all((arr == 0) | (arr == 1)):
        raise InputError(f"{path}: PBM pixels must be 0 or 1")
    return arr.T[:, ::-1]  # image rows top-to-bottom -> grid [ix, iy]


def save_pbm(path, occupancy: np.ndarray):
    occ = np.asarray(occupancy, dtype=int)
    img = occ[:, ::-1].T
    with open(path, "w") as fh:
        fh.write("P1\n")
        fh.write(f"{img.shape[1]} {img.shape[0]}\n")
        for row in img:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


_CSV_CHUNK_ROWS = 2**15
_CSV_ROW = "%s,%s,%s,%.9g,%.9g,%.9g,%.9g\n"


def fmt9(x: float) -> str:
    """Fixed 9-significant-digit decimal representation."""
    return f"{x:.9g}"


def _fmt9_strings(col: np.ndarray) -> np.ndarray:
    """fmt9 of each entry as an object array, one call per distinct value.

    Values are told apart by their bit pattern, not by ==: 0.0 and -0.0
    compare equal but print as '0' and '-0'.
    """
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    strings = np.array([fmt9(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return strings[inverse]


def write_field_map_csv(path, points_m: np.ndarray, B_T: np.ndarray):
    """CSV columns x_nm, y_nm, z_nm, Bx_mT, By_mT, Bz_mT, Bmag_mT.

    Rows are written in chunks, so memory stays bounded, and each number
    reads exactly as fmt9 gives it. In each chunk the three coordinate
    columns are formatted once per distinct bit pattern (a cell grid repeats
    every x, y and z many times), then the chunk's seven columns go through
    one '%s,%s,%s,%.9g,...' format call; '%.9g' is fmt9's conversion.
    """
    pts = np.asarray(points_m, dtype=float)
    B = np.asarray(B_T, dtype=float)
    mag = np.linalg.norm(B, axis=1)
    with open(path, "w", newline="") as fh:
        fh.write("x_nm,y_nm,z_nm,Bx_mT,By_mT,Bz_mT,Bmag_mT\n")
        for s in range(0, len(pts), _CSV_CHUNK_ROWS):
            c = slice(s, s + _CSV_CHUNK_ROWS)
            xyz = pts[c] * 1e9
            cells = np.empty((len(xyz), 7), dtype=object)
            for j in range(3):
                cells[:, j] = _fmt9_strings(xyz[:, j])
            cells[:, 3:6] = B[c] * 1e3
            cells[:, 6] = mag[c] * 1e3
            fh.write((_CSV_ROW * len(xyz)) % tuple(cells.ravel().tolist()))


def write_fano_csv(path, curve):
    with open(path, "w", newline="") as fh:
        fh.write("eta,meanN,F,stderr\n")
        for p in curve.points:
            fh.write(
                ",".join(fmt9(v) for v in (p.eta, p.mean_N, p.F, p.stderr_F)) + "\n"
            )
