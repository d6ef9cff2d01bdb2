"""File formats: ASCII PBM (P1) occupancy grids and CSV field maps.

Numbers in CSV output carry 9 significant digits with '.' as the decimal
separator, independent of locale. The field-map writer takes its rows in
chunks of 2**13: it takes each chunk's |B| and formats the chunk with one
'%' call, and on a cell grid, where the coordinate columns repeat, it
formats each distinct coordinate only once. A chunk's temporaries come to
about 2.8 MB, and no array with a row per point is made beyond the points
and B it is given. The '%' call holds the interpreter lock, so the writer
formats on one process per usable core: it forks a child for each
contiguous range of chunks after the first and appends the children's
bytes in row order.
"""

import contextlib
import os
import shutil
import tempfile
import traceback
from pathlib import Path

import numpy as np

from ._cores import usable_cores
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


_CSV_CHUNK_ROWS = 2**13
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


def _write_rows(out, pts, B, lo, hi):
    """Write rows lo <= i < hi to the binary file out, one 2**13-row chunk at
    a time: each chunk's |B| is taken, its distinct coordinates go through
    fmt9 once, then its seven columns go through one '%s,%s,%s,%.9g,...'
    format call; '%.9g' is fmt9's conversion."""
    for s in range(lo, hi, _CSV_CHUNK_ROWS):
        c = slice(s, min(s + _CSV_CHUNK_ROWS, hi))
        xyz = pts[c] * 1e9
        cells = np.empty((len(xyz), 7), dtype=object)
        for j in range(3):
            cells[:, j] = _fmt9_strings(xyz[:, j])
        cells[:, 3:6] = B[c] * 1e3
        cells[:, 6] = np.linalg.norm(B[c], axis=1) * 1e3
        out.write(((_CSV_ROW * len(xyz)) % tuple(cells.ravel().tolist())).encode("ascii"))


def _write_rows_and_exit(part, *rows):
    """_write_rows into part in a forked child, then leave the process.

    The child never returns into the caller's stack (under a test runner
    that would run every remaining test in the child). The caller sees
    only the exit status, so a failure's traceback is printed here.
    """
    status = 1
    try:
        _write_rows(part, *rows)
        part.flush()
        status = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(status)


def write_field_map_csv(path, points_m: np.ndarray, B_T: np.ndarray):
    """CSV columns x_nm, y_nm, z_nm, Bx_mT, By_mT, Bz_mT, Bmag_mT.

    Rows are formatted in chunks of 2**13, each with its own |B|, so the
    memory beyond points_m and B_T stays bounded (about 2.8 MB a process),
    and each number reads exactly as fmt9 gives it (see _write_rows). Formatting
    holds the interpreter lock, so the chunks are split into W = min(usable
    cores, chunks) contiguous ranges, one per process: W - 1 forked children
    each write their range to an unlinked temporary file in the CSV's
    directory, while the caller writes the first range to the CSV, then
    appends each child's file in row order, a bounded piece at a time. The
    bytes do not depend on W. W is 1, and nothing is forked, where os.fork
    does not exist; with no rows the CSV holds the header alone.

    A child that fails makes this raise OSError. On any error every child
    still running is killed, and each child is reaped before this returns.
    Python 3.12 and later warn (DeprecationWarning) on fork in a process
    that runs threads, and a threaded BLAS starts some; the children call no
    BLAS routine (a row norm is a product and a sum), they only format and
    write.
    """
    pts = np.asarray(points_m, dtype=float)
    B = np.asarray(B_T, dtype=float)
    chunks = -(-len(pts) // _CSV_CHUNK_ROWS)
    W = min(usable_cores() if hasattr(os, "fork") else 1, max(chunks, 1))
    bounds = [min(len(pts), chunks * w // W * _CSV_CHUNK_ROWS) for w in range(W + 1)]
    with open(path, "wb") as out, contextlib.ExitStack() as stack:
        out.write(b"x_nm,y_nm,z_nm,Bx_mT,By_mT,Bz_mT,Bmag_mT\n")
        parts = [stack.enter_context(tempfile.TemporaryFile(dir=Path(path).parent))
                 for _ in range(1, W)]
        children = []  # (pid, part) of each child not yet reaped, in row order
        try:
            for w, part in enumerate(parts, 1):
                pid = os.fork()
                if pid == 0:
                    _write_rows_and_exit(part, pts, B, bounds[w], bounds[w + 1])
                children.append((pid, part))
            _write_rows(out, pts, B, bounds[0], bounds[1])
            while children:
                pid, part = children[0]
                status = os.waitpid(pid, 0)[1]
                del children[0]  # reaped
                if status:
                    raise OSError(f"{path}: the process writing part of it (pid {pid}) "
                                  f"exited with status {os.waitstatus_to_exitcode(status)}")
                part.seek(0)
                shutil.copyfileobj(part, out)
        finally:
            if children:
                from signal import SIGKILL  # not at the top: importing it takes about 1 ms

                for pid, _ in children:
                    os.kill(pid, SIGKILL)
                    os.waitpid(pid, 0)


def write_fano_csv(path, curve):
    with open(path, "w", newline="") as fh:
        fh.write("eta,meanN,F,stderr\n")
        for p in curve.points:
            fh.write(
                ",".join(fmt9(v) for v in (p.eta, p.mean_N, p.F, p.stderr_F)) + "\n"
            )
