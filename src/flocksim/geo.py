"""Terrain raster, cylindrical obstacle volumes, and segment safety tests.

Coordinates are local level: ``north``/``east`` in meters from the grid
origin, ``height`` in meters up.  A point is a (north, east, height)
triple; :class:`Point3` is that triple as a named tuple, so numpy and
``json`` take it as they take a plain tuple.  A point argument is any
such triple: a :class:`Point3`, a tuple or list, or an array row.
The elevation raster is row-major with the row axis along north, so
``elevation[r, c]`` sits at
``(origin_north + r*cell_size, origin_east + c*cell_size)``.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Point3",
    "Obstacle",
    "DemGrid",
    "OutOfBoundsError",
    "DemFormatError",
    "lateral_distance",
    "distance3",
    "dem_elevation",
    "segment_obstructed",
    "segment_above_terrain",
    "load_dem",
    "save_dem",
]

_DEM_HEADER_KEYS = ("nrows", "ncols", "origin_north_m", "origin_east_m", "cell_size_m")


class OutOfBoundsError(ValueError):
    """A terrain query fell outside the raster footprint."""


class DemFormatError(ValueError):
    """A DEM file failed to parse cleanly."""


class Point3(NamedTuple):
    """A point in local level coordinates (meters)."""

    north: float
    east: float
    height: float


def lateral_distance(a: Iterable[float], b: Iterable[float]) -> float:
    """Horizontal separation; height is ignored."""
    (an, ae, _), (bn, be, _) = a, b
    return math.hypot(bn - an, be - ae)


def distance3(a: Iterable[float], b: Iterable[float]) -> float:
    """Full 3D separation."""
    (an, ae, ah), (bn, be, bh) = a, b
    return math.hypot(bn - an, be - ae, bh - ah)


def _path_length(points: Sequence[Iterable[float]]) -> float:
    """The 3D legs between consecutive ``points``, added left to right from 0.0 (not by ``sum``)."""
    return functools.reduce(operator.add, map(distance3, points, points[1:]), 0.0)


@dataclass(frozen=True)
class Obstacle:
    """Vertical cylinder that becomes a no-fly volume at ``activation_time``.

    The lateral footprint is a disc of ``lateral_radius`` around
    (``center_north``, ``center_east``); vertically the volume spans
    ``[base_height, top_height]``.  Before activation the obstacle is
    invisible to every predicate.
    """

    center_north: float
    center_east: float
    lateral_radius: float
    base_height: float
    top_height: float
    activation_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.lateral_radius > 0.0:
            raise ValueError(f"lateral_radius must be positive, got {self.lateral_radius}")
        if not self.top_height > self.base_height:
            raise ValueError(
                f"top_height ({self.top_height}) must exceed base_height ({self.base_height})"
            )

    def is_active(self, now: float) -> bool:
        return now >= self.activation_time


@dataclass(frozen=True, eq=False)
class DemGrid:
    """Regular elevation raster with bilinear interpolation between nodes."""

    origin_north: float
    origin_east: float
    cell_size: float
    elevation: np.ndarray

    def __post_init__(self) -> None:
        grid = np.array(self.elevation, dtype=float, order="C")
        if grid.ndim != 2 or grid.shape[0] < 2 or grid.shape[1] < 2:
            raise ValueError(f"elevation must be at least 2x2, got shape {grid.shape}")
        if not 0.0 < self.cell_size < math.inf:
            raise ValueError(f"cell_size must be positive and finite, got {self.cell_size}")
        if not (math.isfinite(self.origin_north) and math.isfinite(self.origin_east)):
            raise ValueError(f"origin must be finite, got ({self.origin_north}, {self.origin_east})")
        if not np.all(np.isfinite(grid)):
            raise ValueError("elevation values must all be finite")
        grid.flags.writeable = False
        object.__setattr__(self, "elevation", grid)

    @property
    def n_rows(self) -> int:
        return self.elevation.shape[0]

    @property
    def n_cols(self) -> int:
        return self.elevation.shape[1]

    @property
    def north_max(self) -> float:
        return self.origin_north + (self.n_rows - 1) * self.cell_size

    @property
    def east_max(self) -> float:
        return self.origin_east + (self.n_cols - 1) * self.cell_size

    def contains(self, north: float, east: float) -> bool:
        """True where the terrain queries answer: fractional row and column in [0, n - 1].

        ``north_max`` and ``east_max`` name the footprint in messages; their
        rounding can put them just off it.
        """
        fn = (north - self.origin_north) / self.cell_size
        fe = (east - self.origin_east) / self.cell_size
        return 0.0 <= fn <= self.n_rows - 1 and 0.0 <= fe <= self.n_cols - 1


def _out_of_footprint(grid: DemGrid, north: float, east: float) -> OutOfBoundsError:
    return OutOfBoundsError(
        f"terrain query (north={float(north)}, east={float(east)}) "
        f"outside grid footprint north=[{grid.origin_north}, {grid.north_max}], "
        f"east=[{grid.origin_east}, {grid.east_max}]"
    )


def _cell_coords(grid: DemGrid, norths: np.ndarray, easts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fractional row and column of each query, and which queries fall off the footprint.

    The footprint test is a negated inside-test, so a NaN coordinate is off it.
    """
    fn = (norths - grid.origin_north) / grid.cell_size
    fe = (easts - grid.origin_east) / grid.cell_size
    off = ~((fn >= 0.0) & (fn <= grid.n_rows - 1) & (fe >= 0.0) & (fe <= grid.n_cols - 1))
    return fn, fe, off


def _bilinear(grid: DemGrid, fn: np.ndarray, fe: np.ndarray) -> np.ndarray:
    """Bilinear interpolation at fractional rows ``fn`` and columns ``fe``, all on the footprint.

    Truncation is the floor there; the last row and column fold into the
    cell below them, at u or v = 1.  The four corners are gathered from the
    flat raster.
    """
    n_cols = grid.n_cols
    r0 = np.minimum(fn.astype(np.intp), grid.n_rows - 2)
    c0 = np.minimum(fe.astype(np.intp), n_cols - 2)
    u = fn - r0
    v = fe - c0
    z = grid.elevation.ravel()
    i00 = r0 * n_cols + c0
    i10 = i00 + n_cols
    return (
        (1.0 - u) * (1.0 - v) * z[i00]
        + (1.0 - u) * v * z[i00 + 1]
        + u * (1.0 - v) * z[i10]
        + u * v * z[i10 + 1]
    )


def _interpolate_many(grid: DemGrid, norths: np.ndarray, easts: np.ndarray) -> np.ndarray:
    """Bilinear interpolation at arrays of query points (meters).

    A query off the footprint, NaN included, raises
    :class:`OutOfBoundsError` naming the first such query in array order.
    """
    fn, fe, off = _cell_coords(grid, norths, easts)
    if off.any():
        k = int(np.argmax(off))
        raise _out_of_footprint(grid, norths.flat[k], easts.flat[k])
    return _bilinear(grid, fn, fe)


def dem_elevation(grid: DemGrid, north: float, east: float) -> float:
    """Terrain height under (north, east).

    Bilinear in the enclosing cell: exact at grid nodes, continuous across
    cell edges.  Queries outside the footprint, NaN included, raise
    :class:`OutOfBoundsError` naming the offending coordinate.  The same
    arithmetic as :func:`_interpolate_many`, on Python floats.
    """
    if not grid.contains(north, east):
        raise _out_of_footprint(grid, north, east)
    fn = (north - grid.origin_north) / grid.cell_size
    fe = (east - grid.origin_east) / grid.cell_size
    r0 = min(int(fn), grid.n_rows - 2)
    c0 = min(int(fe), grid.n_cols - 2)
    u = fn - r0
    v = fe - c0
    z = grid.elevation.item
    return float(
        (1.0 - u) * (1.0 - v) * z(r0, c0)
        + (1.0 - u) * v * z(r0, c0 + 1)
        + u * (1.0 - v) * z(r0 + 1, c0)
        + u * v * z(r0 + 1, c0 + 1)
    )


def segment_obstructed(a: Iterable[float], b: Iterable[float], obstacle: Obstacle, now: float) -> bool:
    """True if segment a-b intersects the obstacle volume at time ``now``.

    Exact test, no sampling: the height band admits an interval of the
    segment parameter, and the lateral disc is a convex quadratic in the
    same parameter, so intersection reduces to the quadratic's minimum
    over the admitted interval.  Touching the boundary counts as
    obstructed.
    """
    if not obstacle.is_active(now):
        return False

    (an, ae, ah), (bn, be, bh) = a, b
    dh = bh - ah
    if dh == 0.0:
        if not obstacle.base_height <= ah <= obstacle.top_height:
            return False
        t_lo, t_hi = 0.0, 1.0
    else:
        t1 = (obstacle.base_height - ah) / dh
        t2 = (obstacle.top_height - ah) / dh
        t_lo, t_hi = min(t1, t2), max(t1, t2)
    t_lo = max(t_lo, 0.0)
    t_hi = min(t_hi, 1.0)
    if t_lo > t_hi:
        return False

    qn = an - obstacle.center_north
    qe = ae - obstacle.center_east
    dn = bn - an
    de = be - ae
    # f(t) = |lateral(t) - center|^2 - R^2, convex in t.
    f_a = dn * dn + de * de
    f_b = 2.0 * (qn * dn + qe * de)
    f_c = qn * qn + qe * qe - obstacle.lateral_radius**2
    if f_a == 0.0:
        return f_c <= 0.0
    t_star = min(max(-f_b / (2.0 * f_a), t_lo), t_hi)
    return f_a * t_star * t_star + f_b * t_star + f_c <= 0.0


def _legs_obstructed(a: np.ndarray, b: np.ndarray, obstacle: Obstacle, now: float) -> np.ndarray:
    """:func:`segment_obstructed` of each leg ``a[i]``-``b[i]``, decision for decision.

    ``a`` and ``b`` are (m, 3) arrays of [north, east, height] rows, or one
    of them is a single point that every leg shares.  Each leg takes the
    scalar test's arithmetic in its order, elementwise, so the two agree
    on every leg.  A level leg (``dh == 0``) gets the interval [0, 1] in
    the height band and an empty one outside it; a leg of no lateral
    length takes the scalar test's ``f_c <= 0`` branch.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not obstacle.is_active(now):
        return np.zeros(np.broadcast_shapes(a.shape, b.shape)[0], dtype=bool)
    an, ae, ah = a.T
    bn, be, bh = b.T
    base, top = obstacle.base_height, obstacle.top_height
    dh = bh - ah
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t1 = (base - ah) / dh
        t2 = (top - ah) / dh
        t_lo = np.minimum(t1, t2)
        t_hi = np.maximum(t1, t2)
        level = dh == 0.0
        if level.any():
            # A level leg is in the height band over all of it or over none.
            in_band = np.broadcast_to((base <= ah) & (ah <= top), dh.shape)[level]
            t_lo[level] = np.where(in_band, 0.0, 1.0)
            t_hi[level] = np.where(in_band, 1.0, 0.0)
        t_lo = np.maximum(t_lo, 0.0)
        t_hi = np.minimum(t_hi, 1.0)

        qn = an - obstacle.center_north
        qe = ae - obstacle.center_east
        dn = bn - an
        de = be - ae
        f_a = dn * dn + de * de
        f_b = 2.0 * (qn * dn + qe * de)
        f_c = qn * qn + qe * qe - obstacle.lateral_radius**2
        t_star = np.minimum(np.maximum(-f_b / (2.0 * f_a), t_lo), t_hi)
        inside = np.where(f_a == 0.0, f_c <= 0.0, f_a * t_star * t_star + f_b * t_star + f_c <= 0.0)
    return (t_lo <= t_hi) & inside


def segment_above_terrain(
    grid: DemGrid, a: Iterable[float], b: Iterable[float], clearance: float, step: float
) -> bool:
    """True if every sample of segment a-b clears the terrain by ``clearance``.

    Samples are evenly spaced at intervals no larger than ``step`` meters
    (endpoints always included).  Out-of-footprint samples raise
    :class:`OutOfBoundsError`, and so does an end with a NaN or infinite
    north or east, which has no sample spacing.
    """
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    length = distance3(a, b)
    (an, ae, ah), (bn, be, bh) = a, b
    if not math.isfinite(length):
        _interpolate_many(grid, np.array([an, bn], dtype=float), np.array([ae, be], dtype=float))
        raise ValueError(f"segment {(an, ae, ah)} to {(bn, be, bh)} has no finite length")
    n = max(2, math.ceil(length / step) + 1)
    t = np.linspace(0.0, 1.0, n)
    norths = an + t * (bn - an)
    easts = ae + t * (be - ae)
    heights = ah + t * (bh - ah)
    terrain = _interpolate_many(grid, norths, easts)
    return bool(np.all(heights >= terrain + clearance))


def _legs_above_terrain(
    grid: DemGrid, a: np.ndarray, b: np.ndarray, clearance: float, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`segment_above_terrain` of each leg ``a[i]``-``b[i]``, with one terrain query for all.

    ``a`` and ``b`` are (m, 3) arrays of finite [north, east, height]
    rows, m >= 1.  Each leg is sampled as the scalar test samples it.
    Returns ``(clear, off)``: ``off[i]`` marks a leg with a sample off the
    footprint, where the scalar test raises :class:`OutOfBoundsError` and
    ``clear[i]`` means nothing; elsewhere ``clear[i]`` is the scalar
    test's answer.
    """
    d = b - a
    counts = np.array([max(2, math.ceil(math.hypot(dn, de, dh) / step) + 1) for dn, de, dh in d.tolist()])
    ends = np.cumsum(counts)
    starts = ends - counts
    t = _unit_steps(counts, starts, ends)
    (an, ae, ah), (dn, de, dh) = np.repeat(a, counts, axis=0).T, np.repeat(d, counts, axis=0).T
    fn, fe, off = _cell_coords(grid, an + t * dn, ae + t * de)
    if off.any():
        fn[off] = 0.0
        fe[off] = 0.0
    clear = ah + t * dh >= _bilinear(grid, fn, fe) + clearance
    return np.logical_and.reduceat(clear, starts), np.logical_or.reduceat(off, starts)


def _unit_steps(counts: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``np.linspace(0.0, 1.0, n)`` for each n in ``counts``, end to end; leg i fills ``starts[i]:ends[i]``.

    numpy's linspace takes i * (1.0 / (n - 1)) and sets its last entry to
    1.0; this does the same for all legs at once.
    """
    local = np.arange(ends[-1]) - np.repeat(starts, counts)
    t = local * np.repeat(1.0 / (counts - 1), counts)
    t[ends - 1] = 1.0
    return t


def load_dem(path: str | Path) -> DemGrid:
    """Parse a DEM file written by :func:`save_dem`.

    Format: five header lines ``nrows``, ``ncols``, ``origin_north_m``,
    ``origin_east_m``, ``cell_size_m`` (in that order), then
    ``nrows * ncols`` whitespace-separated elevations, row-major, row 0 at
    the origin.  The parse is strict: text that is not UTF-8, wrong
    counts, unknown headers, and non-finite values all raise
    :class:`DemFormatError`.

    Identical file bytes are parsed once per process: a load whose bytes
    (by sha256, whatever the path) equal those of the last grid parsed
    returns that same grid object.  It is shared and immutable (frozen,
    with a read-only ``elevation``), and the last grid parsed stays in
    memory until a file with other bytes is parsed.
    """
    return _read_dem(path)[0]


# For each parser, the sha256 of the last bytes it parsed and the object it
# built from them.  Keyed on content, so a file rewritten in place is parsed again.
_LAST_PARSE: dict[Callable[[bytes, Path], Any], tuple[str, Any]] = {}


def _read_once(path: str | Path, parse: Callable, error: type[Exception], what: str) -> tuple[Any, str]:
    """``parse(data, path)`` of the bytes ``data`` of ``path``, and their sha256.

    Bytes equal to those ``parse`` built its last object from give that
    object again, unparsed; a parse that raised is not stored.  A file
    that cannot be read raises ``error``, naming it as ``what``.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    digest = hashlib.sha256(data).hexdigest()
    last = _LAST_PARSE.get(parse)
    if last is None or last[0] != digest:
        last = _LAST_PARSE[parse] = (digest, parse(data, path))
    return last[1], digest


def _read_dem(path: str | Path) -> tuple[DemGrid, str]:
    """:func:`load_dem`'s grid, and the sha256 of the file bytes it read, by :func:`_read_once`."""
    return _read_once(path, _parse_dem, DemFormatError, "DEM file")


def _parse_dem(data: bytes, path: Path) -> DemGrid:
    """The grid in DEM file bytes ``data``; errors name ``path``."""
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise DemFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < len(_DEM_HEADER_KEYS) + 1:
        raise DemFormatError(f"{path}: truncated file, expected header plus elevation rows")

    header: dict[str, float] = {}
    for i, key in enumerate(_DEM_HEADER_KEYS):
        parts = lines[i].split()
        if len(parts) != 2 or parts[0] != key:
            raise DemFormatError(f"{path}: header line {i + 1} must be '{key} <value>', got {lines[i]!r}")
        try:
            header[key] = float(parts[1])
        except ValueError as exc:
            raise DemFormatError(f"{path}: bad value for header '{key}': {parts[1]!r}") from exc
        if not math.isfinite(header[key]):
            raise DemFormatError(f"{path}: header line {i + 1}: '{key}' must be finite, got {parts[1]!r}")

    nrows, ncols = int(header["nrows"]), int(header["ncols"])
    if nrows != header["nrows"] or ncols != header["ncols"] or nrows < 2 or ncols < 2:
        raise DemFormatError(f"{path}: nrows/ncols must be integers >= 2, got {header['nrows']}, {header['ncols']}")

    tokens = " ".join(lines[len(_DEM_HEADER_KEYS):]).split()
    if len(tokens) != nrows * ncols:
        raise DemFormatError(f"{path}: expected {nrows * ncols} elevation values, found {len(tokens)}")
    values = []
    for k, tok in enumerate(tokens):
        try:
            value = float(tok)
        except ValueError as exc:
            raise DemFormatError(f"{path}: elevation token {k} is not a number: {tok!r}") from exc
        if not math.isfinite(value):
            raise DemFormatError(f"{path}: elevation token {k} is not finite: {tok!r}")
        values.append(value)

    try:
        return DemGrid(
            origin_north=header["origin_north_m"],
            origin_east=header["origin_east_m"],
            cell_size=header["cell_size_m"],
            elevation=np.array(values).reshape(nrows, ncols),
        )
    except ValueError as exc:
        raise DemFormatError(f"{path}: {exc}") from exc


def save_dem(grid: DemGrid, path: str | Path) -> None:
    """Write ``grid`` in the format accepted by :func:`load_dem` (lossless)."""
    lines = [
        f"nrows {grid.n_rows}",
        f"ncols {grid.n_cols}",
        f"origin_north_m {grid.origin_north!r}",
        f"origin_east_m {grid.origin_east!r}",
        f"cell_size_m {grid.cell_size!r}",
    ]
    for row in grid.elevation:
        lines.append(" ".join(repr(float(z)) for z in row))
    Path(path).write_text("\n".join(lines) + "\n")
