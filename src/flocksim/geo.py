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

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

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
        grid = np.array(self.elevation, dtype=float)
        if grid.ndim != 2 or grid.shape[0] < 2 or grid.shape[1] < 2:
            raise ValueError(f"elevation must be at least 2x2, got shape {grid.shape}")
        if not self.cell_size > 0.0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
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
        return (
            self.origin_north <= north <= self.north_max
            and self.origin_east <= east <= self.east_max
        )


def _interpolate_many(grid: DemGrid, norths: np.ndarray, easts: np.ndarray) -> np.ndarray:
    """Bilinear interpolation at arrays of query points (meters)."""
    fn = (norths - grid.origin_north) / grid.cell_size
    fe = (easts - grid.origin_east) / grid.cell_size
    bad = (fn < 0.0) | (fn > grid.n_rows - 1) | (fe < 0.0) | (fe > grid.n_cols - 1)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise OutOfBoundsError(
            f"terrain query (north={float(norths.flat[k])}, east={float(easts.flat[k])}) "
            f"outside grid footprint north=[{grid.origin_north}, {grid.north_max}], "
            f"east=[{grid.origin_east}, {grid.east_max}]"
        )
    r0 = np.clip(np.floor(fn).astype(int), 0, grid.n_rows - 2)
    c0 = np.clip(np.floor(fe).astype(int), 0, grid.n_cols - 2)
    u = fn - r0
    v = fe - c0
    z = grid.elevation
    return (
        (1.0 - u) * (1.0 - v) * z[r0, c0]
        + (1.0 - u) * v * z[r0, c0 + 1]
        + u * (1.0 - v) * z[r0 + 1, c0]
        + u * v * z[r0 + 1, c0 + 1]
    )


def dem_elevation(grid: DemGrid, north: float, east: float) -> float:
    """Terrain height under (north, east).

    Bilinear in the enclosing cell: exact at grid nodes, continuous across
    cell edges.  Queries outside the footprint raise
    :class:`OutOfBoundsError` naming the offending coordinate.
    """
    out = _interpolate_many(grid, np.array([north], dtype=float), np.array([east], dtype=float))
    return float(out[0])


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


def segment_above_terrain(
    grid: DemGrid, a: Iterable[float], b: Iterable[float], clearance: float, step: float
) -> bool:
    """True if every sample of segment a-b clears the terrain by ``clearance``.

    Samples are evenly spaced at intervals no larger than ``step`` meters
    (endpoints always included).  Out-of-footprint samples raise
    :class:`OutOfBoundsError`.
    """
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    length = distance3(a, b)
    (an, ae, ah), (bn, be, bh) = a, b
    n = max(2, math.ceil(length / step) + 1)
    t = np.linspace(0.0, 1.0, n)
    norths = an + t * (bn - an)
    easts = ae + t * (be - ae)
    heights = ah + t * (bh - ah)
    terrain = _interpolate_many(grid, norths, easts)
    return bool(np.all(heights >= terrain + clearance))


def load_dem(path: str | Path) -> DemGrid:
    """Parse a DEM file written by :func:`save_dem`.

    Format: five header lines ``nrows``, ``ncols``, ``origin_north_m``,
    ``origin_east_m``, ``cell_size_m`` (in that order), then
    ``nrows * ncols`` whitespace-separated elevations, row-major, row 0 at
    the origin.  The parse is strict: wrong counts, unknown headers, and
    non-finite values all raise :class:`DemFormatError`.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DemFormatError(f"cannot read DEM file {path}: {exc}") from exc

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

    nrows = int(header["nrows"])
    ncols = int(header["ncols"])
    if nrows != header["nrows"] or ncols != header["ncols"] or nrows < 2 or ncols < 2:
        raise DemFormatError(f"{path}: nrows/ncols must be integers >= 2, got {header['nrows']}, {header['ncols']}")

    tokens = " ".join(lines[len(_DEM_HEADER_KEYS):]).split()
    if len(tokens) != nrows * ncols:
        raise DemFormatError(
            f"{path}: expected {nrows * ncols} elevation values, found {len(tokens)}"
        )
    try:
        values = np.fromiter(map(float, tokens), float, len(tokens))
        finite = bool(np.isfinite(values).all())
    except ValueError:
        finite = False
    if not finite:
        # Token by token again: the first offending one in file order names the error.
        for k, tok in enumerate(tokens):
            try:
                value = float(tok)
            except ValueError as exc:
                raise DemFormatError(f"{path}: elevation token {k} is not a number: {tok!r}") from exc
            if not math.isfinite(value):
                raise DemFormatError(f"{path}: elevation token {k} is not finite: {tok!r}")

    try:
        return DemGrid(
            origin_north=header["origin_north_m"],
            origin_east=header["origin_east_m"],
            cell_size=header["cell_size_m"],
            elevation=values.reshape(nrows, ncols),
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
