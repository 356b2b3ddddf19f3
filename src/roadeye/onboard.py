"""Onboard scene reconstruction: GPS-to-pixel mapping and render emission.

Two surveyed reference points anchor an affine map from geodetic positions
to screen pixels (equirectangular meters about the first reference, then a
per-axis pixel ratio). Received perception records become top-view icons,
one `ICON` row each, of the kind the record's edge-decided `cls` names; the
ego vehicle, row 0, is drawn from its own simulated GPS feed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geoloc import GeodeticPos, WGS84
from .wire import RECORD

EGO_SUPPRESS_RADIUS = 2.0  # m, roadside echo of the ego vehicle is dropped
EGO_ICON_DIMS = (1.9, 4.6)  # (w, l) m
VIEWPORT = (800.0, 800.0)  # (width, height) px


class DegenerateMapError(ValueError):
    """Reference points coincide on some axis; no transfer ratio exists."""


class IconKind(enum.IntEnum):
    """Icon kinds: EGO, then one per entry of `CLASSES`, in its order."""

    EGO = 0
    VEHICLE = 1
    PEDESTRIAN = 2


# One top-view icon per row, its fields read as attributes; `id` -1 draws no label.
ICON = np.dtype((np.record, [("kind", "u1"), ("px", "<f8", (2,)), ("heading_deg", "<f8"),
                             ("dims_m", "<f8", (2,)), ("id", "<i8")]))


@dataclass
class PixelMap:
    ref_a_gps: GeodeticPos
    ref_a_px: tuple[float, float]
    meters_per_pixel_x: float
    meters_per_pixel_y: float
    viewport: tuple[float, float]  # (width, height) px


@dataclass
class EgoState:
    gps: GeodeticPos
    heading: float  # degrees, [0, 360)

    def __post_init__(self):
        if not 0.0 <= self.heading < 360.0:
            raise ValueError(f"heading {self.heading} outside [0, 360)")


@dataclass
class RenderFrame:
    icons: np.ndarray  # ICON rows
    size: tuple[float, float] = VIEWPORT

    def __post_init__(self):
        if np.count_nonzero(self.icons["kind"] == IconKind.EGO) > 1:
            raise ValueError("at most one ego icon per frame")


def local_en_offset(origin: GeodeticPos, g):
    """East/north meters of g relative to origin, equirectangular about origin;
    `g` is a GeodeticPos, or RECORD rows as a recarray for arrays of offsets."""
    d_east = WGS84.R * math.cos(math.radians(origin.lat)) * np.radians(g.lon - origin.lon)
    d_north = WGS84.R * np.radians(g.lat - origin.lat)
    return d_east, d_north


def offset_geodetic(origin: GeodeticPos, east: float, north: float) -> GeodeticPos:
    """Inverse of local_en_offset for small offsets."""
    lat = origin.lat + math.degrees(north / WGS84.R)
    lon = origin.lon + math.degrees(east / (WGS84.R * math.cos(math.radians(origin.lat))))
    return GeodeticPos(lat=lat, lon=lon, alt=origin.alt)


def build_pixel_map(
    ref_a_gps: GeodeticPos,
    ref_a_px: tuple[float, float],
    ref_b_gps: GeodeticPos,
    ref_b_px: tuple[float, float],
    viewport: tuple[float, float] = VIEWPORT,
) -> PixelMap:
    """Derive the per-axis transfer ratios from two cross-referenced points."""
    if ref_a_gps.lat == ref_b_gps.lat or ref_a_gps.lon == ref_b_gps.lon:
        raise DegenerateMapError("reference points must differ in latitude and longitude")
    du = ref_b_px[0] - ref_a_px[0]
    dv = ref_b_px[1] - ref_a_px[1]
    if du == 0 or dv == 0:
        raise DegenerateMapError("reference pixels must differ on both axes")
    d_east, d_north = local_en_offset(ref_a_gps, ref_b_gps)
    return PixelMap(
        ref_a_gps=ref_a_gps,
        ref_a_px=tuple(ref_a_px),
        meters_per_pixel_x=d_east / du,
        meters_per_pixel_y=d_north / dv,
        viewport=viewport,
    )


def gps_to_pixel(pixel_map: PixelMap, g):
    """Affine application of the transfer ratios about reference point A;
    `g` as for local_en_offset."""
    d_east, d_north = local_en_offset(pixel_map.ref_a_gps, g)
    u = pixel_map.ref_a_px[0] + d_east / pixel_map.meters_per_pixel_x
    v = pixel_map.ref_a_px[1] + d_north / pixel_map.meters_per_pixel_y
    return u, v


def reconstruct_frame(msgs, ego: EgoState, pixel_map: PixelMap) -> RenderFrame:
    """Build the icon rows for one render tick from messages or `RECORD` rows.

    Records within the ego-suppression radius are treated as the roadside's
    echo of the ego vehicle; icons landing outside the viewport are dropped.
    """
    rec = np.asarray(msgs, RECORD).view(np.recarray)
    d_east, d_north = local_en_offset(ego.gps, rec)
    u, v = gps_to_pixel(pixel_map, rec)
    keep = np.hypot(d_east, d_north) > EGO_SUPPRESS_RADIUS
    width, height = pixel_map.viewport
    keep &= (u >= 0.0) & (u <= width) & (v >= 0.0) & (v <= height)
    shown = rec.view(np.ndarray)[keep]
    icons = np.empty(1 + len(shown), ICON)
    icons[0] = (IconKind.EGO, gps_to_pixel(pixel_map, ego.gps), ego.heading, EGO_ICON_DIMS, -1)
    rest = icons[1:]
    rest["kind"] = shown["cls"] + 1  # class code k is icon kind k + 1
    rest["px"] = np.column_stack([u[keep], v[keep]])
    rest["heading_deg"] = shown["theta"]
    rest["dims_m"] = np.column_stack([shown["w"], shown["l"]])
    rest["id"] = shown["id"]
    return RenderFrame(icons=icons, size=pixel_map.viewport)


# ---------------------------------------------------------------------------
# Render emission: deterministic SVG, one shape element per icon.
# ---------------------------------------------------------------------------

_ICON_FILL = {
    IconKind.EGO: "#e8821e",
    IconKind.VEHICLE: "#2e6fd8",
    IconKind.PEDESTRIAN: "#3aa655",
}
PX_PER_M = 8.0
_POLYGON = '<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f %.2f,%.2f" '
_CIRCLE = '<circle cx="%.2f" cy="%.2f" r="%.2f" '
_LABEL = '\n<text x="%.2f" y="%.2f" fill="#e6e6e6" font-size="11" text-anchor="middle">%d</text>'
# The template of an icon of kind k, labelled or not, at 2 k + labelled. Its
# fields take, in order, the polygon's corners u0, v0, ..., u3, v3 or the
# circle's centre u, v and radius, then for a label its x (the centre u), y
# and the id.
_ICON_SVG = np.array([
    (_CIRCLE if kind == IconKind.PEDESTRIAN else _POLYGON) + f'fill="{fill}"/>'
    + (_LABEL if labelled else "")
    for kind, fill in sorted(_ICON_FILL.items()) for labelled in (False, True)
], dtype=object)
# (along, across) signs of the four rectangle corners, in drawing order.
_CORNERS = np.array([(1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)])


def _rect_corners(icons: np.ndarray) -> np.ndarray:
    """(n, 8) pixel corners u0, v0, ..., u3, v3 of each icon's rectangle."""
    along = icons["dims_m"][:, 1, None] / 2.0 * PX_PER_M * _CORNERS[:, 0]
    across = icons["dims_m"][:, 0, None] / 2.0 * PX_PER_M * _CORNERS[:, 1]
    # Screen heading: 0 deg points up (north), clockwise positive.
    a = np.radians(icons["heading_deg"])[:, None]
    fx, fy = np.sin(a), -np.cos(a)  # forward in pixel axes (v grows down)
    u = icons["px"][:, 0, None] + fx * along - fy * across
    v = icons["px"][:, 1, None] + fy * along + fx * across
    return np.stack([u, v], axis=2).reshape(len(icons), 8)


def render_svg(frame: RenderFrame) -> str:
    """Vector document for one frame; byte-stable for identical frames."""
    w, h = frame.size
    icons = frame.icons
    u, v = icons["px"].T
    radius = icons["dims_m"].max(axis=1) / 2.0 * PX_PER_M
    # Every value any template takes, per icon; `used` keeps the ones its
    # own template takes, in its order.
    values = np.empty((len(icons), 14), dtype=object)
    values[:, :13] = np.column_stack([_rect_corners(icons), u, v, radius, u, v - 8.0])
    values[:, 13] = icons["id"]
    circle, labelled = icons["kind"] == IconKind.PEDESTRIAN, icons["id"] >= 0
    used = np.empty(values.shape, dtype=bool)
    used[:, :8], used[:, 8:11], used[:, 11:] = ~circle[:, None], circle[:, None], labelled[:, None]
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.0f} {h:.0f}">',
        f'<rect x="0" y="0" width="{w:.0f}" height="{h:.0f}" fill="#1b1f23"/>',
    ]
    if len(icons):
        templates = _ICON_SVG[2 * icons["kind"].astype(np.intp) + labelled]
        lines.append("\n".join(templates) % tuple(values[used]))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_render(frame: RenderFrame, path) -> None:
    """Write the frame's vector document; identical frames give identical bytes."""
    with open(path, "wb") as f:
        f.write(render_svg(frame).encode("utf-8"))


class EgoSimulator:
    """Seeded GPS feed for the ego vehicle, updated at a fixed rate.

    Each update advances along the constant heading and adds seeded Gaussian
    position noise; queries between updates return the latest value.
    """

    def __init__(
        self,
        start: GeodeticPos,
        heading: float = 0.0,
        speed: float = 0.0,
        rate_hz: float = 8.0,
        noise_std: float = 0.0,
        seed: int = 0,
    ):
        if not rate_hz > 0:  # NaN fails too
            raise ValueError(f"rate_hz must be positive, got {rate_hz}")
        if not noise_std >= 0:
            raise ValueError(f"noise_std must be nonnegative, got {noise_std}")
        for name, value in (("heading", heading), ("speed", speed)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        self.start = start
        self.heading = heading % 360.0
        self.speed = speed
        self.rate_hz = rate_hz
        self.noise_std = noise_std
        self.seed = seed

    def state_at(self, t: float) -> EgoState:
        tick = max(0, math.floor(t * self.rate_hz))
        t_update = tick / self.rate_hz
        a = math.radians(self.heading)
        east = self.speed * t_update * math.sin(a)
        north = self.speed * t_update * math.cos(a)
        if self.noise_std > 0:
            rng = np.random.default_rng([self.seed & 0xFFFFFFFF, 0xE60, tick])
            east += rng.normal(0.0, self.noise_std)
            north += rng.normal(0.0, self.noise_std)
        return EgoState(gps=offset_geodetic(self.start, east, north), heading=self.heading)
