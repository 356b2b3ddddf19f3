import math
from pathlib import Path

import numpy as np
import pytest

from roadeye.config import load_config
from roadeye.geoloc import GeodeticPos, WGS84
from roadeye.geometry import CLASSES, ObjectClass
from roadeye.onboard import (
    DegenerateMapError,
    EgoSimulator,
    EgoState,
    ICON,
    IconKind,
    RenderFrame,
    build_pixel_map,
    emit_render,
    gps_to_pixel,
    local_en_offset,
    offset_geodetic,
    _rect_corners,
    reconstruct_frame,
    render_svg,
)
from roadeye.pipeline import EdgePipeline
from roadeye.scene import scenario_frames
from roadeye.wire import PerceptionMessage, decode_frame

GOLDEN = Path(__file__).parent / "data" / "render_golden.svg"

ORIGIN = GeodeticPos(40.0, -105.0, 0.0)


# 100 m and 100 px apart on each axis: 1 px/m, v inverted (north up).
REF_A, PX_A = offset_geodetic(ORIGIN, -50.0, -50.0), (350.0, 450.0)
REF_B, PX_B = offset_geodetic(ORIGIN, 50.0, 50.0), (450.0, 350.0)


def _map(viewport=(800.0, 800.0)):
    return build_pixel_map(REF_A, PX_A, REF_B, PX_B, viewport=viewport)


def _msg(east, north, w=2.0, l=4.5, h=1.6, theta=0.0, mid=1, cls=ObjectClass.VEHICLE):
    g = offset_geodetic(ORIGIN, east, north)
    return PerceptionMessage(t=0.0, id=mid, lat=g.lat, lon=g.lon, alt=0.0,
                             w=w, l=l, h=h, theta=theta, cls=CLASSES.index(cls))


def _ego(east=0.0, north=0.0, heading=0.0):
    g = offset_geodetic(ORIGIN, east, north)
    return EgoState(gps=g, heading=heading)


# --- pixel map ---------------------------------------------------------------

def test_unit_ratio_map():
    # cos() is taken at ref A's latitude, so the east ratio carries the
    # equirectangular approximation error (~1e-5 at 100 m spans).
    m = _map()
    assert m.meters_per_pixel_x == pytest.approx(1.0, abs=1e-4)
    assert m.meters_per_pixel_y == pytest.approx(-1.0, abs=1e-4)  # v grows southward


def test_anchor_fidelity():
    m = _map()
    for gps, (u0, v0) in ((REF_A, PX_A), (REF_B, PX_B)):
        u, v = gps_to_pixel(m, gps)
        assert math.hypot(u - u0, v - v0) <= 1.0


def test_midpoint_maps_to_pixel_midpoint():
    m = _map()
    mid_gps = GeodeticPos((REF_A.lat + REF_B.lat) / 2.0, (REF_A.lon + REF_B.lon) / 2.0, 0.0)
    u, v = gps_to_pixel(m, mid_gps)
    assert math.hypot(u - 400.0, v - 400.0) <= 1.0


def test_degenerate_references_rejected():
    a = ORIGIN
    with pytest.raises(DegenerateMapError):
        build_pixel_map(a, (0.0, 0.0), GeodeticPos(a.lat, a.lon + 0.001, 0.0), (10.0, 10.0))
    b = offset_geodetic(a, 30.0, 30.0)
    with pytest.raises(DegenerateMapError):
        build_pixel_map(a, (0.0, 10.0), b, (5.0, 10.0))  # same v


def test_gps_to_pixel_matches_equirectangular_oracle(rng):
    m = _map()
    for _ in range(500):
        east = rng.uniform(-51.2, 51.2)
        north = rng.uniform(-51.2, 51.2)
        g = offset_geodetic(ORIGIN, east, north)
        u, v = gps_to_pixel(m, g)
        # Oracle: independent equirectangular projection about ref A.
        de = WGS84.R * math.cos(math.radians(m.ref_a_gps.lat)) * math.radians(g.lon - m.ref_a_gps.lon)
        dn = WGS84.R * math.radians(g.lat - m.ref_a_gps.lat)
        eu = m.ref_a_px[0] + de / m.meters_per_pixel_x
        ev = m.ref_a_px[1] + dn / m.meters_per_pixel_y
        assert math.hypot(u - eu, v - ev) <= 1.0


def test_colinear_points_stay_colinear(rng):
    m = _map()
    for _ in range(50):
        e0, n0 = rng.uniform(-40, 40, 2)
        de, dn = rng.uniform(-10, 10, 2)
        pts = [gps_to_pixel(m, offset_geodetic(ORIGIN, e0 + k * de, n0 + k * dn)) for k in range(3)]
        (x0, y0), (x1, y1), (x2, y2) = pts
        cross = abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
        span = max(math.hypot(x2 - x0, y2 - y0), 1.0)
        assert cross / span <= 1.0  # within a pixel of the line


# --- reconstruction ----------------------------------------------------------

def test_empty_messages_give_ego_only():
    frame = reconstruct_frame([], _ego(), _map())
    assert len(frame.icons) == 1
    assert frame.icons[0].kind == IconKind.EGO


def test_vehicle_north_of_ego():
    m = _map()
    frame = reconstruct_frame([_msg(0.0, 20.0)], _ego(), m)
    assert len(frame.icons) == 2
    icon = frame.icons[1]
    assert icon.kind == IconKind.VEHICLE
    u, v = gps_to_pixel(m, offset_geodetic(ORIGIN, 0.0, 20.0))
    assert math.hypot(icon.px[0] - u, icon.px[1] - v) <= 1e-9
    # North of ego: smaller v (up on screen).
    assert icon.px[1] < frame.icons[0].px[1]


def test_ego_echo_suppressed():
    frame = reconstruct_frame([_msg(0.5, 0.5)], _ego(), _map())
    assert len(frame.icons) == 1


def test_out_of_viewport_dropped():
    m = _map(viewport=(800.0, 800.0))
    far = _msg(2000.0, 2000.0)
    frame = reconstruct_frame([far], _ego(), m)
    assert len(frame.icons) == 1


def test_icon_bookkeeping_identity(rng):
    m = _map()
    msgs = []
    for k in range(40):
        east = rng.uniform(-900, 900)
        north = rng.uniform(-900, 900)
        msgs.append(_msg(east, north, mid=k))
    ego = _ego()
    frame = reconstruct_frame(msgs, ego, m)
    suppressed = sum(
        1 for msg in msgs
        if math.hypot(*local_en_offset(ego.gps, GeodeticPos(msg.lat, msg.lon, 0.0))) <= 2.0
    )
    outside = 0
    for msg in msgs:
        pos = GeodeticPos(msg.lat, msg.lon, 0.0)
        if math.hypot(*local_en_offset(ego.gps, pos)) <= 2.0:
            continue
        u, v = gps_to_pixel(m, pos)
        if not (0 <= u <= 800 and 0 <= v <= 800):
            outside += 1
    assert len(frame.icons) == len(msgs) - suppressed - outside + 1


def test_pedestrian_message_classified():
    msg = _msg(5.0, 5.0, w=0.6, l=0.6, h=1.7, cls=ObjectClass.PEDESTRIAN)
    frame = reconstruct_frame([msg], _ego(), _map())
    assert frame.icons[1].kind == IconKind.PEDESTRIAN


def test_icon_kind_is_the_record_class_whatever_its_size():
    # Each class's kind shares its name; sizes that fit the other class
    # change nothing.
    assert [IconKind[c.name] for c in CLASSES] == [k + 1 for k in range(len(CLASSES))]
    msgs = [
        _msg(5.0, 5.0, w=0.6, l=0.6, h=1.7, cls=ObjectClass.VEHICLE),
        _msg(-5.0, 5.0, w=2.0, l=4.5, h=1.6, cls=ObjectClass.PEDESTRIAN),
    ]
    kinds = reconstruct_frame(msgs, _ego(), _map()).icons["kind"][1:]
    assert kinds.tolist() == [IconKind.VEHICLE, IconKind.PEDESTRIAN]


def test_shrunken_oracle_vehicle_still_draws_a_vehicle():
    # Large dimension noise shrinks some true vehicles below a pedestrian's
    # size (under 1.2 m of footprint and 2.2 m of height). With no misses
    # and no clutter, record k is agent k; its icon keeps the true class.
    cfg = load_config(overrides={"detector": {"oracle": {"sigma_dim": 10.0}}})
    pipeline = EdgePipeline(cfg)
    pixel_map, ego_feed = cfg.pixel_map(), cfg.ego_simulator()
    drawn = 0
    for agents, frame in scenario_frames(cfg.scenario()):
        decoded = decode_frame(pipeline.process(frame, agents).encoded)
        assert len(decoded.messages) == len(agents)
        shrunk = [
            m for m, a in zip(decoded.messages, agents)
            if CLASSES[a.cls] is ObjectClass.VEHICLE and max(m.w, m.l) < 1.2 and m.h < 2.2
        ]
        icons = reconstruct_frame(shrunk, ego_feed.state_at(decoded.t_frame), pixel_map).icons
        assert (icons["kind"][1:] == IconKind.VEHICLE).all()
        drawn += len(icons) - 1
    assert drawn >= 5


# --- emission ----------------------------------------------------------------

def _icons(*rows):
    return np.array(list(rows), dtype=ICON)


def _fixed_frame():
    return RenderFrame(
        icons=_icons(
            (IconKind.EGO, (400.0, 420.0), 0.0, (1.9, 4.6), -1),
            (IconKind.VEHICLE, (300.0, 350.0), 90.0, (2.0, 4.5), 7),
            (IconKind.PEDESTRIAN, (500.0, 300.0), 180.0, (0.6, 0.6), 12),
        ),
        size=(800.0, 800.0),
    )


def test_emit_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_render(_fixed_frame(), a)
    emit_render(_fixed_frame(), b)
    assert a.read_bytes() == b.read_bytes()


def test_emit_shape_count(tmp_path):
    path = tmp_path / "f.svg"
    emit_render(_fixed_frame(), path)
    text = path.read_text()
    shapes = text.count("<polygon") + text.count("<circle")
    assert shapes == 3
    assert text.count("<rect") == 1  # background only


def test_emit_matches_golden():
    assert render_svg(_fixed_frame()).encode() == GOLDEN.read_bytes()


_FILL = {IconKind.EGO: "#e8821e", IconKind.VEHICLE: "#2e6fd8", IconKind.PEDESTRIAN: "#3aa655"}


def _per_icon_svg(frame):
    """The document with one str.format call per icon: the reference for
    render_svg's single pass."""
    w, h = frame.size
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.0f} {h:.0f}">',
        f'<rect x="0" y="0" width="{w:.0f}" height="{h:.0f}" fill="#1b1f23"/>',
    ]
    icons = frame.icons
    u, v = icons["px"].T
    radius = icons["dims_m"].max(axis=1) / 2.0 * 8.0
    rows = np.column_stack([_rect_corners(icons), u, v, radius, v - 8.0]).tolist()
    for icon, row in zip(frame.icons, rows):
        if icon.kind == IconKind.PEDESTRIAN:
            text = '<circle cx="{8:.2f}" cy="{9:.2f}" r="{10:.2f}" '
        else:
            text = ('<polygon points="{0:.2f},{1:.2f} {2:.2f},{3:.2f} {4:.2f},{5:.2f} '
                    '{6:.2f},{7:.2f}" ')
        text += f'fill="{_FILL[icon.kind]}"/>'
        if icon.id >= 0:
            text += ('\n<text x="{8:.2f}" y="{11:.2f}" fill="#e6e6e6" font-size="11" '
                     'text-anchor="middle">{12}</text>')
        lines.append(text.format(*row, int(icon.id)))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


_EGO = (IconKind.EGO, (400.0, 420.0), 0.0, (1.9, 4.6), -1)


@pytest.mark.parametrize("rows", [
    [],
    [_EGO],
    [_EGO, (IconKind.VEHICLE, (300.0, 350.0), 33.3, (2.0, 4.5), -1)],
    [_EGO, (IconKind.VEHICLE, (300.0, 350.0), 33.3, (2.0, 4.5), 0)],
    [_EGO, (IconKind.PEDESTRIAN, (500.0, 300.0), 180.0, (0.6, 0.7), -1)],
    [_EGO, (IconKind.PEDESTRIAN, (500.0, 300.0), 180.0, (0.6, 0.7), 2**31 - 1)],
    [(IconKind.EGO, (-0.001, 1e4), 359.9, (1.9, 4.6), 5),
     (IconKind.VEHICLE, (-250.0, -0.004), 270.0, (2.6, 12.0), 7),
     (IconKind.PEDESTRIAN, (812.5, -3.0), 0.0, (0.6, 0.6), -1)],
], ids=["empty", "ego", "vehicle", "vehicle-labelled", "pedestrian", "pedestrian-labelled",
        "off-screen"])
def test_render_matches_per_icon_formatting(rows):
    frame = RenderFrame(icons=_icons(*rows), size=(800.0, 600.0))
    assert render_svg(frame) == _per_icon_svg(frame)


def test_render_matches_per_icon_formatting_on_random_frames(rng):
    for n in (1, 2, 7, 190):
        icons = np.zeros(n, ICON)
        icons["kind"] = rng.integers(1, 3, n)
        icons["kind"][0] = IconKind.EGO
        icons["px"] = rng.uniform(-100.0, 900.0, (n, 2))
        icons["heading_deg"] = rng.uniform(0.0, 360.0, n)
        icons["dims_m"] = rng.uniform(0.3, 12.0, (n, 2))
        icons["id"] = np.where(rng.random(n) < 0.3, -1, rng.integers(0, 2**31, n))
        frame = RenderFrame(icons=icons)
        assert render_svg(frame) == _per_icon_svg(frame)


def test_render_frame_rejects_two_egos():
    with pytest.raises(ValueError):
        RenderFrame(
            icons=_icons(
                (IconKind.EGO, (0.0, 0.0), 0.0, (1.9, 4.6), -1),
                (IconKind.EGO, (1.0, 1.0), 0.0, (1.9, 4.6), -1),
            ),
        )


# --- ego feed ----------------------------------------------------------------

def test_ego_simulator_updates_at_rate():
    sim = EgoSimulator(start=ORIGIN, heading=90.0, speed=8.0, rate_hz=8.0)
    s0 = sim.state_at(0.0)
    s_mid = sim.state_at(0.11)  # still within the first 8 Hz tick
    s1 = sim.state_at(0.125)
    assert s_mid.gps == sim.state_at(0.1).gps
    de0, _ = local_en_offset(ORIGIN, s0.gps)
    de1, _ = local_en_offset(ORIGIN, s1.gps)
    assert de0 == pytest.approx(0.0)
    assert de1 == pytest.approx(8.0 * 0.125, abs=1e-6)


@pytest.mark.parametrize("field, value, rule", [
    ("rate_hz", math.nan, "positive"),
    ("noise_std", -0.5, "nonnegative"),
    ("noise_std", math.nan, "nonnegative"),
    ("heading", math.nan, "finite"),
    ("heading", math.inf, "finite"),
    ("speed", math.nan, "finite"),
    ("speed", -math.inf, "finite"),
])
def test_ego_simulator_refuses_settings_it_cannot_run_on(field, value, rule):
    # Accepted, a NaN rate failed at the first query, in the tick's floor, a
    # negative or NaN noise meant no noise, and a non-finite heading or speed
    # failed at the first query as a NaN latitude.
    with pytest.raises(ValueError, match=rf"^{field} must be {rule}, got {value}"):
        EgoSimulator(start=ORIGIN, **{field: value})


def test_ego_simulator_noise_deterministic():
    a = EgoSimulator(start=ORIGIN, noise_std=0.5, seed=4).state_at(1.0)
    b = EgoSimulator(start=ORIGIN, noise_std=0.5, seed=4).state_at(1.0)
    assert a.gps == b.gps
