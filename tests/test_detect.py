import math

import mpmath
import numpy as np
import pytest
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as csgraph_components

from roadeye.detect import (
    BOX,
    MIN_CLUSTER_EXTENT,
    CLASSES,
    DETECTION,
    BoxResiduals,
    ClusterParams,
    DetectorNoise,
    LossWeights,
    decode_box_residuals,
    detect_cluster,
    detect_oracle,
    direction_flipped,
    direction_loss,
    encode_box_residuals,
    focal_loss,
    localization_loss,
    size_class,
    smooth_l1,
    total_loss,
    truth_boxes,
    _voxel_components,
)
from roadeye.geometry import ObjectClass, OrientedBox3D, normalize_angle, wrap_angles
from roadeye.preproc import GeofenceBounds
from roadeye.scene import PointCloudFrame, ScenarioConfig, sample_box_surface

from conftest import agent, detections

VEHICLE_DIMS = (2.0, 4.5, 1.6)
PED_DIMS = (0.6, 0.6, 1.7)


def _agent(x=0.0, y=0.0, cls=ObjectClass.VEHICLE, dims=VEHICLE_DIMS, heading=0.0):
    return agent(0, cls, [x, y, dims[2] / 2], dims, heading, 0.0)


# --- oracle backend ---------------------------------------------------------

def test_oracle_zero_noise_is_identity(rng):
    agents = [_agent(3.0, -2.0, heading=0.4), _agent(10.0, 5.0, heading=-1.0)]
    agents += [
        _agent(*rng.uniform(-40, 40, 2), heading=rng.uniform(-math.pi, math.pi))
        for _ in range(40)
    ]
    dets = detect_oracle(agents, DetectorNoise(), seed=7)
    assert len(dets) == len(agents)
    for det, a in zip(dets, agents):
        assert (det.box.x, det.box.y, det.box.z) == tuple(a.center)
        assert (det.box.w, det.box.l, det.box.h) == a.dims
        assert det.box.theta == a.heading
        assert det.cls == a.cls
        assert det.score == 1.0 and det.id == -1
    # The survivors are the truth boxes bit for bit, from a list or an array.
    assert dets.tobytes() == truth_boxes(agents).tobytes()
    assert detect_oracle(np.array(agents), DetectorNoise(), seed=7).tobytes() == dets.tobytes()


# The DETECTION layout `truth_boxes` filled one agent at a time, before
# agents became AGENT rows: the reference its column copy must equal.
_PER_AGENT_DETECTION = np.dtype([
    ("box", [(name, "<f8") for name in ("x", "y", "z", "w", "l", "h", "theta")]),
    ("cls", "u1"), ("score", "<f8"), ("id", "<i8"),
])


def test_truth_boxes_is_bit_equal_to_the_per_agent_loop(rng):
    agents = [
        agent(k, cls, [*rng.uniform(-50, 50, 2), dims[2] / 2], dims, rng.uniform(-4, 4), 5.0)
        for k in range(50)
        for cls, dims in [(ObjectClass.VEHICLE, VEHICLE_DIMS), (ObjectClass.PEDESTRIAN, PED_DIMS)]
    ]
    reference = np.array([
        ((*a.center.tolist(), *a.dims, a.heading), int(a.cls), 1.0, -1) for a in agents
    ], _PER_AGENT_DETECTION)
    assert truth_boxes(agents).tobytes() == reference.tobytes()
    assert truth_boxes(np.array(agents)).tobytes() == reference.tobytes()
    assert truth_boxes([]).dtype == DETECTION and len(truth_boxes([])) == 0


def test_oracle_noise_statistics():
    # 200 agents 10 m apart on a line, so each survivor names its agent.
    agents = [_agent(10.0 * k - 1000.0, 0.0) for k in range(200)]
    truth = np.array([a.center for a in agents])
    noise = DetectorNoise(sigma_pos=0.1, p_miss=0.2, fp_rate=3.0)
    offsets, survivors, clutter = [], 0, []
    for seed in range(100):
        dets = detect_oracle(agents, noise, seed=seed)
        kept = dets[dets["score"] == 1.0]["box"]
        centers = np.column_stack([kept["x"], kept["y"], kept["z"]])
        k = np.round((centers[:, 0] + 1000.0) / 10.0).astype(int)
        assert np.all(np.diff(k) > 0)  # survivors keep the agent order
        offsets.append(centers - truth[k])
        survivors += len(kept)
        clutter.append(len(dets) - len(kept))
        assert (kept["w"] == 2.0).all() and (kept["theta"] == 0.0).all()
    offsets = np.concatenate(offsets)
    # Bounds at about five standard errors for these sample sizes.
    assert abs(1.0 - survivors / (100 * 200) - 0.2) <= 0.015
    assert np.all(np.abs(offsets.std(axis=0) - 0.1) <= 0.004)
    assert np.all(np.abs(offsets.mean(axis=0)) <= 0.004)
    assert abs(np.mean(clutter) - 3.0) <= 0.9


def test_oracle_clutter_lies_between_geofence_floor_and_ceiling():
    bounds = GeofenceBounds(z_min=-5.0, z_max=0.0)
    boxes = [
        d.box
        for seed in range(20)
        for d in detect_oracle([], DetectorNoise(fp_rate=50.0), seed=seed, bounds=bounds)
    ]
    assert len(boxes) > 500
    bottoms = np.array([b.z - b.h / 2 for b in boxes])
    tops = np.array([b.z + b.h / 2 for b in boxes])
    centers = np.array([(b.x, b.y, b.z) for b in boxes])
    assert bottoms.min() >= bounds.z_min - 1e-9 and tops.max() <= bounds.z_max + 1e-9
    assert bounds.contains(centers).all()


def test_oracle_all_missed_returns_only_clutter():
    agents = [_agent(), _agent(5.0)]
    dets = detect_oracle(agents, DetectorNoise(p_miss=1.0, fp_rate=2.0), seed=3)
    # Survivor boxes would sit exactly on agent centers; clutter never does.
    for det in dets:
        assert all(
            not np.allclose((det.box.x, det.box.y, det.box.z), a.center) for a in agents
        )


def test_oracle_deterministic_under_seed():
    agents = [_agent(1.0, 1.0)]
    noise = DetectorNoise(sigma_pos=0.2, sigma_dim=0.1, sigma_theta=0.05, p_miss=0.3, fp_rate=1.0)
    a = detect_oracle(agents, noise, seed=11)
    b = detect_oracle(agents, noise, seed=11)
    assert len(a) == len(b)
    for da, db in zip(a, b):
        assert da.box == db.box and da.score == db.score


def test_oracle_position_noise_std():
    car = _agent(0.0, 0.0)
    noise = DetectorNoise(sigma_pos=0.1)
    dx = []
    for seed in range(10000):
        det = detect_oracle([car], noise, seed=seed)[0]
        dx.append(det.box.x - car.center[0])
    std = float(np.std(dx))
    assert abs(std - 0.1) <= 0.005  # within 5% of sigma


def test_noise_validation():
    with pytest.raises(ValueError):
        DetectorNoise(p_miss=1.5)
    with pytest.raises(ValueError):
        DetectorNoise(fp_rate=-1.0)


# --- cluster backend --------------------------------------------------------

def _surface_frame(agents):
    """500 surface points per agent at any range, in L-Coor, with no ground."""
    rng = np.random.default_rng(0)
    xyz = np.vstack([sample_box_surface(a.as_box(), 500, rng) for a in agents])
    xyz[:, 2] -= ScenarioConfig().mount_height
    return PointCloudFrame(t=0.0, points=np.column_stack([xyz, rng.uniform(0.0, 1.0, len(xyz))]))


def test_cluster_two_separated_boxes():
    agents = [_agent(-15.0, -15.0), _agent(15.0, 15.0, heading=1.0)]
    frame = _surface_frame(agents)
    # Frame is in L-Coor (ground at -4.74); cluster expects that height.
    dets = detect_cluster(frame, ClusterParams(voxel=0.3, min_points=10, ground_z=-4.74))
    assert len(dets) == 2


def test_cluster_empty_frame():
    frame = PointCloudFrame(t=0.0, points=np.empty((0, 4)))
    assert len(detect_cluster(frame, ClusterParams())) == 0


@pytest.mark.parametrize("voxel", [0.0, math.nan])
def test_cluster_voxel_must_be_positive(voxel):
    # Accepted, a NaN voxel cast every voxel key from NaN, with only a
    # RuntimeWarning, and a frame of scattered points came out as one cluster.
    with pytest.raises(ValueError, match=rf"^voxel must be positive, got {voxel}"):
        ClusterParams(voxel=voxel)


def test_cluster_center_accuracy():
    agent = _agent(8.0, -4.0, heading=0.5)
    frame = _surface_frame([agent])
    dets = detect_cluster(frame, ClusterParams(voxel=0.3, min_points=10, ground_z=-4.74))
    assert len(dets) == 1
    det = dets[0]
    err = math.hypot(det.box.x - 8.0, det.box.y - (-4.0))
    assert err <= 0.3
    assert CLASSES[det.cls] is ObjectClass.VEHICLE


def test_cluster_output_invariants():
    agents = [
        _agent(-10.0, 0.0),
        _agent(12.0, 6.0, cls=ObjectClass.PEDESTRIAN, dims=(0.6, 0.6, 1.7)),
    ]
    frame = _surface_frame(agents)
    dets = detect_cluster(frame, ClusterParams(voxel=0.3, min_points=5, ground_z=-4.74))
    assert len(dets) > 0
    for det in dets:
        assert det.box.w > 0 and det.box.l > 0 and det.box.h > 0
        assert -math.pi < det.box.theta <= math.pi
        assert 0.0 <= det.score <= 1.0


def test_cluster_classifies_pedestrian_by_footprint():
    ped = _agent(5.0, 5.0, cls=ObjectClass.PEDESTRIAN, dims=(0.6, 0.6, 1.7))
    frame = _surface_frame([ped])
    dets = detect_cluster(frame, ClusterParams(voxel=0.2, min_points=10, ground_z=-4.74))
    assert len(dets) == 1
    assert CLASSES[dets[0].cls] is ObjectClass.PEDESTRIAN


def test_cluster_classifies_a_tall_narrow_box_as_vehicle():
    # Under 1.2 m of footprint, a box is a pedestrian only below 2.2 m.
    rng = np.random.default_rng(0)
    for h, cls in ((1.7, ObjectClass.PEDESTRIAN), (3.0, ObjectClass.VEHICLE)):
        xyz = sample_box_surface(OrientedBox3D(5.0, 5.0, h / 2, 0.9, 0.9, h, 0.0), 500, rng)
        dets = detect_cluster(_frame(xyz), ClusterParams(voxel=0.2, min_points=10, ground_z=-1.0))
        assert len(dets) == 1
        assert CLASSES[dets[0].cls] is cls


def _boxes(dims) -> np.ndarray:
    box = np.zeros(len(dims), BOX)
    box["w"], box["l"], box["h"] = np.asarray(dims, dtype=float).T
    return box


def test_size_class_canonical_shapes():
    got = size_class(_boxes([(0.6, 0.6, 1.7), (1.9, 4.6, 1.6)]))
    assert [CLASSES[c] for c in got] == [ObjectClass.PEDESTRIAN, ObjectClass.VEHICLE]


def test_size_class_boundary_sweep():
    dims = [(w, 0.9, h) for w in np.linspace(0.3, 2.0, 35) for h in (1.0, 2.1, 2.2, 2.5)]
    expected = [
        ObjectClass.PEDESTRIAN if max(w, l) < 1.2 and h < 2.2 else ObjectClass.VEHICLE
        for w, l, h in dims
    ]
    assert [CLASSES[c] for c in size_class(_boxes(dims))] == expected


def test_oracle_clutter_takes_the_size_class():
    dets = np.concatenate([
        detect_oracle([], DetectorNoise(fp_rate=50.0), seed=seed) for seed in range(20)
    ])
    box = dets["box"]
    pedestrian = (np.maximum(box["w"], box["l"]) < 1.2) & (box["h"] < 2.2)
    assert pedestrian.any() and not pedestrian.all()
    expected = np.where(pedestrian, CLASSES.index(ObjectClass.PEDESTRIAN),
                        CLASSES.index(ObjectClass.VEHICLE))
    assert dets["cls"].tolist() == expected.tolist()


def _same_partition(a, b):
    """Whether two labelings split the items alike, up to relabelling."""
    pairs = len(np.unique(np.column_stack([a, b]), axis=0))
    return pairs == len(np.unique(a)) == len(np.unique(b))


@pytest.mark.parametrize("fill", [0.15, 0.3, 0.5])
def test_voxel_components_match_ndimage_label(rng, fill):
    grid = rng.random((14, 11, 9)) < fill
    vox = np.argwhere(grid)
    # Several points per voxel, in shuffled order, exercise the inverse map.
    vox = np.repeat(vox, rng.integers(1, 4, len(vox)), axis=0)
    vox = vox[rng.permutation(len(vox))] - [3, 7, 2]
    ref, _ = ndimage.label(grid, structure=np.ones((3, 3, 3)))
    got = _voxel_components(vox)
    assert _same_partition(got, ref[tuple((vox + [3, 7, 2]).T)])
    # Labels count up in the order of each component's smallest key.
    keys = vox[:, 0] + (vox[:, 1] << 21) + (vox[:, 2] << 42)
    smallest = [keys[got == lbl].min() for lbl in range(got.max() + 1)]
    assert smallest == sorted(smallest)


@pytest.mark.parametrize("shift", [0, -(1 << 19)])
def test_voxel_components_match_brute_force_at_field_ends(rng, shift):
    # Coordinates at both ends of the 2^20 range on every axis: a key step
    # that carried into the next field would link voxels that are far apart.
    top = (1 << 20) - 1
    ends = np.array([0, 1, 2, top - 2, top - 1, top])
    vox = ends[rng.integers(0, len(ends), (160, 3))]
    vox[:2] = [[0, 0, 0], [top, top, top]]  # the span reaches the guard's limit
    vox += shift
    i, j = np.triu_indices(len(vox), 1)
    near = np.abs(vox[i] - vox[j]).max(axis=1) <= 1  # Chebyshev distance
    adj = coo_matrix((np.ones(near.sum()), (i[near], j[near])), shape=(len(vox),) * 2)
    _, ref = csgraph_components(adj, directed=False)
    assert _same_partition(_voxel_components(vox), ref)


def _detect_cluster_reference(frame_h, params):
    """Per-label mask scan: the O(labels x points) form `detect_cluster` replaced."""
    pts = frame_h.xyz[frame_h.xyz[:, 2] > params.ground_z + 0.2]
    if len(pts) == 0:
        return detections([])
    labels = _voxel_components(np.floor(pts / params.voxel).astype(np.int64))
    dets = []
    for lbl in np.unique(labels):
        member = pts[labels == lbl]
        if len(member) < params.min_points:
            continue
        centroid = member.mean(axis=0)
        xy = member[:, :2] - centroid[:2]
        cov = xy.T @ xy / len(xy)
        evals, evecs = np.linalg.eigh(cov)
        major = evecs[:, int(np.argmax(evals))]
        theta = normalize_angle(math.atan2(major[1], major[0]))
        along = xy @ major
        across = xy @ np.array([-major[1], major[0]])
        l = max(float(along.max() - along.min()), MIN_CLUSTER_EXTENT)
        w = max(float(across.max() - across.min()), MIN_CLUSTER_EXTENT)
        h = max(float(member[:, 2].max() - member[:, 2].min()), MIN_CLUSTER_EXTENT)
        # The edge class rule with its own limits: under 1.2 m of footprint
        # and 2.2 m of height is a pedestrian.
        cls = ObjectClass.PEDESTRIAN if max(w, l) < 1.2 and h < 2.2 else ObjectClass.VEHICLE
        box = OrientedBox3D(*centroid, w, l, h, theta)
        dets.append((
            (box.x, box.y, box.z, box.w, box.l, box.h, box.theta),
            CLASSES.index(cls), min(1.0, len(member) / 100.0), -1,
        ))
    return detections(dets)


# The batched fit sums in another order than the per-label loop (segment
# reductions against BLAS products), so box floats may differ in the last
# bits: about 4e-14 m over the crowd workload's frames. 1e-9 m or rad is
# far above that and far below any box size or wire resolution.
BOX_TOL = 1e-9


def _assert_matches_reference(got, ref):
    """Row count, order, class, score and id exactly; box fields within
    BOX_TOL, theta as a wrapped difference."""
    assert len(got) == len(ref)
    for name in ("cls", "score", "id"):
        assert got[name].tolist() == ref[name].tolist()
    for name in "xyzwlh":
        assert np.all(np.abs(got["box"][name] - ref["box"][name]) <= BOX_TOL), name
    assert np.all(np.abs(wrap_angles(got["box"]["theta"] - ref["box"]["theta"])) <= BOX_TOL)


def _frame(xyz):
    xyz = np.asarray(xyz, dtype=float)
    return PointCloudFrame(t=0.0, points=np.column_stack([xyz, np.full(len(xyz), 0.5)]))


def _scattered_frame(seed=801):
    """Sparse clutter plus dense blobs of 3 to 120 points, all above ground."""
    rng = np.random.default_rng(seed)
    clutter = rng.uniform([-40.0, -40.0, -4.4], [40.0, 40.0, -1.0], (800, 3))
    blobs = [
        rng.normal(rng.uniform(-35, 35, 3) * [1, 1, 0] + [0, 0, -3.0], [0.6, 0.3, 0.4], (n, 3))
        for n in rng.integers(3, 120, 40)
    ]
    xyz = np.concatenate([clutter, *blobs])
    xyz[:, 2] = np.maximum(xyz[:, 2], -4.5)
    return _frame(xyz[rng.permutation(len(xyz))])


@pytest.mark.parametrize("min_points", [1, 10, "above_largest"])
def test_cluster_matches_per_label_reference(min_points):
    frame = _scattered_frame()
    params = ClusterParams(voxel=0.3, min_points=1, ground_z=-4.74)
    pts = frame.xyz[frame.xyz[:, 2] > params.ground_z + 0.2]
    sizes = np.bincount(_voxel_components(np.floor(pts / params.voxel).astype(np.int64)))
    assert len(sizes) >= 300
    if min_points == "above_largest":
        min_points = int(sizes.max()) + 1
    params.min_points = min_points
    got = detect_cluster(frame, params)
    _assert_matches_reference(got, _detect_cluster_reference(frame, params))
    assert len(got) == np.count_nonzero(sizes >= min_points)
    if min_points > sizes.max():
        assert len(got) == 0


def test_cluster_singletons_get_minimum_boxes():
    # One point per cluster: zero covariance gives theta 0 and every extent
    # clamps to MIN_CLUSTER_EXTENT.
    xyz = np.array([[0.0, 0.0, 0.0], [5.0, 1.0, 0.5], [-7.0, 3.0, 1.0], [2.0, -9.0, 0.2]])
    frame = _frame(xyz)
    params = ClusterParams(voxel=0.3, min_points=1, ground_z=-4.74)
    got = detect_cluster(frame, params)
    _assert_matches_reference(got, _detect_cluster_reference(frame, params))
    assert len(got) == 4
    assert np.all(got["box"]["theta"] == 0.0)
    for name in "wlh":
        assert np.all(got["box"][name] == MIN_CLUSTER_EXTENT)
    assert sorted(got["box"]["x"].tolist()) == sorted(xyz[:, 0].tolist())


def test_cluster_collinear_points():
    # A level line 30 degrees off x: no spread across it or in height.
    s = np.arange(0.0, 6.0, 0.1)
    angle = math.radians(30.0)
    frame = _frame(np.column_stack([s * math.cos(angle), s * math.sin(angle), np.zeros_like(s)]))
    params = ClusterParams(voxel=0.3, min_points=10, ground_z=-4.74)
    got = detect_cluster(frame, params)
    _assert_matches_reference(got, _detect_cluster_reference(frame, params))
    assert len(got) == 1
    box = got[0].box
    assert abs(math.remainder(box.theta - angle, math.pi)) <= 1e-9
    assert box.l == pytest.approx(s[-1], abs=1e-9)
    assert box.w == box.h == MIN_CLUSTER_EXTENT


def test_cluster_duplicate_points_count_toward_min_points(rng):
    # Spans under one voxel per axis keep every blob one component.
    blob = rng.uniform([3.0, -2.0, 0.0], [3.45, -1.55, 0.45], (4, 3))
    frame = _frame(np.repeat(blob, 3, axis=0))  # 4 places, 12 points
    params = ClusterParams(voxel=0.5, min_points=12, ground_z=-4.74)
    got = detect_cluster(frame, params)
    _assert_matches_reference(got, _detect_cluster_reference(frame, params))
    assert len(got) == 1 and got[0].score == 0.12
    params.min_points = 13
    assert len(detect_cluster(frame, params)) == 0


def test_cluster_kept_interleaved_with_dropped(rng):
    # Components along x, in label order, alternate 15 points (kept) and
    # 4 points (dropped); the points arrive shuffled.
    blobs = [
        rng.uniform([4.0 * k, 1.0, 0.0], [4.0 * k + 0.29, 1.29, 0.29], (15 if k % 2 == 0 else 4, 3))
        for k in range(10)
    ]
    xyz = np.concatenate(blobs)
    frame = _frame(xyz[rng.permutation(len(xyz))])
    params = ClusterParams(voxel=0.3, min_points=10, ground_z=-4.74)
    got = detect_cluster(frame, params)
    _assert_matches_reference(got, _detect_cluster_reference(frame, params))
    assert len(got) == 5
    assert np.all(np.diff(got["box"]["x"]) > 0)
    assert np.all(got["score"] == 0.15)


def test_cluster_all_ground_points_gives_nothing():
    rng = np.random.default_rng(5)
    frame = _frame(rng.uniform([-30.0, -30.0, -4.9], [30.0, 30.0, -4.54], (2000, 3)))
    params = ClusterParams(voxel=0.3, min_points=1, ground_z=-4.74)
    assert len(detect_cluster(frame, params)) == 0
    assert len(_detect_cluster_reference(frame, params)) == 0


# --- residual encoding ------------------------------------------------------

def _box(x=0.0, y=0.0, z=0.0, w=2.0, l=4.0, h=1.6, theta=0.0):
    return OrientedBox3D(x, y, z, w, l, h, theta)


def test_encode_identity_residuals_zero():
    b = _box(1.0, 2.0, 0.5, theta=0.7)
    r = encode_box_residuals(b, b)
    assert r.as_tuple() == (0.0,) * 7


def test_footprint_diagonal_345():
    anchor = _box(w=3.0, l=4.0)
    gt = _box(x=5.0, w=3.0, l=4.0)
    r = encode_box_residuals(gt, anchor)
    assert r.dx == pytest.approx(1.0)  # 5 / d_a with d_a = 5


def test_log_ratio_for_doubled_width():
    anchor = _box(w=2.0)
    gt = _box(w=4.0)
    r = encode_box_residuals(gt, anchor)
    assert r.dw == pytest.approx(math.log(2.0), abs=1e-12)


def test_dtheta_is_sine():
    anchor = _box(theta=0.2)
    gt = _box(theta=0.9)
    r = encode_box_residuals(gt, anchor)
    assert r.dtheta == pytest.approx(math.sin(0.7), abs=1e-15)


def test_decode_zero_residuals_is_anchor():
    anchor = _box(3.0, -1.0, 0.2, theta=0.5)
    zero = BoxResiduals(0, 0, 0, 0, 0, 0, 0)
    out = decode_box_residuals(zero, anchor, dir_flipped=False)
    assert out == anchor
    flipped = decode_box_residuals(zero, anchor, dir_flipped=True)
    assert flipped.theta == pytest.approx(0.5 - math.pi)


def test_decode_rejects_invalid_sine():
    anchor = _box()
    r = BoxResiduals(0, 0, 0, 0, 0, 0, 0)
    r.dtheta = 1.5  # bypass the constructor check
    with pytest.raises(ValueError):
        decode_box_residuals(r, anchor)


def test_residuals_validate_dtheta():
    with pytest.raises(ValueError):
        BoxResiduals(0, 0, 0, 0, 0, 0, 1.2)


def test_roundtrip_within_quarter_turn(rng):
    worst = 0.0
    for _ in range(2000):
        anchor = _box(
            x=rng.uniform(-100, 100), y=rng.uniform(-100, 100), z=rng.uniform(-5, 5),
            w=rng.uniform(0.5, 3.0), l=rng.uniform(0.5, 12.0), h=rng.uniform(0.5, 4.0),
            theta=rng.uniform(-math.pi, math.pi),
        )
        delta = rng.uniform(-math.pi / 2, math.pi / 2)
        gt = _box(
            x=rng.uniform(-100, 100), y=rng.uniform(-100, 100), z=rng.uniform(-5, 5),
            w=rng.uniform(0.5, 3.0), l=rng.uniform(0.5, 12.0), h=rng.uniform(0.5, 4.0),
            theta=anchor.theta + delta,
        )
        r = encode_box_residuals(gt, anchor)
        flipped = direction_flipped(gt.theta, anchor.theta)
        out = decode_box_residuals(r, anchor, flipped)
        for a, b in zip(
            (out.x, out.y, out.z, out.w, out.l, out.h), (gt.x, gt.y, gt.z, gt.w, gt.l, gt.h)
        ):
            worst = max(worst, abs(a - b))
        dt = abs(math.remainder(out.theta - gt.theta, 2 * math.pi))
        worst = max(worst, dt)
    assert worst <= 1e-12


def test_encode_requires_positive_gt_dims():
    anchor = _box()
    bad = _box()
    bad.w = -1.0  # bypass construction check
    with pytest.raises(ValueError):
        encode_box_residuals(bad, anchor)


# --- losses -----------------------------------------------------------------

def test_smooth_l1_branches():
    assert smooth_l1(0.0) == 0.0
    assert smooth_l1(2.0) == pytest.approx(1.5)
    assert smooth_l1(-2.0) == pytest.approx(1.5)
    assert smooth_l1(0.5) == pytest.approx(0.125)
    assert smooth_l1(1.0) == pytest.approx(0.5)  # branch boundary


def test_localization_loss_matches_resummation(rng):
    for _ in range(100):
        a = BoxResiduals(*rng.uniform(-3, 3, 6), rng.uniform(-1, 1))
        b = BoxResiduals(*rng.uniform(-3, 3, 6), rng.uniform(-1, 1))
        expected = 0.0
        for x, y in zip(a.as_tuple(), b.as_tuple()):
            d = x - y
            expected += 0.5 * d * d if abs(d) < 1 else abs(d) - 0.5
        assert localization_loss(a, b) == pytest.approx(expected, abs=1e-15)


def test_localization_loss_zero_on_equal():
    r = BoxResiduals(0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7)
    assert localization_loss(r, r) == 0.0


def test_focal_loss_values():
    assert focal_loss(1.0) == 0.0
    # Closed form at p = 0.5 with alpha 0.25, gamma 2.
    assert focal_loss(0.5) == pytest.approx(0.25 * 0.25 * math.log(2.0), rel=1e-12)


def test_focal_loss_against_mpmath(rng):
    mpmath.mp.dps = 50
    w = LossWeights()
    for _ in range(200):
        p = float(rng.uniform(1e-6, 1.0))
        expected = float(-mpmath.mpf("0.25") * (1 - mpmath.mpf(p)) ** 2 * mpmath.log(mpmath.mpf(p)))
        assert abs(focal_loss(p, w) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_focal_loss_monotone_decreasing(rng):
    ps = np.sort(rng.uniform(0.01, 1.0, 200))
    losses = [focal_loss(float(p)) for p in ps]
    assert all(a >= b for a, b in zip(losses, losses[1:]))
    assert all(v >= 0.0 for v in losses)
    assert all(v > 0.0 for p, v in zip(ps, losses) if p < 1.0)


def test_focal_loss_domain():
    with pytest.raises(ValueError):
        focal_loss(0.0)
    with pytest.raises(ValueError):
        focal_loss(-0.1)
    with pytest.raises(ValueError):
        focal_loss(1.1)


def test_direction_loss_uniform_softmax():
    assert direction_loss(0.3, 0.3, flipped=False) == pytest.approx(math.log(2.0), abs=1e-12)
    assert direction_loss(-1.0, -1.0, flipped=True) == pytest.approx(math.log(2.0), abs=1e-12)


def test_direction_loss_monotone_on_ramp():
    losses = [direction_loss(float(a), 0.0, flipped=False) for a in np.linspace(-5, 15, 50)]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 1e-6


def test_direction_loss_label_swap_symmetry(rng):
    for _ in range(100):
        a, b = rng.uniform(-10, 10, 2)
        assert direction_loss(a, b, False) == pytest.approx(direction_loss(b, a, True), abs=1e-12)


def test_total_loss_default_weights():
    assert total_loss(1.0, 1.0, 1.0, 1) == pytest.approx(3.2, abs=1e-15)
    assert total_loss(0.0, 0.0, 0.0, 4) == 0.0


def test_total_loss_scales_with_n_pos():
    one = total_loss(1.0, 2.0, 3.0, 1)
    two = total_loss(1.0, 2.0, 3.0, 2)
    assert one == pytest.approx(2 * two)


def test_total_loss_rejects_zero_positives():
    with pytest.raises(ValueError):
        total_loss(1.0, 1.0, 1.0, 0)


def test_loss_weights_defaults_and_validation():
    w = LossWeights()
    assert (w.beta_loc, w.beta_cls, w.beta_dir) == (2.0, 1.0, 0.2)
    assert (w.alpha, w.gamma) == (0.25, 2.0)
    with pytest.raises(ValueError):
        LossWeights(beta_loc=-1.0)
