import itertools
import json
import math

import numpy as np
import pytest

from roadeye import track
from roadeye.config import load_config
from roadeye.detect import CLASSES, DetectorNoise, detect_oracle
from roadeye.scene import AgentSpec, ScenarioConfig, step_scenario
from roadeye.geometry import ObjectClass, plan_pairs
from roadeye.track import (
    GATE_COST,
    Tracker2D,
    TrackerConfig,
    _shortest_augmenting_paths,
    gated_assignment,
    project_to_2d,
    track_frame,
)

from conftest import detections

VEHICLE_DIMS = (2.0, 4.5, 1.6)
PED_DIMS = (0.6, 0.6, 1.7)


def _det(x, y, w=2.0, l=4.5, cls=ObjectClass.VEHICLE):
    """One DETECTION row tuple."""
    h = 1.6 if cls is ObjectClass.VEHICLE else 1.7
    return ((x, y, h / 2, w, l, h, 0.0), CLASSES.index(cls), 1.0, -1)


# --- projection -------------------------------------------------------------

def _boxes(*rows):
    return np.array(rows, dtype=float).reshape(-1, 4)


def test_project_empty():
    assert project_to_2d(detections([])).shape == (0, 4)


def test_project_drops_3d_fields():
    out = project_to_2d(detections([((1, 2, 3, 2, 4, 1.5, 0.3), 0, 1.0, -1)]))
    assert out.tolist() == [[1.0, 2.0, 2.0, 4.0]]


def test_project_fieldwise(rng):
    dets = detections(_det(rng.uniform(-50, 50), rng.uniform(-50, 50),
                           w=rng.uniform(1.5, 2.6), l=rng.uniform(3.5, 12.0)) for _ in range(64))
    out = project_to_2d(dets)
    assert out.shape == (len(dets), 4)
    for d, b in zip(dets, out):
        assert tuple(b) == (d.box.x, d.box.y, d.box.w, d.box.l)


# --- association ------------------------------------------------------------

def test_single_track_keeps_id_across_motion():
    tracker = Tracker2D(TrackerConfig(gate_assoc=2.0))
    tracker.associate(_boxes(0.0, 0.0, 2.0, 4.5))
    ids1 = tracker.ids.copy()
    tracker.associate(_boxes(0.5, 0.0, 2.0, 4.5))
    assert len(ids1) == len(tracker.ids) == 1
    assert ids1[0] == tracker.ids[0]


def test_two_distant_tracks_never_swap():
    tracker = Tracker2D(TrackerConfig())
    ids = set()
    for k in range(10):
        tracker.associate(_boxes(
            (-20.0 + 0.3 * k, 0.0, 2.0, 4.5),
            (20.0 - 0.3 * k, 0.0, 2.0, 4.5),
        ))
        assert len(tracker.ids) == 2
        ids.add(tuple(sorted(tracker.ids.tolist())))
    assert len(ids) == 1  # the same two ids every frame


def _bruteforce_min_assignment(cost: np.ndarray) -> float:
    n = cost.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, j] for i, j in enumerate(perm)))
    return best


def test_assignment_matches_bruteforce_permutations(rng):
    for trial in range(20):
        n = 5
        tracker = Tracker2D(TrackerConfig(gate_assoc=1e6))
        first = [(*rng.uniform(-40, 40, 2), 2.0, 4.5) for _ in range(n)]
        tracker.associate(_boxes(*first))
        second = [(*rng.uniform(-40, 40, 2), 2.0, 4.5) for _ in range(n)]
        # Predicted track positions after one no-velocity step equal the means.
        predicted = tracker.mean[:, :2].tolist()
        cost = np.array([
            [math.hypot(px - x, py - y) for x, y, _, _ in second] for px, py in predicted
        ])
        tracker.associate(_boxes(*second))
        assert tracker.last_assignment_cost == pytest.approx(
            _bruteforce_min_assignment(cost), abs=1e-9
        )


def _gated_pairs(dist: np.ndarray, gate: float):
    """The solver's and scipy's matched (row, col) pairs for a distance matrix
    whose entries above `gate` lie outside the gate."""
    from scipy.optimize import linear_sum_assignment

    i, j = np.nonzero(dist <= gate)
    taken = gated_assignment(dist.shape[0], i, j, dist[i, j])
    rows, cols = linear_sum_assignment(np.where(dist <= gate, dist, GATE_COST))
    keep = dist[rows, cols] <= gate
    return (list(zip(i[taken].tolist(), j[taken].tolist())),
            list(zip(rows[keep].tolist(), cols[keep].tolist())))


def _star(n):
    dist = np.full((n, n), np.inf)
    dist[0, :] = np.linspace(2.0, 0.5, n)  # one row reaching every column
    dist[1:, 0] = np.linspace(0.4, 2.0, n - 1)  # and one column reaching every row
    return dist


def _chain(n):
    dist = np.full((n, n + 1), np.inf)
    dist[np.arange(n), np.arange(n)] = 1.0
    dist[np.arange(n), np.arange(n) + 1] = 0.9
    return dist


@pytest.mark.parametrize("dist", [
    np.empty((0, 4)),
    np.empty((3, 0)),
    np.array([[0.5, 2.9, np.inf, 1.0], [np.inf, 0.7, 0.2, np.inf]]),  # fewer rows
    np.array([[0.5, 2.9], [1.0, np.inf], [np.inf, 0.2], [0.3, 0.4]]),  # more rows
    np.full((3, 3), np.inf),
    _star(6),
    _star(6).T,
    _chain(7),
    _chain(7).T,
], ids=["0xm", "nx0", "n<m", "n>m", "none-in-gate", "star", "star-T", "chain", "chain-T"])
def test_gated_assignment_matches_scipy(dist):
    ours, scipy_pairs = _gated_pairs(dist, 3.0)
    assert ours == scipy_pairs


def test_gated_assignment_of_random_gated_matrices_matches_scipy(rng):
    for _ in range(200):
        n, m = rng.integers(1, 25, 2)
        # From half the pairs inside the 3 m gate (one component) to one in
        # twenty (many small ones, most a single row or column).
        dist = rng.uniform(0.0, rng.choice([6.0, 20.0, 60.0]), (n, m))
        ours, scipy_pairs = _gated_pairs(dist, 3.0)
        assert ours == scipy_pairs
    # Costs on a 0.5 m grid tie everywhere. Components are solved one by one,
    # so among equal-cost assignments the pairs may differ from scipy's over
    # the whole matrix; the count and the (exact) summed cost may not.
    for _ in range(200):
        n, m = rng.integers(1, 25, 2)
        dist = rng.choice(np.arange(0.0, rng.choice([6.5, 20.0]), 0.5), (n, m))
        ours, scipy_pairs = _gated_pairs(dist, 3.0)
        assert len(ours) == len(scipy_pairs)
        assert sum(dist[p] for p in ours) == sum(dist[p] for p in scipy_pairs)
    # One component with every pair in the gate.
    ours, scipy_pairs = _gated_pairs(rng.uniform(0.0, 3.0, (40, 40)), 3.0)
    assert ours == scipy_pairs and len(ours) == 40


def _crowd(rng, n, spacing=None):
    """Plan distances from n tracks to the detections of the objects they
    follow: σ 0.1 m on both, 5 % of the objects missed and n / 20 clutter
    detections, shuffled. Objects lie on a grid `spacing` apart, or without
    one, uniformly at a density that puts most near a neighbour."""
    if spacing is None:
        truth = rng.uniform(0.0, 5.0 * math.sqrt(n), (n, 2))
    else:
        side = math.ceil(math.sqrt(n))
        truth = spacing * np.stack(np.divmod(np.arange(n), side), axis=1).astype(float)
    tracks = truth + rng.normal(0.0, 0.1, truth.shape)
    seen = truth[rng.random(n) >= 0.05]
    dets = np.concatenate([seen + rng.normal(0.0, 0.1, seen.shape),
                           rng.uniform(truth.min(), truth.max(), (n // 20, 2))])
    dets = dets[rng.permutation(len(dets))]
    return np.hypot(*(tracks[:, None, :] - dets[None, :, :]).transpose(2, 0, 1))


def test_gated_assignment_of_crowd_scenes_matches_scipy(rng):
    for _ in range(20):
        ours, scipy_pairs = _gated_pairs(_crowd(rng, 200), 3.0)
        assert ours == scipy_pairs


def test_only_components_without_a_clean_side_reach_the_solver(rng, monkeypatch):
    calls = []

    def counted(cost):
        calls.append(cost)
        return _shortest_augmenting_paths(cost)

    monkeypatch.setattr(track, "_shortest_augmenting_paths", counted)
    dist = _crowd(rng, 100, spacing=10.0)
    ours, scipy_pairs = _gated_pairs(dist, 3.0)
    assert ours == scipy_pairs and calls == []
    # Rows A and B both come cheapest to column 1, and columns 1 and 2 both
    # to row A: neither side is clean, so the component goes to the solver.
    conflict = np.full((dist.shape[0] + 2, dist.shape[1] + 2), np.inf)
    conflict[:-2, :-2] = dist
    conflict[-2:, -2:] = [[0.9, 1.0], [1.1, 3.0]]  # rows A, B; columns 1, 2
    ours, scipy_pairs = _gated_pairs(conflict, 3.0)
    assert ours == scipy_pairs and len(calls) == 1
    a, b = len(conflict) - 2, len(conflict) - 1
    assert ours[-2:] == [(a, conflict.shape[1] - 1), (b, conflict.shape[1] - 2)]


def test_zero_noises_are_refused_before_a_steady_object_loses_its_id(tmp_path):
    # Accepted, noises of 0 made the first update 0 / 0: the track's mean
    # went NaN, and one steady object's ids ran 0, -1, 1, -1.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tracker": {"process_noise": 0.0, "measurement_noise": 0.0}}))
    with pytest.raises(ValueError, match=r"^measurement_noise must be positive, got 0\.0"):
        load_config(path).tracker_config()
    path.write_text(json.dumps({"tracker": {"process_noise": 0.0, "measurement_noise": 0.1}}))
    tracker = Tracker2D(load_config(path).tracker_config())
    ids = [track_frame(tracker, detections([_det(5.0, 2.0)]), 0.1 * k)["id"].tolist()
           for k in range(4)]
    assert ids == [[0]] * 4


def _two_by_two_costs(rng):
    """(k, 4) costs a, b, c, e of 2x2 components, NaN where no pair: every
    one with 3 or 4 pairs on a 0.5 m grid inside a 3 m gate, then random ones
    whose costs lie on that grid or one ulp either side of it."""
    grid = np.arange(0.0, 3.5, 0.5)
    full = np.array(list(itertools.product(grid, repeat=4)))
    costs = [full] + [np.insert(full[::7, :3], gap, np.nan, axis=1) for gap in range(4)]
    near = np.concatenate([np.nextafter(grid, -1.0), grid, np.nextafter(grid, 4.0)])
    near = rng.choice(near[near <= 3.0], (20000, 4))
    near[rng.random(20000) < 0.2, rng.integers(0, 4)] = np.nan
    return np.concatenate(costs + [near])


def test_two_by_two_components_take_the_solvers_pairs(rng):
    from scipy.optimize import linear_sum_assignment

    costs = _two_by_two_costs(rng)
    # Component k holds rows 2k, 2k + 1 and columns 2k, 2k + 1.
    k, at = np.nonzero(~np.isnan(costs))
    i, j = 2 * k + at // 2, 2 * k + at % 2
    taken = gated_assignment(2 * len(costs), i, j, costs[k, at])
    ours = {}
    for r, c in zip(i[taken].tolist(), j[taken].tolist()):
        ours.setdefault(r // 2, []).append((r % 2, c % 2))
    for n, cost in enumerate(costs):
        dense = np.where(np.isnan(cost), GATE_COST, cost).reshape(2, 2)
        solver = list(zip(*(x.tolist() for x in _shortest_augmenting_paths(dense))))
        scipy_pairs = list(zip(*(x.tolist() for x in linear_sum_assignment(dense))))
        expected = [(r, c) for r, c in solver if dense[r, c] < GATE_COST]
        assert ours.get(n, []) == expected, cost
        assert [(r, c) for r, c in scipy_pairs if dense[r, c] < GATE_COST] == expected, cost


def test_solver_equals_scipy_on_rectangular_matrices(rng):
    from scipy.optimize import linear_sum_assignment

    shapes = [(1, 7), (7, 1)] + [tuple(rng.integers(1, 12, 2)) for _ in range(1500)]
    for n, (rows, cols) in enumerate(shapes):
        # Alternately continuous costs and costs on a 0.5 m grid, which tie;
        # 40 % of the entries lie outside the gate.
        if n % 2:
            cost = rng.choice(np.arange(0.0, 3.5, 0.5), (rows, cols))
        else:
            cost = rng.uniform(0.0, 3.0, (rows, cols))
        cost[rng.random((rows, cols)) < 0.4] = GATE_COST
        for dense in (cost, cost.T):
            ours, reference = _shortest_augmenting_paths(dense), linear_sum_assignment(dense)
            assert all(np.array_equal(a, b) for a, b in zip(ours, reference)), dense


def test_gated_assignment_prefers_more_matches_over_cheaper_ones():
    # Greedy takes A-1 at 0.1 and leaves B unmatched; two matches beat one.
    dist = np.array([[0.1, 1.0], [1.0, np.inf]])  # rows A, B; columns 1, 2
    ours, scipy_pairs = _gated_pairs(dist, 3.0)
    assert ours == scipy_pairs == [(0, 1), (1, 0)]


def test_track_deleted_after_max_age_misses():
    tracker = Tracker2D(TrackerConfig(max_age=2))
    tracker.associate(_boxes(0.0, 0.0, 2.0, 4.5))
    tracker.associate(_boxes())
    assert tracker.misses[0] == 1
    tracker.associate(_boxes())
    assert len(tracker.ids) == 0  # deleted after max_age consecutive misses
    assert len(tracker.tracks) == 0


def test_ids_monotonic_never_reused():
    tracker = Tracker2D(TrackerConfig(max_age=1))
    seen = []
    for k in range(5):
        tracker.associate(_boxes(float(100 * k), 0.0, 1.0, 1.0))
        seen.extend(i for i in tracker.ids.tolist() if i not in seen)
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)


def test_covariance_stays_psd(rng):
    tracker = Tracker2D(TrackerConfig())
    for k in range(30):
        tracker.associate(_boxes(float(k) * 0.4 + rng.normal(0, 0.1), rng.normal(0, 0.1), 2.0, 4.5))
        for cov in tracker.cov:
            eig = np.linalg.eigvalsh(cov)
            assert np.all(eig >= -1e-9)
            assert np.allclose(cov, cov.T, atol=1e-12)


# --- ids -------------------------------------------------------------------

def test_box_gets_the_id_of_its_assigned_track_not_an_older_one():
    tracker = Tracker2D(TrackerConfig())
    first = track_frame(tracker, detections([_det(0.0, 0.0), _det(1.5, 0.0)]), 0.0)
    assert first["id"].tolist() == [0, 1]
    # Both tracks lie inside d_o of the box; the assignment gives it track 1.
    out = track_frame(tracker, detections([_det(1.4, 0.0)]), 0.1)
    assert out["id"].tolist() == [1]


def test_two_boxes_near_one_track_get_distinct_ids():
    tracker = Tracker2D(TrackerConfig())
    track_frame(tracker, detections([_det(0.0, 0.0)]), 0.0)
    out = track_frame(tracker, detections([_det(0.3, 0.0), _det(-0.3, 0.0)]), 0.1)
    assert sorted(out["id"].tolist()) == [0, 1]  # one updates track 0, one starts track 1


def test_matched_box_outside_the_id_gate_gets_no_id():
    # Noisy measurements barely move settled tracks. The second box goes to
    # track 1, the only free track in the gate, and stays d_o or more from
    # its updated center, though track 0 lies inside d_o of it.
    tracker = Tracker2D(TrackerConfig(measurement_noise=10.0))
    for k in range(20):
        track_frame(tracker, detections([_det(0.0, 0.0), _det(4.0, 0.0)]), 0.1 * k)
    out = track_frame(tracker, detections([_det(0.0, 0.0), _det(1.5, 0.0)]), 2.0)
    assert tracker.ids.tolist() == [0, 1] and tracker.misses.tolist() == [0, 0]  # both matched
    assert math.hypot(*(tracker.mean[1, :2] - [1.5, 0.0])) >= tracker.config.d_o
    assert out["id"].tolist() == [0, -1]


def test_track_frame_preserves_cardinality_and_payload(rng):
    dets = detections(_det(*rng.uniform(-20, 20, 2)) for _ in range(9))
    tracker = Tracker2D(TrackerConfig())
    assert track_frame(tracker, detections([]), 0.0).tolist() == []
    # A tracking step fills in the id column and leaves every other field as it was.
    tracked = track_frame(tracker, dets, 0.1)
    payload = ["box", "cls", "score"]
    assert tracked[payload].tolist() == dets[payload].tolist()
    assert (tracked["id"] >= 0).all()
    assert dets["id"].tolist() == [-1] * len(dets)


# --- batched filter ---------------------------------------------------------

def _single_track_kalman(mean, cov, z, cfg):
    """Textbook Kalman predict, then update unless z is None: the reference
    for the batched filter."""
    f = np.eye(6)
    f[0, 4] = f[1, 5] = 1.0
    h = np.eye(4, 6)
    q, r = cfg.process_noise, cfg.measurement_noise
    mean = f @ mean
    cov = f @ cov @ f.T + np.diag([0.25 * q * q] * 2 + [0.01 * q * q] * 2 + [q * q] * 2)
    if z is None:
        return mean, cov
    k = cov @ h.T @ np.linalg.inv(h @ cov @ h.T + np.eye(4) * r * r)
    return mean + k @ (z - h @ mean), (np.eye(6) - k @ h) @ cov


def test_batched_update_matches_single_track_kalman(rng):
    cfg = TrackerConfig(gate_assoc=5.0)
    tracker = Tracker2D(cfg)
    start = np.column_stack([np.arange(8) * 20.0, np.zeros(8), np.full(8, 2.0), np.full(8, 4.5)])
    tracker.associate(start)
    expected = [(m, c) for m, c in zip(tracker.mean, tracker.cov)]
    for k in range(1, 6):
        # Track 3 misses every other frame; the rest move with noise.
        z = start + [0.8 * k, 0.3 * k, 0.0, 0.0] + rng.normal(0, 0.1, start.shape)
        seen = np.arange(8) != 3 if k % 2 else np.ones(8, dtype=bool)
        tracker.associate(z[seen])
        expected = [
            _single_track_kalman(mean, cov, z[i] if seen[i] else None, cfg)
            for i, (mean, cov) in enumerate(expected)
        ]
        assert tracker.ids.tolist() == list(range(8))
        for i, (mean, cov) in enumerate(expected):
            assert np.allclose(tracker.mean[i], mean, atol=1e-12)
            assert np.allclose(tracker.cov[i], cov, atol=1e-12)
    assert tracker.misses.tolist() == [0, 0, 0, 1, 0, 0, 0, 0]


def test_tracks_snapshots_follow_the_arrays():
    tracker = Tracker2D(TrackerConfig())
    tracker.associate(_boxes((0.0, 0.0, 2.0, 4.5), (30.0, 0.0, 0.6, 0.6)))
    tracker.associate(_boxes((0.4, 0.0, 2.0, 4.5)))
    snaps = tracker.tracks
    assert [tr.id for tr in snaps] == tracker.ids.tolist() == [0, 1]
    assert [tr.misses for tr in snaps] == [0, 1]
    for tr, mean, cov in zip(snaps, tracker.mean, tracker.cov):
        assert tr.mean.tolist() == mean.tolist() and tr.cov.tolist() == cov.tolist()
    snaps[0].mean[0] = 99.0  # snapshots are copies
    assert tracker.mean[0, 0] != 99.0


class _MatrixTracker:
    """The Kalman step over stacked 6x6 matrices: F P F^T + Q, K from
    np.linalg.inv(S), (I - K H) P, then symmetrised; the reference for the
    column state. Association and lifecycle as in Tracker2D."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.mean, self.cov = np.empty((0, 6)), np.empty((0, 6, 6))
        self.ids, self.misses = np.empty(0, np.int64), np.empty(0, np.int64)
        self.next_id = 0

    def associate(self, boxes):
        cfg = self.cfg
        q, r = cfg.process_noise, cfg.measurement_noise
        f, h = np.eye(6), np.eye(4, 6)
        f[0, 4] = f[1, 5] = 1.0
        noise = np.diag([0.25 * q * q] * 2 + [0.01 * q * q] * 2 + [q * q] * 2)
        self.mean = self.mean @ f.T
        self.cov = f @ self.cov @ f.T + noise
        i, j, d = plan_pairs(self.mean[:, :2], boxes[:, :2], cfg.gate_assoc)
        taken = gated_assignment(len(self.ids), i, j, d)
        rows, cols = i[taken], j[taken]
        cov = self.cov[rows]
        k = cov[:, :, :4] @ np.linalg.inv(cov[:, :4, :4] + np.eye(4) * (r * r))
        innovation = boxes[cols] - self.mean[rows, :4]
        self.mean[rows] += (k @ innovation[:, :, None])[:, :, 0]
        cov = (np.eye(6) - k @ h) @ cov
        self.cov[rows] = 0.5 * (cov + cov.transpose(0, 2, 1))
        matched = np.zeros(len(self.ids), dtype=bool)
        matched[rows] = True
        self.misses = np.where(matched, 0, self.misses + 1)
        live = self.misses < cfg.max_age
        born = np.ones(len(boxes), dtype=bool)
        born[cols] = False
        n_new = int(born.sum())
        initial = np.diag([r * r] * 4 + [100.0 * r * r] * 2)
        self.mean = np.concatenate([self.mean[live], np.pad(boxes[born], ((0, 0), (0, 2)))])
        self.cov = np.concatenate([self.cov[live], np.broadcast_to(initial, (n_new, 6, 6))])
        self.ids = np.concatenate([self.ids[live], np.arange(self.next_id, self.next_id + n_new)])
        self.misses = np.concatenate([self.misses[live], np.zeros(n_new, dtype=np.int64)])
        self.next_id += n_new


def _crowd_boxes(rng, steps):
    """Per step, (n, 4) boxes of a seeded crowd: agents moving in 2 m of one
    another, each seen with probability 0.8, some leaving for good and new
    ones arriving, plus a few clutter boxes."""
    pos = rng.uniform(-20.0, 20.0, (60, 2))
    vel = rng.normal(0.0, 0.6, (60, 2))
    dims = rng.uniform([0.5, 0.5], [2.6, 12.0], (60, 2))
    alive = rng.random(60) < 0.6
    for _ in range(steps):
        pos += vel + rng.normal(0.0, 0.1, pos.shape)
        alive ^= rng.random(60) < 0.05  # departures and arrivals
        seen = alive & (rng.random(60) < 0.8)
        clutter = np.column_stack([rng.uniform(-25.0, 25.0, (3, 2)), rng.uniform(0.5, 3.0, (3, 2))])
        yield rng.permutation(np.concatenate([np.column_stack([pos, dims])[seen], clutter]))


@pytest.mark.parametrize("gate", [0.7, 3.0, 8.0], ids=["tight", "default", "wide"])
def test_column_state_matches_the_6x6_filter_bit_for_bit(rng, gate):
    cfg = TrackerConfig(gate_assoc=gate, max_age=3)
    tracker, reference = Tracker2D(cfg), _MatrixTracker(cfg)
    births = deaths = misses = 0
    for boxes in _crowd_boxes(rng, 60):
        held = tracker.mean, tracker.cov, tracker.tracks
        copies = [a.copy() for a in held]
        before = set(tracker.ids.tolist())
        tracker.associate(boxes)
        reference.associate(boxes)
        for a, b in ((tracker.mean, reference.mean), (tracker.cov, reference.cov),
                     (tracker.ids, reference.ids), (tracker.misses, reference.misses)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(held, copies):  # what was read before the step stays as it was
            assert a.tobytes() == b.tobytes()
        after = set(tracker.ids.tolist())
        births, deaths = births + len(after - before), deaths + len(before - after)
        misses += int((tracker.misses > 0).sum())
    assert births > 60 and deaths > 10 and misses > 30


# --- full per-frame step ----------------------------------------------------

def _scripted_scenario():
    specs = [
        AgentSpec(ObjectClass.VEHICLE, [[-45.0, -6.0], [45.0, -6.0]], 8.0, VEHICLE_DIMS),
        AgentSpec(ObjectClass.VEHICLE, [[-45.0, -2.0], [45.0, -2.0]], 9.0, VEHICLE_DIMS),
        AgentSpec(ObjectClass.VEHICLE, [[45.0, 2.0], [-45.0, 2.0]], 7.5, VEHICLE_DIMS),
        AgentSpec(ObjectClass.VEHICLE, [[45.0, 6.0], [-45.0, 6.0]], 8.5, VEHICLE_DIMS),
        AgentSpec(ObjectClass.PEDESTRIAN, [[30.0, 10.0], [30.0, 25.0]], 1.2, PED_DIMS),
        AgentSpec(ObjectClass.PEDESTRIAN, [[-30.0, 10.0], [-30.0, 25.0]], 1.2, PED_DIMS),
    ]
    return ScenarioConfig(agents=specs, duration=10.0, tick=0.1)


def test_scripted_run_zero_id_switches():
    from roadeye.evaluate import count_id_switches

    cfg = _scripted_scenario()
    tracker = Tracker2D(TrackerConfig())
    assignment_frames = []
    for t in cfg.frame_times():
        agents = step_scenario(cfg, float(t))
        dets = detect_oracle(agents, DetectorNoise(), seed=0)
        tracks = track_frame(tracker, dets, float(t))
        # Zero noise, zero clutter: detection k corresponds to agent k.
        assignment_frames.append([(a.agent_id, tr.id) for a, tr in zip(agents, tracks)])
    assert count_id_switches(assignment_frames) == 0
    final_ids = {tid for _, tid in assignment_frames[-1]}
    assert len(final_ids) == 6 and -1 not in final_ids


def test_no_detection_frame_increments_ages():
    tracker = Tracker2D(TrackerConfig())
    track_frame(tracker, detections([_det(0.0, 0.0)]), 0.0)
    before = tracker.misses[0]
    out = track_frame(tracker, detections([]), 0.1)
    assert len(out) == 0
    assert tracker.misses[0] == before + 1


def test_crossing_pedestrians_preserve_id_set():
    specs = [
        AgentSpec(ObjectClass.PEDESTRIAN, [[-5.0, 0.0], [5.0, 0.0]], 1.2, PED_DIMS),
        AgentSpec(ObjectClass.PEDESTRIAN, [[0.0, -5.0], [0.0, 5.0]], 1.2, PED_DIMS),
    ]
    cfg = ScenarioConfig(agents=specs, duration=8.0, tick=0.1)
    tracker = Tracker2D(TrackerConfig())
    first_ids = None
    for t in cfg.frame_times():
        agents = step_scenario(cfg, float(t))
        dets = detect_oracle(agents, DetectorNoise(), seed=0)
        tracks = track_frame(tracker, dets, float(t))
        ids = {tr.id for tr in tracks if tr.id != -1}
        if first_ids is None and len(ids) == 2:
            first_ids = ids
    assert first_ids is not None
    final = {tr.id for tr in track_frame(tracker, detect_oracle(step_scenario(cfg, 8.0), DetectorNoise(), 0), 8.0)}
    assert final == first_ids


def test_distinct_ids_for_separated_detections():
    cfg = _scripted_scenario()
    tracker = Tracker2D(TrackerConfig())
    d_o = tracker.config.d_o
    for t in cfg.frame_times():
        agents = step_scenario(cfg, float(t))
        dets = detect_oracle(agents, DetectorNoise(), seed=0)
        tracks = track_frame(tracker, dets, float(t))
        centers = [(d.box.x, d.box.y) for d in dets]
        pairwise_far = all(
            math.hypot(a[0] - b[0], a[1] - b[1]) > d_o
            for i, a in enumerate(centers) for b in centers[i + 1:]
        )
        if pairwise_far:
            assigned = [tr.id for tr in tracks if tr.id != -1]
            assert len(assigned) == len(set(assigned))


def test_out_of_order_timestamp_rejected():
    tracker = Tracker2D(TrackerConfig())
    track_frame(tracker, detections([_det(0.0, 0.0)]), 1.0)
    with pytest.raises(ValueError, match="out-of-order"):
        track_frame(tracker, detections([_det(0.0, 0.0)]), 0.5)


def test_tracker_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(d_o=0.0)
    with pytest.raises(ValueError):
        TrackerConfig(max_age=0)
