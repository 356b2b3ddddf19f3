"""3D multi-object tracking: 2D motion association with an id per detection.

`DETECTION` rows are flattened to plan-view boxes, associated frame to frame
by a constant-velocity Kalman filter plus a minimum-cost assignment of
center distances inside a gate. Each row's `id` is the id of the track the
assignment gave it or the track it started, kept only while that track's
updated center lies inside a Euclidean id gate. Live tracks are held as
stacked arrays, one row per track in creation order, so each frame is a
handful of batched array operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import connected_components, plan_pairs

GATE_COST = 1.0e9  # cost assigned to pairs outside the association gate


class TrackRow(np.record):
    """One live track: id, state mean (x, y, w, l, vx, vy), its covariance and
    the frames it has gone unmatched. Fields read as attributes, `mean` too,
    which on a plain record names numpy's method."""

    mean = property(lambda self: self["mean"])


TRACK = np.dtype((TrackRow, [("id", "i8"), ("mean", "f8", (6,)), ("cov", "f8", (6, 6)),
                             ("misses", "i8")]))


@dataclass
class TrackerConfig:
    d_o: float = 2.0  # m, id gate
    gate_assoc: float = 3.0  # m, association gate
    max_age: int = 5
    process_noise: float = 0.1
    measurement_noise: float = 0.1

    def __post_init__(self):
        if self.d_o <= 0:
            raise ValueError("d_o must be positive")
        if self.max_age < 1:
            raise ValueError("max_age must be >= 1")


# Constant-velocity model over (x, y, w, l, vx, vy); dt is one frame.
_F = np.eye(6)
_F[0, 4] = 1.0
_F[1, 5] = 1.0
_H = np.zeros((4, 6))
_H[:4, :4] = np.eye(4)


def _initial_covariance(cfg: TrackerConfig) -> np.ndarray:
    r = cfg.measurement_noise
    return np.diag([r * r, r * r, r * r, r * r, 100.0 * r * r, 100.0 * r * r])


def _process_noise(cfg: TrackerConfig) -> np.ndarray:
    q = cfg.process_noise
    # Dims are modeled static: tiny process noise only.
    return np.diag([0.25 * q * q, 0.25 * q * q, 0.01 * q * q, 0.01 * q * q, q * q, q * q])


class Tracker2D:
    """Single-owner association state; one instance per frame stream.

    Row i of `mean`, `cov`, `ids` and `misses` is the i-th live track in
    creation order.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.mean = np.empty((0, 6))
        self.cov = np.empty((0, 6, 6))
        self.ids = np.empty(0, dtype=np.int64)
        self.misses = np.empty(0, dtype=np.int64)
        self.next_id = 0
        self.last_t: float | None = None
        self.last_assignment_cost = 0.0  # summed matched center distance

    @property
    def tracks(self) -> np.ndarray:
        """A copy of the live tracks as TRACK rows, in creation order."""
        out = np.empty(len(self.ids), TRACK)
        out["id"], out["mean"] = self.ids, self.mean
        out["cov"], out["misses"] = self.cov, self.misses
        return out

    def associate(self, boxes: np.ndarray) -> np.ndarray:
        """Predict, match `boxes` (n, 4: x, y, w, l), update, and manage the
        track lifecycle; returns each box's row in the updated track arrays:
        the track it updated, or the one it started."""
        cfg = self.config
        boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
        self.mean = self.mean @ _F.T
        self.cov = _F @ self.cov @ _F.T + _process_noise(cfg)

        i, j, d = plan_pairs(self.mean[:, :2], boxes[:, :2], cfg.gate_assoc)
        taken = gated_assignment(len(self.ids), i, j, d)
        rows, cols = i[taken], j[taken]
        self.last_assignment_cost = float(d[taken].sum())

        # Batched Kalman update; H selects the first four state components.
        r = cfg.measurement_noise
        cov = self.cov[rows]
        k = cov[:, :, :4] @ np.linalg.inv(cov[:, :4, :4] + np.eye(4) * (r * r))
        innovation = boxes[cols] - self.mean[rows, :4]
        self.mean[rows] += (k @ innovation[:, :, None])[:, :, 0]
        cov = (np.eye(6) - k @ _H) @ cov
        self.cov[rows] = 0.5 * (cov + cov.transpose(0, 2, 1))

        matched = np.zeros(len(self.ids), dtype=bool)
        matched[rows] = True
        self.misses = np.where(matched, 0, self.misses + 1)
        live = self.misses < cfg.max_age  # matched tracks always live

        born = np.ones(len(boxes), dtype=bool)
        born[cols] = False
        n_new = int(born.sum())
        at = np.empty(len(boxes), dtype=np.int64)
        at[cols] = np.cumsum(live)[rows] - 1
        at[born] = np.count_nonzero(live) + np.arange(n_new)
        new_ids = np.arange(self.next_id, self.next_id + n_new)
        self.next_id += n_new
        self.mean = np.concatenate([self.mean[live], np.pad(boxes[born], ((0, 0), (0, 2)))])
        self.cov = np.concatenate(
            [self.cov[live], np.broadcast_to(_initial_covariance(cfg), (n_new, 6, 6))]
        )
        self.ids = np.concatenate([self.ids[live], new_ids])
        self.misses = np.concatenate([self.misses[live], np.zeros(n_new, dtype=np.int64)])
        return at


def gated_assignment(n_rows: int, i: np.ndarray, j: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Indices, in ascending row, of the in-gate pairs (row i[k], column j[k],
    cost d[k]) that a minimum-cost assignment over the dense matrix holding d
    at the pairs and GATE_COST elsewhere keeps inside the gate: the largest
    matching of pairs, and among those the cheapest.

    Connected components of the pair graph are independent subproblems. One
    whose pairs share a single row or a single column takes its cheapest
    pair; any other runs the shortest-augmenting-path solver on its own
    small dense matrix."""
    if not len(i):
        return np.empty(0, dtype=np.int64)
    n_nodes = n_rows + int(j.max()) + 1
    comp = connected_components(n_nodes, i, n_rows + j)[i]
    order = np.lexsort((j, d, comp))  # by component, cheapest pair first
    comp, i_s, j_s = comp[order], i[order], j[order]
    starts = np.flatnonzero(np.diff(comp, prepend=-1))
    single = (np.minimum.reduceat(i_s, starts) == np.maximum.reduceat(i_s, starts)) | (
        np.minimum.reduceat(j_s, starts) == np.maximum.reduceat(j_s, starts)
    )
    taken = order[starts[single]].tolist()
    if not single.all():
        # Number each general component's rows and columns from 0, in order.
        sizes = np.diff(starts, append=len(order))
        keep = np.repeat(~single, sizes)
        order, comp, i_s, j_s = order[keep], comp[keep], i_s[keep], j_s[keep]
        sizes = sizes[~single]
        first = np.cumsum(sizes) - sizes
        local = []
        for node in (i_s, j_s):
            rank = np.unique(comp * n_nodes + node, return_inverse=True)[1]
            base = np.minimum.reduceat(rank, first)
            local.append(rank - np.repeat(base, sizes))
        n_r = np.maximum.reduceat(local[0], first) + 1
        n_c = np.maximum.reduceat(local[1], first) + 1
        row_l, col_l = local[0].tolist(), local[1].tolist()
        d_l, k_l = d[order].tolist(), order.tolist()
        for s, e, nr, nc in zip(first.tolist(), (first + sizes).tolist(),
                                n_r.tolist(), n_c.tolist()):
            a_l, b_l = (col_l, row_l) if nr > nc else (row_l, col_l)
            nr, nc = min(nr, nc), max(nr, nc)
            cost = [[GATE_COST] * nc for _ in range(nr)]
            pair = [[-1] * nc for _ in range(nr)]
            for k in range(s, e):
                cost[a_l[k]][b_l[k]] = d_l[k]
                pair[a_l[k]][b_l[k]] = k_l[k]
            for a, b in enumerate(_shortest_augmenting_paths(cost)):
                if pair[a][b] >= 0:
                    taken.append(pair[a][b])
    taken = np.array(taken, dtype=np.int64)
    return taken[np.argsort(i[taken], kind="stable")]


def _shortest_augmenting_paths(cost: list[list[float]]) -> list[int]:
    """Column per row minimising the summed cost of a dense matrix given as
    rows, with no more rows than columns: the shortest-augmenting-path
    method (Crouse 2016), in the form and with the tie rules of scipy's
    `linear_sum_assignment`."""
    n_rows, n_cols = len(cost), len(cost[0])
    u, v = [0.0] * n_rows, [0.0] * n_cols
    path, col4row, row4col = [-1] * n_cols, [-1] * n_rows, [-1] * n_cols
    for cur in range(n_rows):
        # Grow a shortest-path tree from row `cur` over reduced costs until
        # it reaches a free column (the sink).
        short = [math.inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        seen_rows, seen_cols = [], []
        low, i, sink = 0.0, cur, -1
        while sink < 0:
            seen_rows.append(i)
            row, u_i, lowest, index = cost[i], u[i], math.inf, -1
            for it, j in enumerate(remaining):
                r = low + row[j] - u_i - v[j]
                s = short[j]
                if r < s:
                    path[j] = i
                    short[j] = s = r
                if s < lowest or (s == lowest and row4col[j] < 0):
                    lowest, index = s, it
            low = lowest
            j = remaining[index]
            remaining[index] = remaining[-1]
            remaining.pop()
            seen_cols.append(j)
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
        # Update the duals, then flip the path's assignments.
        u[cur] += low
        for i in seen_rows[1:]:
            u[i] += low - short[col4row[i]]
        for j in seen_cols:
            v[j] -= low - short[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def project_to_2d(dets: np.ndarray) -> np.ndarray:
    """(n, 4) plan-view boxes x, y, w, l of DETECTION rows; drops z, h,
    theta and class."""
    box = np.asarray(dets)["box"]  # plain-array field access, also for a recarray
    return np.column_stack([box["x"], box["y"], box["w"], box["l"]])


def track_frame(tracker: Tracker2D, dets: np.ndarray, t: float) -> np.ndarray:
    """One tracking step at frame time `t`: project to 2D and associate;
    returns a copy of the DETECTION rows with `id` filled in, -1 where the
    row's updated track lies d_o or more from it."""
    if tracker.last_t is not None and not t > tracker.last_t:
        raise ValueError(f"out-of-order timestamp {t} after {tracker.last_t}")
    tracker.last_t = t
    boxes = project_to_2d(dets)
    at = tracker.associate(boxes)
    off = tracker.mean[at, :2] - boxes[:, :2]
    out = dets.copy()
    out["id"] = np.where(np.hypot(off[:, 0], off[:, 1]) < tracker.config.d_o, tracker.ids[at], -1)
    return out
