"""3D multi-object tracking: 2D motion association with an id per detection.

`DETECTION` rows are flattened to plan-view boxes, associated frame to frame
by a constant-velocity Kalman filter plus a minimum-cost assignment of
center distances inside a gate. Components of the pair graph whose rows, or
whose columns, each have a cheapest pair of their own take those pairs,
found for all components in array passes; a solver runs only on the rest.
Each row's `id` is the id of the track the assignment gave it or the track
it started, kept only while that track's updated center lies inside a
Euclidean id gate. Live tracks are held as stacked arrays, one row per track
in creation order, so each frame is a handful of batched array operations.
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
        for name in ("d_o", "gate_assoc"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.max_age >= 1:
            raise ValueError(f"max_age must be >= 1, got {self.max_age}")
        # The update divides by p + r * r: a zero r with a zero p is 0 / 0,
        # and the noises enter squared, so a negative one would pass as positive.
        if not self.measurement_noise > 0:
            raise ValueError(f"measurement_noise must be positive, got {self.measurement_noise}")
        if not self.process_noise >= 0:
            raise ValueError(f"process_noise must be nonnegative, got {self.process_noise}")


# Constant-velocity model over (x, y, w, l, vx, vy), dt one frame, with dims
# modeled static. From the diagonal initial covariance on, only the variances,
# x-vx and y-vy are ever nonzero, so a track's state is one row of 14 columns:
# the mean, the x, y, w and l variances, the x-vx and y-vy covariances and the
# vx and vy variances. _COV_AT lists flat (6, 6) entries, _COV_FROM the state
# columns that fill them.
_MEAN, _VAR, _POS_VEL, _VEL_VAR = slice(0, 6), slice(6, 10), slice(10, 12), slice(12, 14)
_COV_AT = [0, 7, 14, 21, 4, 11, 24, 31, 28, 35]
_COV_FROM = [6, 7, 8, 9, 10, 11, 10, 11, 12, 13]


class Tracker2D:
    """Single-owner association state; one instance per frame stream.

    Row i of `state` (14 columns, see `_MEAN`), `mean`, `cov`, `ids` and
    `misses` is the i-th live track in creation order. A step builds new
    arrays and leaves those read before it as they were.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.state = np.empty((0, 14))
        self.ids = np.empty(0, dtype=np.int64)
        self.misses = np.empty(0, dtype=np.int64)
        self.next_id = 0
        self.last_t: float | None = None
        self.last_assignment_cost = 0.0  # summed matched center distance

    @property
    def mean(self) -> np.ndarray:
        """(n, 6) state means x, y, w, l, vx, vy."""
        return self.state[:, _MEAN]

    @property
    def cov(self) -> np.ndarray:
        """(n, 6, 6) state covariances, built from the state columns."""
        cov = np.zeros((len(self.state), 36))
        cov[:, _COV_AT] = self.state[:, _COV_FROM]
        return cov.reshape(-1, 6, 6)

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
        the track it updated, or the one it started.

        The Kalman step is the 6x6 one (F P F^T + Q, then K = P H^T S^-1 and
        (I - K H) P, symmetrised) written out over the nonzero entries, each
        sum in the order the matrix products form it. S is diagonal, so its
        inverse is the reciprocals."""
        cfg = self.config
        q, r = cfg.process_noise, cfg.measurement_noise
        boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
        s = self.state.copy()
        # Predict. Each column is updated after every column that reads its
        # prior value; dims get a tiny process noise, being modeled static.
        var, pos_vel, vel_var = s[:, _VAR], s[:, _POS_VEL], s[:, _VEL_VAR]
        s[:, :2] += s[:, 4:6]
        var[:, :2] += pos_vel
        var[:, :2] += pos_vel + vel_var
        var += [0.25 * q * q, 0.25 * q * q, 0.01 * q * q, 0.01 * q * q]
        pos_vel += vel_var
        vel_var += q * q

        i, j, d = plan_pairs(s[:, :2], boxes[:, :2], cfg.gate_assoc)
        taken = gated_assignment(len(self.ids), i, j, d)
        rows, cols = i[taken], j[taken]
        self.last_assignment_cost = float(d[taken].sum())

        # Batched Kalman update; H selects the first four state components.
        # As in the prediction, a column is updated after those that read it.
        u = s[rows]
        p, c, v = u[:, _VAR], u[:, _POS_VEL], u[:, _VEL_VAR]
        inv_s = 1.0 / (p + r * r)
        gain, gain_vel = p * inv_s, c * inv_s[:, :2]
        innovation = boxes[cols] - u[:, :4]
        u[:, :4] += gain * innovation
        u[:, 4:6] += gain_vel * innovation[:, :2]
        v -= gain_vel * c
        c[:] = 0.5 * ((1.0 - gain[:, :2]) * c + (c - gain_vel * p[:, :2]))
        p *= 1.0 - gain
        s[rows] = u

        matched = np.zeros(len(self.ids), dtype=bool)
        matched[rows] = True
        self.misses = np.where(matched, 0, self.misses + 1)
        live = self.misses < cfg.max_age  # matched tracks always live

        born = np.ones(len(boxes), dtype=bool)
        born[cols] = False
        n_new = int(born.sum())
        n_live = np.count_nonzero(live)
        at = np.empty(len(boxes), dtype=np.int64)
        at[cols] = np.cumsum(live)[rows] - 1
        at[born] = n_live + np.arange(n_new)
        new_ids = np.arange(self.next_id, self.next_id + n_new)
        self.next_id += n_new
        initial = np.zeros(14)
        initial[_VAR], initial[_VEL_VAR] = r * r, 100.0 * r * r
        self.state = np.concatenate([s[live], np.broadcast_to(initial, (n_new, 14))])
        self.state[n_live:, :4] = boxes[born]
        self.ids = np.concatenate([self.ids[live], new_ids])
        self.misses = np.concatenate([self.misses[live], np.zeros(n_new, dtype=np.int64)])
        return at


def gated_assignment(n_rows: int, i: np.ndarray, j: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Indices, in ascending row, of the in-gate pairs (row i[k], column j[k],
    cost d[k], grouped by row) that a minimum-cost assignment over the dense
    matrix holding d at the pairs and GATE_COST elsewhere keeps inside the
    gate: the largest matching of pairs, and among those the cheapest.

    Connected components of the pair graph are independent subproblems. A
    component whose rows are all clean (`_clean_pairs`) takes each row's
    cheapest pair: that matches every row at the sum of the row minima, and
    every other assignment costs more, so it is the unique optimum and the
    one the solver returns. A component whose columns are all clean takes
    each column's cheapest pair, by the same argument. Every other component
    runs the shortest-augmenting-path solver on its own small dense matrix,
    rows and columns numbered in node order."""
    if not len(i):
        return np.empty(0, dtype=np.int64)
    n_nodes = n_rows + int(j.max()) + 1
    comp = connected_components(n_nodes, i, n_rows + j)[i]
    by_col = np.argsort(j, kind="stable")
    row_pair, by_rows = _clean_pairs(i, j, d, comp, n_nodes)
    col_pair = np.empty_like(row_pair)
    col_pair[by_col], by_cols = _clean_pairs(j[by_col], i[by_col], d[by_col], comp[by_col], n_nodes)
    by_cols &= ~by_rows
    taken = np.flatnonzero(row_pair & by_rows[comp] | col_pair & by_cols[comp]).tolist()
    order = np.flatnonzero(~(by_rows | by_cols)[comp])
    if len(order):
        # One dense matrix per remaining component, rows and columns in node order.
        order = order[np.argsort(comp[order], kind="stable")]
        for k in np.split(order, np.flatnonzero(np.diff(comp[order])) + 1):
            row, col = (np.unique(x[k], return_inverse=True)[1] for x in (i, j))
            cost = np.full((row.max() + 1, col.max() + 1), GATE_COST)
            pair = np.full(cost.shape, -1)
            cost[row, col], pair[row, col] = d[k], k
            chosen = pair[_shortest_augmenting_paths(cost)]
            taken.extend(chosen[chosen >= 0].tolist())
    taken = np.array(taken, dtype=np.int64)
    return taken[np.argsort(i[taken], kind="stable")]


def _clean_pairs(node: np.ndarray, other: np.ndarray, d: np.ndarray, comp: np.ndarray,
                 n_comp: int) -> tuple[np.ndarray, np.ndarray]:
    """For pairs (node[k], other[k], cost d[k], component comp[k]) grouped by
    node: per pair, whether it is its node's clean pair, the strictly
    cheapest of its node with no other node's cheapest pair on the same
    `other`; and per component label below `n_comp`, whether every node in it
    has a clean pair."""
    first = np.empty(len(node), dtype=bool)
    first[0] = True
    np.not_equal(node[1:], node[:-1], out=first[1:])
    starts, group = np.flatnonzero(first), np.cumsum(first) - 1
    cheapest = d == np.minimum.reduceat(d, starts)[group]
    sole = (np.add.reduceat(cheapest, starts) == 1)[group]
    clean = cheapest & sole & (np.bincount(other, cheapest)[other] == 1)
    certified = np.ones(n_comp, dtype=bool)
    certified[comp[starts][~np.logical_or.reduceat(clean, starts)]] = False
    return clean, certified


def _shortest_augmenting_paths(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices, in ascending row, of a minimum-cost assignment
    over a 2-D cost matrix: scipy's `linear_sum_assignment`, by the same
    shortest-augmenting-path method (Crouse 2016) with the same tie rules.
    A matrix with more rows than columns is solved transposed."""
    cost = np.asarray(cost, dtype=float)
    transpose = cost.shape[1] < cost.shape[0]
    n_rows, n_cols = sorted(cost.shape)
    cost = (cost.T if transpose else cost).tolist()
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
    col4row = np.array(col4row, dtype=np.int64)
    if transpose:  # the transpose's rows are the matrix's columns
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(n_rows), col4row


def project_to_2d(dets: np.ndarray) -> np.ndarray:
    """(n, 4) plan-view boxes x, y, w, l of DETECTION rows; drops z, h,
    theta and class."""
    box = dets["box"]
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
