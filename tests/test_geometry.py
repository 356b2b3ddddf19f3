import math

import numpy as np
import pytest

from roadeye.geometry import (
    NonRigidTransformError,
    OrientedBox3D,
    RigidTransform,
    connected_components,
    normalize_angle,
    plan_pairs,
    rotation_about_z,
    rotation_aligning,
    wrap_angles,
)

from conftest import random_rigid


def test_normalize_angle_range():
    rng = np.random.default_rng(1)
    for theta in rng.uniform(-50, 50, 500):
        w = normalize_angle(theta)
        assert -math.pi < w <= math.pi
        # Same direction modulo full turns.
        assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-12)
        assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-12)


def test_normalize_angle_boundary():
    assert normalize_angle(math.pi) == pytest.approx(math.pi)
    assert normalize_angle(-math.pi) == pytest.approx(math.pi)
    assert normalize_angle(3 * math.pi) == pytest.approx(math.pi)


def test_box_requires_positive_dims():
    with pytest.raises(ValueError):
        OrientedBox3D(0, 0, 0, 0.0, 1, 1, 0)
    with pytest.raises(ValueError):
        OrientedBox3D(0, 0, 0, 1, -2, 1, 0)


def test_box_normalizes_theta():
    b = OrientedBox3D(0, 0, 0, 1, 2, 1, 5 * math.pi / 2)
    assert b.theta == pytest.approx(math.pi / 2)


def test_rigid_transform_rejects_non_rigid():
    m = np.eye(4)
    m[0, 0] = 2.0
    with pytest.raises(NonRigidTransformError):
        RigidTransform(m)
    m = np.eye(4)
    m[3, 0] = 0.5
    with pytest.raises(NonRigidTransformError):
        RigidTransform(m)
    # Reflection: orthonormal but det -1.
    m = np.diag([-1.0, 1.0, 1.0, 1.0])
    with pytest.raises(NonRigidTransformError):
        RigidTransform(m)


@pytest.mark.parametrize("at, reason", [
    ((0, 0), "not orthonormal"), ((1, 2), "not orthonormal"),
    ((3, 0), "bottom row"), ((3, 3), "bottom row"),
])
def test_rigid_transform_rejects_nan(at, reason):
    m = np.eye(4)
    m[at] = math.nan
    with pytest.raises(NonRigidTransformError, match=reason):
        RigidTransform(m)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at, reason", [
    ((0, 3), "translation must be finite"), ((1, 3), "translation must be finite"),
    ((2, 3), "translation must be finite"), ((0, 1), "not orthonormal"), ((3, 2), "bottom row"),
])
def test_rigid_transform_rejects_non_finite_entries(at, reason, value):
    m = np.eye(4)
    m[at] = value
    with pytest.raises(NonRigidTransformError, match=reason):
        RigidTransform(m)
    t = RigidTransform()
    t.matrix[at] = value  # set past construction; validate() looks again
    with pytest.raises(NonRigidTransformError, match=reason):
        t.validate()


def test_inverse_and_compose():
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = random_rigid(rng)
        eye = (t @ t.inverse()).matrix
        assert np.allclose(eye, np.eye(4), atol=1e-12)
        p = rng.uniform(-10, 10, 3)
        assert np.allclose(t.inverse().apply_point(t.apply_point(p)), p, atol=1e-12)


def test_yaw_of_z_rotation():
    for yaw in (-2.0, -0.3, 0.0, 1.2, 3.0):
        t = RigidTransform.from_rotation_translation(rotation_about_z(yaw), [0, 0, 0])
        assert t.yaw == pytest.approx(normalize_angle(yaw), abs=1e-12)


def test_rotation_aligning_sends_a_to_b():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        r = rotation_aligning(a, b)
        assert np.allclose(r @ a, b, atol=1e-12)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_rotation_aligning_degenerate_cases():
    z = np.array([0.0, 0.0, 1.0])
    assert np.allclose(rotation_aligning(z, z), np.eye(3), atol=1e-15)
    r = rotation_aligning(z, -z)
    assert np.allclose(r @ z, -z, atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_wrap_angles_matches_normalize_angle(rng):
    # Bit for bit, signed zeros included, over the whole finite range: near
    # zero, where the pipeline uses it (heading plus yaw plus noise), at
    # multiples of pi and their neighbours, and far out to the largest float.
    multiples = math.pi * np.arange(-64.0, 65.0)
    theta = np.concatenate([
        rng.uniform(-3 * math.pi, 3 * math.pi, 10000),
        np.ldexp(rng.uniform(-1.0, 1.0, 20000), rng.integers(-1074, 1024, 20000)),
        multiples, np.nextafter(multiples, math.inf), np.nextafter(multiples, -math.inf),
        [0.0, -0.0, 5e-324, -5e-324, -2 * math.pi, 1e6, -1e6, 1e15, -1e15, 1e300, -1e300,
         np.finfo(float).max, -np.finfo(float).max],
    ])
    got = wrap_angles(theta)
    ref = np.array([normalize_angle(t) for t in theta.tolist()])
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    assert np.all((got > -math.pi) & (got <= math.pi))


def test_plan_pairs_match_the_full_hypot_matrix(rng):
    for trial in range(200):
        # Half the sets sit on a 0.5 m grid, so offsets land exactly on the reach.
        shape_a, shape_b = (int(rng.integers(0, 30)), 2), (int(rng.integers(0, 30)), 2)
        a, b = rng.uniform(-20, 20, shape_a), rng.uniform(-20, 20, shape_b)
        if trial % 2:
            a, b = np.round(a * 2) / 2, np.round(b * 2) / 2
        reach = float(rng.choice([0.5, 2.0, 3.0]))
        full = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
        i, j, d = plan_pairs(a, b, reach)
        assert np.all(np.diff(i) >= 0)
        got = np.full(full.shape, np.inf)
        got[i, j] = d
        assert len(set(zip(i.tolist(), j.tolist()))) == len(i)
        assert np.array_equal(got, np.where(full <= reach, full, np.inf))


def _scipy_components(n, r, c):
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components as scipy_connected_components

    graph = sparse.coo_matrix((np.ones(len(r)), (r, c)), shape=(n, n))
    return scipy_connected_components(graph, directed=False)[1]


@pytest.mark.parametrize("n, r, c", [
    (0, [], []),
    (5, [], []),  # no edges: every node is its own component
    (6, [4, 1], [5, 3]),  # isolated nodes 0 and 2 between the edges
    (5, [3, 4, 3, 4, 2, 2], [4, 3, 4, 3, 2, 0]),  # duplicate, reversed and self edges
], ids=["empty", "no-edges", "isolated", "duplicates"])
def test_connected_components_match_scipy(n, r, c):
    r, c = np.array(r, dtype=np.int64), np.array(c, dtype=np.int64)
    assert connected_components(n, r, c).tolist() == _scipy_components(n, r, c).tolist()


def test_connected_components_of_a_long_chain(rng):
    # A 5,000-node path needs a deep chain of hooks before pointer jumping
    # flattens it; in shuffled order the hooks interleave.
    n = 5000
    for perm in (np.arange(n), rng.permutation(n)):
        labels = connected_components(n, perm[:-1], perm[1:])
        assert labels.tolist() == [0] * n
    split = np.delete(np.arange(n - 1), 2500)  # drop the edge 2500-2501
    labels = connected_components(n, split, split + 1)
    assert labels.tolist() == _scipy_components(n, split, split + 1).tolist()


def test_connected_components_of_random_graphs_match_scipy(rng):
    for _ in range(200):
        n = int(rng.integers(1, 400))
        m = int(rng.integers(0, 2 * n))
        r, c = rng.integers(0, n, m), rng.integers(0, n, m)
        assert connected_components(n, r, c).tolist() == _scipy_components(n, r, c).tolist()
