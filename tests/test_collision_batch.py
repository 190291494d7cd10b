"""The batched collision kernel and feasibility pass against the scalar oracle."""

import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import collision_oracle as oracle
import fieldarm.environment
from fieldarm.config import load_config
from fieldarm.environment import (
    AabbTree,
    TriangleMesh,
    _capsule_hits,
    build_trees,
    partition_pose_dictionary,
    segment_triangle_distance,
)
from fieldarm.kinematics import forward_kinematics, magnet_pose_for_field_direction, unit_normal

from conftest import CONFIG_DIR, STANDOFF
from test_environment import _tessellated

WALLED = load_config(os.path.join(CONFIG_DIR, "walled.yaml"))


def _cube(centre, half):
    corners = np.array([[-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
                        [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1]]) * half + centre
    faces = [[0, 2, 1], [0, 3, 2], [4, 5, 6], [4, 6, 7], [0, 1, 5], [0, 5, 4],
             [2, 3, 7], [2, 7, 6], [1, 2, 6], [1, 6, 5], [3, 0, 4], [3, 4, 7]]
    return TriangleMesh(corners, faces, "cube")


# the tool-cube sits where the magnet capsule of poses near (40, 30) deg
# passes, clear of the arm: only the last capsule decides those poses
TOOL_CUBE = _cube(WALLED.sample - 0.15 * unit_normal(math.radians(40.0), math.radians(30.0)),
                  0.012)
ENVIRONMENTS = {
    "walled": WALLED.environment,
    "tessellated": [_tessellated(WALLED.environment[0], 6)],
    "tool-cube": [TOOL_CUBE],
    "wall-and-cube": WALLED.environment + [TOOL_CUBE],
}

COORD = st.floats(-1.0, 1.0, allow_nan=False)
POINT = st.tuples(COORD, COORD, COORD).map(np.array)
# dyadic grid: sums and products of these stay exact in floating point
DYADIC = st.integers(-64, 64).map(lambda k: k / 64.0)


def _area(a, b, c):
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a))


def _kernel(p, q, a, b, c):
    return float(segment_triangle_distance(p, q, a, b, c))


def _agrees(p, q, a, b, c):
    want = oracle.segment_triangle_distance(p, q, a, b, c)
    assert abs(_kernel(p, q, a, b, c) - want) <= 1e-12


@given(p=POINT, q=POINT, a=POINT, b=POINT, c=POINT)
@settings(max_examples=300, deadline=None)
def test_kernel_matches_oracle(p, q, a, b, c):
    assume(_area(a, b, c) > 1e-6)
    _agrees(p, q, a, b, c)


@given(p=POINT, a=POINT, b=POINT, c=POINT)
@example(p=np.array([0.25, 0.25, 0.0]), a=np.zeros(3), b=np.array([1.0, 0.0, 0.0]),
         c=np.array([0.0, 1.0, 0.0]))
@settings(max_examples=150, deadline=None)
def test_kernel_point_segment(p, a, b, c):
    # a zero-length segment is a point: no NaN from its zero direction
    assume(_area(a, b, c) > 1e-6)
    assert np.isfinite(_kernel(p, p, a, b, c))
    _agrees(p, p, a, b, c)


@given(a=POINT, b=POINT, c=POINT, u=st.floats(0.01, 0.98), v=st.floats(0.01, 0.98),
       above=st.floats(1e-6, 1.0), below=st.floats(1e-6, 1.0), tilt=POINT)
# a thin triangle (area 1.4e-3 m^2): a closest-point test of the crossing
# point with a 1e-12 m threshold called this a miss at 7.2e-4 m
@example(a=np.array([0.0, -0.6328125, 0.9609375]), b=np.array([0.0, 0.265625, 0.6442667093192225]),
         c=np.array([0.0, 0.5, 0.55859375]), u=0.5, v=0.25, above=1.0, below=1.0,
         tilt=np.zeros(3))
@settings(max_examples=150, deadline=None)
def test_kernel_segment_through_triangle(a, b, c, u, v, above, below, tilt):
    assume(_area(a, b, c) > 1e-3 and u + v < 0.99)
    n = np.cross(b - a, c - a)
    n /= np.linalg.norm(n)
    x = a + u * (b - a) + v * (c - a)
    direction = n + 0.2 * tilt
    assume(abs(direction @ n) > 0.5)
    p, q = x + above * direction, x - below * direction
    assert _kernel(p, q, a, b, c) == 0.0
    _agrees(p, q, a, b, c)


@given(a=POINT, b=POINT, c=POINT, start=POINT, length=st.floats(-2.0, 2.0),
       edge=st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_kernel_segment_parallel_to_an_edge(a, b, c, start, length, edge):
    assume(_area(a, b, c) > 1e-6)
    corners = (a, b, c)
    direction = corners[(edge + 1) % 3] - corners[edge]
    _agrees(start, start + length * direction, a, b, c)


@given(a=st.tuples(DYADIC, DYADIC), b=st.tuples(DYADIC, DYADIC), c=st.tuples(DYADIC, DYADIC),
       ends=st.lists(st.integers(1, 14).flatmap(
           lambda i: st.tuples(st.just(i), st.integers(1, 15 - i))), min_size=2, max_size=2),
       height=st.integers(1, 64), z=DYADIC, flip=st.booleans())
@settings(max_examples=150, deadline=None)
def test_capsule_at_exactly_its_radius(a, b, c, ends, height, z, flip):
    """A capsule whose radius is exactly its axis' distance to the mesh touches it.

    The axis runs parallel to the triangle's plane above its interior, on
    a dyadic grid, so the distance (the height) is exact in both paths.
    """
    a, b, c = (np.array([x, y, z]) for x, y in (a, b, c))
    assume(_area(a, b, c) > 1e-3)
    if flip:
        a, b = b, a
    # interior points: barycentric weights (i, j, 16 - i - j) / 16, each i + j < 16
    p, q = (a + (i * (b - a) + j * (c - a)) / 16.0 for i, j in ends)
    lift = np.array([0.0, 0.0, height / 64.0])
    p, q = p + lift, q + lift
    radius = oracle.segment_triangle_distance(p, q, a, b, c)
    assert radius == height / 64.0
    assert _kernel(p, q, a, b, c) == radius
    tree = AabbTree(TriangleMesh(np.array([a, b, c]), [[0, 1, 2]], "tri"))
    for r in (radius, np.nextafter(radius, 0.0)):
        hit = bool(tree.segment_distance(p, q, r * 1.0000001) - r <= 0.0)
        assert hit == oracle.capsule_collides(tree.triangles, p, q, r)
    assert oracle.capsule_collides(tree.triangles, p, q, radius)


@given(seed=st.integers(0, 2**32 - 1), bound=st.floats(0.0, 1.5))
@settings(max_examples=15, deadline=None)
def test_segment_distance_is_the_capped_brute_force(seed, bound):
    rng = np.random.default_rng(seed)
    verts = rng.uniform(-1, 1, size=(30, 3))
    tris = [t for t in rng.integers(0, 30, size=(40, 3)) if len(set(t)) == 3]
    mesh = TriangleMesh(verts, tris, "random")
    tree = AabbTree(mesh)
    p, q = rng.uniform(-2, 2, size=(2, 20, 3))
    q[:3] = p[:3]  # point segments too
    got = tree.segment_distance(p, q, bound)
    for i in range(len(p)):
        brute = min(oracle.segment_triangle_distance(p[i], q[i], *mesh.vertices[t])
                    for t in mesh.triangles)
        assert abs(got[i] - min(bound, brute)) <= 1e-12


def _random_mesh(rng, name):
    """Up to 12 random triangles; none at all now and then."""
    verts = rng.uniform(-1, 1, size=(12, 3))
    tris = [t for t in rng.integers(0, 12, size=(rng.integers(0, 13), 3)) if len(set(t)) == 3]
    return TriangleMesh(verts, np.reshape(tris, (-1, 3)), name)


@given(seed=st.integers(0, 2**32 - 1), meshes=st.integers(1, 3),
       bound=st.floats(0.0, 1.5) | st.just(math.inf),
       cells=st.sampled_from([50, 1 << 20]), pairs=st.sampled_from([16, 1 << 13]))
@settings(max_examples=40, deadline=None)
def test_merged_index_is_the_minimum_over_its_meshes(seed, meshes, bound, cells, pairs):
    """build_trees(env) gives, bit for bit, the elementwise minimum of each
    mesh's own AabbTree, whatever its work sizes; a capsule hits the merged
    index exactly when it hits some mesh."""
    rng = np.random.default_rng(seed)
    env = [_random_mesh(rng, f"mesh-{k}") for k in range(meshes)]
    segments = rng.uniform(-2, 2, size=(20, 2, 3))
    segments[:3, 1] = segments[:3, 0]  # point segments too
    p, q = segments[:, 0], segments[:, 1]
    radii = rng.uniform(0.01, 0.5, size=20)
    per_mesh = [AabbTree(m) for m in env]
    want = np.minimum.reduce([t.segment_distance(p, q, bound) for t in per_mesh])
    hits = np.logical_or.reduce([_capsule_hits(segments, radii, t) for t in per_mesh])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fieldarm.environment, "BROAD_PHASE_CELLS", cells)
        patch.setattr(fieldarm.environment, "PAIR_CHUNK", pairs)
        tree = build_trees(env)
        got = tree.segment_distance(p, q, bound)
        got_hits = _capsule_hits(segments, radii, tree)
    assert len(tree.triangles) == sum(len(m.triangles) for m in env)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got_hits, hits)


def _poses(dh, angles, joints):
    poses = [magnet_pose_for_field_direction(WALLED.sample, math.radians(ay), math.radians(az),
                                             STANDOFF) for ay, az in angles]
    return poses + [forward_kinematics(dh, dh.q_min + u * (dh.q_max - dh.q_min)) for u in joints]


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
@given(angles=st.lists(st.tuples(st.floats(-10.0, 90.0), st.floats(-60.0, 120.0)),
                       min_size=1, max_size=12),
       joints=st.lists(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6).map(np.array),
                       max_size=3),
       start=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6).map(np.array))
@settings(max_examples=25, deadline=None)
def test_batch_feasibility_is_the_per_pose_loop(name, angles, joints, start):
    """Status and joints of every pose equal the scalar loop's, seeded in turn.

    Chunks of 5 poses carry the running seed across chunk boundaries.
    """
    dh, env = WALLED.dh, ENVIRONMENTS[name]
    triangles = build_trees(env).triangles
    poses = _poses(dh, angles, joints)
    seed = dh.q_min + start * (dh.q_max - dh.q_min)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fieldarm.environment, "POSE_CHUNK", 5)
        batch = partition_pose_dictionary(poses, dh, env, seed=seed)
    for pose, result in zip(poses, batch):
        status, q = oracle.pose_feasibility(pose, dh, triangles, seed)
        assert result.status.value == status
        assert (q is None and result.joints is None) or np.array_equal(result.joints, q)
        if q is not None:
            seed = q
