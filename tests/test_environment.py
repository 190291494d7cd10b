import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fieldarm.environment
from fieldarm.alignment import sphere_segment_scan
from fieldarm.config import load_config
from fieldarm.environment import (
    AabbTree,
    FeasibilityStatus,
    TriangleMesh,
    build_trees,
    check_collision,
    feasibility_batch,
    load_mesh,
    partition_pose_dictionary,
    pose_feasibility,
    segment_triangle_distance,
)
from fieldarm.errors import DegenerateGeometry, ParseError
from fieldarm.magnetostatics import cylinder_field
from fieldarm.kinematics import (
    POS_TOL,
    Pose,
    forward_kinematics,
    has_spherical_wrist,
    magnet_pose_for_field_direction,
)

import dls_oracle
from conftest import CONFIG_DIR, STANDOFF, frames, ik_branches

WALLED = load_config(os.path.join(CONFIG_DIR, "walled.yaml"))
# walled.yaml with a4 = 0.01 m: no spherical wrist
BENT = load_config(os.path.join(os.path.dirname(__file__), "golden", "bent.yaml"))

UNIT_CUBE_OFF = """OFF
8 12 0
0 0 0
1 0 0
1 1 0
0 1 0
0 0 1
1 0 1
1 1 1
0 1 1
3 0 2 1
3 0 3 2
3 4 5 6
3 4 6 7
3 0 1 5
3 0 5 4
3 2 3 7
3 2 7 6
3 1 2 6
3 1 6 5
3 3 0 4
3 3 4 7
"""

SINGLE_TRIANGLE_STL = """solid tri
  facet normal 0 0 1
    outer loop
      vertex 0 0 0
      vertex 1 0 0
      vertex 0 1 0
    endloop
  endfacet
endsolid tri
"""


def test_load_off_unit_cube(tmp_path):
    path = tmp_path / "cube.off"
    path.write_text(UNIT_CUBE_OFF)
    mesh = load_mesh(str(path))
    assert mesh.vertices.shape == (8, 3)
    assert mesh.triangles.shape == (12, 3)


def test_load_ascii_stl(tmp_path):
    path = tmp_path / "tri.stl"
    path.write_text(SINGLE_TRIANGLE_STL)
    mesh = load_mesh(str(path))
    assert mesh.vertices.shape[0] == 3
    assert mesh.triangles.shape == (1, 3)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(ParseError) as err:
        load_mesh(str(path))
    assert err.value.line is not None


@pytest.mark.parametrize("name, text", [
    ("nan.off", UNIT_CUBE_OFF.replace("\n1 0 0\n", "\n1 nan 0\n", 1)),
    ("inf.stl", SINGLE_TRIANGLE_STL.replace("vertex 0 1 0", "vertex 0 inf 0")),
])
def test_non_finite_vertex_rejected(tmp_path, name, text):
    """A NaN area passes the degenerate-triangle test, so vertices are checked first."""
    path = tmp_path / name
    path.write_text(text)
    index = 1 if name.endswith(".off") else 2
    with pytest.raises(ParseError, match=rf"{name}': vertex {index} is not finite"):
        load_mesh(str(path))


_FILLER = st.lists(st.sampled_from(["", "   ", "# a comment", "  #1 2 3"]), max_size=2)


@st.composite
def _polygon_mesh_files(draw):
    """An OFF and an ASCII STL text of one random mesh of polygons (3 to 6
    corners), with colour values after the face indices, extra tokens after
    the vertex coordinates and blank and `#` lines between the rows; and the
    vertices and fan triangles the OFF text holds."""
    nv = draw(st.integers(3, 10))
    # near the moment curve (k, k^2, k^3): no three vertices on a line
    nudge = st.floats(-0.25, 0.25, allow_nan=False)
    vertices = [[k + draw(nudge), k * k + draw(nudge), k ** 3 + draw(nudge)] for k in range(nv)]
    faces = draw(st.lists(st.lists(st.integers(0, nv - 1), min_size=3, max_size=min(6, nv),
                                   unique=True), min_size=1, max_size=6))
    fan = [[f[0], f[j], f[j + 1]] for f in faces for j in range(1, len(f) - 1)]
    corners = np.array(vertices)[np.array(fan)]
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    assume(np.all(np.linalg.norm(np.cross(b - a, c - a), axis=1) > 1e-6))
    extra = st.lists(st.sampled_from(["0.5", "255", "-1e3", "x"]), max_size=2)
    colour = st.lists(st.sampled_from(["255", "0", "0.5", "1e-3"]), max_size=4)

    def lines(rows):
        return [line for row in rows for line in draw(_FILLER) + [row]]

    off = ["OFF"] + lines([f"{nv} {len(faces)} 0"]
                          + [" ".join([*map(repr, v), *draw(extra)]) for v in vertices]
                          + [" ".join([*map(str, [len(f)] + f), *draw(colour)]) for f in faces])
    stl = ["solid random"] + lines(
        [row for t in fan for row in ["facet normal 0 0 0", "outer loop"]
         + [" ".join(["vertex", *map(repr, vertices[i]), *draw(extra)]) for i in t]
         + ["endloop", "endfacet"]] + ["endsolid random"])
    return "\n".join(off) + "\n", "\n".join(stl) + "\n", vertices, fan


@settings(max_examples=60, deadline=None)
@given(_polygon_mesh_files())
def test_mesh_files_load_what_was_written(tmp_path_factory, files):
    """OFF and ASCII STL, with polygons, colours, extra tokens, blank and
    comment lines: the arrays loaded are exactly the floats and fan written."""
    off, stl, vertices, fan = files
    path = tmp_path_factory.mktemp("mesh")
    (path / "m.off").write_text(off)
    (path / "m.stl").write_text(stl)
    mesh = load_mesh(path / "m.off")
    assert mesh.vertices.tobytes() == np.array(vertices).tobytes()
    assert mesh.triangles.tolist() == fan
    mesh = load_mesh(path / "m.stl")
    assert mesh.vertices.tobytes() == np.array(vertices)[np.array(fan).ravel()].tobytes()
    assert mesh.triangles.tolist() == np.arange(3 * len(fan)).reshape(-1, 3).tolist()


def test_degenerate_triangle_rejected():
    with pytest.raises(DegenerateGeometry):
        TriangleMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]], "degenerate")


def test_triangle_index_out_of_range():
    with pytest.raises(ParseError):
        TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 5]], "bad-index")


def test_mesh_transformed_rigidly():
    mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], "tri")
    R = Pose(0, 0, 0, 0.2, -0.5, 1.1).rotation()
    t = np.array([1.0, -2.0, 0.5])
    moved = mesh.transformed(R, t)
    assert np.allclose(moved.vertices, mesh.vertices @ R.T + t)
    assert np.allclose(moved.areas(), mesh.areas())


def test_segment_triangle_distance_analytic():
    a, b, c = np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
    # segment directly above the triangle interior
    assert np.isclose(
        segment_triangle_distance(np.array([0.2, 0.2, 1.0]), np.array([0.2, 0.2, 2.0]), a, b, c),
        1.0,
    )
    # segment crossing the triangle
    assert np.isclose(
        segment_triangle_distance(np.array([0.2, 0.2, -0.5]), np.array([0.2, 0.2, 0.5]), a, b, c),
        0.0,
    )
    # segment beyond the edge: closest feature is the vertex at the origin
    assert np.isclose(
        segment_triangle_distance(np.array([-1.0, -1.0, 0.0]), np.array([-1.0, -2.0, 0.0]), a, b, c),
        np.sqrt(2.0),
    )


def test_aabb_tree_matches_brute_force():
    rng = np.random.default_rng(2)
    verts = rng.uniform(-1, 1, size=(30, 3))
    tris = rng.integers(0, 30, size=(40, 3))
    keep = [t for t in tris if len(set(t)) == 3]
    mesh = TriangleMesh(verts, keep, "random")
    tree = AabbTree(mesh)
    for _ in range(50):
        p, q = rng.uniform(-2, 2, size=(2, 3))
        brute = min(
            segment_triangle_distance(p, q, *mesh.vertices[t]) for t in mesh.triangles
        )
        assert np.isclose(tree.segment_distance(p, q), brute, atol=1e-12)


def test_check_collision_floor_distance(dh):
    floor = TriangleMesh(
        [[-5, -5, -0.2], [5, -5, -0.2], [5, 5, -0.2], [-5, 5, -0.2]],
        [[0, 1, 2], [0, 2, 3]], "floor",
    )
    result = check_collision(dh, np.zeros(6), [floor])
    assert result.clear
    # the base frame origin sits at z = 0, 0.2 m above the floor plane
    assert np.isclose(result.min_distance, 0.2 - 0.04, atol=1e-9)


def test_check_collision_empty_environment(dh):
    result = check_collision(dh, np.zeros(6), [])
    assert result.clear and result.min_distance is None


def test_check_collision_detects_hit(dh):
    plane = TriangleMesh(
        [[-5, -5, 0.1], [5, -5, 0.1], [5, 5, 0.1], [-5, 5, 0.1]],
        [[0, 1, 2], [0, 2, 3]], "cutting-plane",
    )
    result = check_collision(dh, np.zeros(6), [plane])
    assert not result.clear
    assert result.min_distance == 0.0


def test_check_collision_is_the_minimum_over_the_meshes(tmp_path, arm, wall):
    path = tmp_path / "cube.off"
    path.write_text(UNIT_CUBE_OFF)
    cube = load_mesh(path).transformed(0.1 * np.eye(3), [0.0, 0.1, 0.3])  # a 10 cm cube
    rng = np.random.default_rng(4)
    verdicts = set()
    for _ in range(40):
        q = rng.uniform(arm.q_min * 0.6, arm.q_max * 0.6)
        both = check_collision(arm, q, [wall, cube])
        each = [check_collision(arm, q, [mesh]) for mesh in (wall, cube)]
        assert both.min_distance == min(r.min_distance for r in each)
        assert both.clear == all(r.clear for r in each)
        verdicts.add(tuple(r.clear for r in each))
    assert verdicts == {(True, True), (False, True), (True, False), (False, False)}


def test_collision_monotone_under_shrinking_radii(dh):
    plane = TriangleMesh(
        [[-5, -5, -0.06], [5, -5, -0.06], [5, 5, -0.06], [-5, 5, -0.06]],
        [[0, 1, 2], [0, 2, 3]], "near-floor",
    )
    rng = np.random.default_rng(9)
    for _ in range(20):
        q = rng.uniform(dh.q_min * 0.6, dh.q_max * 0.6)
        fat = dataclasses.replace(dh, link_radii=np.full(7, 0.05))
        thin = dataclasses.replace(dh, link_radii=np.full(7, 0.03))
        if check_collision(fat, q, [plane]).clear:
            assert check_collision(thin, q, [plane]).clear


def test_pose_feasibility_statuses(arm, wall):
    reachable = forward_kinematics(arm, np.array([0.3, 0.4, -0.2, 0.1, 0.5, 0.0]))
    res = pose_feasibility(reachable, arm, [], arm.home())
    assert res.status is FeasibilityStatus.REACHABLE
    assert res.joints is not None

    res = pose_feasibility(Pose(0.5, 0.5, 0.5), arm, [], arm.home())
    assert res.status in (FeasibilityStatus.REACHABLE, FeasibilityStatus.IK_FAILURE)

    behind_wall = Pose(0.2, -0.15, 0.3)
    res = pose_feasibility(behind_wall, arm, [wall], arm.home())
    assert res.status in (FeasibilityStatus.COLLISION, FeasibilityStatus.IK_FAILURE)


def test_partition_deterministic(arm, wall):
    poses = [Pose(0.2, y, 0.3, 0.0, 0.5, 0.2) for y in np.linspace(-0.12, 0.12, 6)]
    first = partition_pose_dictionary(frames(poses), arm, [wall])
    second = partition_pose_dictionary(frames(poses), arm, [wall])
    assert [r.status for r in first] == [r.status for r in second]
    for a, b in zip(first, second):
        if a.joints is not None:
            assert np.allclose(a.joints, b.joints)


def test_partition_mixed_statuses(arm, wall):
    poses = [Pose(0.2, 0.1, 0.3, 0.0, 0.5, 0.2), Pose(0.2, -0.15, 0.3, 0.0, 0.5, 0.2)]
    results = partition_pose_dictionary(frames(poses), arm, [wall])
    assert results[0].status is FeasibilityStatus.REACHABLE
    assert results[1].status is not FeasibilityStatus.REACHABLE



def test_robot_body_validation(dh):
    # the collision body is the DH table's per-link capsule radii
    with pytest.raises(ValueError):
        dataclasses.replace(dh, link_radii=np.full(6, 0.04))
    with pytest.raises(ValueError):
        dataclasses.replace(dh, link_radii=np.array([0.04, 0.04, 0.04, 0.04, 0.04, 0.04, -0.01]))


def _tessellated(mesh, n):
    """The quadrilateral wall c0 c1 c2 c3 cut into 2 n^2 triangles."""
    c0, c1, _, c3 = mesh.vertices
    u, v = np.meshgrid(np.linspace(0, 1, n + 1), np.linspace(0, 1, n + 1), indexing="ij")
    vertices = c0 + u.reshape(-1, 1) * (c1 - c0) + v.reshape(-1, 1) * (c3 - c0)
    triangles = []
    for i in range(n):
        for j in range(n):
            a, b = i * (n + 1) + j, (i + 1) * (n + 1) + j
            triangles += [[a, b, b + 1], [a, b + 1, a + 1]]
    return TriangleMesh(vertices, triangles, "tessellated-wall")


ENVIRONMENTS = {"walled": WALLED.environment,
                "tessellated": [_tessellated(WALLED.environment[0], 6)]}


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
@given(ay=st.floats(-10.0, 90.0), az=st.floats(-60.0, 120.0),
       u=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6).map(np.array))
@settings(max_examples=40, deadline=None)
def test_pose_feasibility_is_brute_force_over_branches(name, ay, az, u):
    dh, env = WALLED.dh, ENVIRONMENTS[name]
    pose = magnet_pose_for_field_direction(WALLED.sample, math.radians(ay), math.radians(az),
                                           STANDOFF)
    seed = dh.q_min + u * (dh.q_max - dh.q_min)
    result = pose_feasibility(pose, dh, env, seed)
    branches = ik_branches(dh, pose)
    clear = [check_collision(dh, q, env).clear for q in branches]
    if not branches:
        assert result.status is FeasibilityStatus.IK_FAILURE
    elif any(clear):
        assert result.status is FeasibilityStatus.REACHABLE
        assert check_collision(dh, result.joints, env).clear
    else:
        assert result.status is FeasibilityStatus.COLLISION
    if branches:
        assert any(np.array_equal(result.joints, q) for q in branches)


@pytest.mark.parametrize("config, steps", [(WALLED, 4), (BENT, 2)], ids=["walled", "bent"])
@given(ay=st.tuples(st.floats(-3600.0, 3600.0), st.floats(-3600.0, 3600.0)),
       az=st.tuples(st.floats(-3600.0, 3600.0), st.floats(-3600.0, 3600.0)),
       random_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=6, deadline=None)
def test_a_stack_is_its_poses_checked_one_at_a_time(config, steps, ay, az, random_seed):
    """A scan's frames, positions, axes and fields, and the verdicts of the
    partition of its frames, equal row by row those of the same pose made by
    magnet_pose_for_field_direction and checked alone by pose_feasibility from
    the running seed with the row's generator."""
    ay_grid = np.radians(np.linspace(*ay, steps))
    az_grid = np.radians(np.linspace(*az, steps))
    scan = sphere_segment_scan(config.sample, ay_grid, az_grid, STANDOFF, config.magnet)
    results = partition_pose_dictionary(scan.frames, config.dh, config.environment, random_seed)
    seed = config.dh.home()
    for i, result in enumerate(results):
        pose = magnet_pose_for_field_direction(config.sample, scan.alpha_y[i], scan.alpha_z[i],
                                               STANDOFF)
        assert scan.frames[i].tobytes() == pose.matrix().tobytes()
        assert scan.positions[i].tobytes() == pose.position.tobytes()
        assert scan.axes[i].tobytes() == pose.axis.tobytes()
        field = cylinder_field(config.magnet, pose.position, pose.axis, config.sample)
        assert scan.fields[i].tobytes() == field.tobytes()
        alone = pose_feasibility(pose, config.dh, config.environment, seed, [random_seed, i])
        assert alone.status is result.status
        assert (alone.joints is None and result.joints is None) or np.array_equal(
            alone.joints, result.joints)
        if alone.joints is not None:
            seed = alone.joints


def test_non_spherical_table_uses_seeded_dls_fallback(arm, wall, monkeypatch):
    a = arm.a.copy()
    a[3] = 0.01
    bent = dataclasses.replace(arm, a=a)
    assert not has_spherical_wrist(bent)

    def no_closed_form(*args):
        raise AssertionError("closed-form IK called for a table without a spherical wrist")

    monkeypatch.setattr(fieldarm.environment, "ik_branch_array", no_closed_form)
    poses = [Pose(0.2, 0.1, 0.3, 0.0, 0.5, 0.2), Pose(0.2, 0.05, 0.3, 0.0, 0.5, 0.2),
             Pose(0.2, -0.15, 0.3, 0.0, 0.5, 0.2)]
    first = partition_pose_dictionary(frames(poses), bent, [wall], random_seed=7)
    again = partition_pose_dictionary(frames(poses), bent, [wall], random_seed=7)
    assert [r.status for r in first] == [r.status for r in again]
    for r, s in zip(first, again):
        assert (r.joints is None and s.joints is None) or np.array_equal(r.joints, s.joints)
    assert first[0].status is FeasibilityStatus.REACHABLE
    assert first[2].status is not FeasibilityStatus.REACHABLE
    for pose, r in zip(poses, first):
        if r.status is FeasibilityStatus.REACHABLE:
            reached = forward_kinematics(bent, r.joints)
            assert np.linalg.norm(reached.position - pose.position) <= POS_TOL
            assert check_collision(bent, r.joints, [wall]).clear


def _partition_against_dls_oracle(angles, u, random_seed):
    """Partition BENT's poses at (ay, az, standoff) triples from the joints
    at fractions `u` of each range, and assert that the flat DLS search gives
    the nested oracle's statuses and joints; returns the oracle's Searches."""
    dh, env = BENT.dh, BENT.environment
    poses = [magnet_pose_for_field_direction(BENT.sample, math.radians(ay), math.radians(az), r)
             for ay, az, r in angles]
    seed = dh.q_min + np.asarray(u) * (dh.q_max - dh.q_min)
    expected = dls_oracle.partition_pose_dictionary(poses, dh, build_trees(env), seed,
                                                    random_seed)
    got = feasibility_batch(frames(poses), dh, build_trees(env), seed,
                            [[random_seed, i] for i in range(len(poses))])
    for want, result in zip(expected, got):
        assert result.status is want.result.status
        assert (result.joints is None and want.result.joints is None) or np.array_equal(
            result.joints, want.result.joints)
    return expected


@pytest.mark.parametrize("angles, random_seed, outcomes", [
    # (status, solutions, solves) along one running-seed chain through each verdict
    ([(70.6, -3.0, 0.16), (11.7, 48.2, 0.16), (79.5, 97.0, 0.16), (70.5, 85.4, 0.3),
      (89.9, 57.4, 0.5)], 2,
     [("Reachable", 3, 7),    # the third solution clears the wall
      ("Collision", 2, 21),   # gives up after two colliding solutions
      ("Collision", 6, 10),   # DLS_BRANCHES solutions, all colliding
      ("IkFailure", 0, 11),   # in reach, DLS_RESTARTS + 1 solves fail
      ("IkFailure", 0, 0)]),  # beyond reach: no solve
    # the sixth and last solution is the first that clears
    ([(49.3, -13.2, 0.16)], 55042, [("Reachable", 6, 18)]),
    # the first solution comes from the last restart, the eleventh solve
    ([(26.2, -8.0, 0.3)], 47186, [("Reachable", 1, 11)]),
])
def test_dls_search_matches_nested_oracle_at_its_limits(angles, random_seed, outcomes):
    searches = _partition_against_dls_oracle(angles, np.full(6, 0.5), random_seed)
    assert [(s.result.status.value, s.solutions, s.solves) for s in searches] == outcomes


@given(angles=st.lists(st.tuples(st.floats(-10.0, 90.0), st.floats(-60.0, 120.0),
                                 st.sampled_from([0.16, 0.3])), min_size=1, max_size=2),
       u=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
       random_seed=st.integers(0, 2**16))
@settings(max_examples=6, deadline=None)
def test_dls_search_matches_nested_oracle(angles, u, random_seed):
    _partition_against_dls_oracle(angles, u, random_seed)
