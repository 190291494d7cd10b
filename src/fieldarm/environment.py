"""Triangle-mesh environment, robot-body collision checks, pose partitioning.

load_mesh reads an OFF or ASCII STL file as (line number, tokens) rows, one
per non-blank line; one converter, _convert, turns the tokens of the rows
the format's layout picks into numbers and names the line of a bad one.
The robot body is approximated by one capsule per link (spanning consecutive
joint-frame origins) plus one for the magnet tool. The obstacle is one flat
set, build_trees(env): every mesh's triangles, in order, and their axis-aligned
bounding boxes (AABBs). A query tests every capsule's AABB, grown by its
radius, against every triangle's in one array operation (the broad phase),
then runs Ericson's exact segment-triangle distance (Real-Time Collision
Detection, 2005, ch. 5) on the surviving pairs only. Feasibility is decided
for a batch of poses at once: every IK branch of every pose, every capsule.
"""

import enum
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGeometry, ParseError
from .kinematics import (DHTable, Pose, frame_chain, has_spherical_wrist, ik_branch_array,
                         ik_solutions, nearest_first)

_MIN_TRIANGLE_AREA = 1e-12  # m^2
_EPS = 1e-18                # squared lengths and products below this count as zero

# Work sizes; peak memory follows these, not the number of poses or triangles.
POSE_CHUNK = 64                # poses per batched feasibility pass
BROAD_PHASE_CELLS = 1 << 20    # (segment, triangle) AABB tests per broad-phase block
PAIR_CHUNK = 1 << 13           # segment-triangle pairs per narrow-phase kernel call


@dataclass(frozen=True)
class TriangleMesh:
    vertices: np.ndarray   # (N, 3) float, m
    triangles: np.ndarray  # (M, 3) int
    name: str = ""

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=int).reshape(-1, 3)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        bad = ~np.isfinite(v).all(axis=1)
        if bad.any():
            raise ParseError(f"mesh '{self.name}': vertex {int(np.argmax(bad))} is not finite")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise ParseError(f"mesh '{self.name}': triangle index out of range")
        areas = self.areas()
        if np.any(areas <= _MIN_TRIANGLE_AREA):
            i = int(np.argmin(areas))
            raise DegenerateGeometry(
                f"mesh '{self.name}': triangle {i} has area {areas[i]:.3e} m^2"
            )

    def areas(self) -> np.ndarray:
        a = self.vertices[self.triangles[:, 0]]
        b = self.vertices[self.triangles[:, 1]]
        c = self.vertices[self.triangles[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)

    def transformed(self, rotation: np.ndarray, translation) -> "TriangleMesh":
        v = self.vertices @ np.asarray(rotation).T + np.asarray(translation, dtype=float)
        return TriangleMesh(v, self.triangles, self.name)


def _convert(rows, kind, counts, what, first=0):
    """Tokens first .. first + n - 1 of each (line, tokens) row, for n in counts, as
    kind in one flat list; a ParseError names a row short of tokens, else one kind refuses."""
    strings = []
    for (line, tokens), n in zip(rows, counts):
        if len(tokens) < first + n:
            raise ParseError(f"malformed {what}", line=line)
        strings += tokens[first:first + n]
    try:
        return list(map(kind, strings))
    except ValueError:
        if len(rows) > 1:  # row by row, to find the bad one
            for row, n in zip(rows, counts):
                _convert([row], kind, [n], what, first)
        raise ParseError(f"malformed {what}", line=rows[0][0]) from None


def _off_layout(rows, end):
    """Flat vertices and fan triangles of OFF rows: the header, the counts
    (nv nf ...), nv vertex rows (x y z ...), nf face rows (n i_1 .. i_n ...)."""
    rows = [row for row in rows if row[1][0][0] != "#"]  # drops comment rows
    nv, nf = _convert(rows[1:2] or [(end, ())], int, [2], "OFF count line")
    if min(nv, nf) < 0 or len(rows) < 2 + nv + nf:
        raise ParseError(f"OFF counts {nv} {nf}: need both >= 0 and {nv} + {nf} rows below, "
                         f"found {len(rows) - 2}", line=rows[1][0])
    faces = rows[2 + nv:2 + nv + nf]
    sizes = _convert(faces, int, [1] * nf, "face")
    if min(sizes, default=3) < 3:  # names the first face with the fewest
        raise ParseError(f"face with {min(sizes)} vertices", line=faces[sizes.index(min(sizes))][0])
    corners = _convert(faces, int, sizes, "face", first=1)
    starts = np.cumsum([0] + sizes)  # of each face's corners
    if corners and not 0 <= min(corners) <= max(corners) < nv:
        k = next(k for k, i in enumerate(corners) if not 0 <= i < nv)
        raise ParseError(f"face index {corners[k]} is not below {nv}",
                         line=faces[np.searchsorted(starts, k, "right") - 1][0])
    # fan triangle t, of face f, is corners[starts[f]], corners[2 f + t + 1], corners[2 f + t + 2]
    face = np.repeat(np.arange(nf), np.array(sizes, dtype=int) - 2)
    j = 2 * face + np.arange(len(face)) + 1
    return (_convert(rows[2:2 + nv], float, [3] * nv, "vertex"),
            np.array(corners, dtype=int)[np.stack([starts[face], j, j + 1], axis=-1)])


def _stl_layout(rows, end):
    """Flat vertices and triangles of ASCII STL rows: 3 `vertex x y z` per `endfacet`."""
    vertices, facet = [], []
    for row in rows:
        if row[1][0] == "vertex":
            facet.append(row)
        elif row[1][0] == "endfacet":
            if len(facet) != 3:
                raise ParseError(f"facet with {len(facet)} vertices", line=row[0])
            vertices += _convert(facet, float, [3, 3, 3], "vertex", first=1)
            facet = []
    if not vertices:
        raise ParseError("no facets found", line=end)
    return vertices, range(len(vertices) // 3)


def load_mesh(path) -> TriangleMesh:
    """Load an OFF or ASCII STL mesh file, as its line 1 names; validates geometry."""
    path = str(path)
    try:
        with open(path, "r") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read mesh file {path}: {exc}") from None
    head = lines[0].strip() if lines else ""
    if head != "OFF" and not head.startswith("solid"):
        raise ParseError("unrecognised format (expected OFF or ASCII STL)", line=1)
    rows = filter(itemgetter(1), enumerate(map(str.split, lines), start=1))
    return TriangleMesh(*(_off_layout if head == "OFF" else _stl_layout)(rows, len(lines)), path)


# ---------------------------------------------------------------------------
# distance primitives: Ericson, Real-Time Collision Detection (2005), ch. 5,
# broadcast over leading axes of (..., 3) points

def _dot(u, v):
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def _norm(u):
    return np.sqrt(_dot(u, u))


def _over(num, den, valid):
    """num / den where valid, 0 elsewhere, without dividing by a zero."""
    return np.where(valid, num, 0.0) / np.where(valid, den, 1.0)


def _point_triangle_closest(p, a, b, c):
    """Closest point on triangle abc to p (Ericson 5.1.5).

    The Voronoi regions are tested in Ericson's order (vertex a, vertex b,
    edge ab, vertex c, edge ac, edge bc, face); the first that holds wins.
    """
    ab = b - a
    ac = c - a
    ap = p - a
    bp = p - b
    cp = p - c
    d1, d2 = _dot(ab, ap), _dot(ac, ap)
    d3, d4 = _dot(ab, bp), _dot(ac, bp)
    d5, d6 = _dot(ab, cp), _dot(ac, cp)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    on_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    on_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    on_bc = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    regions = [(d1 <= 0) & (d2 <= 0), (d3 >= 0) & (d4 <= d3), on_ab,
               (d6 >= 0) & (d5 <= d6), on_ac, on_bc]
    v_ab = _over(d1, d1 - d3, on_ab)[..., None]
    w_ac = _over(d2, d2 - d6, on_ac)[..., None]
    w_bc = _over(d4 - d3, (d4 - d3) + (d5 - d6), on_bc)[..., None]
    face = va + vb + vc
    inside = face != 0
    v = _over(vb, face, inside)[..., None]
    w = _over(vc, face, inside)[..., None]
    points = [a, b, a + v_ab * ab, c, a + w_ac * ac, b + w_bc * (c - b)]
    return np.select([r[..., None] for r in regions], points, a + ab * v + ac * w)


def _segment_segment_distance(p1, q1, p2, q2):
    """Distance between segments p1q1 and p2q2 (Ericson 5.1.9)."""
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a, e = _dot(d1, d1), _dot(d2, d2)
    b, c, f = _dot(d1, d2), _dot(d1, r), _dot(d2, r)
    point1, point2 = a <= _EPS, e <= _EPS
    denom = a * e - b * b
    s = np.clip(_over(b * f - c * e, denom, denom > _EPS), 0.0, 1.0)
    t = _over(b * s + f, e, ~point2)
    # t outside [0, 1]: clamp it and recompute s for the clamped end
    s = np.where(t < 0.0, np.clip(_over(-c, a, ~point1), 0.0, 1.0),
                 np.where(t > 1.0, np.clip(_over(b - c, a, ~point1), 0.0, 1.0), s))
    t = np.clip(t, 0.0, 1.0)
    # a segment of (near) zero length is its start point
    s = np.where(point2, np.clip(_over(-c, a, ~point1), 0.0, 1.0), s)
    t = np.where(point2, 0.0, t)
    t = np.where(point1, np.clip(_over(f, e, ~point2), 0.0, 1.0), t)
    s = np.where(point1, 0.0, s)
    return _norm(p1 + d1 * s[..., None] - (p2 + d2 * t[..., None]))


def segment_triangle_distance(p, q, a, b, c):
    """Exact minimum distance between segments pq and triangles abc (0 where they meet).

    All five arguments are (..., 3) and broadcast; returns (...). A segment
    that crosses the triangle's plane inside the triangle is at 0; otherwise
    the minimum is at an end point against the face or between the segment
    and an edge. A zero-length segment is a point. The crossing point is
    inside when it lies on the inner side of all three edges: a sign test,
    so a thin triangle does not turn a crossing into a miss.
    """
    p, q, a, b, c = (np.asarray(x, dtype=float) for x in (p, q, a, b, c))
    n = np.cross(b - a, c - a)
    nn = _norm(n)
    flat = nn > _EPS
    n = n / np.where(flat, nn, 1.0)[..., None]
    sp = _dot(p - a, n)
    sq = _dot(q - a, n)
    meets = flat & (sp * sq <= 0) & (np.abs(sp - sq) > _EPS)
    x = p + _over(sp, sp - sq, meets)[..., None] * (q - p)
    for u, v in ((a, b), (b, c), (c, a)):
        meets &= _dot(np.cross(v - u, x - u), n) >= 0.0
    d = np.minimum.reduce([
        _norm(_point_triangle_closest(p, a, b, c) - p),
        _norm(_point_triangle_closest(q, a, b, c) - q),
        _segment_segment_distance(p, q, a, b),
        _segment_segment_distance(p, q, b, c),
        _segment_segment_distance(p, q, c, a),
    ])
    return np.where(meets, 0.0, d)


# ---------------------------------------------------------------------------
# flat AABB broad phase

class AabbTree:
    """Every mesh's triangles, in order, as one flat (M, 3, 3) set (M = 0 for
    no mesh) with their axis-aligned bounding boxes. There is no hierarchy:
    one array comparison of every query box against every triangle box costs
    less in numpy than walking a tree per query.
    """

    def __init__(self, *meshes: TriangleMesh):
        self.triangles = np.concatenate([np.empty((0, 3, 3))]
                                        + [m.vertices[m.triangles] for m in meshes])
        # (3, M), one contiguous row per axis for the broad phase's comparisons
        self.lo = np.ascontiguousarray(self.triangles.min(axis=1).T)
        self.hi = np.ascontiguousarray(self.triangles.max(axis=1).T)

    def segment_distance(self, p, q, upper_bound=np.inf):
        """Min distance from each segment pq to the triangles, capped at upper_bound.

        p, q (..., 3) and upper_bound (...) broadcast; returns (...). A
        triangle whose box is farther than the bound from the segment's box
        along some axis cannot come closer than the bound, so only the
        others reach segment_triangle_distance.
        """
        shape = np.broadcast_shapes(np.shape(p)[:-1], np.shape(q)[:-1], np.shape(upper_bound))
        p, q = (np.broadcast_to(np.asarray(x, dtype=float), shape + (3,)).reshape(-1, 3)
                for x in (p, q))
        best = np.array(np.broadcast_to(upper_bound, shape), dtype=float).reshape(-1)
        lo = np.minimum(p, q) - best[:, None]
        hi = np.maximum(p, q) + best[:, None]
        block = max(1, BROAD_PHASE_CELLS // max(1, len(self.triangles)))
        for start in range(0, len(p), block):
            rows = slice(start, start + block)
            near = np.ones((len(p[rows]), len(self.triangles)), dtype=bool)
            for k in range(3):
                near &= self.lo[k] <= hi[rows, k, None]
                near &= self.hi[k] >= lo[rows, k, None]
            seg, tri = np.nonzero(near)
            seg += start
            for s in range(0, len(seg), PAIR_CHUNK):
                i, t = seg[s:s + PAIR_CHUNK], self.triangles[tri[s:s + PAIR_CHUNK]]
                d = segment_triangle_distance(p[i], q[i], t[:, 0], t[:, 1], t[:, 2])
                np.minimum.at(best, i, d)
        return best.reshape(shape)


class CollisionResult(NamedTuple):
    clear: bool
    min_distance: float | None  # None when the environment is empty


class FeasibilityStatus(enum.Enum):
    REACHABLE = "Reachable"
    IK_FAILURE = "IkFailure"
    COLLISION = "Collision"


@dataclass(frozen=True)
class PoseFeasibility:
    pose: Pose
    status: FeasibilityStatus
    joints: np.ndarray | None

    def __post_init__(self):
        if (self.joints is None) != (self.status == FeasibilityStatus.IK_FAILURE):
            raise ValueError("joints must be present iff IK succeeded")


def build_trees(env: list[TriangleMesh]) -> AabbTree:
    """The collision index of an environment: one AabbTree over every mesh."""
    return AabbTree(*env)


def _capsules(dh: DHTable, q) -> np.ndarray:
    """Capsule axes (..., 7, 2, 3) of configurations q (..., 6): capsule i
    spans the origins of frames i and i + 1 (base, six joints, TCP)."""
    origins = frame_chain(dh, q)[..., :3, 3]
    return np.stack([origins[..., :-1, :], origins[..., 1:, :]], axis=-2)


def _capsule_hits(segments, radii, tree) -> np.ndarray:
    """Whether each capsule (axes (K, 2, 3), radii (K,)) meets the index's triangles."""
    return tree.segment_distance(segments[:, 0], segments[:, 1], radii * 1.0000001) - radii <= 0.0


def check_collision(dh: DHTable, joints, env) -> CollisionResult:
    """Capsule-vs-mesh collision query for one joint configuration.

    min_distance is the smallest gap between a capsule surface and a mesh,
    0 when they touch.
    """
    dh.check_limits(joints)
    if not env:
        return CollisionResult(clear=True, min_distance=None)
    axes = _capsules(dh, joints)
    gap = float(np.min(build_trees(env).segment_distance(axes[:, 0], axes[:, 1])
                       - dh.link_radii))
    if gap <= 0.0:
        return CollisionResult(clear=False, min_distance=0.0)
    return CollisionResult(clear=True, min_distance=gap)


def _branch_verdicts(poses, dh, tree):
    """IK branches (N, 8, 6) of a chunk of poses, the mask of those that exist,
    and the mask of those whose every capsule clears the collision index.

    A capsule that several branches of one pose share (the wrist and tool
    follow from the pose alone; wrist flips share the arm) is checked once:
    capsules count as one when their end points agree to 1e-9 m.
    """
    q, ok = ik_branch_array(dh, np.array([pose.matrix() for pose in poses]))
    clear = ok.copy()
    if not len(tree.triangles) or not ok.any():
        return q, ok, clear
    pose_of, _ = np.nonzero(ok)
    axes = _capsules(dh, q[ok]).reshape(-1, 2, 3)
    n_links = len(dh.link_radii)
    keys = np.column_stack([np.repeat(pose_of, n_links), np.tile(np.arange(n_links), len(pose_of)),
                            np.round(axes.reshape(-1, 6), 9)])
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    radii = np.tile(dh.link_radii, len(pose_of))
    hits = _capsule_hits(axes[first], radii[first], tree)[inverse.reshape(-1)]
    clear[ok] = ~hits.reshape(-1, n_links).any(axis=1)
    return q, ok, clear


def _verdict(pose, pairs) -> PoseFeasibility:
    """Reachable with the first clear solution, else Collision with the first
    solution, else IkFailure; `pairs` are (joints, clear) in preference order."""
    first = None
    for q, clear in pairs:
        if clear:
            return PoseFeasibility(pose, FeasibilityStatus.REACHABLE, q)
        if first is None:
            first = q
    if first is None:
        return PoseFeasibility(pose, FeasibilityStatus.IK_FAILURE, None)
    return PoseFeasibility(pose, FeasibilityStatus.COLLISION, first)


def feasibility_batch(poses, dh, tree, seed, rngs) -> list[PoseFeasibility]:
    """IK, then a check against the collision index `tree`, for poses in input order.

    Each pose gets the _verdict of its ik_solutions from the running seed,
    which starts at `seed` and becomes each pose's joints in turn, mirroring
    a meander scan's locality. For a spherical-wrist table the solutions are
    every IK branch, so Collision is proof; the branches and capsules of
    POSE_CHUNK poses at a time are checked in one array pass. Any other
    table runs the seeded DLS search pose by pose, pose i drawing from
    rngs[i], and checks each solution only when the ones before it collide.
    That verdict depends on the running seed and rngs[i], so partition and
    replace may judge the same pose differently.
    """
    seed = np.asarray(seed, dtype=float)
    spherical = has_spherical_wrist(dh)
    out = []
    for start in range(0, len(poses), POSE_CHUNK):
        chunk = poses[start:start + POSE_CHUNK]
        if spherical:
            q, ok, clear = _branch_verdicts(chunk, dh, tree)
        for i, pose in enumerate(chunk):
            if spherical:
                branches, free = q[i][ok[i]], clear[i][ok[i]]
                pairs = ((branches[j], free[j]) for j in nearest_first(branches, seed))
            else:
                pairs = ((s, not _capsule_hits(_capsules(dh, s), dh.link_radii, tree).any())
                         for s in ik_solutions(dh, pose, seed, rngs[start + i]))
            result = _verdict(pose, pairs)
            if result.joints is not None:
                seed = result.joints
            out.append(result)
    return out


def pose_feasibility(pose, dh, env, seed, rng=None) -> PoseFeasibility:
    """feasibility_batch for one pose, against the meshes of `env`."""
    return feasibility_batch([pose], dh, build_trees(env), seed, [rng])[0]


def partition_pose_dictionary(poses, dh, env, random_seed=0) -> list[PoseFeasibility]:
    """Classify each pose as Reachable / IkFailure / Collision, in input order.

    One feasibility_batch over all poses, whose first IK seed is the home
    configuration. Pose i's DLS search (tables without a spherical wrist)
    draws from np.random.default_rng([random_seed, i]); deterministic for
    fixed inputs.
    """
    poses = list(poses)
    return feasibility_batch(poses, dh, build_trees(env), dh.home(),
                             [[random_seed, i] for i in range(len(poses))])
