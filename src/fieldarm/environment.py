"""Triangle-mesh environment, robot-body collision checks, pose partitioning.

The robot body is approximated by one capsule per link (spanning consecutive
joint-frame origins) plus one for the magnet tool. Collision queries run a
broad phase over an axis-aligned bounding-box tree and a narrow phase of
exact segment-triangle distances.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, EndpointInCollision, NoSolution, ParseError
from .kinematics import (
    DHTable,
    Pose,
    frame_chain,
    has_spherical_wrist,
    ik_branches,
    inverse_kinematics,
)

_MIN_TRIANGLE_AREA = 1e-12  # m^2


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


def _parse_off(lines, name):
    idx = 0
    if not lines or lines[0].strip() != "OFF":
        raise ParseError("expected 'OFF' header", line=1)
    idx = 1
    # skip blank/comment lines
    while idx < len(lines) and (not lines[idx].split() or lines[idx].lstrip().startswith("#")):
        idx += 1
    if idx >= len(lines):
        raise ParseError("missing OFF count line", line=len(lines))
    counts = lines[idx].split()
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except (ValueError, IndexError):
        raise ParseError("malformed OFF count line", line=idx + 1) from None
    idx += 1
    vertices = []
    for k in range(nv):
        if idx + k >= len(lines):
            raise ParseError("unexpected end of file in vertex block", line=len(lines))
        parts = lines[idx + k].split()
        try:
            vertices.append([float(parts[0]), float(parts[1]), float(parts[2])])
        except (ValueError, IndexError):
            raise ParseError("malformed vertex", line=idx + k + 1) from None
    idx += nv
    triangles = []
    for k in range(nf):
        if idx + k >= len(lines):
            raise ParseError("unexpected end of file in face block", line=len(lines))
        parts = lines[idx + k].split()
        try:
            n = int(parts[0])
            poly = [int(p) for p in parts[1 : 1 + n]]
        except (ValueError, IndexError):
            raise ParseError("malformed face", line=idx + k + 1) from None
        if n < 3:
            raise ParseError(f"face with {n} vertices", line=idx + k + 1)
        for j in range(1, n - 1):  # fan-triangulate polygons
            triangles.append([poly[0], poly[j], poly[j + 1]])
    return TriangleMesh(np.array(vertices), np.array(triangles), name)


def _parse_stl_ascii(lines, name):
    vertices = []
    triangles = []
    current = []
    for i, raw in enumerate(lines):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == "vertex":
            try:
                current.append([float(parts[1]), float(parts[2]), float(parts[3])])
            except (ValueError, IndexError):
                raise ParseError("malformed vertex", line=i + 1) from None
        elif parts[0] == "endfacet":
            if len(current) != 3:
                raise ParseError(f"facet with {len(current)} vertices", line=i + 1)
            base = len(vertices)
            vertices.extend(current)
            triangles.append([base, base + 1, base + 2])
            current = []
    if not triangles:
        raise ParseError("no facets found", line=len(lines) or 1)
    return TriangleMesh(np.array(vertices), np.array(triangles), name)


def load_mesh(path) -> TriangleMesh:
    """Load an ASCII STL or OFF mesh file; validates geometry."""
    path = str(path)
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    head = lines[0].strip()
    if head == "OFF":
        return _parse_off(lines, name=path)
    if head.startswith("solid"):
        return _parse_stl_ascii(lines, name=path)
    raise ParseError("unrecognised format (expected OFF or ASCII STL)", line=1)


# ---------------------------------------------------------------------------
# distance primitives

def _point_triangle_closest(p, a, b, c):
    """Closest point on triangle abc to p (Ericson, Real-Time Collision Detection)."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = ab @ ap
    d2 = ac @ ap
    if d1 <= 0 and d2 <= 0:
        return a
    bp = p - b
    d3 = ab @ bp
    d4 = ac @ bp
    if d3 >= 0 and d4 <= d3:
        return b
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        v = d1 / (d1 - d3)
        return a + v * ab
    cp = p - c
    d5 = ab @ cp
    d6 = ac @ cp
    if d6 >= 0 and d5 <= d6:
        return c
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        w = d2 / (d2 - d6)
        return a + w * ac
    va = d3 * d6 - d5 * d4
    if va <= 0 and (d4 - d3) >= 0 and (d5 - d6) >= 0:
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return b + w * (c - b)
    denom = 1.0 / (va + vb + vc)
    v = vb * denom
    w = vc * denom
    return a + ab * v + ac * w


def _segment_segment_distance(p1, q1, p2, q2):
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = d1 @ d1
    e = d2 @ d2
    f = d2 @ r
    if a <= 1e-18 and e <= 1e-18:
        return float(np.linalg.norm(r))
    if a <= 1e-18:
        s = 0.0
        t = np.clip(f / e, 0.0, 1.0)
    else:
        c = d1 @ r
        if e <= 1e-18:
            t = 0.0
            s = np.clip(-c / a, 0.0, 1.0)
        else:
            b = d1 @ d2
            denom = a * e - b * b
            s = np.clip((b * f - c * e) / denom, 0.0, 1.0) if denom > 1e-18 else 0.0
            t = (b * s + f) / e
            if t < 0.0:
                t = 0.0
                s = np.clip(-c / a, 0.0, 1.0)
            elif t > 1.0:
                t = 1.0
                s = np.clip((b - c) / a, 0.0, 1.0)
    return float(np.linalg.norm(p1 + d1 * s - (p2 + d2 * t)))


def segment_triangle_distance(p, q, a, b, c) -> float:
    """Exact minimum distance between segment pq and triangle abc (0 if they meet)."""
    n = np.cross(b - a, c - a)
    nn = np.linalg.norm(n)
    if nn > 1e-18:
        n = n / nn
        sp = (p - a) @ n
        sq = (q - a) @ n
        if sp * sq <= 0 and abs(sp - sq) > 1e-18:
            t = sp / (sp - sq)
            x = p + t * (q - p)
            closest = _point_triangle_closest(x, a, b, c)
            if np.linalg.norm(closest - x) <= 1e-12:
                return 0.0
    d = min(
        float(np.linalg.norm(_point_triangle_closest(p, a, b, c) - p)),
        float(np.linalg.norm(_point_triangle_closest(q, a, b, c) - q)),
        _segment_segment_distance(p, q, a, b),
        _segment_segment_distance(p, q, b, c),
        _segment_segment_distance(p, q, c, a),
    )
    return d


# ---------------------------------------------------------------------------
# AABB tree broad phase

class _AabbNode:
    __slots__ = ("lo", "hi", "left", "right", "tri_ids")

    def __init__(self, lo, hi, left=None, right=None, tri_ids=None):
        self.lo = lo
        self.hi = hi
        self.left = left
        self.right = right
        self.tri_ids = tri_ids


class AabbTree:
    """Static axis-aligned bounding-box tree over a triangle soup."""

    LEAF_SIZE = 4

    def __init__(self, mesh: TriangleMesh):
        self.mesh = mesh
        tris = mesh.vertices[mesh.triangles]        # (M, 3, 3)
        self._tri_lo = tris.min(axis=1)
        self._tri_hi = tris.max(axis=1)
        self._tris = tris
        self.root = self._build(np.arange(len(mesh.triangles)))

    def _build(self, ids):
        lo = self._tri_lo[ids].min(axis=0)
        hi = self._tri_hi[ids].max(axis=0)
        if len(ids) <= self.LEAF_SIZE:
            return _AabbNode(lo, hi, tri_ids=ids)
        centers = (self._tri_lo[ids] + self._tri_hi[ids]) / 2.0
        axis = int(np.argmax(hi - lo))
        order = np.argsort(centers[:, axis])
        half = len(ids) // 2
        return _AabbNode(
            lo, hi,
            left=self._build(ids[order[:half]]),
            right=self._build(ids[order[half:]]),
        )

    @staticmethod
    def _aabb_segment_lower_bound(lo, hi, p, q):
        # distance from the box to the segment's own AABB: a valid lower bound
        slo = np.minimum(p, q)
        shi = np.maximum(p, q)
        gap = np.maximum(0.0, np.maximum(lo - shi, slo - hi))
        return float(np.linalg.norm(gap))

    def segment_distance(self, p, q, upper_bound=np.inf) -> float:
        """Min distance from segment pq to the mesh; early-out below upper_bound."""
        best = upper_bound
        stack = [self.root]
        while stack:
            node = stack.pop()
            if self._aabb_segment_lower_bound(node.lo, node.hi, p, q) >= best:
                continue
            if node.tri_ids is not None:
                for i in node.tri_ids:
                    a, b, c = self._tris[i]
                    d = segment_triangle_distance(p, q, a, b, c)
                    if d < best:
                        best = d
                        if best == 0.0:
                            return 0.0
            else:
                stack.append(node.left)
                stack.append(node.right)
        return best


@dataclass(frozen=True)
class CollisionResult:
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


def build_trees(env: list[TriangleMesh]) -> list[AabbTree]:
    return [AabbTree(m) for m in env]


def segment_collides(trees, p, q, radius) -> bool:
    for tree in trees:
        if tree.segment_distance(p, q, upper_bound=radius * 1.0000001) - radius <= 0.0:
            return True
    return False


def check_collision(dh: DHTable, joints, env, trees=None) -> CollisionResult:
    """Capsule-vs-mesh collision query for one joint configuration.

    Capsule i spans the origins of frames i and i+1 of the frame chain
    (base, six joints, TCP) with radius dh.link_radii[i].
    """
    dh.check_limits(joints)
    if not env:
        return CollisionResult(clear=True, min_distance=None)
    if trees is None:
        trees = build_trees(env)
    best = np.inf
    origins = [f[:3, 3] for f in frame_chain(dh, joints)]
    for p, q, radius in zip(origins, origins[1:], dh.link_radii):
        for tree in trees:
            d = tree.segment_distance(p, q, upper_bound=best + radius)
            best = min(best, d - radius)
            if best <= 0.0:
                return CollisionResult(clear=False, min_distance=0.0)
    return CollisionResult(clear=True, min_distance=float(best))


DEFAULT_PATH_STEP = 0.01  # rad per joint


def path_feasible(dh, j_start, j_end, env, step=DEFAULT_PATH_STEP, trees=None) -> bool:
    """Joint-space straight-line path check at max per-joint step `step`."""
    j_start = np.asarray(j_start, dtype=float)
    j_end = np.asarray(j_end, dtype=float)
    if trees is None:
        trees = build_trees(env)
    for j in (j_start, j_end):
        if not check_collision(dh, j, env, trees).clear:
            raise EndpointInCollision("path endpoint is in collision")
    n = int(np.ceil(np.max(np.abs(j_end - j_start)) / step)) if step > 0 else 1
    for k in range(1, n):
        j = j_start + (j_end - j_start) * (k / n)
        if not check_collision(dh, j, env, trees).clear:
            return False
    return True


DLS_BRANCHES = 6    # DLS solves per pose when no closed form applies
DLS_RESTARTS = 10   # random restarts per DLS solve


def _ik_candidates(pose, dh, seed, rng):
    """IK solutions of a pose, one at a time.

    A spherical-wrist table gives every branch (ik_branches), nearest
    `seed` first. Any other table gives up to DLS_BRANCHES damped
    least-squares solutions, from `seed` and then from uniform draws of
    `rng`, stopping at the first solve that fails.
    """
    seed = np.asarray(seed, dtype=float)
    if has_spherical_wrist(dh):
        yield from sorted(ik_branches(dh, pose), key=lambda q: float(np.linalg.norm(q - seed)))
        return
    rng = np.random.default_rng(0 if rng is None else rng)
    for _ in range(DLS_BRANCHES):
        try:
            q = inverse_kinematics(dh, pose, seed=seed, rng=rng, restarts=DLS_RESTARTS)
        except NoSolution:
            return
        yield q
        seed = rng.uniform(dh.q_min, dh.q_max)


def pose_feasibility(pose, dh, env, seed, trees=None, rng=None):
    """IK then collision check for a single pose.

    Reachable if some IK solution clears the environment (the first one
    found, nearest `seed` first), Collision if every solution collides,
    IkFailure if there is none. For a spherical-wrist table the solutions
    are every IK branch, so Collision is proof. Capsules are checked from
    the tool inward, and a capsule that an earlier solution shares (the
    wrist and tool follow from the pose alone; wrist flips share the arm)
    is not checked again: at most 3 + 4 x 4 capsule queries per pose.
    `rng` (a Generator, or a seed for np.random.default_rng) drives the
    sampled DLS solutions of any other table.
    """
    if trees is None:
        trees = build_trees(env)
    hits = {}
    first = None
    for q in _ik_candidates(pose, dh, seed, rng):
        if first is None:
            first = q
        origins = [f[:3, 3] for f in frame_chain(dh, q)]
        for i in reversed(range(len(dh.link_radii))):
            key = (i, tuple(np.round(np.concatenate(origins[i:i + 2]), 9)))
            if key not in hits:
                hits[key] = segment_collides(trees, origins[i], origins[i + 1], dh.link_radii[i])
            if hits[key]:
                break
        else:
            return PoseFeasibility(pose, FeasibilityStatus.REACHABLE, q)
    if first is None:
        return PoseFeasibility(pose, FeasibilityStatus.IK_FAILURE, None)
    return PoseFeasibility(pose, FeasibilityStatus.COLLISION, first)


def partition_pose_dictionary(poses, dh, env, seed=None, random_seed=0) -> list[PoseFeasibility]:
    """Classify each pose as Reachable / IkFailure / Collision, in input order.

    The IK seed for each pose is the previous pose's solution, mirroring a
    meander scan's locality. Pose i's DLS fallback (tables without a
    spherical wrist) draws from np.random.default_rng([random_seed, i]);
    deterministic for fixed inputs.
    """
    if seed is None:
        seed = dh.home()
    trees = build_trees(env)
    out = []
    current_seed = np.asarray(seed, dtype=float)
    for i, pose in enumerate(poses):
        result = pose_feasibility(pose, dh, env, current_seed, trees, [random_seed, i])
        if result.joints is not None:
            current_seed = result.joints
        out.append(result)
    return out
