"""Scalar reference for the batched collision and feasibility path.

The distance primitives are the scalar forms of Ericson's algorithms
(Real-Time Collision Detection, 2005, ch. 5) that the array kernels in
fieldarm.environment replace. Where a segment crosses a triangle's plane,
the crossing point counts as inside by an edge sign test; the closest-point
test with a 1e-12 m threshold it replaces missed crossings of thin
triangles (see test_collision_batch). `pose_feasibility` is the per-pose loop the
batch replaces: IK branches nearest the seed first, capsules from the tool
inward, a capsule shared between branches checked once, the first branch
that clears wins.
"""

import numpy as np

from fieldarm.kinematics import frame_chain, ik_branch_array


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
            if all(np.cross(v - u, x - u) @ n >= 0.0 for u, v in ((a, b), (b, c), (c, a))):
                return 0.0
    d = min(
        float(np.linalg.norm(_point_triangle_closest(p, a, b, c) - p)),
        float(np.linalg.norm(_point_triangle_closest(q, a, b, c) - q)),
        _segment_segment_distance(p, q, a, b),
        _segment_segment_distance(p, q, b, c),
        _segment_segment_distance(p, q, c, a),
    )
    return d


def capsule_collides(triangles, p, q, radius) -> bool:
    """Whether the capsule of axis pq and `radius` meets any triangle (K, 3, 3)."""
    lo, hi = np.minimum(p, q) - radius, np.maximum(p, q) + radius
    near = np.all((triangles.min(axis=1) <= hi) & (triangles.max(axis=1) >= lo), axis=1)
    return any(segment_triangle_distance(p, q, *t) <= radius for t in triangles[near])


def pose_feasibility(pose, dh, triangles, seed):
    """(status, joints) of one pose, decided one branch and one capsule at a time."""
    hits = {}
    first = None
    q, ok = ik_branch_array(dh, pose.matrix()[None])
    for q in sorted(q[0, ok[0]], key=lambda q: float(np.linalg.norm(q - seed))):
        if first is None:
            first = q
        origins = [f[:3, 3] for f in frame_chain(dh, q)]
        for i in reversed(range(len(dh.link_radii))):
            key = (i, tuple(np.round(np.concatenate(origins[i:i + 2]), 9)))
            if key not in hits:
                hits[key] = capsule_collides(triangles, origins[i], origins[i + 1],
                                             dh.link_radii[i])
            if hits[key]:
                break
        else:
            return "Reachable", q
    if first is None:
        return "IkFailure", None
    return "Collision", first
