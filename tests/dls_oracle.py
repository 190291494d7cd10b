"""Reference for the flat seeded DLS search of tables without a spherical wrist.

This is the nested form that `fieldarm.kinematics.ik_solutions` flattens:
a feasibility loop of up to BRANCHES solves, each solve an inverse
kinematics call that tries its seed and then up to RESTARTS uniform draws
of the pose's generator. A solve that collides draws the next solve's
seed; the first solve that fails ends the search. A pose beyond the arm's
reach (a pure test, made once here and once per solve in the nested
original) makes no solve. Partitioning runs the poses in order, each from the joints of the
pose before (a running seed) and each with its own generator
np.random.default_rng([random_seed, i]). The damped least-squares iteration
itself, `_dls_solve`, is shared with the library.
"""

from typing import NamedTuple

import numpy as np

from fieldarm.environment import FeasibilityStatus, PoseFeasibility, _capsule_hits, _capsules
from fieldarm.kinematics import _dls_solve

BRANCHES = 6   # solves per pose
RESTARTS = 10  # random restarts per solve


class Search(NamedTuple):
    result: PoseFeasibility
    solutions: int  # solves that succeeded
    solves: int     # _dls_solve calls, restarts included


def _in_reach(dh, target):
    reach = float(np.sum(np.abs(dh.a)) + np.sum(np.abs(dh.d)) + dh.tool_offset)
    return np.linalg.norm(target.position) <= reach


def _inverse_kinematics(dh, target, seed, rng):
    """One solve: from `seed`, then from RESTARTS draws of `rng`. Returns
    the joints (None if every start fails) and the number of starts tried."""
    T = target.matrix()
    q = _dls_solve(dh, T, seed)
    tried = 1
    for _ in range(RESTARTS):
        if q is not None:
            break
        q = _dls_solve(dh, T, rng.uniform(dh.q_min, dh.q_max))
        tried += 1
    return q, tried


def pose_feasibility(pose, dh, tree, seed, rng) -> Search:
    """Reachable with the first solve that clears the collision index `tree`
    (build_trees), Collision with the first solve if every solve collides,
    IkFailure if the first fails."""
    if not _in_reach(dh, pose):
        return Search(PoseFeasibility(pose, FeasibilityStatus.IK_FAILURE, None), 0, 0)
    found = []
    solves = 0
    for _ in range(BRANCHES):
        q, tried = _inverse_kinematics(dh, pose, seed, rng)
        solves += tried
        if q is None:
            break
        found.append(q)
        if not _capsule_hits(_capsules(dh, q), dh.link_radii, tree).any():
            return Search(PoseFeasibility(pose, FeasibilityStatus.REACHABLE, q), len(found),
                          solves)
        seed = rng.uniform(dh.q_min, dh.q_max)
    if not found:
        return Search(PoseFeasibility(pose, FeasibilityStatus.IK_FAILURE, None), 0, solves)
    return Search(PoseFeasibility(pose, FeasibilityStatus.COLLISION, found[0]), len(found), solves)


def partition_pose_dictionary(poses, dh, tree, seed, random_seed) -> list[Search]:
    """The pose-by-pose partition with a running seed."""
    out = []
    for i, pose in enumerate(poses):
        out.append(pose_feasibility(pose, dh, tree, seed, np.random.default_rng([random_seed, i])))
        if out[-1].result.joints is not None:
            seed = out[-1].result.joints
    return out
