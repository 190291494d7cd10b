"""Reference physics the benchmark checks artefacts against.

Written independently of fieldarm so a wrong artefact cannot pass by agreeing
with the code that produced it: the on-axis field of a hollow cylinder
magnet, the point dipole, and the NV spin-1 Hamiltonian diagonalised
directly.
"""

import math

import numpy as np

MU0 = 4.0e-7 * math.pi
SIMILARITY_SCALE_MT = 3.0

# NV parameters passed explicitly to odmr and fit-nv (Hz, Hz, Hz/T)
NV_D = 2.8704e9
NV_PI = 1.8515e6
NV_GAMMA = 28.02495e9

_SQ2 = 1.0 / math.sqrt(2.0)
_SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) * _SQ2
_SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) * _SQ2
_SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)


class Magnet:
    """Axially magnetised hollow cylinder, read from a config's magnet block."""

    def __init__(self, block):
        self.outer = float(block["outer_radius_m"])
        self.inner = float(block.get("inner_radius_m", 0.0))
        self.length = float(block["length_m"])
        if "remanence_T" in block:
            self.remanence = float(block["remanence_T"])
        else:
            self.remanence = MU0 * float(block["magnetisation_A_per_m"])

    def axial_field(self, r):
        """|B| in tesla on the symmetry axis, a distance r from the centre."""
        h = self.length / 2.0

        def solid(radius):
            return ((r + h) / math.hypot(r + h, radius)
                    - (r - h) / math.hypot(r - h, radius))

        return 0.5 * self.remanence * (solid(self.outer) - solid(self.inner))

    def distance_for(self, field):
        """Distance (m) from the centre, outside the magnet, where the axial |B| is field (T)."""
        lo, hi = self.length / 2.0 + self.outer, 10.0
        for _ in range(100):  # |B| falls monotonically with distance out here
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if self.axial_field(mid) > field else (lo, mid)
        return (lo + hi) / 2.0

    def moment(self):
        """Equivalent dipole moment magnitude, A m^2."""
        volume = math.pi * (self.outer**2 - self.inner**2) * self.length
        return self.remanence / MU0 * volume


def unit_normal(ay, az):
    """World x-axis rotated by ay about y, then az about z (radians)."""
    return np.array([math.cos(az) * math.cos(ay), math.sin(az) * math.cos(ay),
                     -math.sin(ay)])


def dipole_field(moment, r):
    """Point-dipole field (T) at displacement r (m) from the dipole."""
    d = float(np.linalg.norm(r))
    rhat = r / d
    return MU0 / (4.0 * math.pi) * (3.0 * (moment @ rhat) * rhat - moment) / d**3


def similarity(b1_mT, b2_mT):
    diff = np.asarray(b2_mT, dtype=float) - np.asarray(b1_mT, dtype=float)
    return math.exp(-float(diff @ diff) / (2.0 * SIMILARITY_SCALE_MT**2))


def nv_resonances(b_nv, d=NV_D, pi=NV_PI, gamma=NV_GAMMA):
    """(f_minus, f_plus) in Hz: transitions out of the ms=0-like eigenstate."""
    bx, by, bz = b_nv
    h = (d * _SZ @ _SZ + pi * (_SX @ _SX - _SY @ _SY)
         + gamma * (bx * _SX + by * _SY + bz * _SZ))
    evals, evecs = np.linalg.eigh(h)
    k = int(np.argmax(np.abs(evecs[1, :]) ** 2))
    others = np.sort(np.delete(evals, k) - evals[k])
    return float(others[0]), float(others[1])


def field_polar_angle(ay_b, az_b, ay_nv, az_nv):
    """The paper's polar angle between field direction and NV axis."""
    c = abs(math.cos(az_b - az_nv) * math.cos(ay_b - ay_nv))
    return math.acos(min(c, 1.0))
