"""Magnetic field models for the tool magnet.

Covers the closed-form field of an axially magnetised (hollow) cylinder,
the point-dipole approximation, and the inverse dipole problem (the dipole
moment that produces a requested field at a given displacement).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ObserverInsideMaterial, ZeroDistance

MU0 = 4.0e-7 * math.pi  # vacuum permeability, T m / A
GAMMA_E_DEFAULT = 28.02495e9  # Hz/T, electron gyromagnetic ratio / 2pi

_BOUNDARY_TOL = 1e-9  # m, observer-inside-material detection
CEL_TOL = 1e-12  # relative convergence tolerance of cel's iteration
MAX_DISTANCE_M = 10.0  # farthest magnet-sample distance the magnitude search tries
SCHEDULE_MAX_DISTANCE_M = 0.6  # far end of the ray amplitude_schedule searches


@dataclass(frozen=True)
class MagnetSpec:
    """Hollow cylindrical magnet, magnetised along its symmetry axis."""

    outer_radius: float       # m
    inner_radius: float       # m, 0 for a solid cylinder
    length: float             # m
    magnetisation: float      # A/m along the axis

    def __post_init__(self):
        if not (0 <= self.inner_radius < self.outer_radius):
            raise ValueError("require 0 <= inner_radius < outer_radius")
        if self.length <= 0:
            raise ValueError("length must be > 0")
        if self.magnetisation <= 0:
            raise ValueError("magnetisation must be > 0")

    @classmethod
    def from_remanence(cls, outer_radius, inner_radius, length, remanence_T):
        return cls(outer_radius, inner_radius, length, remanence_T / MU0)

    @property
    def remanence(self) -> float:
        return MU0 * self.magnetisation

    @property
    def volume(self) -> float:
        return math.pi * (self.outer_radius**2 - self.inner_radius**2) * self.length


def cel(kc, p, c, s):
    """Bulirsch generalised complete elliptic integral, vectorised.

    cel(kc, p, c, s) = int_0^{pi/2} (c cos^2 t + s sin^2 t) /
                       ((cos^2 t + p sin^2 t) sqrt(cos^2 t + kc^2 sin^2 t)) dt
    """
    kc = np.atleast_1d(np.abs(np.asarray(kc, dtype=float)))
    p, c, s = (np.broadcast_to(np.asarray(v, dtype=float), kc.shape) for v in (p, c, s))
    if np.any(kc == 0.0):
        raise ValueError("cel undefined for kc = 0")

    k = kc.copy()
    pp, cc, ss = p.copy(), c.copy(), s.copy()
    neg = p <= 0.0
    if np.any(neg):
        f = kc[neg] * kc[neg]
        q = 1.0 - f
        g = 1.0 - pp[neg]
        f = f - pp[neg]
        q = q * (ss[neg] - c[neg] * pp[neg])
        pp[neg] = np.sqrt(f / g)
        cc[neg] = (c[neg] - ss[neg]) / g
        ss[neg] = -q / (g * g * pp[neg]) + cc[neg] * pp[neg]
    pos = ~neg
    pp[pos] = np.sqrt(pp[pos])
    ss[pos] = ss[pos] / pp[pos]

    em = np.ones_like(k)
    f = cc.copy()
    cc = cc + ss / pp
    g = k / pp
    ss = 2.0 * (ss + f * g)
    pp = g + pp
    g = em.copy()
    em = k + em
    kk = k.copy()
    # each element stops at its own convergence, so a batch gives the same
    # values as element-by-element calls
    run = np.abs(g - k) > g * CEL_TOL
    while np.any(run):
        k[run] = 2.0 * np.sqrt(kk[run])
        kk[run] = k[run] * em[run]
        f = cc[run]
        cc[run] = f + ss[run] / pp[run]
        gr = kk[run] / pp[run]
        ss[run] = 2.0 * (ss[run] + f * gr)
        pp[run] = gr + pp[run]
        g[run] = em[run]
        em[run] = k[run] + em[run]
        run = np.abs(g - k) > g * CEL_TOL
    return (math.pi / 2.0) * (ss + cc * em) / (em * (em + pp))


def cylinder_field(spec: MagnetSpec, centre, axis, observer) -> np.ndarray:
    """World-frame field of the (hollow) cylinder at observer points.

    Broadcasts over the leading axes of the (..., 3) magnet `centre`, unit
    magnetisation `axis` and `observer` arrays; a single point is a batch of
    one. By axial symmetry B = b_ax n + b_rho rho_hat, with the hollow
    cylinder the superposition of the outer solid cylinder and an inner
    solid cylinder of opposite magnetisation. Each solid cylinder needs four
    generalised complete elliptic integrals (Derby & Olbert, Am. J. Phys. 78,
    229, 2010); all of them go through one `cel` pass. Points in the bore
    are valid; a point in the material raises ObserverInsideMaterial.
    """
    centre, axis, observer = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (centre, axis, observer))
    )
    shape = observer.shape
    n = axis.reshape(-1, 3)
    r = (observer - centre).reshape(-1, 3)
    z_ax = np.einsum("ij,ij->i", r, n)     # axial coordinate
    trans = r - z_ax[:, None] * n          # transverse offset from the axis
    rho = np.linalg.norm(trans, axis=1)
    inside = (
        (np.abs(z_ax) <= spec.length / 2.0 + _BOUNDARY_TOL)
        & (rho >= spec.inner_radius - _BOUNDARY_TOL)
        & (rho <= spec.outer_radius + _BOUNDARY_TOL)
    )
    if np.any(inside):
        i = int(np.argmax(inside))
        raise ObserverInsideMaterial(
            f"observer at rho={rho[i]:.6g} m, z={z_ax[i]:.6g} m lies in the magnet material"
        )
    # one row per solid cylinder: the outer one, then the bore's
    a = np.array([[spec.outer_radius], [spec.inner_radius]][:2 if spec.inner_radius > 0.0 else 1])
    zp = z_ax + spec.length / 2.0
    zm = z_ax - spec.length / 2.0
    rp = np.sqrt(zp * zp + (rho + a) ** 2)
    rm = np.sqrt(zm * zm + (rho + a) ** 2)
    gamma = (a - rho) / (a + rho)
    kp = np.sqrt((zp * zp + (a - rho) ** 2) / (zp * zp + (a + rho) ** 2))
    km = np.sqrt((zm * zm + (a - rho) ** 2) / (zm * zm + (a + rho) ** 2))
    one = np.ones_like(kp)
    cel_p, cel_m, cel_gp, cel_gm = cel(np.stack([kp, km, kp, km]),
                                       np.stack([one, one, gamma * gamma, gamma * gamma]),
                                       1.0, np.stack([-one, -one, gamma, gamma]))
    B0 = MU0 * spec.magnetisation / math.pi
    b_rho = B0 * ((a / rp) * cel_p - (a / rm) * cel_m)
    b_ax = (B0 * a / (a + rho)) * ((zp / rp) * cel_gp - (zm / rm) * cel_gm)
    b_rho, b_ax = np.subtract.reduce(b_rho), np.subtract.reduce(b_ax)  # outer minus bore
    rho_hat = np.divide(trans, rho[:, None], out=np.zeros_like(trans), where=rho[:, None] > 0.0)
    return (b_ax[:, None] * n + b_rho[:, None] * rho_hat).reshape(shape)


def equivalent_dipole(spec: MagnetSpec) -> float:
    """Magnitude of the equivalent point dipole: magnetisation times volume."""
    return spec.magnetisation * spec.volume


def dipole_field(m, r) -> np.ndarray:
    """Point-dipole field B = (mu0/4pi) [3(m.r^)r^ - m] / |r|^3.

    `r` is the displacement from the dipole to the observer, metres.
    """
    m = np.asarray(m, dtype=float)
    r = np.asarray(r, dtype=float)
    d = np.linalg.norm(r, axis=-1, keepdims=True)
    if np.any(d == 0.0):
        raise ZeroDistance("dipole field requested at zero displacement")
    rhat = r / d
    mdotr = np.sum(m * rhat, axis=-1, keepdims=True)
    return (MU0 / (4.0 * math.pi)) * (3.0 * mdotr * rhat - m) / d**3


def inverse_dipole(B_target, r) -> np.ndarray:
    """Dipole moment producing B_target at displacement r (dipole -> observer).

    m = (6 pi / mu0)(B . r)|r| r - (4 pi / mu0)|r|^3 B; exact inverse of
    dipole_field, linear in B.
    """
    B = np.asarray(B_target, dtype=float)
    r = np.asarray(r, dtype=float)
    d = np.linalg.norm(r, axis=-1, keepdims=True)
    if np.any(d == 0.0):
        raise ZeroDistance("inverse dipole requested at zero displacement")
    bdotr = np.sum(B * r, axis=-1, keepdims=True)
    return (6.0 * math.pi / MU0) * bdotr * d * r - (4.0 * math.pi / MU0) * d**3 * B


def default_magnet_spec() -> MagnetSpec:
    """Nominal magnet: ~44 cm^3 NdFeB-class cylinder with a mounting bore.

    The aspect ratio is close to L = sqrt(3) R, where the leading correction
    to the point-dipole far field vanishes; not the dimensions of any
    specific hardware.
    """
    return MagnetSpec.from_remanence(
        outer_radius=0.02, inner_radius=0.002, length=0.035, remanence_T=1.4
    )
