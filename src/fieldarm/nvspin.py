"""NV-centre spin physics: spin-1 Hamiltonian, resonances, the characteristic
cubic for the spin energies, ODMR spectrum synthesis/fitting, and inference of
the NV-axis orientation from splitting data.

All frequencies are in Hz internally; the NV frame has its z-axis along the
defect's symmetry axis.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateFit, FitDiverged, InsufficientData, StateMixingTooStrong, ZeroMagnitude
from .kinematics import unit_normal
from .magnetostatics import GAMMA_E_DEFAULT

FIT_GRID_SIZE = 12  # start angles per axis of fit_orientation's grid
FIT_REFINE_STARTS = 5  # lowest-cost grid starts that fit_orientation refines

# spin-1 operators in the {|+1>, |0>, |-1>} basis
_SQ2 = 1.0 / math.sqrt(2.0)
SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) * _SQ2
SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) * _SQ2
SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
_MS0_INDEX = 1
_ROOT_PHASES = 2.0 * np.pi * np.arange(3.0) / 3.0  # the cubic's three Viete branches


@dataclass(frozen=True)
class NVParams:
    D: float                   # zero-field splitting, Hz
    Pi: float                  # strain/charge splitting term, Hz
    gamma_e: float = GAMMA_E_DEFAULT  # Hz/T
    axis_alpha_y: float = 0.0  # NV axis orientation, rad
    axis_alpha_z: float = 0.0

    def __post_init__(self):
        if self.D <= 0:
            raise ValueError("D must be > 0")
        if self.Pi < 0:
            raise ValueError("Pi must be >= 0")
        if self.gamma_e <= 0:
            raise ValueError("gamma_e must be > 0")


@dataclass(frozen=True)
class ResonancePair:
    f_minus: float  # Hz
    f_plus: float   # Hz
    f_minus_err: float = 0.0
    f_plus_err: float = 0.0
    merged: bool = False

    def __post_init__(self):
        if self.f_plus < self.f_minus:
            raise ValueError("f_plus must be >= f_minus")

    @property
    def splitting(self) -> float:
        return self.f_plus - self.f_minus


@dataclass(frozen=True)
class OdmrSpectrum:
    frequencies: np.ndarray  # Hz
    contrast: np.ndarray     # dimensionless, ~1 off resonance

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        c = np.asarray(self.contrast, dtype=float)
        if f.shape != c.shape:
            raise ValueError("frequencies and contrast must have equal length")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "contrast", c)


class OrientationFit(NamedTuple):
    alpha_y_nv: float        # rad, reported in [0, pi)
    alpha_z_nv: float        # rad, reported in [0, pi)
    B_fit: float             # T (effective, "non-physical" free parameter)
    alpha_y_err: float
    alpha_z_err: float
    B_err: float
    residual_rms: float      # Hz


def hamiltonian(p: NVParams, B_nv) -> np.ndarray:
    """H = D Sz^2 + Pi (Sx^2 - Sy^2) + gamma (B_perp . S_perp) + gamma Bz Sz."""
    Bx, By, Bz = np.asarray(B_nv, dtype=float)
    H = (
        p.D * (SZ @ SZ)
        + p.Pi * (SX @ SX - SY @ SY)
        + p.gamma_e * (Bx * SX + By * SY + Bz * SZ)
    )
    return H


def resonances(p: NVParams, B_nv) -> ResonancePair:
    """Transition frequencies from the ms=0-like state to the two others.

    The ms=0-like state is identified by maximal overlap with |0>; raises
    StateMixingTooStrong when H overflows or no eigenvector keeps >= 0.5 overlap.
    """
    H = hamiltonian(p, B_nv)
    if not np.all(np.isfinite(H)):
        raise StateMixingTooStrong("Hamiltonian overflows; field or parameters too large")
    evals, evecs = np.linalg.eigh(H)
    overlaps = np.abs(evecs[_MS0_INDEX, :]) ** 2
    k = int(np.argmax(overlaps))
    if overlaps[k] < 0.5:
        raise StateMixingTooStrong(
            f"largest ms=0 overlap is {overlaps[k]:.3f}; field too strong or transverse"
        )
    others = np.sort(np.delete(evals, k) - evals[k])
    return ResonancePair(float(others[0]), float(others[1]))


def characteristic_roots(D, Pi, beta, gamma_angle):
    """Real roots of the depressed cubic for the spin energies.

    x^3 - (D^2/3 + Pi^2 + beta^2) x - (beta^2/2) D cos(2 gamma)
        - (D/6)(4 Pi^2 + beta^2) + 2 D^3/27 = 0

    with beta = gamma_e |B| and gamma_angle the polar angle between the field
    and the NV axis. Roots + 2D/3 are the Hamiltonian eigenvalues. The cubic
    carries no transverse azimuth, so it matches the full Hamiltonian exactly
    when the transverse field bisects the strain axes (azimuth pi/4, where
    the Pi-B_perp cross term vanishes); at other azimuths the roots differ by
    a term of order Pi * (gamma_e B_perp)^2 / D^2. Solved by the
    trigonometric (Viete) method. The cubic is the characteristic polynomial
    of a Hermitian matrix, so its roots are real for every real input (Kopp
    2008); the arccos argument is clipped against rounding, and a non-finite
    input gives NaN roots. Broadcasts over array inputs.
    """
    D, Pi, beta, gamma_angle = (np.asarray(v, dtype=float) for v in (D, Pi, beta, gamma_angle))
    p = -(D * D / 3.0 + Pi * Pi + beta * beta)
    q = (
        -(beta * beta / 2.0) * D * np.cos(2.0 * gamma_angle)
        - (D / 6.0) * (4.0 * Pi * Pi + beta * beta)
        + 2.0 * D**3 / 27.0
    )
    m = 2.0 * np.sqrt(-p / 3.0)
    arg = np.minimum(np.maximum(3.0 * q / (p * m), -1.0), 1.0)
    phi = np.arccos(arg) / 3.0
    roots = m[..., None] * np.cos(phi[..., None] - _ROOT_PHASES)
    return np.sort(roots, axis=-1)


def splitting_from_cubic(D, Pi, beta, gamma_angle):
    """Resonance splitting f_plus - f_minus from the characteristic cubic.

    The upper two roots lie close together at low field, where Viete's
    roots lose up to 2e-11 of their difference to rounding in the cubic's
    constant term (a sum of terms of order D^3). So only the lowest root
    y0 is taken from them, on the cubic shifted by D/3,
    y^3 + D y^2 - (Pi^2 + beta^2) y - c with c = D (Pi^2 + beta^2 cos^2 gamma).
    The other two follow from Vieta's relations, y1 + y2 = -D - y0 and
    y1 y2 = c / y0: for D > 0, y0 <= -D/3 and c >= 0, so
    (y2 - y1)^2 = (D + y0)^2 - 4 c / y0 is a sum of two terms >= 0.
    """
    r = characteristic_roots(D, Pi, beta, gamma_angle)
    D, Pi, beta, gamma_angle = (np.asarray(v, dtype=float) for v in (D, Pi, beta, gamma_angle))
    y0 = r[..., 0] - D / 3.0
    c = D * (Pi * Pi + (beta * np.cos(gamma_angle)) ** 2)
    return np.sqrt((D + y0) ** 2 - 4.0 * c / y0)


def normalize_splittings(splittings, B_magnitudes):
    """nu_n(i) = nu(i) / |B(i)| * max|B|."""
    nu = np.asarray(splittings, dtype=float)
    B = np.asarray(B_magnitudes, dtype=float)
    if nu.shape != B.shape:
        raise ValueError("splittings and magnitudes must have equal length")
    if np.any(B <= 0):
        raise ZeroMagnitude("all field magnitudes must be > 0")
    return nu / B * B.max()


def field_polar_angle(alpha_y_B, alpha_z_B, alpha_y_nv, alpha_z_nv):
    """gamma = arccos(|cos(az_B - az_NV) cos(ay_B - ay_NV)|)."""
    c = np.abs(
        np.cos(np.asarray(alpha_z_B) - alpha_z_nv)
        * np.cos(np.asarray(alpha_y_B) - alpha_y_nv)
    )
    return np.arccos(np.clip(c, 0.0, 1.0))


def fit_orientation(trajectory, D, Pi, gamma_e=GAMMA_E_DEFAULT) -> OrientationFit:
    """Fit NV-axis angles and an effective |B| to normalised splittings.

    `trajectory` rows are (alpha_y_B, alpha_z_B, nu_n) with angles in rad and
    nu_n in Hz. Multi-start over an angle grid guards against local minima.
    The +-axis degeneracy is resolved by reporting angles in [0, pi).
    """
    from .lsq import least_squares, parameter_errors  # deferred: odmr fits nothing
    traj = np.asarray(trajectory, dtype=float).reshape(-1, 3)
    if len(traj) < 4:
        raise InsufficientData(f"need >= 4 trajectory points, got {len(traj)}")
    ay_B, az_B, nu = traj[:, 0], traj[:, 1], traj[:, 2]
    if np.std(nu) < 1e-9 * max(1.0, np.mean(np.abs(nu))):
        raise DegenerateFit("normalised splittings carry no angular information")

    def residual(params):  # (..., 3) -> (..., len(nu))
        gam = field_polar_angle(ay_B, az_B, params[..., 0, None], params[..., 1, None])
        return splitting_from_cubic(D, Pi, gamma_e * np.abs(params[..., 2, None]), gam) - nu

    # grid starts (ay outer, az inner), one row each; the mean splitting is
    # monotone in |B| at fixed angles, so every start's |B| is bisected at once
    angles = np.linspace(0.0, np.pi, FIT_GRID_SIZE, endpoint=False)
    ay0, az0 = (g.ravel() for g in np.meshgrid(angles, angles, indexing="ij"))
    gam = field_polar_angle(ay_B, az_B, ay0[:, None], az0[:, None])
    target = np.mean(nu)
    lo = np.zeros(len(ay0))
    hi = np.full(len(ay0), 0.05)
    for _ in range(50):
        mid = (lo + hi) / 2.0
        below = np.mean(splitting_from_cubic(D, Pi, gamma_e * mid[:, None], gam), axis=1) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    grid = np.column_stack([ay0, az0, (lo + hi) / 2.0])
    r = residual(grid)
    order = np.argsort(np.einsum("ij,ij->i", r, r), kind="stable")[:FIT_REFINE_STARTS]
    # the lowest-cost starts, refined together; one with non-finite residuals is left out
    starts = grid[order[np.all(np.isfinite(r[order]), axis=1)]]
    sols = least_squares(residual, starts, tol=1e-14)
    best = min(sols, key=lambda sol: sol.cost, default=None)
    if best is None or not np.all(np.isfinite(best.x)):
        raise FitDiverged("orientation fit failed to converge")

    ay, az, B = best.x
    ay = ay % np.pi
    az = az % np.pi
    B = abs(B)
    gam = field_polar_angle(ay_B, az_B, ay, az)
    if gam.max() - gam.min() < np.deg2rad(0.5):
        raise DegenerateFit("trajectory spans < 0.5 degrees in polar angle")

    try:
        errs = parameter_errors(best)
    except np.linalg.LinAlgError:
        raise DegenerateFit("singular covariance: flat residual landscape") from None
    return OrientationFit(
        alpha_y_nv=float(ay), alpha_z_nv=float(az), B_fit=float(B),
        alpha_y_err=float(errs[0]), alpha_z_err=float(errs[1]), B_err=float(errs[2]),
        residual_rms=math.sqrt(float(best.fun @ best.fun) / len(nu)),
    )


def _lorentzian_dip(f, f0, width):
    hw = width / 2.0
    return hw * hw / ((f - f0) ** 2 + hw * hw)


def odmr_spectrum(p: NVParams, B_nv, linewidth, contrast_depth, grid,
                  noise_sigma=0.0, rng=None) -> OdmrSpectrum:
    """Synthetic two-dip ODMR trace for the given field (NV frame).

    Noise (noise_sigma > 0) is drawn from `rng`, which it then requires.
    """
    if linewidth <= 0:
        raise ValueError("linewidth must be > 0")
    if not (0 < contrast_depth < 1):
        raise ValueError("contrast_depth must be in (0, 1)")
    if noise_sigma > 0.0 and rng is None:
        raise ValueError("noise_sigma > 0 needs an rng")
    grid = np.asarray(grid, dtype=float)
    pair = resonances(p, B_nv)
    c = 1.0 - contrast_depth * (
        _lorentzian_dip(grid, pair.f_minus, linewidth)
        + _lorentzian_dip(grid, pair.f_plus, linewidth)
    )
    if noise_sigma > 0.0:
        c = c + rng.normal(0.0, noise_sigma, size=grid.shape)
    return OdmrSpectrum(grid, c)


def _two_deepest_minima(f, c):
    # smooth first so shot noise does not masquerade as a dip
    win = max(3, len(c) // 200)
    kernel = np.ones(win) / win
    cs = np.convolve(c, kernel, mode="same")
    min_separation = (f.max() - f.min()) / 20.0
    i = np.flatnonzero((cs[1:-1] <= cs[:-2]) & (cs[1:-1] <= cs[2:])) + 1
    freqs = f[i[np.lexsort((f[i], cs[i]))]]  # local minima, deepest first
    if not freqs.size:
        return []
    rest = freqs[1:]
    return [freqs[0], *rest[np.abs(rest - freqs[0]) >= min_separation][:1]]


def fit_resonances(spectrum: OdmrSpectrum) -> ResonancePair:
    """Lorentzian dip fit: two dips with a shared width, or one when they merge.

    The parameters are the dip centres, the width, the depths and the
    baseline; the errors are lsq.parameter_errors of the fit.
    """
    from .lsq import least_squares, parameter_errors  # deferred, as in fit_orientation
    f = spectrum.frequencies
    c = spectrum.contrast
    if len(f) <= 4:
        raise InsufficientData(f"need > 4 spectrum points, got {len(f)}")
    span = f.max() - f.min()
    depth0 = max(1.0 - c.min(), 1e-4)
    width0 = span / 20.0
    mins = _two_deepest_minima(f, c)
    if not mins:
        mins = [f[int(np.argmin(c))]]
    merged = len(mins) < 2 or abs(mins[0] - mins[1]) < width0 / 2.0
    k = 1 if merged else 2

    def residual(p):  # (..., 2k + 2) -> (..., len(f))
        q = np.moveaxis(p, -1, 0)[..., None]
        centres, width, depths, r = q[:k], q[k], q[k + 1:-1], q[-1]
        for f0, d in zip(centres, depths):  # base - d1 L1 - d2 L2 - c, left to right
            r = r - d * _lorentzian_dip(f, f0, width)
        return r - c

    p0 = [*sorted(mins[:k]), width0, *[depth0] * k, 1.0]
    if len(f) <= len(p0):
        raise InsufficientData(f"need > {len(p0)} spectrum points, got {len(f)}")
    sol = least_squares(residual, p0)
    if not sol.success:
        raise FitDiverged("ODMR dip fit failed to converge")
    try:
        errs = parameter_errors(sol)
    except np.linalg.LinAlgError:
        raise FitDiverged("singular dip-fit covariance") from None
    if merged:
        f0 = float(sol.x[0])
        return ResonancePair(f0, f0, float(errs[0]), float(errs[0]), merged=True)
    f1, f2 = sol.x[:2]
    e1, e2 = errs[:2]
    if f2 < f1:
        f1, f2, e1, e2 = f2, f1, e2, e1
    return ResonancePair(float(f1), float(f2), float(e1), float(e2))


def nv_frame_rotation(p: NVParams) -> np.ndarray:
    """World->NV rotation; NV z-axis along the defect axis.

    Gauge: the NV x-axis is the world z-axis projected into the plane
    transverse to the NV axis (world x projected when the two are parallel).
    The gauge fixes the strain azimuth: the Hamiltonian's Pi (Sx^2 - Sy^2)
    term acts along these x and y axes, so for Pi > 0 turning the frame about
    the NV axis changes the splittings. Only for Pi = 0 are they
    gauge-independent.
    """
    n = unit_normal(p.axis_alpha_y, p.axis_alpha_z)
    ref = np.array([0.0, 0.0, 1.0])
    x_nv = ref - (ref @ n) * n
    if np.linalg.norm(x_nv) < 1e-8:
        ref = np.array([1.0, 0.0, 0.0])
        x_nv = ref - (ref @ n) * n
    x_nv = x_nv / np.linalg.norm(x_nv)
    y_nv = np.cross(n, x_nv)
    return np.column_stack([x_nv, y_nv, n])


def world_to_nv_frame(B_world, p: NVParams) -> np.ndarray:
    """Express a world-frame field in the NV frame (norm-preserving)."""
    R = nv_frame_rotation(p)
    return R.T @ np.asarray(B_world, dtype=float)
