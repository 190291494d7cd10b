"""Reference for the one-pass cylinder field.

`cylinder_field` here is the form that evaluates each solid cylinder on its
own, with one `cel` call per elliptic integral: eight calls for a hollow
magnet. `fieldarm.magnetostatics.cylinder_field` builds the same integrals'
arguments, evaluates them in one `cel` call and combines the results with
the same expressions, so the two must agree bit for bit. The check for an
observer inside the material is left to the library.
"""

import math

import numpy as np

from fieldarm.magnetostatics import MU0, cel


def _solid_cylinder_field_axial_frame(radius, half_length, M, rho, z):
    """(B_rho, B_z) of a solid axially magnetised cylinder, axis along z."""
    a = radius
    b = half_length
    B0 = MU0 * M / math.pi

    zp = z + b
    zm = z - b
    rp = np.sqrt(zp * zp + (rho + a) ** 2)
    rm = np.sqrt(zm * zm + (rho + a) ** 2)
    alpha_p = a / rp
    alpha_m = a / rm
    beta_p = zp / rp
    beta_m = zm / rm
    gamma = (a - rho) / (a + rho)
    kp = np.sqrt((zp * zp + (a - rho) ** 2) / (zp * zp + (a + rho) ** 2))
    km = np.sqrt((zm * zm + (a - rho) ** 2) / (zm * zm + (a + rho) ** 2))

    B_rho = B0 * (alpha_p * cel(kp, np.ones_like(kp), 1.0, -1.0)
                  - alpha_m * cel(km, np.ones_like(km), 1.0, -1.0))
    B_z = (B0 * a / (a + rho)) * (beta_p * cel(kp, gamma * gamma, 1.0, gamma)
                                  - beta_m * cel(km, gamma * gamma, 1.0, gamma))
    return B_rho, B_z


def cylinder_field(spec, centre, axis, observer):
    """World-frame field of the (hollow) cylinder, one solid cylinder at a time."""
    centre, axis, observer = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (centre, axis, observer))
    )
    shape = observer.shape
    n = axis.reshape(-1, 3)
    r = (observer - centre).reshape(-1, 3)
    z_ax = np.einsum("ij,ij->i", r, n)
    trans = r - z_ax[:, None] * n
    rho = np.linalg.norm(trans, axis=1)
    b_rho, b_ax = _solid_cylinder_field_axial_frame(
        spec.outer_radius, spec.length / 2.0, spec.magnetisation, rho, z_ax
    )
    if spec.inner_radius > 0.0:
        br_i, bz_i = _solid_cylinder_field_axial_frame(
            spec.inner_radius, spec.length / 2.0, spec.magnetisation, rho, z_ax
        )
        b_rho = b_rho - br_i
        b_ax = b_ax - bz_i
    rho_hat = np.divide(trans, rho[:, None], out=np.zeros_like(trans), where=rho[:, None] > 0.0)
    return (b_ax[:, None] * n + b_rho[:, None] * rho_hat).reshape(shape)
