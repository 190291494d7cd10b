"""fieldarm: planning toolkit for vector magnetic field generation with a
robot-carried permanent magnet, and NV-centre spin-sensor characterisation.

Modules by theme:

- ``kinematics``: poses, Denavit-Hartenberg forward/inverse kinematics.
- ``magnetostatics``: cylinder magnet field, dipole and inverse-dipole models.
- ``environment``: mesh loading, collision checking, pose feasibility.
- ``alignment``: scans, calibration, amplitude schedules, pose replacement.
- ``nvspin``: NV spin Hamiltonian, ODMR spectra, orientation fitting.
- ``lsq``: the Levenberg-Marquardt least squares behind both fits.
- ``rotations``: Euler rotations, angle wrapping and row-wise dot products.
- ``config``: the YAML run configuration and the domains of every number.
- ``errors``: the exception hierarchy under ``FieldArmError``.
- ``cli``: command-line front end (``fieldarm`` entry point).
"""

__version__ = "0.1.0"

from .errors import FieldArmError

__all__ = ["FieldArmError", "__version__"]
