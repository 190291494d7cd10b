"""Exception hierarchy shared across the package."""


class FieldArmError(Exception):
    """Base class for all package errors."""


class ConfigError(FieldArmError):
    """Configuration file missing, unparseable, or failing validation."""


class UsageError(FieldArmError):
    """A command-line value outside its valid range."""


class JointLimitViolation(FieldArmError):
    """A joint configuration lies outside the configured limits."""


class NoSolution(FieldArmError):
    """Inverse kinematics failed to converge for the requested pose."""


class ZeroDistance(FieldArmError):
    """Dipole evaluated at zero displacement."""


class ObserverInsideMaterial(FieldArmError):
    """Field requested at a point inside the magnet material."""


class ParseError(FieldArmError):
    """Mesh or data file could not be parsed.

    Carries the 1-based line number when known.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DegenerateGeometry(FieldArmError):
    """Mesh contains a degenerate (zero-area) triangle."""


class InsufficientData(FieldArmError):
    """Fit called with fewer samples than free parameters allow."""


class FitDiverged(FieldArmError):
    """Nonlinear least-squares failed to converge."""


class DegenerateFit(FieldArmError):
    """Residual landscape carries no information on the fit parameters."""


class TargetUnreachable(FieldArmError):
    """Requested field amplitude outside the achievable distance interval."""


class ZeroField(FieldArmError):
    """Angular comparison requested for a zero-magnitude field."""


class ZeroMagnitude(FieldArmError):
    """Splitting normalisation requested with a zero field magnitude."""


class NoReachableDisplacement(FieldArmError):
    """Displacement search exhausted without finding a reachable pose."""


class FinalPoseForbidden(FieldArmError):
    """Amplitude-correcting pose of a replacement plan is not reachable."""


class StateMixingTooStrong(FieldArmError):
    """No eigenstate retains majority overlap with the ms = 0 basis state."""
