"""Error taxonomy with a stable CLI exit-code mapping.

Exit codes: 0 success, 1 experiment assertion failure, 2 usage error
(argparse), 3 configuration/validation error, 4 numeric failure.
"""

from __future__ import annotations


class LabError(Exception):
    """Base class; subclasses pin the CLI exit code."""

    exit_code = 4


class ConfigError(LabError):
    """Invalid configuration or arguments outside a contract."""

    exit_code = 3


class SeparationViolation(ConfigError):
    """Ball centers closer than 4r or farther than 8r."""


class ContainmentViolation(ConfigError):
    """A 2r-ball pokes out of the half-radius reference ball."""


class UnsupportedDimension(ConfigError):
    """Operation implemented for n = 1 only."""


class ConfigParseError(ConfigError):
    """Malformed key=value config file."""


class DiagonalEvaluation(ConfigError):
    """Kernel evaluated on the diagonal x = y."""


class UnsupportedKernel(ConfigError):
    """Kernel family incompatible with the requested evaluation path."""


class DomainViolation(ConfigError):
    """Point on the wrong side of a ball boundary."""


class NumericError(LabError):
    """Quadrature or linear-algebra failure."""

    exit_code = 4


class QuadratureFailure(NumericError):
    """Adaptive panels exhausted without reaching tolerance."""


class SingularSystem(NumericError):
    """Assembled system not solvable; internal error for elliptic kernels."""


class ExperimentFailure(LabError):
    """An experiment-level assertion did not hold."""

    exit_code = 1


class EmptySample(ExperimentFailure):
    """No cell centers inside a target ball."""


class NoPositiveC0(ExperimentFailure):
    """Barrier combination failed at every grid value of c0."""
