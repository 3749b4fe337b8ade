"""Exception types shared across the package."""


class QwireError(Exception):
    """Base class for all package-specific errors."""


class ModeError(QwireError, ValueError):
    """Input not representable in the requested arithmetic mode."""


class DomainError(QwireError, ValueError):
    """Operation undefined for the given matrix dimension or entries."""


class ConfigError(QwireError, ValueError):
    """Invalid integrator or run configuration."""


class PreconditionError(QwireError, ValueError):
    """Input data does not satisfy an operation's precondition."""


class SingularMatrixError(QwireError, RuntimeError):
    """Linear system could not be solved to the required residual."""


class BlowUpError(QwireError, RuntimeError):
    """Numerical integration produced a non-finite or runaway state."""


class NumericalError(QwireError, RuntimeError):
    """A computed result is non-finite or fails an internal consistency check."""
