"""Exception types shared across the library."""


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (factorization, quadrature, PDE step)."""


class ChainFormatError(ValueError):
    """An option-chain CSV is malformed or violates quote invariants."""


class CalibrationError(RuntimeError):
    """No optimizer start produced a finite objective."""
