"""Exception types shared across the library."""


class SlagForgeError(Exception):
    """Base class for all library errors."""


class DomainError(SlagForgeError, ValueError):
    """Input outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation at (or too close to) a pole or branch point."""


class ChartError(DomainError):
    """Point lies outside the validity of the requested coordinate chart."""


class DegenerateError(DomainError):
    """Configuration on a degenerate locus where the formulas break down."""


class EmptyDomainError(DomainError):
    """A curve family was requested on an empty admissible parameter range."""


class ContourCollisionError(DomainError):
    """Contour endpoints or enclosed roots too close for a reliable quadrature."""


class ConvergenceError(SlagForgeError, RuntimeError):
    """An iterative scheme or adaptive quadrature failed to reach tolerance."""
