"""Exception hierarchy for the weakhyp package."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np


class WeakHypError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(WeakHypError):
    """An argument is outside its documented domain."""


class InsufficientDataError(WeakHypError):
    """A fit or sweep was requested with too few samples."""


class QuadratureError(WeakHypError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class PlanError(WeakHypError):
    """A direction plan could not produce an invertible system."""


class ConfigurationError(WeakHypError):
    """A configuration document failed validation.

    ``field`` names the offending entry so callers can surface it.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class StabilityError(WeakHypError):
    """The requested time step violates the integrator stability budget."""

    def __init__(self, message: str, required_step: float, required_steps: int,
                 epsilon: float | None = None):
        super().__init__(message)
        self.required_step = required_step
        self.required_steps = required_steps
        self.epsilon = epsilon


class DivergenceError(WeakHypError):
    """The integration produced non-finite values."""

    def __init__(self, message: str, xi: float | None = None,
                 epsilon: float | None = None):
        super().__init__(message)
        self.xi = xi
        self.epsilon = epsilon


class HyperbolicityError(WeakHypError):
    """A system matrix has non-real eigenvalues at a sample point."""


class NumericalError(WeakHypError):
    """A numerical identity check exceeded its tolerance."""


@contextmanager
def numerical_errors() -> Iterator[None]:
    """Re-raise numpy's ``LinAlgError`` as :class:`NumericalError`."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"linear algebra failure: {exc}") from exc


class AlignmentError(WeakHypError):
    """Two gridded objects do not share a common grid."""


class UnsupportedError(WeakHypError):
    """The input is valid mathematics but outside the artifact's scope."""
