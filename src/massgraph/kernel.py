"""Reinforcement kernel: log-Cauchy density plus logarithmic growth.

The kernel converts an association's initial weight into a mass increment.
It is the sum of a logarithm (slow, saturating growth under repetition)
and a log-Cauchy density (a heavy-tailed perturbation that gives each
simulated agent its own character near the domain boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, KernelDomainError, ParameterError, named


def as_float(value, what: str, error: type[Exception] = InputError) -> float:
    """``value`` as a float, if it is an int or float that a finite float
    can hold; ``what`` names the offending quantity in the ``error`` raised.

    This is the one conversion rule for numbers entering the model: the
    model defines no NaN or infinite value, and a bool is not a number.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{what} must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise error(f"{what} must be finite, got an integer too large for a float") from None
    if not math.isfinite(v):
        raise error(f"{what} must be finite, got {value}")
    return v


def as_int(value, what: str, error: type[Exception] = InputError,
           minimum: int | None = None) -> int:
    """``value``, if it is an int (a bool is not one) and at least
    ``minimum``; ``what`` names the offending quantity in the ``error``
    raised. The one rule for ids, counts and seeds."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{what} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class KernelParams:
    """Location and scale of the log-Cauchy perturbation.

    One (mu, sigma) pair is fixed per simulated agent; sigma must be
    strictly positive and both values finite, held as floats.
    """

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mu", named("mu", as_float, self.mu, "mu", ParameterError))
        sigma = named("sigma", as_float, self.sigma, "sigma", ParameterError)
        if sigma <= 0:
            raise ParameterError(f"sigma must be > 0, got {self.sigma}", path="sigma")
        object.__setattr__(self, "sigma", sigma)


def log_cauchy_pdf(x: float, params: KernelParams) -> float:
    """Density of the log-Cauchy distribution at x, for x > 1.

    Evaluates 1 / (x * pi * sigma * (1 + ((ln x - mu) / sigma)^2)).
    Strictly positive and finite on the whole accepted domain.
    """
    if not x > 1:
        raise KernelDomainError(f"log-Cauchy density requires x > 1, got {x}")
    z = (math.log(x) - params.mu) / params.sigma
    return 1.0 / (x * math.pi * params.sigma * (1.0 + z * z))


def reinforcement(x: float, params: KernelParams) -> float:
    """Mass increment earned by a weight x: 0 at x = 0, else ln(x) + pdf(x).

    Weights in (0, 1] never occur in a well-formed simulation (every
    initial weight exceeds 1), so they are rejected rather than clamped.
    """
    if x == 0:
        return 0.0
    if not x > 1:
        raise KernelDomainError(
            f"reinforcement is defined for x = 0 or x > 1, got {x}"
        )
    return math.log(x) + log_cauchy_pdf(x, params)


@dataclass(frozen=True)
class MonotonicityReport:
    """Result of a grid scan: monotone flag plus the first violating sample."""

    monotone: bool
    violation_x: float | None = None


def validate_kernel_params(params: KernelParams, grid_lo: float, grid_hi: float,
                           steps: int) -> MonotonicityReport:
    """Scan the kernel on a geometric grid and report strict monotonicity.

    The kernel is not monotone for every parameter choice (a sharp density
    spike near x = 1 can outpace the logarithm), so callers should check
    the parameters they intend to simulate with.
    """
    lo = as_float(grid_lo, "grid lower bound", ParameterError)
    hi = as_float(grid_hi, "grid upper bound", ParameterError)
    if not 1 < lo < hi:
        raise ParameterError(f"grid bounds must satisfy 1 < lo < hi, got [{grid_lo}, {grid_hi}]")
    as_int(steps, "grid steps", ParameterError, 2)
    ratio = (hi / lo) ** (1.0 / (steps - 1))
    prev = None
    for i in range(steps):
        x = lo * ratio**i
        value = reinforcement(x, params)
        if prev is not None and value <= prev:
            return MonotonicityReport(False, violation_x=x)
        prev = value
    return MonotonicityReport(True)
