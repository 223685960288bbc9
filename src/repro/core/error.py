"""Aggregate error functions (paper section 2.5, Equation 4).

The default error is the relative error
``Err_A = |Aexp - Aactual| / Aexp`` — appropriate for COUNT and AVG.
For SUM/MIN/MAX with one-sided constraints the paper recommends a hinge
function that only penalizes undershoot. Both are provided, and any
user-supplied callable with the same signature may replace them
(the paper's "sensible defaults" design principle).
"""

from __future__ import annotations

import math
from typing import Callable, Protocol

import numpy as np

from repro.core.query import ConstraintOp


class AggregateErrorFunction(Protocol):
    """Signature of an aggregate error function."""

    def __call__(self, expected: float, actual: float) -> float:
        """Return a non-negative error; 0 means the constraint is met."""
        ...


class RelativeError:
    """``|Aexp - Aactual| / Aexp`` (paper Equation 4)."""

    def __call__(self, expected: float, actual: float) -> float:
        if math.isnan(actual):
            return math.inf
        if expected == 0:
            return 0.0 if actual == 0 else math.inf
        return abs(expected - actual) / abs(expected)

    def array(self, expected: np.float64, actual: np.ndarray) -> np.ndarray:
        if expected == 0:
            return np.where(actual == 0, 0.0, math.inf)
        errors = np.abs(actual - expected)
        np.divide(errors, abs(expected), out=errors)
        return _nan_to_inf(errors)

    def __repr__(self) -> str:
        return "RelativeError()"


class HingeError:
    """One-sided relative error: penalize undershoot only.

    The paper's hinge returns the raw gap ``Aexp - Aactual``; we
    normalize by ``Aexp`` so a single threshold ``delta`` is meaningful
    across aggregates of very different magnitudes. Set
    ``normalized=False`` for the paper's literal definition.
    """

    def __init__(self, normalized: bool = True) -> None:
        self.normalized = normalized

    def __call__(self, expected: float, actual: float) -> float:
        if math.isnan(actual):
            return math.inf
        gap = expected - actual
        if gap <= 0:
            return 0.0
        if not self.normalized:
            return gap
        if expected == 0:
            return math.inf
        return gap / abs(expected)

    def array(self, expected: np.float64, actual: np.ndarray) -> np.ndarray:
        return _hinge(expected - actual, expected, self.normalized)

    def __repr__(self) -> str:
        return f"HingeError(normalized={self.normalized})"


def default_error_for(op: ConstraintOp) -> AggregateErrorFunction:
    """Pick the paper's default error function for a constraint operator.

    Equality constraints use the symmetric relative error; the
    one-sided operators (>=, >) use the hinge, which treats any
    overshoot as satisfying the constraint. The contraction-direction
    operators (<=, <) use a mirrored hinge.
    """
    if op is ConstraintOp.EQ:
        return RelativeError()
    if op in (ConstraintOp.GE, ConstraintOp.GT):
        return HingeError()
    return _UpperHingeError()


class _UpperHingeError:
    """Hinge for <=/< constraints: penalize overshoot only."""

    def __call__(self, expected: float, actual: float) -> float:
        if math.isnan(actual):
            return math.inf
        gap = actual - expected
        if gap <= 0:
            return 0.0
        if expected == 0:
            return math.inf
        return gap / abs(expected)

    def array(self, expected: np.float64, actual: np.ndarray) -> np.ndarray:
        return _hinge(actual - expected, expected, True)

    def __repr__(self) -> str:
        return "UpperHingeError()"


#: numpy scalars: a ufunc converts a Python float operand on every call.
_ZERO = np.float64(0.0)
_INF = np.float64(math.inf)


def _nan_to_inf(errors: np.ndarray) -> np.ndarray:
    """NaN entries, which only a NaN aggregate value makes, become inf."""
    return np.fmin(errors, _INF, out=errors)


def _hinge(
    gaps: np.ndarray, expected: np.float64, normalized: bool
) -> np.ndarray:
    """The hinges' arithmetic on a fresh array of gaps, in place: 0
    where the gap is <= 0, inf where it is NaN."""
    if normalized and expected != 0:
        # A gap is -0.0 only if ``expected`` is 0, so clamping the
        # quotients at 0.0 returns the literal 0.0 of ``__call__``.
        np.divide(gaps, abs(expected), out=gaps)
        return np.maximum(_nan_to_inf(gaps), _ZERO, out=gaps)
    gaps[gaps <= 0] = 0.0
    if normalized:
        gaps[gaps > 0] = math.inf
    return _nan_to_inf(gaps)


#: The error functions :func:`error_array` computes in numpy, and how.
_ARRAY_FORMS: dict[type, Callable[..., np.ndarray]] = {
    RelativeError: RelativeError.array,
    HingeError: HingeError.array,
    _UpperHingeError: _UpperHingeError.array,
}


def error_array(
    error_fn: AggregateErrorFunction, expected: float, actual: np.ndarray
) -> np.ndarray:
    """``error_fn(expected, value)`` of every value of ``actual``.

    The built-in error functions compute it in numpy with the float
    operations of their ``__call__``, so each entry is the float the
    call returns; any other callable is applied element by element.
    """
    array = _ARRAY_FORMS.get(type(error_fn))
    if array is not None:
        # The same IEEE operations on the same float: an int target
        # converts exactly as Python's mixed arithmetic converts it.
        return array(error_fn, np.float64(expected), actual)
    return np.fromiter(
        (error_fn(expected, value) for value in actual.tolist()),
        dtype=np.float64,
        count=len(actual),
    )
