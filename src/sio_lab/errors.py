"""Exception taxonomy shared across the lab, and the Check record that every
certified inequality is judged by."""

import math
import numbers
from dataclasses import dataclass


class InputError(ValueError):
    """Bad argument (unknown id, negative radius, inverted interval, ...)."""


class DegenerateInputError(InputError):
    """Input is structurally empty: zero measure, single-point cloud, ..."""


class BudgetError(RuntimeError):
    """A resource budget would be exceeded; carries the feasible maximum."""

    def __init__(self, msg, max_feasible=None):
        super().__init__(msg)
        self.max_feasible = max_feasible


class SearchExhaustedError(RuntimeError):
    """Outward scan for a good radius ran out of candidates."""


class CertificationError(RuntimeError):
    """A pipeline certification step failed; carries the failing witness."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


@dataclass(frozen=True)
class Check:
    """One certified inequality lhs <= rhs: its verdict and its witness.

    ok is given directly only for a predicate that is no inequality (a
    finite constant, a certified radius); every inequality is judged by le.
    """

    name: str
    lhs: object
    rhs: object
    ok: bool
    witness: object = None

    @classmethod
    def le(cls, name: str, lhs, rhs, tol=0.0, witness=None) -> "Check":
        """ok iff lhs is finite and lhs <= rhs + tol; NaN on either side
        fails. Fractions and ints compare exactly, and a zero tol is not
        added, so an exact rhs stays exact."""
        finite = isinstance(lhs, numbers.Rational) or math.isfinite(lhs)
        bound = rhs + tol if tol else rhs
        return cls(name, lhs, rhs, bool(finite and lhs <= bound), witness)
