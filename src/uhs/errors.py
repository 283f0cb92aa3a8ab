"""Exception types shared across the package, and the domain checks for p and tol."""

import math


class HypergraphFormatError(ValueError):
    """Malformed .uhg text or invalid hypergraph data."""


class PreconditionError(ValueError):
    """An operation was called outside its domain of validity."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach the requested tolerance."""


def check_p(p: float, regime: str, what: str, r: int = 1, hint: str = "") -> None:
    """Raise PreconditionError unless p is finite and in `regime` for
    uniformity r: "p >= 1", "1 <= p < r", "p >= r" or "p > r".  Every
    comparison with nan is false, and inf is not finite."""
    inside = {"p >= 1": 1 <= p, "1 <= p < r": 1 <= p < r, "p >= r": r <= p, "p > r": r < p}[regime]
    if not (inside and math.isfinite(p)):
        need = regime.replace("r", f"r = {r}")
        raise PreconditionError(f"{what} requires finite p with {need} (got p={p}){hint}")


def check_tol(tol: float) -> None:
    """Raise PreconditionError unless tol is positive and finite; every
    comparison with nan is false."""
    if not (0 < tol < math.inf):
        raise PreconditionError(f"tol must be positive and finite (got {tol})")
