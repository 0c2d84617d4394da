"""Exception hierarchy for the star-product engine.

Everything derives from EngineError so callers (notably the CLI) can map
failures to exit codes in one place.
"""


class EngineError(Exception):
    pass


class NotDivisible(EngineError):
    """exact_div found no polynomial quotient."""


class MissingPriorOrder(EngineError):
    """Recursion right-hand side requested without all lower orders."""


class Infeasible(EngineError):
    """An order's kappa table fails the b(K) = T or Euler-Lagrange re-check."""


class NotNormalized(EngineError):
    """Operation requires a product with the pure d/dx (x) d/dy shape."""


class IntegrationObstruction(EngineError):
    """A required y-antiderivative does not exist in the localized ring."""


class CapExceeded(EngineError):
    """normalize needs a gauge term U_k of derivative order above max_op_order."""


class Inconsistent(EngineError):
    """normalize finds no pure-shape gauge: a slot with one underived argument
    (the product is not associative), conflicting forced values, or a
    non-admissible slot left in m'_k."""


class NotInImage(EngineError):
    """Classifier round-trip assertion failed."""


class UsageError(EngineError, ValueError):
    """An argument or input document outside what the operation accepts."""


class ParseError(EngineError):
    def __init__(self, message, line, col, expected=None):
        self.line = line
        self.col = col
        self.expected = expected or []
        super().__init__(f"{message} at line {line}, column {col}")
