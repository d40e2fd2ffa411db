"""Exception types shared across the toolkit."""


class TwoCatError(Exception):
    """Base class for all toolkit errors."""


class MalformedData(TwoCatError):
    """Carrier data is incomplete, inconsistent or references unknown ids."""


class UnknownCell(TwoCatError):
    """A cell identifier is not present in the relevant carrier."""


class MismatchedBoundary(TwoCatError):
    """Two functors cannot be composed because their ends do not meet."""


class MismatchedTarget(TwoCatError):
    """A cospan operation received morphisms with different targets."""


class SearchCapExceeded(TwoCatError):
    """Carriers are too large for the configured exhaustive search caps."""


class BudgetExceeded(TwoCatError):
    """A generation budget is too small to hold even the base cases."""


class CyclicPresentation(TwoCatError):
    """A free construction needs an acyclic generating graph."""


class LawViolation(TwoCatError):
    """A construction met composites that break a 2-category law.

    ``law`` is a name from ``LAW_NAMES`` and ``cells`` the least cells
    (usually a pair) at which the construction found it broken.
    """

    def __init__(self, law, cells):
        super().__init__(f"{law} law fails at ({', '.join(map(str, cells))})")
        self.law = law
        self.cells = tuple(cells)
