"""Exception types shared across the package."""


class HgpBarrierError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(HgpBarrierError, ValueError):
    """Operands have incompatible lengths or shapes."""


class ShapeMismatch(DimensionMismatch):
    """A coefficient or block matrix has the wrong shape."""


class EmptyMatrix(HgpBarrierError, ValueError):
    """A parity-check matrix needs at least one row and one column."""


class IndexOutOfRange(HgpBarrierError, IndexError):
    """A bit, qubit, or block coordinate is outside its valid range."""


class CapExceeded(HgpBarrierError):
    """An enumeration or search would exceed the configured state cap."""


class ParseError(HgpBarrierError, ValueError):
    """Malformed input text. Carries 1-based line and column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class InconsistentDegrees(ParseError):
    """An alist's neighbor lists disagree with its declared degrees."""


class NoLogicals(HgpBarrierError):
    """The code has no nontrivial logical operators (k = 0)."""


class NoTarget(HgpBarrierError):
    """No reachable state satisfies the search's target predicate."""


class NotElementary(HgpBarrierError, ValueError):
    """The canonical operator does not have exactly one unit coefficient."""


class NotAStabilizer(HgpBarrierError, ValueError):
    """The generator combination does not reproduce the claimed operator."""


class NotACodeword(HgpBarrierError, ValueError):
    """The vector is not in the kernel of the required parity-check matrix."""


class TrivialOperator(HgpBarrierError, ValueError):
    """The operator is the identity where a nontrivial one is required."""


class OutsideNormalizer(HgpBarrierError, ValueError):
    """The operator anticommutes with some check, so sector barriers do not apply."""


class WitnessError(HgpBarrierError):
    """A constructed witness path misses its target or its expected energies."""
