"""Exception types shared across the package."""


class CoxeterError(Exception):
    """Base class for every package-specific error."""


class UnknownType(CoxeterError):
    """Descriptor does not name a supported type family."""


class RankOutOfRange(CoxeterError):
    """Rank (or dihedral bond label) outside the allowed range for the family."""


class InvalidMatrix(CoxeterError):
    """Input fails the Coxeter-matrix conditions (symmetry, diagonal, entry range)."""


class TooLarge(CoxeterError):
    """Graph exceeds the size guard for exact search."""


class NotIndependent(CoxeterError):
    """Seed vertex set has an internal edge."""


class NotFinite(CoxeterError):
    """The Coxeter graph is not of finite type: the group is infinite."""


class NumericalInstability(CoxeterError):
    """Root identification was ambiguous, or the combinatorial audit of the table failed."""


class InvalidLimit(CoxeterError, ValueError):
    """A size limit (root cap, order guard) is malformed or too small for the group."""


class OrderGuardExceeded(CoxeterError):
    """Group enumeration passed the element-count guard."""


class OutputError(CoxeterError):
    """A report could not be written to the requested output path."""


class BadLetter(CoxeterError):
    """Word letter outside 1..rank."""


class InvalidWord(CoxeterError):
    """Letter sequence is not a reduced word of the universal group."""


class InvalidElement(CoxeterError, ValueError):
    """Element id outside 0..order-1 of its group table."""


class IdentityHasNoAncestor(CoxeterError):
    """Ancestor operations are undefined for the identity element."""


class EmptyWord(CoxeterError):
    """Operation requires a nonempty word."""


class AncestorAmbiguityFound(CoxeterError):
    """A whole-group scan hit elements with more than one maximal involution prefix.

    Carries the offending element ids so callers can report them as
    counterexamples instead of crashing.
    """

    def __init__(self, element_ids):
        self.element_ids = tuple(int(w) for w in element_ids)
        super().__init__(
            f"{len(self.element_ids)} element(s) have more than one maximal involution prefix"
        )
