"""Exception types shared across the package.

Every contract violation has a dedicated class so callers (and the CLI)
can tell configuration mistakes apart from mathematical refusals such as
DegenerateCase or NoDihedralWitness.
"""


class SelfsimError(Exception):
    """Base class for all package errors."""


class NonPrimeP(SelfsimError):
    """The tree arity p is not a prime number."""


class EmptyPolynomial(SelfsimError):
    """The defining polynomial has no coefficients."""


class NonInvertiblePolynomial(SelfsimError):
    """The defining polynomial has constant term 0, so the recursion matrix
    would be singular."""


class DegenerateCase(SelfsimError):
    """The spec (p, m) = (2, 1) defines the infinite dihedral group; the
    requested operation is only meaningful for the non-degenerate specs."""


class WrongCharacteristic(SelfsimError):
    """Operation requires a specific prime (usually p = 2)."""


class SpecMismatch(SelfsimError):
    """Elements from different group specs were combined."""


class NotInDerivedSubgroup(SelfsimError):
    """Argument must lie in the derived subgroup (both abelianization
    components zero)."""


class StructureError(SelfsimError):
    """An internal structural guarantee failed; indicates a bug or an
    invalid spec that slipped past validation."""


class LevelTooLarge(SelfsimError):
    """A requested tree level (or vector space) exceeds the enumeration cap
    of 2**20 points."""


class LevelMismatch(SelfsimError):
    """Permutations or chains of different levels were combined."""


class NoDihedralWitness(SelfsimError):
    """The spec has no B-letter b with wreath recursion b = (a, b); the
    requested construction needs one."""


class EvenQ(SelfsimError):
    """The exponent q must be odd."""


class NotInOrbit(SelfsimError):
    """The ray is not in the orbit of the all-ones ray: it has a digit
    outside {0, 1} or is not cofinal with 1^infinity."""


class NotLevelOneStabilized(SelfsimError):
    """The element moves a level-1 vertex (nonzero root exponent), but the
    operation needs a level-1 stabilizer."""


class ScreenInconclusive(SelfsimError):
    """The integer-action screen could not certify non-membership at a step
    where the reduction procedure requires it."""


class WordSyntaxError(SelfsimError):
    """A word expression could not be parsed."""


class SpecFileError(SelfsimError):
    """A group spec file could not be parsed."""
