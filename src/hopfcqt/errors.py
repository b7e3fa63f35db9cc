"""Exception types shared across the library, and `shown`, the one bounded
repr through which their messages echo outside input."""

import reprlib

# reprlib elides a long string or number, and a container past 6 items (4 for a
# dict) or 3 levels deep; what is still longer is cut at MAX_SHOWN characters
_REPR = reprlib.Repr()
_REPR.maxlevel, _REPR.maxstring, _REPR.maxother = 3, 60, 60
MAX_SHOWN = 100


def shown(value):
    "repr(value) for an error message: whole when short, else elided to MAX_SHOWN characters."
    text = _REPR.repr(value)
    return text if len(text) <= MAX_SHOWN else text[:MAX_SHOWN - 3] + "..."


class HopfCqtError(Exception):
    "Base class for all library errors."


class DivisionByZero(HopfCqtError, ZeroDivisionError):
    "Division or inversion of a zero scalar."


class InvalidScalar(HopfCqtError, ValueError):
    "A cyclotomic order that is not an int >= 1, or an irrational scalar asked to be rational."


class NotARootOfUnity(HopfCqtError):
    "A scalar that was required to be zeta_N^j is not of that form."


class DimensionMismatch(HopfCqtError):
    "Incompatible matrix/vector dimensions."


class MixedGroups(HopfCqtError):
    "Operation on elements of different parent groups."


class InfiniteGroup(HopfCqtError):
    "Full enumeration requested for an infinite group."


class InvalidGroup(HopfCqtError, ValueError):
    "Group data that define no group: a bad table or name list, or too few factors."


class InvalidHomomorphism(HopfCqtError, ValueError):
    "Generator images that are missing or do not extend to a homomorphism."


class UndefinedGeneratorAction(HopfCqtError):
    "Action table misses a generator, or a generator does not act bijectively."


class InvalidAction(HopfCqtError):
    "The actions break an orbit law: a stabilizer that is not a subgroup, say."


class MissingEntry(HopfCqtError):
    "Cocycle table lookup failed and no default was declared."


class InvalidCocycle(HopfCqtError, ValueError):
    "A zero sigma/tau value, or a tau whose twisted coproduct is not a coalgebra."


class NotAScalar(HopfCqtError, TypeError):
    "A value that should be a scalar (a coefficient, matrix or R-form entry) is not one."


class BadWindow(HopfCqtError, ValueError):
    "A window outside 0..MAX_WINDOW, none over infinite F, or an R-form entry outside it."


class OutOfWindow(HopfCqtError, KeyError):
    "An R value requested outside the form's declared window."


class UnknownLevel(HopfCqtError, ValueError):
    "A CQT level that is not one of the condition families."


class IrrationalRoots(HopfCqtError, ValueError):
    "A quadratic whose discriminant is not a rational square."


class ContextMismatch(HopfCqtError):
    "Operation on elements over different Hopf-algebra contexts."


class NotInStabilizer(HopfCqtError):
    "Group element outside the stabilizer of the base point."


class NonAbelianStabilizer(HopfCqtError):
    "One-dimensional enumeration requested over a non-abelian stabilizer."


class WrongGroup(HopfCqtError):
    "Operation restricted to a specific group shape (usually |G| = 2)."


class NotInSpan(HopfCqtError):
    "Element is not a linear combination of the given characters."


class NonIntegralMultiplicity(HopfCqtError):
    "Decomposition multiplicities are not nonnegative integers."


class DependentCharacters(HopfCqtError, ValueError):
    "A decomposition basis of characters that is not linearly independent."


class UnknownLabelKind(HopfCqtError, ValueError):
    "A |G| = 2 simple label whose kind is not U, V or W."


class UnknownEntry(HopfCqtError):
    "Catalog id not found."


class SearchSpaceTooLarge(HopfCqtError):
    "Enumerative search aborted: node budget exceeded."


class SchemaError(HopfCqtError):
    "Malformed JSON input; carries the offending location."

    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = "%s (at %s)" % (message, location)
        super().__init__(message)
