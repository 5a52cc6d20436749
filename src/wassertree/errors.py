"""Exception types shared across the package."""


class WassertreeError(Exception):
    """Base class for all library errors."""


class StructureError(WassertreeError):
    """The tree (or a derived object) violates a structural invariant."""


class DomainError(WassertreeError):
    """Inputs are structurally fine but outside an operation's domain."""


class OversizeError(DomainError):
    """An input went past an explicit size cap, which the message names.

    There are two caps: Python's int-to-str digit limit, met when a
    fraction is rendered, and the deepest family truncation
    (``realizability.MAX_LEVEL``), met before any level is built.
    """


class ParseError(WassertreeError):
    """A file or string could not be decoded into a valid object."""
