"""Exception hierarchy shared by all fuzzphaser modules."""

from __future__ import annotations


class FuzzPhaserError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitianError(FuzzPhaserError, ValueError):
    """Input matrix fails the Hermitian symmetry check."""


class NotPSDError(FuzzPhaserError, ValueError):
    """Input matrix has an eigenvalue below the PSD tolerance."""


class NumericalFailureError(FuzzPhaserError, ValueError):
    """Non-finite entries, or the underlying eigensolver did not converge."""


class DimensionMismatchError(FuzzPhaserError):
    """Operands have incompatible dimensions."""


class DimensionOverflowError(FuzzPhaserError):
    """A tensor-product dimension exceeds the configured cap."""


class SizeCapError(FuzzPhaserError):
    """A dense tensor would exceed the configured size cap."""


class IncompleteFamilyError(FuzzPhaserError, ValueError):
    """A projector family is not orthogonal and complete (does not sum to I)."""


class ZeroTraceError(FuzzPhaserError):
    """A state was annihilated: its trace is too small to renormalize."""


class ParseError(FuzzPhaserError):
    """A sentence does not match any recognized pattern."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class UnknownWordError(FuzzPhaserError):
    """A noun or verb is missing from the lexicon."""

    def __init__(self, name: str):
        super().__init__(f"word not in lexicon: {name!r}")
        self.name = name


class SpaceMismatchError(FuzzPhaserError):
    """An actor is used in two sentences that demand different spaces."""

    def __init__(self, actor: str, expected: str, found: str):
        super().__init__(
            f"actor {actor!r} lives in space {expected!r} but a later "
            f"sentence requires {found!r}"
        )
        self.actor = actor
        self.expected = expected
        self.found = found


class UnknownActorError(FuzzPhaserError):
    """A requested actor does not exist in the world state."""


class LexiconError(FuzzPhaserError):
    """A lexicon document is malformed or an entry violates its constraints."""
