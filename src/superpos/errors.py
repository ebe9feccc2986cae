"""Exception types raised across the library."""


class SuperposError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SuperposError):
    pass


class NonHermitian(SuperposError):
    pass


class NotNormalized(SuperposError):
    pass


class InvalidState(SuperposError):
    """Density matrix violates Hermiticity, positivity or unit trace."""


class LinearlyDependent(SuperposError):
    pass


class NotTracePreserving(SuperposError):
    pass


class NotSubnormalized(SuperposError):
    """Kraus set exceeds the identity: 1 - sum K'K has a negative eigenvalue."""


class NotFree(SuperposError):
    pass


class NotUnitary(SuperposError):
    pass


class RankMismatch(SuperposError):
    """Source and target superposition ranks differ."""


class SupportTooLarge(SuperposError):
    """Transformer enumeration would need more than the supported r! operators."""


class BadData(SuperposError):
    pass


class NoConvergence(SuperposError):
    pass


class SchemaViolation(SuperposError):
    """Raised on malformed JSON input; message carries a JSON-pointer path."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")
