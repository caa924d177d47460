"""Exception types shared across the package."""


class ThreadQuiverError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(ThreadQuiverError):
    pass


class NonAcyclic(ThreadQuiverError):
    pass


class NestedThread(ThreadQuiverError):
    pass


class WindowMismatch(ThreadQuiverError):
    pass


class ExceedsBound(ThreadQuiverError):
    """A resolution did not terminate within the requested length."""


class NotProjectiveCertified(ThreadQuiverError):
    pass


class NotRepresentable(ThreadQuiverError):
    pass


class EndNotSplit(ThreadQuiverError):
    """The endomorphism ring could not be split over the base field."""


class ZNotExtOrthogonal(ThreadQuiverError):
    pass


class NotFunctorial(ThreadQuiverError):
    pass


class TooLarge(ThreadQuiverError):
    pass


class AlphaNotInvertible(ThreadQuiverError):
    pass


class ParseError(ThreadQuiverError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class UnknownVertex(ParseError):
    pass


class DuplicateName(ParseError):
    pass


class NestedThreadLabel(ParseError):
    pass
