"""Exception hierarchy shared across the package."""


class NetvecError(Exception):
    """Base class for all errors raised by this package."""


# --- prefix / trie ---

class PrefixTooLong(NetvecError):
    pass


class NotFound(NetvecError):
    pass


class NodeMissing(NetvecError):
    pass


# --- vector algebra ---

class DimensionMismatch(NetvecError):
    pass


# --- verification ---

class UnknownRouter(NetvecError):
    pass


class UnknownLink(NetvecError):
    pass


class PbrProtected(NetvecError):
    """A non-PBR update tried to touch a PBR-protected prefix."""


class AlignmentDiverged(NetvecError):
    """Rewrite targets could not be aligned with match-side class boundaries."""


# --- rectification ---

class NoPath(NetvecError):
    pass


class RectificationImpossible(NetvecError):
    pass


# --- dataset / parsing ---

class ParseError(NetvecError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateEdge(ParseError):
    pass


class InfeasibleParameters(NetvecError):
    pass


# --- oracle ---

class WidthTooLarge(NetvecError):
    pass


class NonOrthonormalColumns(NetvecError):
    pass
