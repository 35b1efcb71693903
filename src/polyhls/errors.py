"""Exception hierarchy shared by all compiler stages."""


class PolyHlsError(Exception):
    """Base class for every error raised by this package."""


class MalformedExpressionError(PolyHlsError):
    """An affine expression references an out-of-range dim/symbol or has a
    non-positive divisor."""


class ArityMismatchError(PolyHlsError):
    """Map/set composition or application with incompatible arities."""


class UnboundedDimensionError(PolyHlsError):
    """A scanned dimension has no finite lower or upper bound."""


class ParseError(PolyHlsError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = "%d:%d: %s" % (line, col, message)
        super().__init__(message)


class UnsupportedConstructError(ParseError):
    """Input uses a construct outside the restricted language."""


class NonAffineError(PolyHlsError):
    """A bound or subscript inside a SCoP is not affine."""


class IllegalTilingError(PolyHlsError):
    """Requested tiling band is not permutable."""


class CodegenError(PolyHlsError):
    """Loop generation cannot handle the given schedule structure."""


class VerificationError(PolyHlsError):
    """A pass's output fails `--verify-each`: the IR verifier reports it,
    or the interpreter gives different arrays than before the passes."""


class InterpError(PolyHlsError):
    """Runtime error during reference interpretation (OOB access, unbound
    symbol, ...)."""
