"""Exception types shared across the package."""


class FreeMomentsError(Exception):
    """Base class for all errors raised by this package."""


class VariableMismatchError(FreeMomentsError, ValueError):
    """Two objects over different ambient variable counts were combined."""


class PolyParseError(FreeMomentsError, ValueError):
    """Invalid polynomial text.  Carries the 0-based offset of the problem."""

    def __init__(self, message: str, text: str, position: int):
        self.text = text
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UsageError(FreeMomentsError, ValueError):
    """An invalid command-line value (option or environment variable)."""


class InvalidPolynomialError(FreeMomentsError, ValueError):
    """A polynomial does not satisfy a structural precondition."""


class CapExceededError(FreeMomentsError, RuntimeError):
    """A size cap would be exceeded; the request was refused."""


class ParseCapExceededError(CapExceededError):
    """Polynomial text whose products or powers would expand past the
    parser's fixed limits; no option raises them."""


class PairingCapExceededError(CapExceededError):
    """A word the oracle's pairing counter refuses at its fixed limits (the
    letters of subwords one count adds, the distinct letters it can code);
    no option raises them."""
