"""Exception types shared across the package, the integer reader and the
quoting of user text in error messages."""


class ParseError(ValueError):
    """Raised when input text does not match the expected grammar."""


class DomainError(ValueError):
    """Raised when structurally valid input lies outside the supported domain."""


def read_int(text: str) -> int:
    """A matched literal as an int; ParseError past ``sys.get_int_max_str_digits()`` digits."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer literal of {len(text)} characters is too long to convert")


# Characters of user text an error message quotes before it cuts.
ECHO_CAP = 100


def quote(value: object) -> str:
    """``repr(value)`` for an error message, bounded in length.

    A string past ``ECHO_CAP`` characters is quoted up to the cap and
    followed by ``… (N characters)``; any other value's repr past the cap
    is cut the same way.  Shorter values read exactly as ``repr`` does.
    """
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= ECHO_CAP:
        return repr(value)
    head = repr(text[:ECHO_CAP]) if isinstance(value, str) else text[:ECHO_CAP]
    return f"{head}… ({len(text)} characters)"
