"""Exception types shared across the package, and the integer reader."""


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
