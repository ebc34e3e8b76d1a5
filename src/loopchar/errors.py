"""Exception types shared across the package, the integer reader, the
quoting of user text and the printing of counts in error messages, and
the one size cap."""


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


# The most entries one result may hold: the factors of a character or a
# product, the coordinates of an orbit walk or a root table, the letters
# of a word, the integers of a Dynkin diagram.  The largest results the
# benchmark and the tests build hold about 9.0e6 (A3000 node 1).
MAX_SIZE = 20_000_000


def number(n: int) -> str:
    """A nonnegative count for an error message: in decimal up to
    ``ECHO_CAP`` digits, else as its digit count, ``<N digits>``.

    ``str`` refuses an int past ``sys.get_int_max_str_digits()`` digits,
    so the count is read off the bit length: k below is floor(log10 n)
    or one less for any n under 10^9 bits, and one comparison settles
    which.
    """
    if n < 10 ** ECHO_CAP:
        return str(n)
    k = (n.bit_length() - 1) * 301029995 // 10**9
    return f"<{k + 1 + (n >= 10 ** (k + 1))} digits>"


def check_size(size: int, what: str) -> None:
    """DomainError if ``size``, the predicted count of ``what``, passes MAX_SIZE.

    ``what`` names the entries counted, as a plural noun phrase.  Each
    builder calls this with its prediction before it allocates, so a
    refusal costs nothing and fills no cache entry.  The message gives
    the size through ``number``.
    """
    if size > MAX_SIZE:
        raise DomainError(f"{what} would number {number(size)}, more than the size cap of {MAX_SIZE}")
