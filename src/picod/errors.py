"""Exception types shared across the toolkit."""


class PicodError(Exception):
    """Base class for all toolkit errors."""


def _count(n: int) -> str:
    """n in decimal below 2^64, else by its power of two: a decimal string
    of more than 4300 digits raises ValueError."""
    k = n.bit_length() - 1
    return str(n) if k < 64 else f"2^{k}" if n == 1 << k else f"over 2^{k}"


class CapExceeded(PicodError):
    """An input size exceeds its cap, refused before any work starts.

    Carries the exact size that was refused so callers can report it or
    rerun with a deliberately raised cap.  Searches that run out of work
    budget raise SearchOverflow instead.
    """

    def __init__(self, what: str, size: int, cap: int):
        super().__init__(f"{what}: size {_count(size)} exceeds cap {_count(cap)}")
        self.what = what
        self.size = size
        self.cap = cap


class SearchOverflow(PicodError):
    """An exact search ran out of node budget before reaching an answer.

    Distinct from a negative answer: the search neither found a witness nor
    proved that none exists.  `proven` is the lower bound on the answer that
    the search had established when it stopped, or None if it had none.
    """

    def __init__(self, message: str, proven: int | None = None):
        super().__init__(message)
        self.proven = proven
