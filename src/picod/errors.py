"""Exception types shared across the toolkit."""


class PicodError(Exception):
    """Base class for all toolkit errors."""


class CapExceeded(PicodError):
    """An input size exceeds its cap, refused before any work starts.

    Carries the exact size that was refused so callers can report it or
    rerun with a deliberately raised cap.  Searches that run out of work
    budget raise SearchOverflow instead.
    """

    def __init__(self, what: str, size: int, cap: int):
        super().__init__(f"{what}: size {size} exceeds cap {cap}")
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
