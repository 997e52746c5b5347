"""Time unit helpers.

Everything numeric inside the package is integer nanoseconds so that the
closed-form recursions and the event simulator can be compared for exact
equality.  Floats (seconds) only appear at API boundaries and are converted
once, here.
"""

NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


def s_to_ns(seconds: float) -> int:
    """Convert seconds to integer nanoseconds (round-to-nearest)."""
    return round(seconds * NS_PER_S)


def ns_to_s(ns: int) -> float:
    return ns / NS_PER_S
