"""Time unit helpers, and the two codes a packet log stores beside its times.

Everything numeric inside the package is integer nanoseconds so that the
closed-form recursions and the event simulator can be compared for exact
equality.  Floats (seconds) only appear at API boundaries and are converted
once, here.
"""

NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000

# the value of a timestamp a packet never got (a dropped packet's gate and
# device times); every real timestamp is at least 0
ABSENT_NS = -1

# a packet's drop reason is stored as its index in this table; code 0, None,
# means the packet was admitted
DROP_REASONS = (None, "mitigation", "capacity")


def s_to_ns(seconds: float) -> int:
    """Convert seconds to integer nanoseconds (round-to-nearest)."""
    return round(seconds * NS_PER_S)


def ns_to_s(ns: int) -> float:
    return ns / NS_PER_S
