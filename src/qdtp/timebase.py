"""Time unit helpers, and the two codes a packet log stores beside its times.

Everything numeric inside the package is integer nanoseconds so that the
closed-form recursions and the event simulator can be compared for exact
equality.  Numbers in other units only appear at entry points (the CLI,
manifests, scenarios, ``summary.json``, the forwarder's settings) and are
converted once, through :func:`to_ns`.
"""
from .errors import ConfigurationError

NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000
_NS_PER_UNIT = {"us": 1_000, "ms": NS_PER_MS, "s": NS_PER_S}

# the value of a timestamp a packet never got (a dropped packet's gate and
# device times); every real timestamp is at least 0
ABSENT_NS = -1

# a packet's drop reason is stored as its index in this table; code 0, None,
# means the packet was admitted
DROP_REASONS = (None, "mitigation", "capacity")


def to_ns(value, unit: str, what: str, error=ConfigurationError, minimum_ns: int = 1) -> int:
    """A setting ``value`` given in ``unit`` ("us", "ms" or "s"), in integer nanoseconds.

    Rounds to the nearest nanosecond.  A bool or non-number, NaN, a value
    of 2**63 ns or more (infinity too) and one that rounds below
    ``minimum_ns`` raise ``error`` naming the setting ``what``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
        raise error(f"{what} must be a finite number, got {value!r}")
    ns = value * _NS_PER_UNIT[unit]
    if abs(ns) >= 1 << 63:
        raise error(f"{what} of {value!r} {unit} does not fit in 64-bit nanoseconds")
    ns = round(ns)
    if ns < minimum_ns:
        raise error(f"{what} of {value!r} {unit} is below {minimum_ns} ns")
    return ns


def s_to_ns(seconds: float) -> int:
    """Convert seconds to integer nanoseconds (round-to-nearest)."""
    return round(seconds * NS_PER_S)


def ns_to_s(ns: int) -> float:
    return ns / NS_PER_S
