"""Drop-based overload mitigation for the pacing gate.

The rule is expressed in units of the gate spacing D: when more than N
packets are observed within one spacing window, the gate stops admitting
packets for K spacings.  If by the end of that embargo the trailing window
still shows more than N packets, the embargo renews immediately -- a
sustained flood therefore gets at most N+1 packets per K*D, while the gate
reopens promptly once the flood stops.

``MitigationPolicy`` is the declarative part (N, K).  The stateful window
bookkeeping lives in ``MitigationGate``, which both the simulator and the
live forwarder drive one arrival at a time.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigurationError, ContractViolation

__all__ = ["MitigationPolicy", "MitigationGate"]


@dataclass(frozen=True)
class MitigationPolicy:
    """Trigger threshold N and embargo length K (in units of D)."""

    n_threshold: int
    k_factor: int

    def __post_init__(self) -> None:
        if self.n_threshold < 1:
            raise ConfigurationError("mitigation threshold N must be at least 1")
        if self.k_factor < 1:
            raise ConfigurationError("mitigation factor K must be at least 1")

    @classmethod
    def coerce(cls, value) -> "MitigationPolicy":
        """Accept a policy or an (N, K) pair of whole numbers."""
        if isinstance(value, cls):
            return value
        try:
            n, k = value
            whole = int(n), int(k)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(
                "mitigation must be a policy or an (N, K) pair"
            ) from exc
        if whole != (n, k):
            raise ConfigurationError(
                f"mitigation (N, K) must be whole numbers, got {value!r}"
            )
        return cls(*whole)


class MitigationGate:
    """Stateful admit/drop decision maker.

    Feed arrivals in non-decreasing time order through :meth:`step`; it
    returns True to admit.  Every arrival -- admitted or dropped -- counts
    as *observed* and stays in the trailing window, because the overload
    detector watches offered load, not admitted load.  With ``policy=None``
    there is no detector: the gate only enforces time order and the
    embargoes requested through :meth:`force_drop`.

    Expired embargoes are resolved lazily on the next call: between two
    arrivals nothing can change the observed-packet window, so evaluating
    the renewal condition at the recorded expiry instant gives the same
    answer an eager timer would have produced.
    """

    def __init__(self, policy: Optional[MitigationPolicy], d_ns: int):
        if d_ns <= 0:
            raise ConfigurationError("mitigation needs a positive spacing D")
        self.policy = policy
        self.d_ns = d_ns
        self._recent: deque[int] = deque()
        self._drop_until_ns: Optional[int] = None
        self._forced_until_ns: Optional[int] = None
        self._last_ns: Optional[int] = None

    # -- operations ---------------------------------------------------

    def step(self, arrival_ns: int) -> bool:
        """Record one arrival and decide whether to admit it."""
        if self._last_ns is not None and arrival_ns < self._last_ns:
            raise ContractViolation("mitigation arrivals must be time ordered")
        self._last_ns = arrival_ns

        if self.policy is None:
            return not self._forced(arrival_ns)

        # resolve embargoes that expired before this arrival; each renewal
        # pushes the boundary a full K*D, so this loop is short
        while self._drop_until_ns is not None and arrival_ns >= self._drop_until_ns:
            if self._trim(self._drop_until_ns) > self.policy.n_threshold:
                self._drop_until_ns += self.policy.k_factor * self.d_ns
            else:
                self._drop_until_ns = None

        self._recent.append(arrival_ns)
        observed = self._trim(arrival_ns)
        if self._drop_until_ns is not None or self._forced(arrival_ns):
            return False
        if observed > self.policy.n_threshold:
            # the packet that trips the threshold is itself dropped
            self._drop_until_ns = arrival_ns + self.policy.k_factor * self.d_ns
            return False
        return True

    def force_drop(self, now_ns: int, duration_ns: int) -> None:
        """Externally requested embargo (control channel); never renews."""
        if duration_ns < 0:
            raise ContractViolation("forced drop duration cannot be negative")
        until = now_ns + duration_ns
        if self._forced_until_ns is None or until > self._forced_until_ns:
            self._forced_until_ns = until

    # -- internals ----------------------------------------------------

    def _forced(self, now_ns: int) -> bool:
        if self._forced_until_ns is not None and now_ns < self._forced_until_ns:
            return True
        return False

    def _trim(self, at_ns: int) -> int:
        """Forget what left the window (at - D, at]; the count of what is left.

        Every recorded arrival is at or before ``at`` (an embargo's expiry is
        later than every arrival seen during it), so what is left is the window.
        """
        recent = self._recent
        floor = at_ns - self.d_ns
        while recent and recent[0] <= floor:
            recent.popleft()
        return len(recent)
