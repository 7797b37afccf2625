"""Client-side resilience: deadlines, retries, circuit breaking.

The paper's runtime assumes the offload path always answers — a slow
server shows up in ``k``, a slow link in the bandwidth estimate, but a
*dead* one would block the device forever.  This module holds the policy
knobs and the circuit-breaker state machine that let
:class:`~repro.runtime.client.UserDevice` degrade gracefully instead:

- **Deadline** — each offload attempt gets ``DEADLINE_MARGIN ×`` the
  engine's own predicted end-to-end latency for the chosen partition point
  (Algorithm 1's objective value).  The prediction the device already
  computes is exactly the right yardstick: a request that overshoots its
  own prediction several-fold is lost, not slow.
- **Retry with exponential backoff + jitter** — a failed attempt is
  retried at the *re-decided* partition point (bandwidth and ``k`` may
  have changed — indeed the failure itself fed the bandwidth estimator),
  with a budget so latency stays bounded.
- **Circuit breaker** — after ``FAILURE_THRESHOLD`` consecutive failures
  the breaker opens and the device pins ``point = n`` (full local
  inference).  The paper's §IV profiler tick doubles as the half-open
  health probe: once ``cooldown_s`` has elapsed, a successful probe +
  load query closes the breaker and offloading resumes.

The probe deadline, the load factor's time to live and the age bound on
bandwidth samples are shared with the fleet supervisor
(:mod:`repro.runtime.supervisor`), which probes on the clients' behalf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


#: Per-attempt timeout = ``DEADLINE_MARGIN`` x the predicted total latency.
DEADLINE_MARGIN = 3.0
#: Floor on the per-attempt timeout, so tiny predictions don't flap.
MIN_TIMEOUT_S = 0.05
#: Backoff before retry ``a`` (1-based) is ``BACKOFF_BASE_S *
#: BACKOFF_FACTOR ** (a - 1)``, scaled by ``1 +/- BACKOFF_JITTER``.
BACKOFF_BASE_S = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.5
#: Consecutive failures that open a client's breaker.
FAILURE_THRESHOLD = 3
#: Deadline on a health probe (the device's and the supervisor's).
PROBE_TIMEOUT_S = 1.0
#: A load factor older than this stops steering decisions.
K_TTL_S = 30.0
#: Age bound on the bandwidth samples a failure-aware estimator keeps.
BANDWIDTH_WINDOW_S = 30.0


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the resilient offload path (None on the device = legacy)."""

    max_retries: int = 2              # offload attempts beyond the first
    cooldown_s: float = 20.0          # open time before a probe may close it

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")

    def timeout_for(self, predicted_total_s: float,
                    sla_s: float | None = None) -> float:
        """Per-attempt deadline from the engine's own latency prediction.

        ``sla_s`` is the request's remaining SLA budget, honoured as a
        *ceiling* on the margin-derived deadline: an attempt must never be
        allowed to run past the point where the SLA is already lost (the
        retry budget would overshoot it).  The ``MIN_TIMEOUT_S`` floor
        still applies — a nearly-exhausted budget degrades to one short
        attempt, not a zero-length one.
        """
        if not math.isfinite(predicted_total_s) or predicted_total_s <= 0:
            timeout = MIN_TIMEOUT_S
        else:
            timeout = max(DEADLINE_MARGIN * predicted_total_s, MIN_TIMEOUT_S)
        if sla_s is not None:
            timeout = max(min(timeout, sla_s), MIN_TIMEOUT_S)
        return timeout

    def backoff_s(self, attempt: int, unit_jitter: float) -> float:
        """Delay before retry ``attempt`` (1-based); ``unit_jitter`` in [0, 1)."""
        base = BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1)
        return base * (1.0 + BACKOFF_JITTER * (2.0 * unit_jitter - 1.0))


class CircuitBreaker:
    """Consecutive-failure breaker guarding the offload path.

    Closed: offloading allowed.  Open: every decision is forced to
    ``point = n`` (full local).  Half-open is *probe-driven*, not
    request-driven — after ``cooldown_s`` the periodic profiler tick
    (§IV) tests the path, and only its success closes the breaker, so
    user requests never pay to rediscover a dead server.
    """

    def __init__(self, failure_threshold: int, cooldown_s: float) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._consecutive_failures = 0
        self._opened_at_s: float | None = None
        #: Counters for observability.
        self.open_count = 0
        self.failure_count = 0

    @property
    def is_open(self) -> bool:
        return self._opened_at_s is not None

    @property
    def state(self) -> str:
        """``"closed"`` or ``"open"`` — for supervisor observability.

        Half-open is not a stored state: an open breaker past its cooldown
        simply *lets the next probe's success close it*
        (:meth:`probe_may_close`), so externally it is still ``"open"``.
        """
        return "open" if self.is_open else "closed"

    def allow_offload(self, now_s: float) -> bool:
        """May a user request take the offload path right now?"""
        del now_s  # requests never half-open the breaker; probes do
        return self._opened_at_s is None

    def probe_may_close(self, now_s: float) -> bool:
        """Has the cooldown elapsed, so a successful probe closes the breaker?"""
        return (self._opened_at_s is not None
                and now_s - self._opened_at_s >= self.cooldown_s)

    def record_failure(self, now_s: float) -> None:
        self.failure_count += 1
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.failure_threshold:
            if self._opened_at_s is None:
                self.open_count += 1
            # (Re)open: every further failure restarts the cooldown clock.
            self._opened_at_s = now_s

    def record_success(self, now_s: float) -> None:
        """A successful offload, or a successful probe after the cooldown."""
        if self._opened_at_s is not None and not self.probe_may_close(now_s):
            # Within the cooldown the breaker stays open (flap damping);
            # the success still clears the consecutive-failure streak.
            self._consecutive_failures = 0
            return
        self._consecutive_failures = 0
        self._opened_at_s = None
