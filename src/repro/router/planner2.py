"""Pluggable coverage policies (planner v2): static vs adaptive LC_inter
selection.

The paper's covering-LC selection (Section 3.2, Cases 1-3) is static and
first-fit: every able candidate schedules a ``REP_D`` and the winner is
whichever reply hits the control lines first, in slot-rank order
(:meth:`repro.router.protocol.EIBProtocol._schedule_reply`).  That is
faithful to the 2004 design but blind to load, health history and
concurrent faults -- under multi-fault schedules every solicitation
piles onto the lowest-ranked candidate until its headroom runs dry.

This module makes the selection *policy* pluggable:

* :class:`StaticPolicy` (the default) reproduces the paper's rank-based
  contention resolution bit for bit -- same delay formula, same RNG
  draws, same winner -- so every pre-existing artifact (chaos campaign
  JSON, the ``validate`` report) is unchanged;
* :class:`AdaptivePolicy` scores each candidate on its *own* locally
  observable state -- reserved-rate headroom after the hypothetical
  reservation, coverage streams it already carries, and a decayed
  fault-activation history (the flap-rate signal of the PR 7 health
  scorecards) -- and maps the score onto the reply delay, so the
  collision-arbitrated acceptance naturally elects the best-scoring
  candidate.  It also enables *online replanning* (re-solicit on
  FLT_N/FLT_C news with exponential backoff + jitter instead of the
  fixed retry cooldown) and *fair graceful degradation* (proportional
  rate shedding across streams when aggregate coverage demand exceeds
  the EIB data capacity) inside the protocol engine.

Scoring stays distributed-plausible: a candidate consults only
quantities its own maintenance processor knows (its headroom, its
active coverage duty, the fault history it has witnessed), never a
global view.  The policy object is shared across the router's LCs
purely as an implementation convenience.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.router.linecard import Linecard

__all__ = [
    "CoveragePolicy",
    "StaticPolicy",
    "AdaptivePolicy",
    "POLICY_NAMES",
    "make_policy",
]

#: Registered policy names (the ``--coverage-policy`` CLI choices).
POLICY_NAMES = ("static", "adaptive")

#: Base reply delay shared by both policies (carrier turnaround).
_REPLY_BASE_S = 0.5e-6
#: Per-rank reply spacing of the paper's static slot-rank resolution.
_STATIC_STEP_S = 2e-6
#: Static tie-break jitter bound.
_STATIC_JITTER_S = 0.4e-6
#: Adaptive policy: full score span maps onto this delay range.
_ADAPTIVE_SPAN_S = 8e-6
#: Adaptive tie-break jitter bound (small against the score span).
_ADAPTIVE_JITTER_S = 0.2e-6


class CoveragePolicy:
    """Base coverage policy: how candidates contend, whether the
    protocol engine replans and degrades.

    Subclasses override :meth:`reply_delay` (the contention-resolution
    delay a candidate waits before sending its ``REP_D``) and the
    feature flags.  :meth:`bind` is called once by the protocol engine
    to hand the policy its read-only world references.
    """

    name = "static"
    #: re-solicit on fault news / failed solicitations with backoff
    #: instead of waiting for the protocol's fixed retry cooldown
    replans = False
    #: proportional rate shedding when coverage demand exceeds the EIB
    #: data capacity (instead of first-come-first-served stream failure)
    degrades = False
    #: backoff schedule for replanned solicitations (when ``replans``)
    replan_base_s = 50e-6
    replan_jitter_s = 10e-6
    replan_max_attempts = 6

    def __init__(self) -> None:
        self._lcs: dict[int, Linecard] = {}
        self._coverage_load: Callable[[int], tuple[int, float]] = lambda lc: (0, 0.0)
        self._clock: Callable[[], float] = lambda: 0.0

    def bind(
        self,
        linecards: dict[int, Linecard],
        coverage_load: Callable[[int], tuple[int, float]],
        clock: Callable[[], float],
    ) -> None:
        """Wire the policy to one protocol engine's world.

        ``coverage_load(lc_id)`` returns ``(n_streams, reserved_bps)``
        of the coverage duty the LC currently carries; ``clock`` is the
        simulation clock (used by health-history decay).
        """
        self._lcs = linecards
        self._coverage_load = coverage_load
        self._clock = clock

    def reply_delay(
        self,
        me: int,
        requester: int,
        n_stations: int,
        rate_bps: float,
        rng: np.random.Generator,
    ) -> float:
        """Delay before candidate ``me`` answers a broadcast ``REQ_D``."""
        raise NotImplementedError

    # -- health-history hooks (no-ops for the static policy) ---------------

    def observe_fault(self, lc_id: int, now: float) -> None:
        """A fault activated at ``lc_id`` (one call per activation/flap)."""

    def observe_repair(self, lc_id: int, now: float) -> None:
        """A fault at ``lc_id`` was repaired or auto-cleared."""


class StaticPolicy(CoveragePolicy):
    """The paper's first-fit slot-rank contention resolution.

    Bit-identical to the pre-policy protocol engine: the delay formula
    and the single ``rng.uniform`` draw per reply are exactly the ones
    the engine used inline, so with this policy (the default) every
    seeded artifact reproduces byte for byte.
    """

    name = "static"

    def reply_delay(
        self,
        me: int,
        requester: int,
        n_stations: int,
        rate_bps: float,
        rng: np.random.Generator,
    ) -> float:
        # Rank-based contention resolution: the candidate "closest" (in
        # slot order) to the requester replies first; the others' timers
        # are spaced far enough apart that hearing the winning reply
        # cancels them before they fire.  A small random term breaks the
        # remaining ties; CSMA/CD handles true collisions.
        rank = (me - requester) % max(n_stations, 1)
        return (
            _REPLY_BASE_S
            + _STATIC_STEP_S * rank
            + float(rng.uniform(0.0, _STATIC_JITTER_S))
        )


class AdaptivePolicy(CoveragePolicy):
    """Load/health-aware LC_inter selection with replanning and fair
    degradation.

    Each candidate computes a score in ``[0, 1]`` from three locally
    observable signals and waits ``(1 - score)`` of the delay span, so
    the best-scoring candidate's ``REP_D`` wins the wire:

    * **headroom** -- spare capacity *after* the hypothetical
      reservation, as a fraction of the card's line rate.  A nearly
      full card volunteers late;
    * **spread** -- ``1 / (1 + active coverage streams)``.  Under
      multi-fault, a card already standing in for one neighbour backs
      off so coverage spreads instead of piling onto the lowest slot;
    * **health** -- ``1 / (1 + decayed fault-activation count)``.  Each
      activation (including every intermittent flap) adds one unit that
      decays exponentially with ``health_decay_s``, penalising flapping
      or recently-faulty cards the way the PR 7 scorecard flap rate
      does.

    The weights favour headroom (the hard resource) over health over
    spread.  Scores only *order* candidates -- they never veto: when
    every candidate is flapping and loaded, the least-bad one still
    replies first, so the policy cannot deadlock a solicitation.
    """

    name = "adaptive"
    replans = True
    degrades = True

    #: decay time-constant of the fault-activation history (sim seconds;
    #: sized for the accelerated chaos clock where repairs take ~50 us)
    health_decay_s: float

    _W_HEADROOM = 0.5
    _W_HEALTH = 0.3
    _W_SPREAD = 0.2

    def __init__(self, *, health_decay_s: float = 1e-3) -> None:
        super().__init__()
        if health_decay_s <= 0.0:
            raise ValueError(f"health_decay_s must be positive, got {health_decay_s}")
        self.health_decay_s = health_decay_s
        #: per-LC decayed activation count + its last-update timestamp.
        self._flap: dict[int, tuple[float, float]] = {}

    # -- health history -----------------------------------------------------

    def _decayed(self, lc_id: int, now: float) -> float:
        count, at = self._flap.get(lc_id, (0.0, now))
        if now <= at:
            return count
        return count * float(np.exp(-(now - at) / self.health_decay_s))

    def observe_fault(self, lc_id: int, now: float) -> None:
        self._flap[lc_id] = (self._decayed(lc_id, now) + 1.0, now)

    def observe_repair(self, lc_id: int, now: float) -> None:
        # Repairs do not erase history: a flapping card that repairs
        # fast still looks restless.  Refresh the decay anchor only.
        if lc_id in self._flap:
            self._flap[lc_id] = (self._decayed(lc_id, now), now)

    def flap_score(self, lc_id: int) -> float:
        """Decayed activation count at the current clock (observability)."""
        return self._decayed(lc_id, self._clock())

    # -- scoring ------------------------------------------------------------

    def score(self, me: int, rate_bps: float) -> float:
        """Candidate fitness in [0, 1]; higher replies earlier."""
        lc = self._lcs[me]
        headroom = max(0.0, lc.headroom_bps - rate_bps) / lc.capacity_bps
        n_streams, _rate = self._coverage_load(me)
        spread = 1.0 / (1.0 + n_streams)
        health = 1.0 / (1.0 + self.flap_score(me))
        return (
            self._W_HEADROOM * headroom
            + self._W_HEALTH * health
            + self._W_SPREAD * spread
        )

    def reply_delay(
        self,
        me: int,
        requester: int,
        n_stations: int,
        rate_bps: float,
        rng: np.random.Generator,
    ) -> float:
        del requester, n_stations  # score replaces slot rank entirely
        score = self.score(me, rate_bps)
        return (
            _REPLY_BASE_S
            + _ADAPTIVE_SPAN_S * (1.0 - score)
            + float(rng.uniform(0.0, _ADAPTIVE_JITTER_S))
        )


def make_policy(name: str) -> CoveragePolicy:
    """Instantiate a registered policy by name.

    >>> make_policy("static").name
    'static'
    >>> make_policy("adaptive").replans
    True
    """
    if name == "static":
        return StaticPolicy()
    if name == "adaptive":
        return AdaptivePolicy()
    raise ValueError(f"unknown coverage policy {name!r} (choose from {POLICY_NAMES})")
