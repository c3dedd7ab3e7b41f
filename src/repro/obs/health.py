"""Watchdog rules and health events.

The telemetry sampler (:mod:`repro.obs.timeseries`) produces a stream of
:class:`HealthSample` snapshots; this module turns them into judgements:

* :class:`HealthMonitor` — rule-based watchdog.  Each rule is a pure
  threshold over the sample stream; rules fire *per episode* (an event
  on the transition into the bad state, silence while it persists, a
  fresh event only after recovery and relapse), so a 10-second stall is
  one alert, not ten thousand:

  - **stall** — entry-method executions stopped advancing for more than
    ``stall_factor`` x the trailing-median progress gap (critical);
  - **retransmit-storm** — the windowed retransmit/send ratio on the
    WAN blew past ``storm_rate`` (warning);
  - **load-imbalance** — max/mean PE utilization exceeded
    ``imbalance_ratio`` (warning);
  - **unmasking** — the idle fraction trended above
    ``unmasked_idle_threshold``: the latency the runtime was hiding is
    now *visible*, i.e. the Figure-3 knee observed online rather than
    post-hoc (warning).  The default threshold ``1 - 1/KNEE_TOLERANCE``
    is exactly the idle share at which step time reaches 1.5x the
    compute-bound baseline — the same tolerance the knee analyzer uses;
  - **wan-saturation** — the busiest WAN lane's windowed busy fraction
    exceeded ``wan_saturation_busy`` while the idle fraction was rising:
    the run is bandwidth-bound, not latency-bound, so adding objects
    will not mask it (warning).  Fed by the network flight recorder's
    per-lane utilization series.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs.critpath import KNEE_TOLERANCE


@dataclass(frozen=True)
class HealthEvent:
    """One structured watchdog finding."""

    t: float                 # virtual time the rule fired
    severity: str            # "info" | "warning" | "critical"
    rule: str                # e.g. "stall", "unmasking"
    metric: str              # the metric the rule watched
    value: float             # observed value at firing time
    threshold: float         # the configured threshold it crossed
    message: str             # human-readable one-liner

    def to_dict(self) -> Dict[str, object]:
        return {
            "t": self.t,
            "severity": self.severity,
            "rule": self.rule,
            "metric": self.metric,
            "value": self.value,
            "threshold": self.threshold,
            "message": self.message,
        }

    def render(self) -> str:
        return (f"[{self.severity.upper():8s}] t={self.t * 1e3:10.3f} ms  "
                f"{self.rule}: {self.message}")


@dataclass
class HealthSample:
    """One telemetry snapshot offered to the watchdog."""

    t: float
    #: Cumulative entry-method executions across all PEs.
    executions: int
    #: pe -> EMA-smoothed windowed utilization.
    utilization: Dict[int, float]
    #: EMA-smoothed idle fraction (1 - mean utilization).
    idle_fraction: float
    #: Total scheduler queue depth across PEs.
    queue_depth: int
    #: Cross-WAN wire copies currently in transit.
    wan_in_flight: int
    #: Cumulative cross-WAN wire copies sent.
    wan_sends: int
    #: Cumulative data retransmissions.
    retransmits: int
    #: Online masked-latency fraction (``None`` when no aggregator).
    masked_fraction: Optional[float] = None
    #: Busiest WAN lane's windowed busy fraction from the flight
    #: recorder (``None`` when no aggregator / no hop ledgers yet).
    max_link_busy: Optional[float] = None
    #: Longest single entry-method execution in this sampling window
    #: from the object fold (``None`` when object stats are off).
    top_grain_s: Optional[float] = None
    #: The object that ran that longest execution.
    top_grain_obj: Optional[str] = None


@dataclass(frozen=True)
class HealthConfig:
    """Thresholds for the watchdog rules."""

    #: Stall: no progress for longer than this multiple of the trailing
    #: median inter-progress gap.
    stall_factor: float = 4.0
    #: Progress gaps observed before the stall rule arms.
    stall_min_history: int = 3
    #: Retransmit storm: windowed retransmits/sends ratio threshold ...
    storm_rate: float = 0.5
    #: ... with at least this many retransmits in the window.
    storm_min_retransmits: int = 3
    #: Load imbalance: max/mean utilization ratio threshold ...
    imbalance_ratio: float = 2.0
    #: ... applied only when mean utilization is above this floor
    #: (ratios over near-zero means are noise).
    imbalance_min_util: float = 0.05
    #: Unmasking: idle fraction above this means the WAN latency is no
    #: longer hidden.  ``1 - 1/KNEE_TOLERANCE`` is the idle share at
    #: which step time reaches the knee's step-time tolerance.
    unmasked_idle_threshold: float = 1.0 - 1.0 / KNEE_TOLERANCE
    #: WAN saturation: a wire lane's windowed busy fraction above this
    #: while the idle fraction is rising means the link itself — not the
    #: latency — became the bottleneck (bandwidth-bound, not
    #: latency-bound).
    wan_saturation_busy: float = 0.8
    #: Grain anomaly: while unmasked idleness persists, one object's
    #: single execution covering more than this fraction of the sampling
    #: window means the decomposition — one over-coarse chare — is why
    #: the latency shows (the advisor's split candidate, seen online).
    grain_dominance: float = 0.5
    #: Samples ignored by the unmasking/imbalance rules while EMAs warm
    #: up (startup transients look like idleness).
    warmup_samples: int = 5

    def __post_init__(self) -> None:
        if self.stall_factor <= 1.0:
            raise ConfigurationError(
                f"stall_factor must be > 1: {self.stall_factor}")
        if not (0.0 < self.storm_rate <= 1.0):
            raise ConfigurationError(
                f"storm_rate must be in (0, 1]: {self.storm_rate}")
        if self.imbalance_ratio <= 1.0:
            raise ConfigurationError(
                f"imbalance_ratio must be > 1: {self.imbalance_ratio}")
        if not (0.0 < self.unmasked_idle_threshold < 1.0):
            raise ConfigurationError(
                "unmasked_idle_threshold must be in (0, 1): "
                f"{self.unmasked_idle_threshold}")
        if not (0.0 < self.wan_saturation_busy <= 1.0):
            raise ConfigurationError(
                "wan_saturation_busy must be in (0, 1]: "
                f"{self.wan_saturation_busy}")
        if not (0.0 < self.grain_dominance <= 1.0):
            raise ConfigurationError(
                f"grain_dominance must be in (0, 1]: {self.grain_dominance}")


class HealthMonitor:
    """Runs the watchdog rules over successive :class:`HealthSample`\\ s.

    Pure and deterministic: no wall clock, no I/O.  Feed it samples (the
    :class:`~repro.obs.timeseries.TelemetrySampler` does this every
    tick) and collect :class:`HealthEvent` lists back.
    """

    def __init__(self, config: Optional[HealthConfig] = None) -> None:
        self.config = config or HealthConfig()
        self.samples_seen = 0
        self.events: List[HealthEvent] = []
        #: rule -> currently inside a bad episode?
        self._active: Dict[str, bool] = {}
        # stall-rule state
        self._last_executions: Optional[int] = None
        self._last_progress_t: Optional[float] = None
        self._gaps: Deque[float] = deque(maxlen=64)
        # storm-rule state (cumulative counters from the last sample)
        self._prev_retransmits = 0
        self._prev_wan_sends = 0
        #: Windowed retransmit/send ratio from the latest sample (the
        #: sampler records it as the ``wan.retransmit_rate`` series).
        self.last_retransmit_rate = 0.0
        # wan-saturation-rule state (idle trend needs last sample's value)
        self._prev_idle: Optional[float] = None
        # grain-anomaly-rule state (window length needs last sample's t)
        self._prev_t: Optional[float] = None

    # -- rule evaluation --------------------------------------------------

    def observe(self, sample: HealthSample) -> List[HealthEvent]:
        """Evaluate every rule; returns newly fired events (per episode)."""
        self.samples_seen += 1
        fired: List[HealthEvent] = []
        self._rule_stall(sample, fired)
        self._rule_storm(sample, fired)
        self._rule_imbalance(sample, fired)
        self._rule_unmasking(sample, fired)
        self._rule_wan_saturation(sample, fired)
        self._rule_grain_anomaly(sample, fired)
        self._prev_t = sample.t
        self.events.extend(fired)
        return fired

    def _episode(self, rule: str, condition: bool) -> bool:
        """True exactly when *rule* transitions into the bad state."""
        was = self._active.get(rule, False)
        self._active[rule] = condition
        return condition and not was

    def _rule_stall(self, s: HealthSample, fired: List[HealthEvent]) -> None:
        cfg = self.config
        if self._last_executions is None:
            self._last_executions = s.executions
            self._last_progress_t = s.t
            return
        if s.executions > self._last_executions:
            if self._last_progress_t is not None:
                gap = s.t - self._last_progress_t
                if gap > 0:
                    self._gaps.append(gap)
            self._last_executions = s.executions
            self._last_progress_t = s.t
            self._episode("stall", False)
            return
        if len(self._gaps) < cfg.stall_min_history:
            return
        stalled_for = s.t - (self._last_progress_t or 0.0)
        median = sorted(self._gaps)[len(self._gaps) // 2]
        limit = cfg.stall_factor * median
        if self._episode("stall", stalled_for > limit):
            fired.append(HealthEvent(
                t=s.t, severity="critical", rule="stall",
                metric="progress.gap_s", value=stalled_for, threshold=limit,
                message=f"no entry executed for {stalled_for * 1e3:.3f} ms "
                        f"(> {cfg.stall_factor:g}x trailing median gap "
                        f"{median * 1e3:.3f} ms)"))

    def _rule_storm(self, s: HealthSample, fired: List[HealthEvent]) -> None:
        cfg = self.config
        d_retx = s.retransmits - self._prev_retransmits
        d_sent = s.wan_sends - self._prev_wan_sends
        self._prev_retransmits = s.retransmits
        self._prev_wan_sends = s.wan_sends
        rate = d_retx / d_sent if d_sent > 0 else 0.0
        self.last_retransmit_rate = rate
        cond = d_retx >= cfg.storm_min_retransmits and rate > cfg.storm_rate
        if self._episode("retransmit-storm", cond):
            fired.append(HealthEvent(
                t=s.t, severity="warning", rule="retransmit-storm",
                metric="wan.retransmit_rate", value=rate,
                threshold=cfg.storm_rate,
                message=f"{d_retx} retransmits / {d_sent} WAN sends in one "
                        f"window (rate {rate:.2f} > {cfg.storm_rate:g})"))

    def _rule_imbalance(self, s: HealthSample,
                        fired: List[HealthEvent]) -> None:
        cfg = self.config
        if self.samples_seen <= cfg.warmup_samples or not s.utilization:
            return
        utils = list(s.utilization.values())
        mean = sum(utils) / len(utils)
        if mean < cfg.imbalance_min_util:
            self._episode("load-imbalance", False)
            return
        ratio = max(utils) / mean
        if self._episode("load-imbalance", ratio > cfg.imbalance_ratio):
            fired.append(HealthEvent(
                t=s.t, severity="warning", rule="load-imbalance",
                metric="util.max_over_mean", value=ratio,
                threshold=cfg.imbalance_ratio,
                message=f"max/mean PE utilization {ratio:.2f} > "
                        f"{cfg.imbalance_ratio:g} (mean {mean:.1%})"))

    def _rule_unmasking(self, s: HealthSample,
                        fired: List[HealthEvent]) -> None:
        cfg = self.config
        if self.samples_seen <= cfg.warmup_samples or s.wan_sends == 0:
            return
        cond = s.idle_fraction > cfg.unmasked_idle_threshold
        if self._episode("unmasking", cond):
            fired.append(HealthEvent(
                t=s.t, severity="warning", rule="unmasking",
                metric="idle.fraction_ema", value=s.idle_fraction,
                threshold=cfg.unmasked_idle_threshold,
                message=f"idle fraction {s.idle_fraction:.1%} > "
                        f"{cfg.unmasked_idle_threshold:.1%}: WAN latency "
                        "is no longer masked (past the knee)"))

    def _rule_wan_saturation(self, s: HealthSample,
                             fired: List[HealthEvent]) -> None:
        cfg = self.config
        prev_idle = self._prev_idle
        self._prev_idle = s.idle_fraction
        if (self.samples_seen <= cfg.warmup_samples
                or s.max_link_busy is None):
            return
        idle_rising = prev_idle is not None and s.idle_fraction > prev_idle
        cond = s.max_link_busy > cfg.wan_saturation_busy and idle_rising
        if self._episode("wan-saturation", cond):
            fired.append(HealthEvent(
                t=s.t, severity="warning", rule="wan-saturation",
                metric="net.max_link_busy", value=s.max_link_busy,
                threshold=cfg.wan_saturation_busy,
                message=f"busiest WAN lane {s.max_link_busy:.1%} occupied "
                        f"(> {cfg.wan_saturation_busy:.0%}) while idle "
                        f"fraction rises to {s.idle_fraction:.1%}: "
                        "bandwidth-bound, more objects will not mask it"))

    def _rule_grain_anomaly(self, s: HealthSample,
                            fired: List[HealthEvent]) -> None:
        cfg = self.config
        if (self.samples_seen <= cfg.warmup_samples or s.wan_sends == 0
                or s.top_grain_s is None or self._prev_t is None):
            return
        window = s.t - self._prev_t
        if window <= 0:
            return
        dominance = s.top_grain_s / window
        # Fires only while latency is visibly unmasked: a big grain
        # under full overlap is the paper's ideal, not an anomaly.
        cond = (s.idle_fraction > cfg.unmasked_idle_threshold
                and dominance > cfg.grain_dominance)
        if self._episode("grain-anomaly", cond):
            obj = s.top_grain_obj or "?"
            fired.append(HealthEvent(
                t=s.t, severity="warning", rule="grain-anomaly",
                metric="obj.top_grain_s", value=s.top_grain_s,
                threshold=cfg.grain_dominance * window,
                message=f"object {obj} ran one {s.top_grain_s * 1e3:.3f} ms "
                        f"entry ({dominance:.0%} of the window) while idle "
                        f"fraction is {s.idle_fraction:.1%}: over-coarse "
                        "grain is unmasking the WAN latency (consider a "
                        "split)"))

    # -- introspection ----------------------------------------------------

    def fired(self, rule: str) -> List[HealthEvent]:
        """All events this monitor emitted for *rule*."""
        return [e for e in self.events if e.rule == rule]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"HealthMonitor(samples={self.samples_seen}, "
                f"events={len(self.events)})")
