"""Perf-trajectory records: append-only benchmark summaries on disk.

ROADMAP's north star wants the repository to carry its own performance
history, so regressions show up in review rather than in a rerun months
later.  ``benchmarks/perf_smoke.py`` appends one small summary record — a
config digest plus the headline numbers (median step time, masked-latency
fraction, critical-path compute share) — to ``BENCH_critpath.json`` at
the repo root, and ``repro inspect --ledger-out PATH`` appends the same
kind of record to the file it names; nothing else writes records.
``repro bench-diff`` compares two records (by default the newest one
against the most recent earlier record with its digest) and flags
>10 % step-time regressions.

The file is a JSON array of plain dicts: human-diffable and trivially
loadable.  Append is read-modify-write, guarded against concurrent
writers by an advisory lock on a ``.lock`` sidecar plus an atomic
tempfile + rename of the array itself, so two simultaneous appends
serialize instead of losing records or tearing the JSON.

Records come in two schemas.  v1 carries the headline numbers only;
v2 (``schema == 2``, built by :mod:`repro.obs.ledger`) additionally
carries the full critical-path component decomposition (``critpath``),
which is what lets ``repro compare`` explain *why* two runs differ
instead of just that they do.  ``from_dict`` accepts both and ignores
keys it does not know, so old trajectory files keep loading forever;
appends write earlier records back exactly as the file held them.

Appends can deduplicate: with ``dedup=True`` a record identical to the
file's last one (same digest and same deterministic metrics — virtual
time is bit-reproducible, so a true re-run *is* byte-identical where it
matters) is silently skipped, keeping repeated local perf-smoke runs
from bloating the committed trajectory.  Wall-clock-dependent fields
(``created``, overhead measurements in ``extra``) are deliberately
ignored by the identity check.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

#: Default trajectory file, relative to the current working directory
#: (the repo root in CI and normal development).
DEFAULT_PATH = "BENCH_critpath.json"

#: Relative step-time increase treated as a regression by compare().
REGRESSION_THRESHOLD = 0.10


def config_digest(config: Dict[str, Any]) -> str:
    """Short stable digest of a run configuration.

    Canonical-JSON SHA-1, truncated: enough to match "same config, new
    run" pairs across the trajectory without storing the whole config
    twice.
    """
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"),
                       default=str)
    return hashlib.sha1(canon.encode()).hexdigest()[:12]


@dataclass
class RunRecord:
    """One benchmarked run's summary in the trajectory file."""

    name: str                         # e.g. "stencil:8x64@0ms"
    config: Dict[str, Any]
    time_per_step_s: float
    masked_fraction: Optional[float] = None
    critpath_compute_share: Optional[float] = None
    digest: str = ""
    #: Unix timestamp of the run (0 when the caller wants determinism).
    created: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Record schema: 1 = headline numbers only; 2 adds the critpath
    #: decomposition (the run-ledger format).
    schema: int = 1
    #: v2: critical-path component totals over the attributed window
    #: (``{component}_s`` per component, plus ``wall_s`` / ``steps`` /
    #: ``residual_s``); ``None`` on v1 records.
    critpath: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if not self.digest:
            self.digest = config_digest(self.config)

    def to_dict(self) -> Dict[str, Any]:
        d = asdict(self)
        # The v2 payload is omitted when absent so v1 records round-trip
        # to the same compact shape they always had.
        if d.get("critpath") is None:
            d.pop("critpath", None)
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunRecord":
        known = {k: d[k] for k in
                 ("name", "config", "time_per_step_s", "masked_fraction",
                  "critpath_compute_share", "digest", "created", "extra",
                  "schema", "critpath")
                 if k in d}
        return cls(**known)

    def same_run(self, other: "RunRecord") -> bool:
        """Whether *other* is a byte-identical re-run of this record.

        Compares the config digest and every *deterministic* metric —
        virtual time is bit-reproducible, so two honest runs of the same
        config agree exactly on all of these.  Wall-clock-dependent
        payloads (``created``, overheads in ``extra``) are
        excluded: they differ on every run without meaning anything.
        """
        return (self.digest == other.digest
                and self.schema == other.schema
                and self.name == other.name
                and self.time_per_step_s == other.time_per_step_s
                and self.masked_fraction == other.masked_fraction
                and self.critpath_compute_share
                == other.critpath_compute_share
                and self.critpath == other.critpath)


def _load_raw(path: str) -> List[Dict[str, Any]]:
    """The record dicts in *path*, exactly as stored; empty if absent."""
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a JSON array of records")
    return raw


def load_records(path: str = DEFAULT_PATH) -> List[RunRecord]:
    """All records in *path* (oldest first); empty list if absent."""
    return [RunRecord.from_dict(d) for d in _load_raw(path)]


@contextmanager
def _append_lock(path: str):
    """Advisory exclusive lock serializing appends to *path*.

    Taken on a ``.lock`` sidecar (never on the data file, whose inode is
    replaced by the atomic rename below).  On platforms without
    ``fcntl`` the lock degrades to a no-op; the atomic rename still
    guarantees readers never see a torn file.
    """
    if fcntl is None:
        yield
        return
    lock_path = path + ".lock"
    with open(lock_path, "w") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def append_record(record: RunRecord, path: str = DEFAULT_PATH,
                  stamp: bool = True, dedup: bool = False) -> int:
    """Append *record* to *path*; returns the resulting record count.

    Safe under concurrent writers: the read-modify-write cycle runs
    under an advisory file lock, and the new array lands via tempfile +
    ``os.replace`` so a reader (or a crash) never observes a partial
    write.  Earlier records are written back as the dicts the file
    held, unknown keys included: an append never rewrites history.

    With ``dedup=True``, a record that is the same deterministic run as
    the file's **last** record (see :meth:`RunRecord.same_run`) is not
    appended — repeated local perf-smoke runs stop bloating the
    trajectory.  A genuine change to any metric breaks the identity and
    appends as usual, so regression detection is unaffected.
    """
    if stamp and not record.created:
        record.created = time.time()
    with _append_lock(path):
        records = _load_raw(path)
        if (dedup and records
                and RunRecord.from_dict(records[-1]).same_run(record)):
            return len(records)
        records.append(record.to_dict())
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(records, fh, indent=1)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return len(records)


@dataclass
class Comparison:
    """Outcome of comparing a new record against a baseline."""

    baseline: RunRecord
    candidate: RunRecord
    threshold: float = REGRESSION_THRESHOLD

    @property
    def ratio(self) -> float:
        """candidate / baseline step time (1.0 = unchanged)."""
        if self.baseline.time_per_step_s <= 0:
            return float("inf") if self.candidate.time_per_step_s > 0 else 1.0
        return self.candidate.time_per_step_s / self.baseline.time_per_step_s

    @property
    def regressed(self) -> bool:
        return self.ratio > 1.0 + self.threshold

    @property
    def improved(self) -> bool:
        return self.ratio < 1.0 - self.threshold

    @property
    def config_changed(self) -> bool:
        return self.baseline.digest != self.candidate.digest

    def render(self) -> str:
        verdict = ("REGRESSION" if self.regressed
                   else "improved" if self.improved else "ok")
        lines = [
            f"baseline  {self.baseline.name}  "
            f"{self.baseline.time_per_step_s * 1e3:.3f} ms/step  "
            f"(digest {self.baseline.digest})",
            f"candidate {self.candidate.name}  "
            f"{self.candidate.time_per_step_s * 1e3:.3f} ms/step  "
            f"(digest {self.candidate.digest})",
            f"ratio     {self.ratio:.3f}x  "
            f"(threshold +{self.threshold:.0%})  -> {verdict}",
        ]
        if self.config_changed:
            lines.append("note      config digests differ: the comparison "
                         "crosses configurations")
        for key, attr in (("masked fraction", "masked_fraction"),
                          ("critpath compute share",
                           "critpath_compute_share")):
            b = getattr(self.baseline, attr)
            c = getattr(self.candidate, attr)
            if b is not None and c is not None:
                lines.append(f"{key:24s} {b:.3f} -> {c:.3f}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "baseline": self.baseline.to_dict(),
            "candidate": self.candidate.to_dict(),
            "ratio": self.ratio,
            "threshold": self.threshold,
            "regressed": self.regressed,
            "improved": self.improved,
            "config_changed": self.config_changed,
        }


def compare(baseline: RunRecord, candidate: RunRecord,
            threshold: float = REGRESSION_THRESHOLD) -> Comparison:
    """Compare two records; ``.regressed`` flags a >threshold slowdown."""
    return Comparison(baseline=baseline, candidate=candidate,
                      threshold=threshold)


def latest_pair(records: Sequence[RunRecord],
                digest: Optional[str] = None
                ) -> Optional[Tuple[RunRecord, RunRecord]]:
    """The newest record (with the given digest) and its baseline.

    The candidate is the newest record, or the newest one with
    *digest*; the baseline is the most recent earlier record sharing
    the candidate's digest.  Returns ``(baseline, candidate)``, or
    ``None`` when the candidate has no earlier record to compare to.
    """
    if digest is None:
        if not records:
            return None
        digest = records[-1].digest
    matching = [r for r in records if r.digest == digest]
    if len(matching) < 2:
        return None
    return matching[-2], matching[-1]
