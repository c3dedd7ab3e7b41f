"""The streaming object fold under randomized labelled schedules.

:class:`~repro.sim.trace.TraceAggregator` drives the
:class:`~repro.sim.trace.ObjectFold` online, event by event.  Hypothesis
generates randomized valid schedules — per-PE non-overlapping executions
with object labels, queue-wait trigger pairing, labelled messages over
local/LAN/WAN with drop, duplicate and retransmit fates, and
*migration-shaped* sequences where one object's (totally ordered)
executions hop between PEs — and checks that samples follow the object,
that the full :class:`~repro.sim.trace.Tracer` presents the same view,
and that mid-run telemetry harvests never perturb the fold (exact
``==`` on the full profile/matrix dump).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.objview import ObjectView
from repro.sim.trace import TraceAggregator, Tracer

COMMON = dict(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])

#: The migrating objects: the same labels execute on either of the two
#: dedicated migration PEs, so their profiles must follow the *object*.
MIG_OBJS = ("c9[0]", "c9[1]")


@st.composite
def labelled_schedules(draw):
    """A random valid labelled recording stream.

    Returns ``(events, expected_execs)`` where *events* is the
    time-sorted replayable stream and *expected_execs* maps each object
    label to the number of executions the schedule gave it (used to
    check that a migrating object's samples accumulate across PEs).
    """
    n_pes = draw(st.integers(min_value=1, max_value=3))
    mig_pes = (n_pes, n_pes + 1)
    pe_objs = {p: (f"c0[{p}.0]", f"c0[{p}.1]") for p in range(n_pes)}
    all_objs = tuple(o for objs in pe_objs.values() for o in objs) \
        + MIG_OBJS
    events = []
    expected_execs = {}

    # Messages: labelled endpoints, local/LAN/WAN, fault fates.  A
    # delivered seq may later trigger one execution (queue-wait pairing).
    delivered_tick = {}
    n_msgs = draw(st.integers(min_value=0, max_value=10))
    for seq in range(n_msgs):
        src = draw(st.integers(min_value=0, max_value=n_pes + 1))
        dst = draw(st.integers(min_value=0, max_value=n_pes + 1))
        wan = draw(st.booleans())
        size = draw(st.integers(min_value=0, max_value=4096))
        t0 = draw(st.integers(min_value=0, max_value=1400))
        flight = draw(st.integers(min_value=1, max_value=200))
        src_obj = draw(st.sampled_from(all_objs + (None,)))
        dst_obj = draw(st.sampled_from(all_objs + (None,)))
        args = (src, dst, size, f"m{seq}", wan, seq, src_obj, dst_obj)
        fate = draw(st.sampled_from(
            ["deliver", "deliver", "deliver", "drop", "dup",
             "retransmit"]))
        events.append((t0 / 16.0, "send", args))
        if fate == "drop":
            events.append((t0 / 16.0, "drop", args))
            continue
        if fate == "retransmit":
            t0 += draw(st.integers(min_value=1, max_value=64))
            events.append((t0 / 16.0, "send", args))
        arr = t0 + flight
        events.append((arr / 16.0, "deliver", args))
        delivered_tick[seq] = arr
        if fate == "dup":
            arr += draw(st.integers(min_value=1, max_value=64))
            events.append((arr / 16.0, "deliver", args))

    # Per-PE non-overlapping executions with PE-private object labels.
    intervals = []  # (begin_tick, end_tick, pe, obj)
    for pe in range(n_pes):
        bounds = sorted(draw(st.lists(
            st.integers(min_value=0, max_value=1600),
            min_size=0, max_size=8, unique=True)))
        for i in range(0, len(bounds) - 1, 2):
            obj = draw(st.sampled_from(pe_objs[pe] + (None,)))
            intervals.append((bounds[i], bounds[i + 1], pe, obj))

    # Migration-shaped executions: globally non-overlapping intervals
    # assigned to either migration PE, sharing the MIG_OBJS labels —
    # the same object runs on different PEs at different times, exactly
    # what a load-balancer migration produces.
    bounds = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=1600),
        min_size=0, max_size=10, unique=True)))
    for i in range(0, len(bounds) - 1, 2):
        pe = draw(st.sampled_from(mig_pes))
        obj = draw(st.sampled_from(MIG_OBJS + (None,)))
        intervals.append((bounds[i], bounds[i + 1], pe, obj))

    # Attach triggers: each delivered seq fires at most one execution,
    # and only one that begins strictly after its first delivery (the
    # engine's causality guarantee).
    used = set()
    for begin, end, pe, obj in sorted(intervals):
        trigger = None
        candidates = sorted(sq for sq, tick in delivered_tick.items()
                            if tick < begin and sq not in used)
        if candidates and draw(st.booleans()):
            trigger = draw(st.sampled_from(candidates))
            used.add(trigger)
        entry = draw(st.sampled_from(["a", "b"]))
        events.append((begin / 16.0, "begin",
                       (pe, begin / 16.0, "C", entry, trigger, obj)))
        events.append((end / 16.0, "end", (pe, end / 16.0)))
        if obj is not None:
            expected_execs[obj] = expected_execs.get(obj, 0) + 1

    # Stable sort: simultaneous events keep emission order, preserving
    # per-PE begin/end validity and send-before-deliver.
    events.sort(key=lambda ev: ev[0])
    return events, expected_execs


def replay(events, sink, harvest_every=0):
    """Feed *events* into *sink*; optionally harvest the grain window.

    ``harvest_every=k`` calls :meth:`ObjectFold.harvest_window` on the
    sink's fold after every k-th event — the telemetry sampler does this
    mid-run, and it must never perturb the profile state.
    """
    for i, (time_, op, args) in enumerate(events):
        if op == "begin":
            pe, t, chare, entry, trigger, obj = args
            sink.begin_execute(pe, t, chare, entry,
                               trigger=trigger, obj=obj)
        elif op == "end":
            sink.end_execute(*args)
        else:
            src, dst, size, tag, wan, sq, src_obj, dst_obj = args
            meth = {"send": sink.message_sent,
                    "deliver": sink.message_delivered,
                    "drop": sink.message_dropped}[op]
            meth(time_, src, dst, size, tag, wan, seq=sq,
                 src_obj=src_obj, dst_obj=dst_obj)
        if harvest_every and (i + 1) % harvest_every == 0:
            fold = getattr(sink, "objview", None)
            if fold is not None:
                fold.harvest_window()
    return sink


@given(labelled_schedules())
@settings(**COMMON)
def test_object_view_wrappers_agree(schedule):
    """The presentation wrapper agrees from either source, totals and
    makespan included."""
    events, _ = schedule
    batch = replay(events, Tracer())
    live = replay(events, TraceAggregator())
    assert ObjectView.from_source(live).to_dict() == \
        ObjectView.from_source(batch).to_dict()


@given(labelled_schedules(),
       st.integers(min_value=1, max_value=5))
@settings(**COMMON)
def test_window_harvest_never_perturbs_profiles(schedule, every):
    """Sampler harvests mid-stream leave the fold state untouched."""
    events, _ = schedule
    quiet = replay(events, TraceAggregator())
    live = replay(events, TraceAggregator(), harvest_every=every)
    assert live.objview.to_dict() == quiet.objview.to_dict()
    # After a final harvest the window state is reset and empty.
    live.objview.harvest_window()
    assert live.objview.harvest_window() == (0.0, None)


@given(labelled_schedules())
@settings(**COMMON)
def test_migrating_objects_accumulate_across_pes(schedule):
    """Samples follow the *object*, not the PE it happened to be on.

    Every execution a migrating label performed — on whichever
    migration PE — lands in that label's single profile, in both folds.
    """
    events, expected_execs = schedule
    live = replay(events, TraceAggregator())
    fold = live.objview
    for obj, count in expected_execs.items():
        assert fold.profiles[obj].executions == count
    # Message traffic can open a profile without executions, but every
    # migrating label that *executed* is tracked, once, under its own
    # location-independent key.
    assert {o for o, p in fold.profiles.items()
            if o in MIG_OBJS and p.executions} == \
        {o for o in expected_execs if o in MIG_OBJS}
