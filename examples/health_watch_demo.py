#!/usr/bin/env python
"""Watch a grid run's health live: alerts and sparklines.

Two short acts:

1. **Masked regime** — 8 PEs, 1 ms WAN, high virtualization.  The
   runtime hides the latency; the watchdog stays silent.
2. **Unmasked regime** — same grid at 32 ms.  Idle time blows past the
   ``1 - 1/1.5`` threshold and the ``unmasking`` alert fires online:
   the Figure-3 knee, observed live instead of post-hoc.  On a lossy
   WAN the ``retransmit-storm`` rule joins in.

Run:  python examples/health_watch_demo.py
"""

from repro.apps.stencil import run_stencil
from repro.grid import artificial_latency_env, lossy_wan_env
from repro.units import ms

MESH = (512, 512)
OBJECTS = 64
STEPS = 8


def act(title: str) -> None:
    print()
    print(f"== {title} " + "=" * max(0, 66 - len(title)))


def show_events(env) -> None:
    events = env.health_events
    if not events:
        print("  (no health events -- the runtime is masking the latency)")
    for ev in events:
        print("  " + ev.render())


def main() -> None:
    print("Online health telemetry demo: 8 PEs across two clusters,")
    print(f"{MESH[0]}x{MESH[1]} stencil over {OBJECTS} objects.")

    act("Act 1: 1 ms WAN latency -- masked, watchdog silent")
    env = artificial_latency_env(8, ms(1.0), health=True)
    res = run_stencil(env, MESH, OBJECTS, steps=STEPS)
    print(f"  time/step {res.time_per_step_ms:.2f} ms")
    show_events(env)

    act("Act 2: 32 ms WAN latency -- unmasking alert fires online")
    env = artificial_latency_env(8, ms(32.0), health=True)
    res = run_stencil(env, MESH, OBJECTS, steps=STEPS)
    print(f"  time/step {res.time_per_step_ms:.2f} ms")
    show_events(env)
    print()
    print("  telemetry (fixed-memory ring buffers):")
    for line in env.sampler.render(width=44).splitlines():
        print("  " + line)

    act("Act 2b: same latency on a 30%-loss WAN -- storm alert too")
    env = lossy_wan_env(8, ms(8.0), loss=0.3, seed=7, health=True)
    res = run_stencil(env, (256, 256), OBJECTS, steps=4)
    print(f"  time/step {res.time_per_step_ms:.2f} ms")
    show_events(env)


if __name__ == "__main__":
    main()
