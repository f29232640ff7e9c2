"""Runtime timing metrics (operator O18, the ``--show-metrics`` histograms).

The reference keeps per-series copy / flush duration histograms and prints
them with ``--show-metrics`` (``copyer.go:22-34``, summary ``main.go``).
The Ray analogue: a zero-CPU actor, created and killed by one run, collects
per-group stage wall times sent from inside ``map_groups`` tasks (one tiny
awaited call per vectorized group — thousands per run, not per row), and
``drain()`` folds them into count/sum/quantile summaries that ``run_copy``
attaches to its result and the CLI prints.

The sink is OPT-IN (``run_copy(collect_metrics=True)``); when absent the
stage-side ``record()`` is a no-op — zero overhead for library use.
This is the one shared-mutable-state case where a raw Ray actor is the
right tool (a Dataset can't express a cross-stage metrics channel).
"""

from __future__ import annotations

import numpy as np


def _sink_actor_cls():
    import ray

    @ray.remote(num_cpus=0)
    class MetricsSink:
        def __init__(self) -> None:
            self._samples: dict[str, list[float]] = {}

        def record(self, timings: dict[str, float]) -> None:
            for key, wall_ms in timings.items():
                self._samples.setdefault(key, []).append(wall_ms)

        def drain(self) -> dict:
            out = {}
            for key, vals in self._samples.items():
                a = np.asarray(vals, dtype=np.float64)
                out[key] = {
                    "count": int(len(a)),
                    "sum_ms": round(float(a.sum()), 3),
                    "p50_ms": round(float(np.percentile(a, 50)), 3),
                    "p90_ms": round(float(np.percentile(a, 90)), 3),
                    "p99_ms": round(float(np.percentile(a, 99)), 3),
                    "max_ms": round(float(a.max()), 3),
                }
            self._samples.clear()
            return out

    return MetricsSink


def create_sink():
    """A fresh anonymous sink for one run; the caller kills it when done, so
    no sample outlives the run that recorded it."""
    return _sink_actor_cls().remote()


def drain_sink(handle) -> dict:
    import ray

    return ray.get(handle.drain.remote())


def record(sink, timings: dict[str, float]) -> None:
    """Record ``{key: wall_ms}`` timing samples from inside a task in one
    call; returns once the sink has them.

    ``sink`` is the actor handle shipped WITH the task closure (the stage
    captured it when the pipeline was built) — no per-call actor lookup,
    strictly zero overhead when metrics are off (``sink is None``).  The
    call waits for the sink, so a sample lands before its task returns and
    a short run's ``drain()`` cannot miss it (a fire-and-forget message
    could still be in flight when ``run_copy`` drains the sink).  One call
    carries all of a kernel call's samples, so the round trip is paid once
    per group, not once per tier."""
    if sink is None:
        return
    import ray

    ray.get(sink.record.remote({k: float(v) for k, v in timings.items()}))
