"""Benchmark of the food toolchain on three single-process workloads.

    python3 bench/run.py --workload {compile,eval,fuzz} --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports ``food`` from ``src/`` and reads
``corpus/``.  Set-up (a fresh import of ``food``, the workload's inputs and a
few warm-up items) runs before the timed loop and between its segments, and
its median is reported as ``setup_s``.  Items are timed one by one, in
blocks of a fixed mix.  A run takes as many whole cycles of items as the
workload does in ``--seconds`` reference seconds at the seed commit
(``item_count``), so the same seed always attempts the same items and meets
the same failures.  Every output is checked against its reference outside
the timed region.

Times are reported in reference seconds: a fixed kernel (``kernel.py``) is
timed before the first item and after every 0.1 s of item time, and each
measured time is divided by the slowdown, against ``kernel.REFERENCE_S``, of
the mean of the two samples around it.
The measured seconds are printed to standard error next to them.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
the run measures the items of ``--seconds / 2`` untraced, replays the same
items with every layer wrapped by ``tracer.Tracer``, writes the spans to
``bench/out/`` and prints the per-layer metrics.  The last line of standard
output is one JSON object; a failure summary goes to standard error.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import resource
import statistics
import sys
import types
from collections import Counter
from pathlib import Path
from time import perf_counter

import kernel
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs twice before the timed loop and once after each of its
# segments; the median is setup_s.  Spread over the run, the set-ups see the
# same phases of a shared machine as the timed items.
SETUPS_BEFORE, SEGMENTS = 2, 6
# seconds of item time between two samples of the machine's speed
KERNEL_EVERY_S = 0.1


def load_food() -> types.SimpleNamespace:
    """Import ``food`` afresh from ``src/`` and collect what the workloads call."""
    src = ROOT / "src"
    if not (src / "food" / "__init__.py").is_file():
        raise SystemExit(f"error: no food package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "food" or m.startswith("food.")]:
        del sys.modules[name]
    food = importlib.import_module("food")
    importlib.import_module("food.fuzz")
    if Path(food.__file__).resolve().parent != src / "food":
        raise SystemExit(f"error: imported food from {food.__file__}, not from {src}")
    modules = sys.modules
    api = types.SimpleNamespace(
        GenConfig=modules["food.fuzz"].GenConfig,
        Program=modules["food.syntax"].Program,
        Done=modules["food.interp"].Done,
        IntV=modules["food.interp"].IntV,
    )
    for _, home, attr, _, _ in LAYERS:
        setattr(api, attr, getattr(modules[home], attr))
    return api


def set_up(name: str):
    """A fresh workload, and its set-up time in reference seconds."""
    start = perf_counter()
    workload = WORKLOADS[name](load_food(), ROOT)
    for item in workload.warmup():
        if not workload.verify(item, workload.run(item)):
            raise SystemExit(f"error: warm-up item of kind {item.kind} gave a wrong output")
    elapsed = perf_counter() - start
    return elapsed * kernel.REFERENCE_S / kernel.sample(), workload


class Pass:
    """Per-item timings and outcomes of one pass over a workload's items."""

    def __init__(self) -> None:
        self.times: list[float] = []  # seconds per item, as measured
        self.scaled: list[float] = []  # the same in reference seconds
        self.kernel_s: list[float] = []  # kernel samples, the first taken before any item
        self.items: list = []  # kept only when the items are replayed
        self.timed = 0.0
        self.failed = 0
        self.mismatched = 0
        self.chars = 0
        self.causes: Counter = Counter()


def item_count(workload, seconds: float) -> int:
    """Items of whole cycles that take about ``seconds`` reference seconds."""
    return workload.cycle * max(1, round(seconds * workload.per_second / workload.cycle))


def measure(workload, items, count: int | None, keep: bool = False, result: Pass | None = None) -> Pass:
    """Time ``workload.run`` per item, a block at a time, until ``count`` items are timed.

    A block's items are made before and checked after its timed calls.
    Between timed calls only the kernel runs, after every ``KERNEL_EVERY_S``
    of item time and at the end of the block; the items timed since the last
    sample are also kept scaled by the slowdown against the reference of the
    mean of that sample and this one, which brackets them.  Given ``result``,
    the pass continues it.
    """
    result = result or Pass()
    if not result.kernel_s:
        result.kernel_s.append(kernel.sample())
    items = iter(items)
    while count is None or len(result.times) < count:
        size = workload.block if count is None else min(workload.block, count - len(result.times))
        block = list(itertools.islice(items, size))
        if not block:
            break
        outputs, pending = [], []
        for position, item in enumerate(block, 1):
            start = perf_counter()
            try:
                outputs.append(workload.run(item))
            except Exception as exc:  # one item's failure must not end the run
                outputs.append(exc)
            pending.append(perf_counter() - start)
            if position == len(block) or sum(pending) >= KERNEL_EVERY_S:
                sample = kernel.sample()
                speed = (result.kernel_s[-1] + sample) / 2
                result.kernel_s.append(sample)
                result.times += pending
                result.scaled += [t * kernel.REFERENCE_S / speed for t in pending]
                result.timed += sum(pending)
                pending = []
        for item, output in zip(block, outputs):
            if isinstance(output, Exception):
                result.failed += 1
                result.causes[f"{item.kind}: {type(output).__name__}"] += 1
            elif workload.verify(item, output):
                result.chars += item.chars
            else:
                result.failed += 1
                result.mismatched += 1
                result.causes[f"{item.kind}: output differs from reference"] += 1
        if keep:
            result.items.extend(block)
    return result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Pass) -> dict:
    """Every end-to-end metric but setup_s, in reference seconds (see kernel.py)."""
    timed, n = sum(run.scaled), len(run.scaled)
    percentiles = statistics.quantiles(run.scaled, n=100)
    return {
        "items_per_s": metric(n / timed, "1/s"),
        "item_p50_ms": metric(statistics.median(run.scaled) * 1e3, "ms"),
        "item_p95_ms": metric(percentiles[94] * 1e3, "ms"),
        "ok_ratio": metric((n - run.failed) / n, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "source_kb_per_s": metric(run.chars / 1e3 / timed, "kB/s"),
    }


def per_layer(untraced: Pass, traced: Pass, tracer: Tracer) -> dict:
    """Per-layer figures of the traced pass over the items of the untraced one.

    Self times are shares of the traced pass's timed time, and counts are
    totals over its ``trace.items`` items.  Rates and ``trace.timed_s`` are in
    reference seconds, like the end-to-end metrics.
    """
    stats, timed = tracer.stats, traced.timed
    reference = sum(traced.scaled) / timed  # reference seconds per second
    out = {}
    for name, *_ in LAYERS:
        s = stats[name]
        out[f"{name}.self_share"] = metric(s.self_s / timed, "ratio")
        out[f"{name}.calls"] = metric(s.calls, "count")
        out[f"{name}.failed"] = metric(s.failed, "count")
    for name in ("parser.parse", "pretty.pretty"):
        s = stats[name]
        rate = s.chars / 1e3 / (s.self_s * reference) if s.self_s else 0.0
        out[f"{name}.kb_per_s"] = metric(rate, "kB/s")
    lookup = stats["interp.dtr_body"].self_s + stats["interp.csm_body"].self_s
    out["interp.lookup.self_share"] = metric(lookup / timed, "ratio")
    # steps come from the closed forms, timed in the untraced pass
    steps: Counter = Counter()
    seconds: Counter = Counter()
    for item, elapsed in zip(untraced.items, untraced.scaled):
        if item.steps:
            steps[item.kind] += item.steps
            seconds[item.kind] += elapsed
    total_steps, total_s = sum(steps.values()), sum(seconds.values())
    out["interp.steps"] = metric(total_steps, "count")
    out["interp.steps_per_s"] = metric(total_steps / total_s if total_s else 0.0, "1/s")
    for family in ("peano", "countdown"):
        rate = steps[family] / seconds[family] if seconds[family] else 0.0
        out[f"interp.{family}.steps_per_s"] = metric(rate, "1/s")
    layers_s = sum(s.self_s for name, s in stats.items() if name != "bench.item")
    out["bench.item.self_share"] = metric(stats["bench.item"].self_s / timed, "ratio")
    out["trace.items"] = metric(len(traced.times), "count")
    out["trace.timed_s"] = metric(sum(traced.scaled), "s")
    out["trace.layer_share"] = metric(layers_s / timed, "ratio")
    out["trace.overhead"] = metric(sum(traced.scaled) / sum(untraced.scaled) - 1, "ratio")
    return out


def report(name: str, runs: list[Pass]) -> None:
    for run in runs:
        causes = ", ".join(f"{cause} x{n}" for cause, n in sorted(run.causes.items())) or "none"
        print(
            f"{name}: {len(run.times)} items in {run.timed:.3f} s timed "
            f"({sum(run.scaled):.3f} reference s, kernel median "
            f"{statistics.median(run.kernel_s) * 1e3:.3f} ms); failures: {causes}",
            file=sys.stderr,
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_times = []
    for _ in range(SETUPS_BEFORE):
        seconds, workload = set_up(args.workload)
        setup_times.append(seconds)

    if not args.trace:
        items, run = workload.stream(args.seed), Pass()
        count = item_count(workload, args.seconds)
        for segment in range(1, SEGMENTS + 1):
            measure(workload, items, count * segment // SEGMENTS, result=run)
            setup_times.append(set_up(args.workload)[0])
        report(args.workload, [run])
        metrics = end_to_end(run)
        metrics["setup_s"] = metric(statistics.median(setup_times), "s")
        result = {
            "correct": run.mismatched == 0,
            "attempted": len(run.times),
            "failed": run.failed,
            "metrics": metrics,
        }
    else:
        count = item_count(workload, args.seconds / 2)
        untraced = measure(workload, workload.stream(args.seed), count, keep=True)
        tracer = Tracer()
        workload.api = tracer.install(workload.api)
        workload.run = tracer.wrap("bench.item", workload.run)
        traced = measure(workload, untraced.items, None)
        report(args.workload, [untraced, traced])
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        result = {
            "correct": untraced.mismatched == 0 and traced.mismatched == 0,
            "attempted": len(traced.times),
            "failed": traced.failed,
            "metrics": per_layer(untraced, traced, tracer),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
