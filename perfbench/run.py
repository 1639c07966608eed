"""Benchmark of the osgames pipelines: evolve_ipd, label_variants, meta_coin_external.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                # every workload, each in its own process

Run from the root of a source checkout; osgames is imported from ./src.  One
workload runs in this process with jobs=1.  It repeats whole rounds (one
pipeline run each, see workloads.py) until the timed rounds add up to
--seconds, checks every round's outputs, and prints its metrics by name and
unit, then one JSON object as the last line of standard output.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics of the traced ones (see
tracer.py), with the tracing overhead against the untraced rounds.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "_work"

#: Modules each workload imports before it can run; set-up time covers them.
SETUP_MODULES = {
    "evolve_ipd": ("osgames", "osgames.arena", "osgames.evolution"),
    "label_variants": ("osgames", "osgames.labeling", "osgames.runio"),
    "meta_coin_external": (
        "osgames", "osgames.arena", "osgames.metagame", "osgames.providers", "osgames.runio",
    ),
}
WORKLOAD_NAMES = tuple(SETUP_MODULES)
#: Extra set-ups after each round, each in a fresh interpreter; setup_s is
#: the median of these and the workload process's own.
SETUP_PROBES_PER_ROUND = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> SystemExit:
    print(f"perfbench: {message}", file=sys.stderr)
    return SystemExit(2)


def corpus_texts(name: str) -> list[tuple[str, str]]:
    """The programs a workload starts from, read before set-up is timed."""
    if name != "evolve_ipd":
        return []
    corpus = SRC / "osgames" / "corpus" / "ipd"
    return [(p.stem, p.read_text(encoding="utf-8")) for p in sorted(corpus.glob("*.slang"))]


def timed_setup(name: str, texts: list[tuple[str, str]]):
    """Import the workload's osgames modules and load its programs."""
    if not (SRC / "osgames" / "__init__.py").is_file():
        raise fail(f"no osgames sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    for module in SETUP_MODULES[name]:
        importlib.import_module(module)
    load_program = sys.modules["osgames.program"].load_program
    loaded = [(stem, load_program(text, origin=f"{stem}.slang")) for stem, text in texts]
    seconds = time.perf_counter() - start
    origin = Path(sys.modules["osgames"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise fail(f"osgames was imported from {origin}, not from {SRC}")
    return seconds, loaded


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    A workload never has more than one busy process: the agents answer in
    turn.  Left free, the engine and an agent hand every message across
    vCPUs, and on a shared virtual machine each hand-over waits for the host
    to wake the other vCPU; that wait (steal time) took a third of a
    meta_coin_external round and varied from round to round.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def probe_setup(name: str) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup", name],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def tail_percentile(count: int) -> int:
    """Highest percentile with at least ten samples beyond it; 50 (the median
    alone) below forty samples."""
    if count < 40:
        return 50
    return next(p for p in range(99, 49, -1) if count - math.ceil(p / 100 * count) >= 10)


def percentile(samples: list[float], p: int) -> float:
    if p == 50:
        return statistics.median(samples)
    ordered = sorted(samples)
    return ordered[math.ceil(p / 100 * len(ordered)) - 1]


class Tally:
    """Items attempted and failed; a check failure also makes the run incorrect."""

    def __init__(self, items_per_round: int):
        self.items_per_round = items_per_round
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages: list[str] = []

    def add(self, raised: str | None, failures) -> None:
        self.attempted += self.items_per_round
        if raised is not None:
            self.failed += self.items_per_round
            self.messages.append(raised)
            return
        if any(item is None for item, _ in failures):
            self.failed += self.items_per_round
        else:
            self.failed += len({item for item, _ in failures})
        self.correct = self.correct and not failures
        self.messages += [message for _, message in failures]

    def result(self, metrics: dict) -> dict:
        for message in self.messages[:20]:
            print(f"FAILED: {message}", file=sys.stderr)
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def run_round(wl, index: int, tally: Tally, tracer=None):
    """One round: inputs (untimed), the pipeline (timed), checks (untimed).

    Returns the timed seconds and the item latency samples in ms.  A full
    collection first starts every round from the same heap, so the peak
    resident set is that of one round, not of leftovers from the last.
    """
    gc.collect()
    inputs = wl.prepare(index)
    seconds = 0.0
    try:
        if tracer is not None:
            tracer.reset()
            tracer.install()
        start = time.perf_counter()
        try:
            output = wl.run(inputs)
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        failures = wl.check(inputs, output)
        latencies = wl.latencies_ms(inputs, output, seconds)
    except Exception as exc:  # a round that raises fails all its items
        tally.add(f"round {index} raised {exc!r}", [])
        return seconds, []
    finally:
        wl.cleanup(inputs)
    tally.add(None, failures)
    return seconds, latencies


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        seconds, _ = timed_setup(args.probe_setup, corpus_texts(args.probe_setup))
        print(repr(seconds))
        return 0
    if args.workload == "all":
        return run_all(args)
    pin_to_one_cpu()

    texts = corpus_texts(args.workload)
    setup_main, loaded = timed_setup(args.workload, texts)
    import workloads  # osgames is importable only after set-up

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, loaded)
        if args.trace:
            result = measure_traced(args, wl)
        else:
            result = measure(args, wl, setup_main)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    if result is None:
        return 1
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted = {result['attempted']} failed = {result['failed']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(args, wl, setup_main: float) -> dict:
    """Untraced rounds until --seconds; every figure is taken per round and
    the run reports its median over rounds, which a burst of host speed or
    slowness in one round does not move."""
    tally = Tally(wl.items_per_round)
    setups = [setup_main]
    timed = 0.0
    per_round: dict[str, list[float]] = {"items_per_s": [], "item_p50_ms": [], "item_tail_ms": []}
    index = 0
    while index == 0 or timed < args.seconds:
        seconds, samples = run_round(wl, index, tally)
        timed += seconds
        if samples:
            p = tail_percentile(len(samples))
            per_round["items_per_s"].append(wl.items_per_round / seconds)
            per_round["item_p50_ms"].append(percentile(samples, 50))
            per_round["item_tail_ms"].append(percentile(samples, p))
        # Set-ups are spread over the run, like the rounds.
        setups += [probe_setup(args.workload) for _ in range(SETUP_PROBES_PER_ROUND)]
        index += 1
    print(
        f"{args.workload}: {index} rounds in {timed:.1f} s; {len(setups)} set-ups; "
        f"item latency samples per round {len(samples)}, tail = p{tail_percentile(len(samples))}"
    )
    values = {"setup_s": statistics.median(setups)}
    values.update({k: statistics.median(v) if v else float("nan") for k, v in per_round.items()})
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}
    return tally.result(metrics)


def measure_traced(args, wl) -> dict | None:
    from tracer import METRICS, REQUIRED, Tracer

    tracer = Tracer()
    tally = Tally(wl.items_per_round)
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    index = 0
    while index == 0 or sum(plain) + sum(traced) < args.seconds:
        plain.append(run_round(wl, index, tally)[0])
        traced.append(run_round(wl, index + 1, tally, tracer)[0])
        missing = set(REQUIRED[args.workload]) - tracer.entered()
        if missing:
            print(f"perfbench: traced round never entered {sorted(missing)}", file=sys.stderr)
            return None
        layers.append(tracer.metrics())
        index += 2
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    print(
        f"{args.workload} trace overhead = {overhead * 100:+.1f}% "
        f"(traced round {statistics.median(traced):.3f} s, "
        f"untraced {statistics.median(plain):.3f} s, {len(traced)} pairs)"
    )
    metrics = {}
    for name, unit in METRICS.items():
        if unit in ("ms", "ns", "us"):
            value = statistics.median(m[name] for m in layers)
        else:  # counts repeat exactly for a given seed and round
            value = layers[0][name]
        metrics[name] = {"value": value, "unit": unit}
    return tally.result(metrics)


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, timeout=600)
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
