"""sio-lab benchmark: one workload per fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json at the repository root;
`--workload all` runs every workload, each in its own process, and prints
one line per workload. The program is imported from `src/` of the checkout
that holds this file, so nothing is built or installed.

A run repeats passes of items (see workloads.py) until the next pass would
end after `--seconds`; it always runs at least one. Every item's certified
quantities are checked against reference.json, bit for bit. Set-up time is
measured separately, in fresh interpreters that import the program and build
the run's inputs. These probes are spread over the run (see run_workload),
because on a shared VM the machine's speed changes by a third within
seconds; setup_s is their median.

--trace 0 reports the end-to-end metrics, with tracing off.
--trace 1 runs every item twice, untraced and traced, and reports the
per-layer metrics of tracing.PER_LAYER plus the traced/untraced wall-time
overhead.

The last line of standard output is the result as one JSON object. A
machine-info line precedes it. The full record (machine, per-pass and
per-item times) and, for traced runs, the spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import sio_lab  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if Path(sio_lab.__file__).resolve().parent != ROOT / "src" / "sio_lab":
    raise SystemExit(f"sio_lab must come from {ROOT / 'src'}, "
                     f"not {sio_lab.__file__}")

SETUP_PROBES = 3     # set-up probes before and after the measurement
PROBE_EVERY = 2.0    # and one per this many seconds of measurement

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("item_ms.p50", "ms"), ("item_ms.p90", "ms"), ("ok_frac", "ratio"))


def machine_info() -> dict:
    info = {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}_{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    return info


def setup_seconds(workload: str, seed: int, n: int) -> list[float]:
    """Wall time of n fresh interpreters, one after another, that import
    the program and build this run's inputs, then exit."""
    times = []
    for _ in range(n):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--setup-only", "--workload", workload,
                        "--seed", str(seed)], check=True)
        times.append(perf_counter() - t0)
    return times


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); a single sample is its own."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    """Runs passes of one workload and keeps the tallies."""

    def __init__(self, workload, reference: dict | None, workdir: str):
        self.workload = workload
        self.reference = reference
        self.workdir = workdir
        self.item_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, items, tracer=None,
                 between=None) -> tuple[float, float]:
        """Wall time of one pass, untraced and traced: clearing caches plus
        every item; the checks against the reference are not timed, nor is
        `between`, called before each item.

        With a tracer each item runs twice, untraced and traced, the order
        alternating from item to item; caches are cleared before both runs
        of the first item, so each side starts cold."""
        wall = [0.0, 0.0]
        for k, item in enumerate(items):
            if between is not None:
                between()
            sides = [None] if tracer is None else [None, tracer]
            if k % 2:
                sides.reverse()
            for side in sides:
                t0 = perf_counter()
                if k == 0:
                    workloads.clear_caches()
                wall[side is not None] += (perf_counter() - t0
                                           + self.run_item(item, side))
        return wall[0], wall[1]

    def run_item(self, item, tracer) -> float:
        """Run and check one item; returns its wall time."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            if tracer is None:
                result = self.workload.run(item, self.workdir)
            else:
                result = tracer.run_item(
                    item.key, lambda: self.workload.run(item, self.workdir))
            elapsed = perf_counter() - t0
            quantities, problems = self.workload.check(item, result,
                                                       self.workdir)
            problems += workloads.compare(self.workload.name, item.key,
                                          quantities, self.reference)
        except Exception:  # an item that raises counts as failed
            elapsed = perf_counter() - t0
            problems = [traceback.format_exc()]
        if tracer is None:
            self.item_s.append(elapsed)
        if problems:
            self.failed += 1
            self.problems += problems
            print(f"FAILED {self.workload.name} {item.key}:", *problems,
                  sep="\n  ", file=sys.stderr)
        return elapsed


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 reference: dict | None, workdir: str,
                 probe_setup=None) -> dict:
    """Measure one workload; returns the run's record (metrics and times).

    probe_setup(n), if given, returns n set-up times. It is asked for
    SETUP_PROBES times before the measurement, for one per PROBE_EVERY
    seconds of measurement (at the next item boundary) and for SETUP_PROBES
    after it; the end-to-end metrics then include setup_s, the median of
    all the times. Probing is left out of the `seconds` budget."""
    setup: list[float] = []
    if probe_setup:
        setup += probe_setup(SETUP_PROBES)
    runner = Runner(workload, reference, workdir)
    passes = workload.passes(seed)
    tracer = tracing.Tracer() if trace else None
    untraced: list[float] = []
    traced: list[float] = []
    start = perf_counter()
    probing = 0.0  # time spent probing since start

    def measured() -> float:
        return perf_counter() - start - probing

    def between() -> None:
        nonlocal probing
        owed = int(measured() / PROBE_EVERY) - (len(setup) - SETUP_PROBES)
        if owed > 0:
            t0 = perf_counter()
            setup.extend(probe_setup(owed))
            probing += perf_counter() - t0

    while True:
        u, t = runner.run_pass(next(passes), tracer,
                               between if probe_setup else None)
        untraced.append(u)
        traced.append(t)
        per_pass = statistics.median(u + t for u, t in zip(untraced, traced))
        if measured() + per_pass > seconds:
            break
    if probe_setup:
        between()
        setup += probe_setup(SETUP_PROBES)
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "pass_s": untraced, "item_s": runner.item_s,
              "setup_s": setup,
              "problems": runner.problems,
              "attempted": runner.attempted, "failed": runner.failed}
    if trace:
        overhead = sum(traced) / sum(untraced) - 1.0
        record["traced_pass_s"] = traced
        record["metrics"] = tracing.layer_metrics(
            tracer.spans, len(runner.item_s), workload.n_atoms, overhead)
        record["spans"] = tracer.spans
        return record
    item_ms = [t * 1000.0 for t in runner.item_s]
    values = {
        "wall_s": statistics.median(untraced),
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "item_ms.p50": percentile(item_ms, 50),
        "item_ms.p90": percentile(item_ms, 90),
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    record["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in END_TO_END
                         if values[name] is not None}
    return record


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)  # a set-up probe: inputs only
    args = p.parse_args(argv)

    if args.setup_only:
        next(workloads.WORKLOADS[args.workload].passes(args.seed))
        return 0
    if args.workload == "all":
        return run_all(args)

    workload = workloads.WORKLOADS[args.workload]
    probe = None if args.trace else functools.partial(
        setup_seconds, args.workload, args.seed)
    reference = load_reference()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        record = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace), reference, workdir, probe)
    record["machine"] = machine_info()

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracing.write_spans(record.pop("spans"), f"{stem}.spans.csv")
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"machine": record["machine"]}))
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one summary line each."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=True, stdout=subprocess.PIPE, text=True)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        shown = "  ".join(f"{k}={v['value']:.6g}{v['unit']}"
                          for k, v in results[name]["metrics"].items())
        print(f"{name}: failed {results[name]['failed']}/"
              f"{results[name]['attempted']}  {shown}", flush=True)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
