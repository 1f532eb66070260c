"""thetasums benchmark: cold-start end-to-end runs and a traced per-layer run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from its src/.
Every sample is a fresh interpreter, because the package's lru_caches are
per process and every CLI user pays to fill them.  Samples run back to back
for about run_seconds of BENCHMARK.json (at least one), after SETUP_PROBES
processes that only set up.  --seconds is part of the command line that
BENCHMARK.json describes; it must equal run_seconds, which alone sets the
run length.

Each end-to-end metric is the median over the samples.  run_s, cpu_s and
setup_s are scaled to the host's speed as HostGauge measures it beside
each sample: the shared host this benchmark was written on runs the same
work up to 1.8x slower for minutes at a time, which no run length
averages out.  The summary lines also print each timing's unscaled median.
The outputs of every sample are checked: catalog rows against
perfbench/expected.json, candidate gap lists against a bitmask sumset and
a brute-force loop.

With --trace 0 the last line reports run_s, cpu_s, setup_s and peak_rss_mb.
With --trace 1 untraced and traced samples alternate, and the last line
reports the per-layer metrics of tracer.METRICS, medians over the traced
samples (per-layer times unscaled), with the traced-minus-untraced scaled
run_s as trace.overhead_s.  Counts must repeat exactly across
the traced samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import METRICS, counts
from workloads import WORKLOADS, candidates, check_candidates, check_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
CATALOG = ROOT / "src" / "thetasums" / "data"
SETUP_PROBES = 9
SAMPLE_TIMEOUT_S = 120

E2E_UNITS = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SCALED = ("run_s", "cpu_s", "setup_s")


class SampleError(RuntimeError):
    pass


class HostGauge:
    """Measures how fast the host runs a fixed loop now, to scale sample times.

    The shared host this benchmark was written on slows each CPU on its
    own, by up to 1.8x, for seconds to minutes at a time, and CPU time
    slows with wall time.  Before a sample the loop is timed REPEATS times
    on every CPU of this process's set; the sample runs pinned to the CPU
    where the loop ran fastest, and the loop is timed there again after the
    sample.  The sample's scale is REF_S over the median of those 2 *
    REPEATS loop times, so a scaled time is the time the sample would have
    taken had the loop run in REF_S.  The loop mixes the kinds of work the
    package does: interpreter arithmetic, indexing a large list, and
    shifting and masking big integers.
    """

    REPEATS = 3
    # The loop's time on a quiet CPU of the 2-vCPU Xeon host (2.0 GHz
    # reported, Python 3.11) the benchmark was written on.
    REF_S = 0.016
    TABLE = 200_000

    def __init__(self):
        self.table = list(range(self.TABLE))
        self.full = (1 << 50_001) - 1

    def loop(self) -> float:
        t0 = time.perf_counter()
        x = 0
        for i in range(20_000):
            x += i * i % 7
        table = self.table
        for i in range(0, self.TABLE, 7):
            x += table[i * 7919 % self.TABLE]
        mask = 1
        for v in range(0, 600, 3):
            mask |= (mask << v) & self.full
        return time.perf_counter() - t0

    def times(self) -> list[float]:
        return [self.loop() for _ in range(self.REPEATS)]

    def pick(self, cpus) -> list[float]:
        """Pin this process to the CPU where the loop runs fastest now.

        Returns the loop times on that CPU.
        """
        before = {}
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            before[cpu] = self.times()
        cpu = min(before, key=lambda c: statistics.median(before[c]))
        os.sched_setaffinity(0, {cpu})
        return before[cpu]

    def scale(self, times: list[float]) -> float:
        return self.REF_S / statistics.median(times)


def sample(workload: str, stdin: str = "", trace=False, setup_only=False,
           gauge: HostGauge | None = None) -> dict:
    """Run one fresh interpreter; returns its JSON line plus run_s.

    With a gauge the interpreter runs pinned to the CPU the gauge picks,
    and the line gains the gauge's scale for this sample (else 1.0).
    """
    cmd = [sys.executable, str(HERE / "sample.py"), workload]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    cpus = os.sched_getaffinity(0)
    try:
        if gauge is not None:
            before = gauge.pick(cpus)  # the interpreter inherits the pinning
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, input=stdin, capture_output=True, text=True, cwd=ROOT,
                timeout=SAMPLE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise SampleError(f"{workload} sample exceeded {SAMPLE_TIMEOUT_S} s") from None
        run_s = time.perf_counter() - t0
        scale = 1.0 if gauge is None else gauge.scale(before + gauge.times())
    finally:
        os.sched_setaffinity(0, cpus)
    if proc.returncode != 0:
        raise SampleError(f"{workload} sample exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["run_s"] = run_s
    out["scale"] = scale
    return out


def catalog_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(CATALOG.glob("*.cat")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "thetasums" / "__init__.py").is_file() or not EXPECTED.is_file():
        print(f"error: no thetasums source under {ROOT / 'src'}, or no {EXPECTED.name}",
              file=sys.stderr)
        return 2
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seconds not in (None, seconds):
        print(f"error: --seconds {args.seconds:g} differs from run_seconds {seconds} "
              "in BENCHMARK.json", file=sys.stderr)
        return 2
    recorded = json.loads(EXPECTED.read_text())
    if recorded["catalog_sha256"] != catalog_sha256():
        print(f"error: the catalog under {CATALOG} is not the one {EXPECTED.name} was "
              "recorded from; run perfbench/record.py if the change is meant", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]

    # Inputs and the reference, outside every timed region.
    if work.candidates:
        cands = candidates(args.seed)
        stdin = "\n".join(c.text for c in cands)
    else:
        expected = recorded[work.name]["rows"]
        stdin = ""
    # Byte-compile once so no sample pays for it (an installed package is compiled).
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
                   check=True, cwd=ROOT, capture_output=True)

    gauge = HostGauge()
    try:
        setups = [sample(work.name, stdin, setup_only=True, gauge=gauge)
                  for _ in range(SETUP_PROBES)]
        runs = []
        start = time.perf_counter()
        # A sample starts only if, going by the one before, no more than half
        # of it would run past the run length; the first (and, traced, the first of
        # each kind) always runs.
        while True:
            plain = [r for r in runs if "layers" not in r]
            traced = [r for r in runs if "layers" in r]
            if (plain and (traced or not args.trace)
                    and time.perf_counter() - start + runs[-1]["run_s"] / 2 > seconds):
                break
            runs.append(sample(work.name, stdin, gauge=gauge,
                               trace=bool(args.trace) and len(traced) < len(plain)))
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Check every sample's outputs.
    if work.candidates:
        per_run = len(cands)
        wrong = check_candidates(args.seed, cands, work.bound, runs[0]["results"])
        wrong += sum(per_run for r in runs[1:] if r["results"] != runs[0]["results"])
    else:
        per_run = len(expected)
        wrong = sum(check_rows(expected, r["rows"]) for r in runs)
    attempted = per_run * len(runs)
    layers_repeat = all(counts(r["layers"]) == counts(traced[0]["layers"]) for r in traced)

    samples = {"run_s": plain, "cpu_s": plain, "setup_s": setups + plain, "peak_rss_mb": plain}
    unscaled = {k: [r[k] for r in rs] for k, rs in samples.items()}
    e2e = {k: [r[k] * r["scale"] if k in SCALED else r[k] for r in rs]
           for k, rs in samples.items()}
    print(f"{work.name} seed {args.seed}: {len(plain)} cold-start samples, "
          f"{len(traced)} traced, {SETUP_PROBES} set-up probes")
    for name, values in e2e.items():
        q1, med, q3 = quartiles(values)
        raw = statistics.median(unscaled[name])
        print(f"  {name:12} {med:10.4f} {E2E_UNITS[name]:3} "
              f"(median of n={len(values)}, q1 {q1:.4f}, q3 {q3:.4f}"
              + (f"; unscaled median {raw:.4f})" if name in SCALED else ")"))
    print(f"  {'error_rate':12} {wrong / attempted:10.4f} ratio ({wrong} of {attempted} wrong)")

    if args.trace:
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in METRICS if k != "trace.overhead_s"}
        layers["trace.overhead_s"] = (statistics.median(r["run_s"] * r["scale"] for r in traced)
                                      - statistics.median(e2e["run_s"]))
        if not layers_repeat:
            print("  traced counts differ between traced samples")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in METRICS.items()}
    else:
        metrics = {k: {"value": statistics.median(v), "unit": E2E_UNITS[k]}
                   for k, v in e2e.items()}
    result = {
        "correct": wrong == 0 and layers_repeat,
        "attempted": attempted,
        "failed": wrong,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
