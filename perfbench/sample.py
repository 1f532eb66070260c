"""One cold-start sample: a fresh interpreter runs a workload once.

    python3 perfbench/sample.py WORKLOAD [--trace] [--setup-only]

candidate-search reads its sums, one per line, from standard input.  The
sample prints one JSON line: set-up time, CPU and peak RSS of this process,
and the outputs the parent checks.  With --trace it also reports the
per-layer metrics and writes its spans to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from workloads import REF_BOUND, WORKLOADS, gaps_digest, row_hash

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def cold_caches(polygonal) -> None:
    """Raise unless the sieve and certification caches start empty."""
    for fn in (polygonal.sum_value_mask, polygonal.certify_universal):
        info = getattr(fn, "cache_info", None)
        if info is not None and info().currsize + info().hits + info().misses:
            raise RuntimeError(f"{fn.__name__} cache is not empty at the start of the run")


def own_peak_rss_kb() -> int:
    """Peak resident memory of this interpreter, from /proc/self/status.

    ru_maxrss of this process would also count the parent's resident pages,
    which Linux carries into the exec that started this interpreter.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def usage() -> dict:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "peak_rss_mb": max(own_peak_rss_kb(), kids.ru_maxrss) / 1024,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    work = WORKLOADS[args.workload]
    texts = sys.stdin.read().split() if work.candidates else []

    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import thetasums
    from thetasums import catalog, dsl, polygonal

    import_s = perf_counter() - t0
    if Path(thetasums.__file__).resolve().parent != SRC / "thetasums":
        raise RuntimeError(f"imported {thetasums.__file__}, not the checkout's src/")

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    t0 = perf_counter()
    cat = None if work.candidates else catalog.load_catalog()
    setup_s = import_s + perf_counter() - t0
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return

    cold_caches(polygonal)
    if work.candidates:
        results = []
        for text in texts:
            verdict = polygonal.certify_universal(dsl.parse_polygonal_sum(text), work.bound)
            head = [g for g in verdict.missing[:REF_BOUND + 1] if g <= REF_BOUND]
            results.append([len(verdict.missing), gaps_digest(verdict.missing), head])
        out["results"] = results
    else:
        report = catalog.run_catalog(cat, order=work.order, bound=work.bound, kinds=work.kinds)
        t0 = perf_counter()
        doc = report.to_dict()
        json.dumps(doc, indent=2)
        out["render_s"] = perf_counter() - t0
        out["rows"] = {r["key"]: [row_hash(r), r["status"]] for r in doc["rows"]}

    out.update(usage())
    if tracer is not None:
        metrics = tracer.metrics()
        metrics["catalog.rows"] = len(out.get("rows", ()))
        metrics["catalog.rows_failed"] = sum(
            1 for _, status in out.get("rows", {}).values() if status != "pass"
        )
        metrics["report.render_s"] = out.get("render_s", 0.0)
        out["layers"] = metrics
        dump_dir = HERE / ".out"
        dump_dir.mkdir(exist_ok=True)
        tracer.dump(dump_dir / f"spans-{work.name}.json")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
