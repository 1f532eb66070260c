"""Record the expected report rows of the catalog workloads.

    python3 perfbench/record.py

Runs each catalog workload once and writes perfbench/expected.json: per
workload, a hash of every row's key/kind/status/detail, and the SHA-256 of
the catalog the rows came from, which run.py checks before it runs.
Refuses to record a workload with a row that does not pass.  Run it only
when a change is meant to alter report rows.
"""

from __future__ import annotations

import json
import sys

from run import EXPECTED, catalog_sha256, sample
from workloads import WORKLOADS


def main() -> int:
    doc = {"catalog_sha256": catalog_sha256()}
    for work in WORKLOADS.values():
        if work.candidates:
            continue
        rows = sample(work.name)["rows"]
        failing = [k for k, (_, status) in rows.items() if status != "pass"]
        if failing:
            print(f"error: {work.name}: rows not passing: {failing[:5]}", file=sys.stderr)
            return 1
        doc[work.name] = {"rows": {k: h for k, (h, _) in sorted(rows.items())}}
        print(f"{work.name}: {len(rows)} rows")
    EXPECTED.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
