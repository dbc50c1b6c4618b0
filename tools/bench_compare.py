#!/usr/bin/env python3
"""Gate a fresh bench report against its committed BENCH_*.json baseline.

Every gated bench writes a harness::BenchReport (src/harness/
bench_report.h; schema in DESIGN.md §16): rows under "runs", each field
declared in "fields" as

  exact  integers, strings or booleans that depend only on config and
         seed; must equal the baseline. A drift means the executed
         schedule changed: regenerate the baseline only for an understood
         change, as with tests/integration/digest_pins.txt.
  ratio  host throughput, higher is better; must reach --min-ratio times
         the baseline.
  info   recorded, not gated.

"checks" are the bench's machine-independent invariants (for example
"controlled p99 <= target", "wheel >= heap"), computed by the fresh run
itself. A row's "quick" marks it as one a --quick run also produces.

The gate fails unless the fresh file declares the same field kinds and
check names as the baseline, every check is true, every fresh row exists
in the baseline, every baseline row of the fresh run's mode is present,
exact fields are equal and ratio fields reach the floor. There is no
per-bench code: a new gated bench needs only a BenchReport.

Usage: bench_compare.py --baseline BENCH_x.json --fresh fresh.json
                        [--min-ratio 0.8]
"""

import argparse
import json
import sys

KINDS = ("exact", "ratio", "info")


def load(path):
    with open(path) as f:
        return json.load(f)


def compare(base, fresh, min_ratio):
    """Returns the gate's failures; each names its row, field or check."""
    if fresh["bench"] != base["bench"]:
        return [f"bench: fresh is {fresh['bench']!r}, baseline is "
                f"{base['bench']!r}"]
    failures = []
    fields = base["fields"]
    for field in sorted(set(fields) | set(fresh["fields"])):
        kind = fresh["fields"].get(field)
        if kind != fields.get(field) or kind not in KINDS:
            failures.append(f"fields.{field}: declared {kind}, baseline "
                            f"declares {fields.get(field)}")
    if set(fresh["checks"]) != set(base["checks"]):
        failures.append(f"checks: fresh declares {sorted(fresh['checks'])}, "
                        f"baseline {sorted(base['checks'])}")
    for check, holds in sorted(fresh["checks"].items()):
        if holds is not True:
            failures.append(f"checks.{check}: {holds}")

    base_rows = {r["name"]: r for r in base["runs"]}
    fresh_rows = {r["name"]: r for r in fresh["runs"]}
    for name, want in base_rows.items():
        if name not in fresh_rows and (want["quick"] or not fresh["quick"]):
            failures.append(f"{name}: baseline row missing from the fresh "
                            f"run")
    for name, row in fresh_rows.items():
        want = base_rows.get(name)
        if want is None:
            failures.append(f"{name}: not in the baseline (regenerate it "
                            f"with a full run)")
            continue
        worst = None
        for field, kind in fields.items():
            if field not in row or field not in want:
                failures.append(f"{name}.{field}: missing")
            elif kind == "exact" and row[field] != want[field]:
                failures.append(f"{name}.{field}: {row[field]!r}, baseline "
                                f"{want[field]!r}")
            elif kind == "ratio":
                ratio = row[field] / want[field] if want[field] else 1.0
                worst = ratio if worst is None else min(worst, ratio)
                if row[field] < min_ratio * want[field]:
                    failures.append(
                        f"{name}.{field}: {row[field]:.0f} is {ratio:.2f}x "
                        f"the baseline {want[field]:.0f} (floor {min_ratio})")
        if worst is not None:
            print(f"{name:40s} worst ratio {worst:5.2f}")
    return failures


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--baseline", required=True,
                    help="committed BENCH_*.json")
    ap.add_argument("--fresh", required=True,
                    help="freshly measured JSON (e.g. from --quick)")
    ap.add_argument("--min-ratio", type=float, default=0.8,
                    help="minimum fresh/baseline ratio for ratio fields")
    args = ap.parse_args()

    base = load(args.baseline)
    failures = compare(base, load(args.fresh), args.min_ratio)
    if failures:
        print(f"\n{base['bench']} gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\n{base['bench']} gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
