#!/usr/bin/env python3
"""Run the complement-pair bound survey and summarize the landscape.

Writes the full record CSV when asked and prints, per k, the observed
minimum and maximum sums next to the applicable bounds.
"""

import argparse
import sys
import time

from monoindex.survey import (
    expected_lower_bound,
    survey_bounds,
    upper_bound_applies,
    write_survey_csv,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6, help="vertex count (4..8)")
    parser.add_argument("--csv", help="write all records here")
    parser.add_argument("--include-n8", action="store_true")
    args = parser.parse_args()

    start = time.time()
    records = survey_bounds(args.n, include_n8=args.include_n8)
    elapsed = time.time() - start
    pairs = len({r.g6 for r in records})
    print(f"n={args.n}: {pairs} co-connected graphs, {len(records)} records, {elapsed:.1f}s")

    failures = [r for r in records if r.verdict == "fail"]
    print(f"bound violations: {len(failures)}")
    for r in failures:
        print(f"  FAIL {r}")

    for k in sorted({r.k for r in records}):
        ks = [r for r in records if r.k == k]
        lo = min(r.sum for r in ks)
        hi = max(r.sum for r in ks)
        lower = expected_lower_bound(args.n, k) if args.n >= 5 else "-"
        upper = 2 * args.n - 2 if upper_bound_applies(args.n, k) else "-"
        witnesses = sorted({r.g6 for r in ks if r.sum == lo})
        print(f"k={k}: sum in [{lo}, {hi}]  lower bound {lower}  upper bound {upper}")
        print(f"       minimum attained by {' '.join(witnesses)}")

    if args.csv:
        write_survey_csv(records, args.csv)
        print(f"wrote {len(records)} records to {args.csv}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
