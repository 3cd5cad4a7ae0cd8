"""Compare two sets of benchmark records written by perfbench/run.py.

    python3 perfbench/compare.py --base out/solve-seed*-trace0.json \
                                 --new  ../other/perfbench/out/solve-seed*-trace0.json

Every record must carry the same environment stamp (Python, numpy, scipy,
BLAS and its threads, nproc, cpu_count, CLI threads) and the same
workload, --seconds and --trace; each side must come from one source
tree.  Anything else is refused with exit code 2, because numbers taken
under different stamps are not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def _load(paths):
    return [json.load(open(p)) for p in paths]


def _mismatch(records, key):
    values = {json.dumps(key(r), sort_keys=True) for r in records}
    return values if len(values) > 1 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = _load(args.base), _load(args.new)

    problems = []
    for label, key in (("environment stamp", lambda r: r["stamp"]["env"]),
                       ("workload/seconds/trace",
                        lambda r: (r["workload"], r["seconds"], r["trace"]))):
        bad = _mismatch(base + new, key)
        if bad:
            problems.append(f"{label} differs: " + " | ".join(sorted(bad)))
    for side, recs in (("base", base), ("new", new)):
        bad = _mismatch(recs, lambda r: r["stamp"]["source_sha256"])
        if bad:
            problems.append(f"{side} mixes source trees: " + ", ".join(sorted(bad)))
    if problems:
        print("perfbench compare: refusing to compare\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 2

    print(f"{'metric':36} {'unit':8} {'base median':>12} {'base IQR':>10} "
          f"{'new median':>12} {'change':>8}")
    for name, meta in base[0]["metrics"].items():
        b = [r["metrics"][name]["value"] for r in base]
        n = [r["metrics"].get(name, {}).get("value") for r in new]
        if None in b or None in n:
            print(f"{name:36} {meta['unit']:8} missing in some record")
            continue
        bm, nm = statistics.median(b), statistics.median(n)
        iqr = (statistics.quantiles(b, n=4)[2] - statistics.quantiles(b, n=4)[0]
               if len(b) > 1 else 0.0)
        change = f"{100.0 * (nm - bm) / bm:+.1f}%" if bm else "n/a"
        print(f"{name:36} {meta['unit']:8} {bm:12.6g} {iqr:10.3g} {nm:12.6g} {change:>8}")
    fails = [(r["stamp"]["seed"], r["failed"], r["attempted"]) for r in base + new if r["failed"]]
    for seed, failed, attempted in fails:
        print(f"seed {seed}: {failed} of {attempted} items failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
