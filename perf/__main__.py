"""Command line of the host-cost benchmark; see ``perf/README.md``.

    python -m perf [--workload NAME]... [--seed-offset N] [--reps N |
                   --seconds S] [--trace [0|1]] [--json FILE]
    python -m perf diff A.json B.json
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bench, diff
from .workloads import WORKLOADS


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m perf")
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                   help="run only this workload (repeatable; default all)")
    p.add_argument("--seed-offset", "--seed", dest="offset", type=int,
                   default=0, help="added to each workload's figure seed")
    runs = p.add_mutually_exclusive_group()
    runs.add_argument("--reps", type=int, default=3,
                      help="timed runs per workload (default 3)")
    runs.add_argument("--seconds", type=float,
                      help="repeat rounds of timed runs until this many "
                           "seconds have passed (at least one round)")
    p.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                   choices=(0, 1),
                   help="add one traced run per workload for the "
                        "per-layer metrics")
    p.add_argument("--json", metavar="FILE", help="write the full report")
    p.add_argument("--update-refs", action="store_true",
                   help="record this run's digests as the references for "
                        "its seed offset instead of checking them")
    return p


def main(argv) -> int:
    if argv[:1] == ["diff"]:
        if len(argv) != 3:
            print("usage: python -m perf diff A.json B.json", file=sys.stderr)
            return 2
        return diff.main(argv[1], argv[2])
    args = _parser().parse_args(argv)
    if args.offset < 0 or args.reps < 1:
        print("--seed-offset must be >= 0 and --reps >= 1", file=sys.stderr)
        return 2
    if not (bench.SRC / "repro" / "__init__.py").is_file():
        print("no simulator sources at %s" % bench.SRC, file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    references = {} if args.update_refs else bench.load_references()
    run = bench.measure(names, args.offset, args.reps, args.seconds,
                        bool(args.trace), references)
    if args.update_refs:
        bench.write_references(run, bench.load_references())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(run, fh, indent=1)
    print(bench.format_report(run))
    if len(names) == 1:
        print(bench.contract_line(run["workloads"][names[0]],
                                  bool(args.trace)))
    failed = any(w["failed"] for w in run["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
