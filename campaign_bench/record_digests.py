#!/usr/bin/env python3
"""Records the per-cell outcome digests campaign_bench/run.py checks against.

Usage, from the repository root:

    python3 campaign_bench/record_digests.py [--seeds 0-31,100]

Runs every workload's campaign once per seed at the default 2 h budget and
merges the digests into campaign_bench/digests.json. Re-record only when a
change moves a campaign's outcome on purpose, and say why in CHANGES.md.
"""

import argparse
import json
import sys

import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def format_table(table):
    """One line per (workload, seed), seeds in numeric order."""
    workloads = []
    for workload, seeds in table["workloads"].items():
        rows = ",\n".join(f'   "{seed}": {json.dumps(seeds[seed])}'
                          for seed in sorted(seeds, key=int))
        workloads.append(f'  "{workload}": {{\n{rows}\n  }}')
    return ('{\n "budget_ms": %d,\n "workloads": {\n%s\n }\n}\n'
            % (table["budget_ms"], ",\n".join(workloads)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31,100")
    args = parser.parse_args()
    run.build()
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    table["budget_ms"] = run.DEFAULT_BUDGET_MS
    stored = table.setdefault("workloads", {})
    for workload in run.WORKLOADS:
        for seed in parse_seeds(args.seeds):
            result, _ = run.invoke("campaign", workload, seed, run.DEFAULT_BUDGET_MS)
            if "error" in result:
                sys.exit(f"{workload} seed {seed}: {result['error']}")
            stored.setdefault(workload, {})[str(seed)] = {
                c["name"]: c["digest"] for c in result["cells"]}
            run.log(f"{workload} seed {seed}: {result['experiments']} experiments")
            # Written after every campaign so an interrupted run keeps its work.
            run.DIGESTS.write_text(format_table(table))


if __name__ == "__main__":
    main()
