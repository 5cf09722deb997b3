#!/usr/bin/env python3
"""Compare a fresh bench_cluster JSON against the checked-in baseline.

Usage: perf_check.py FRESH BASELINE

Both files are bench_cluster's trajectory form:

    {"benchmark": "...", "entries": [{"name": ..., "events": ...}, ...]}

The fresh run carries more fields per entry (wall_s, events_per_sec,
budgets); only "name" and "events" are read. Entries are matched by
name: every baseline entry must appear in the fresh run (a vanished
entry means the benchmark stopped measuring something), extra fresh
entries are reported but pass (new sweep points need a baseline
refresh to become load-bearing).

Fails (exit 1) when a matched entry's event count differs from the
baseline's. The count is a pure function of the workload, so a change
means the simulator now does different work for the same run; the
baseline is re-recorded by committing the new counts alongside the
change that explains them. Speed is not gated here: wall time is only
comparable on one host, which scripts/perf_ab.sh measures.
"""

import argparse
import json
import sys


def load_entries(path):
    """Return {name: events} for a trajectory JSON."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if "entries" not in doc:
        sys.exit(f"{path}: missing 'entries'")
    entries = {}
    for i, entry in enumerate(doc["entries"]):
        for key in ("name", "events"):
            if key not in entry:
                sys.exit(f"{path}: entries[{i}] missing '{key}'")
        name = entry["name"]
        if name in entries:
            sys.exit(f"{path}: duplicate entry name '{name}'")
        entries[name] = entry["events"]
    if not entries:
        sys.exit(f"{path}: 'entries' is empty")
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly measured BENCH_*.json")
    parser.add_argument("baseline", help="checked-in baseline JSON")
    args = parser.parse_args()

    fresh = load_entries(args.fresh)
    base = load_entries(args.baseline)

    missing = [name for name in base if name not in fresh]
    if missing:
        sys.exit(
            f"baseline entries missing from fresh run: "
            f"{', '.join(sorted(missing))}; the benchmark no longer "
            "measures them — re-record the baseline if intentional")

    for name in sorted(fresh):
        if name not in base:
            print(f"{name}: not in baseline (new entry, not gated)")

    failures = []
    for name in sorted(base):
        print(f"{name}: events fresh {fresh[name]}  baseline {base[name]}")
        if fresh[name] != base[name]:
            failures.append(
                f"{name}: event count changed: fresh {fresh[name]} vs "
                f"baseline {base[name]}; re-record the baseline if the "
                "workload change is intentional")

    if failures:
        sys.exit("\n".join(failures))
    print("perf check OK")


if __name__ == "__main__":
    main()
