#!/usr/bin/env python3
"""Reruns a paper bench and compares its JSON with the checked-in file.

Usage:
  check_bench_json.py BENCH_BINARY EXPECTED_JSON

Runs `BENCH_BINARY --json <tmp>` and compares the document it writes with
EXPECTED_JSON field by field. `wall_millis` is host wall time and is
skipped; every other field (simulated time, rows, cost counters, the
workload header) must match exactly. Prints each differing field and
exits 1 on any difference, so a change that moves a simulated number
fails until the checked-in file is regenerated on purpose.
"""

import json
import os
import subprocess
import sys
import tempfile

IGNORED_FIELDS = {"wall_millis"}


def diff(expected, actual, path, out):
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key in IGNORED_FIELDS:
                continue
            if key not in expected or key not in actual:
                out.append(f"{path}.{key}: present in only one document")
                continue
            diff(expected[key], actual[key], f"{path}.{key}", out)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(f"{path}: {len(expected)} entries expected, "
                       f"{len(actual)} found")
        for i, (e, a) in enumerate(zip(expected, actual)):
            label = i
            if isinstance(e, dict):
                label = e.get("system") or e.get("query") or i
            diff(e, a, f"{path}[{label}]", out)
    elif expected != actual:
        out.append(f"{path}: expected {expected!r}, found {actual!r}")


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    binary, expected_path = sys.argv[1], sys.argv[2]
    with open(expected_path) as f:
        expected = json.load(f)
    with tempfile.TemporaryDirectory() as tmp:
        actual_path = os.path.join(tmp, "actual.json")
        subprocess.run([binary, "--json", actual_path], check=True,
                       stdout=subprocess.DEVNULL)
        with open(actual_path) as f:
            actual = json.load(f)
    differences = []
    diff(expected, actual, "$", differences)
    for line in differences:
        print(line)
    if differences:
        print(f"FAIL: {len(differences)} field(s) differ from "
              f"{expected_path}; regenerate it with `{binary} --json` "
              f"if the change is intended")
        return 1
    print(f"OK: every field but {', '.join(sorted(IGNORED_FIELDS))} matches "
          f"{expected_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
