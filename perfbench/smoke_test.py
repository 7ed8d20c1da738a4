#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size.

Usage, from the root of a checkout:

    python3 perfbench/smoke_test.py

Builds the benchmark binary as run.py does, then for every workload of
the binary, the two BENCHMARK.json names and scan_large and closure,
asserts that:
  * every end-to-end and per-layer metric prints with its declared unit, no
    op fails, and failed_op_ratio reads 0;
  * the same seed reproduces identical query texts, result digests and
    work counters;
  * a different seed changes the inputs.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

import run

TINY_OPS = {"adhoc_review": 24, "scan_large": 8, "closure": 6,
            "verify_gate": 10}


def drive(binary, workload, seed, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "5", "--trace", str(trace), "--size", "tiny",
           "--ops", str(TINY_OPS[workload])]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                             f"{done.stderr}")
    lines = done.stdout.strip().splitlines()
    digests = next(json.loads(l)["digests"] for l in lines
                   if l.startswith('{"digests"'))
    listing = {l.split()[0]: l.split()[1:] for l in lines
               if l and not l.startswith("{")}
    return json.loads(lines[-1]), digests, listing


def check_metrics(result, listing, declared, label):
    assert result["correct"] is True, f"{label}: not correct"
    assert result["failed"] == 0, f"{label}: {result['failed']} ops failed"
    assert result["attempted"] >= 1, f"{label}: no ops attempted"
    assert listing["failed_op_ratio"] == ["0", "ratio"], \
        f"{label}: failed_op_ratio {listing['failed_op_ratio']}"
    names = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(names), \
        f"{label}: metrics {sorted(result['metrics'])} != {sorted(names)}"
    for name, unit in names.items():
        got = result["metrics"][name]
        assert got["unit"] == unit, f"{label}: {name} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {name}"
        assert listing[name][1] == unit, f"{label}: {name} listing"


def main():
    spec_path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(run.ROOT, ".bench_build"))
    binary = run.build(build_dir)
    for w in TINY_OPS:
        first, d1, l1 = drive(binary, w, 7, 0)
        check_metrics(first, l1, spec["end_to_end"], f"{w} trace 0")
        traced, _, lt = drive(binary, w, 7, 1)
        check_metrics(traced, lt, spec["per_layer"], f"{w} trace 1")
        _, d2, _ = drive(binary, w, 7, 0)
        assert d1 == d2, f"{w}: same seed, different digests {d1} {d2}"
        _, d3, _ = drive(binary, w, 8, 0)
        assert d3["inputs"] != d1["inputs"], f"{w}: seed does not change inputs"
        print(f"ok  {w}: {d1['ops']} ops, digests {d1['inputs']} "
              f"{d1['outputs']} {d1['counters']}")
    print("smoke test passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        sys.exit(f"FAIL {e}")
