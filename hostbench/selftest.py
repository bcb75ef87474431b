#!/usr/bin/env python3
"""Self-test of the host-time benchmark at tiny scale (about a minute).

    python3 hostbench/selftest.py

Run from the repository root. For every workload it checks that:
  * the printed metric names are exactly BENCHMARK.json's end_to_end
    names (--trace 0) and per_layer names (--trace 1), with their units;
  * the output is marked correct, with no failed runs;
  * the Chrome trace parses, every span lies inside its parent and no
    span's self time is negative;
  * two traced runs give identical simulator counters.
It also checks that a doctored pinned digest makes the binary fail.
Exit code 0 when every check passes.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (after disabling bytecode files)

COUNTERS = [
    "attack.select_calls", "dram.acts", "dram.row_hit_ratio", "dram.flips",
    "cache.l1.miss_ratio", "cache.l2.miss_ratio", "cache.llc.misses",
    "cache.llc.miss_ratio", "tlb.lookups", "tlb.walk_ratio", "paging.walks",
    "paging.psc_start_ratio",
]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def drive(workload, trace, pins=run.PINS, trace_out=None):
    """Run the binary at tiny scale; returns (exit code, result or None)."""
    cmd = [run.BINARY, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
           "--pins", pins]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return done.returncode, None


def spans_nest(path):
    """True when every span lies inside its parent, with self time >= 0."""
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e["ph"] == "X"]
    by_run = {}
    for e in events:
        by_run.setdefault(e["args"]["run"], {})[e["args"]["span"]] = e
    slack = 1e-3  # trace timestamps are rounded to 1 ns (in us)
    for spans in by_run.values():
        child_us = {}
        for e in spans.values():
            parent = e["args"]["parent"]
            if parent < 0:
                continue
            p = spans.get(parent)
            if p is None or e["ts"] < p["ts"] - slack or \
                    e["ts"] + e["dur"] > p["ts"] + p["dur"] + slack:
                return False
            child_us[parent] = child_us.get(parent, 0) + e["dur"]
        for index, e in spans.items():
            if e["dur"] - child_us.get(index, 0) < -slack * 8:
                return False
    return bool(events)


def main():
    if not run.build():
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    scratch = os.path.join(run.BUILD, "selftest")
    os.makedirs(scratch, exist_ok=True)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            trace_out = os.path.join(scratch, f"{workload}.json")
            code, result = drive(workload, trace, trace_out=trace_out)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0,
                  f"{workload} --trace {trace}: correct, exit 0")
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{workload} --trace {trace}: metric names"
                  f" and units match BENCHMARK.json {section}")
            if trace:
                check(spans_nest(trace_out),
                      f"{workload}: spans nest, no negative self time")
                _, again = drive(workload, 1)
                same = again is not None and all(
                    again["metrics"][c]["value"] ==
                    result["metrics"][c]["value"] for c in COUNTERS)
                check(same, f"{workload}: counters repeat exactly")

    with open(run.PINS) as f:
        pins = json.load(f)
    entry = pins["tiny"]["table2_attack"]
    entry["report_digest"] = "%016x" % (int(entry["report_digest"], 16) ^ 1)
    doctored = os.path.join(scratch, "doctored_pins.json")
    with open(doctored, "w") as f:
        json.dump(pins, f)
    code, result = drive("table2_attack", 0, pins=doctored)
    check(code != 0 and result is not None and not result["correct"],
          "a doctored pinned digest fails the run")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
