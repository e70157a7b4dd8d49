#!/usr/bin/env python3
"""The benchmark's own test: a short smoke configuration of every workload.

    python3 paperbench/smoke_test.py

For each workload (those BENCHMARK.json names, plus wholefile), an
untraced and a traced run with --smoke must pass the correctness gate and
print exactly the metric names BENCHMARK.json declares. BENCHMARK.json must match the binary's --spec output. On
wholefile, the single-client path, the per-op counts must repeat exactly:
two runs with the same seed and different lengths must agree on
delete_wire_bytes and on every core.chain_steps_per_op.* value.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def result(workload, seed, seconds, trace):
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError("%s trace=%d failed (rc %d):\n%s\n%s" % (
            workload, trace, out.returncode, out.stdout[-2000:],
            out.stderr[-2000:]))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    spec_text = subprocess.run(RUN + ["--spec"], cwd=ROOT, capture_output=True,
                               text=True, check=True).stdout
    assert json.loads(spec_text) == spec, "BENCHMARK.json differs from --spec"
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    # wholefile is not in BENCHMARK.json but must keep working.
    for w in [w["name"] for w in spec["workloads"]] + ["wholefile"]:
        for trace, names in ((0, e2e), (1, layers)):
            r = result(w, 7, 1, trace)
            assert r["correct"] is True, (w, trace, r)
            assert r["attempted"] >= 1 and r["failed"] == 0, (w, trace, r)
            assert list(r["metrics"]) == names, (w, trace, list(r["metrics"]))
            if trace == 0:
                zero = [n for n, m in r["metrics"].items() if m["value"] == 0]
                assert not zero, (w, "zero end-to-end metrics", zero)
            print("ok  %-16s trace=%d attempted=%d" % (w, trace, r["attempted"]))
    counts = ["core.chain_steps_per_op." + op for op in
              ("delete", "insert", "access", "modify", "bulk_delete")]
    a, b = result("wholefile", 11, 1, 1), result("wholefile", 11, 3, 1)
    for name in counts:
        assert a["metrics"][name] == b["metrics"][name], (name, a, b)
    a, b = result("wholefile", 11, 1, 0), result("wholefile", 11, 3, 0)
    assert (a["metrics"]["delete_wire_bytes"] ==
            b["metrics"]["delete_wire_bytes"]), (a, b)
    print("ok  wholefile per-op counts repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
