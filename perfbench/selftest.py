#!/usr/bin/env python3
"""Smoke-size self-test of the engine benchmark.

    python3 perfbench/selftest.py

Run from the repository root.  For every workload in BENCHMARK.json it
checks that

  * the untraced run emits every end-to-end metric, and the traced run
    every per-layer metric, each with the declared unit and a finite value,
    with all results correct;
  * a deliberately wrong expectation drives failed_frac above 0.

Smoke sizes are tiny, so the figures mean nothing; only the plumbing is
tested.  Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work", "selftest")


def run(workload, trace, expect, record=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke",
           "--expect", expect]
    if record:
        cmd += ["--record", record]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode,
                                                 proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, declared, what):
    errors = []
    metrics = result["metrics"]
    names = {m["name"] for m in declared}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            errors.append("%s: %s missing" % (what, m["name"]))
        elif got.get("unit") != m["unit"]:
            errors.append("%s: %s unit %r, declared %r" %
                          (what, m["name"], got.get("unit"), m["unit"]))
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            errors.append("%s: %s value %r not finite" %
                          (what, m["name"], got.get("value")))
    for extra in sorted(set(metrics) - names):
        errors.append("%s: undeclared metric %s" % (what, extra))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.makedirs(WORK, exist_ok=True)
    empty = os.path.join(WORK, "empty.json")
    with open(empty, "w") as f:
        f.write("{}\n")
    errors = []
    for wl in (w["name"] for w in bench["workloads"]):
        recorded = os.path.join(WORK, wl + "-recorded.json")
        if os.path.exists(recorded):
            os.remove(recorded)
        e2e = run(wl, 0, empty, record=recorded)
        errors += check_metrics(e2e, bench["end_to_end"], wl + " --trace 0")
        layers = run(wl, 1, empty)
        errors += check_metrics(layers, bench["per_layer"], wl + " --trace 1")
        for res, mode in ((e2e, "--trace 0"), (layers, "--trace 1")):
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                errors.append("%s %s: not correct (%d of %d failed)" %
                              (wl, mode, res["failed"], res["attempted"]))

        # The recorded results must pass, and a corrupted copy must fail.
        with open(recorded) as f:
            want = json.load(f)
        if not want:
            errors.append("%s: --record wrote no results" % wl)
        again = run(wl, 0, recorded)
        if again["failed"] != 0:
            errors.append("%s: fails against its own recorded results" % wl)
        wrong = os.path.join(WORK, wl + "-wrong.json")
        with open(wrong, "w") as f:
            json.dump({k: v + " (wrong)" for k, v in want.items()}, f)
        bad = run(wl, 0, wrong)
        if not (bad["failed"] > 0 and not bad["correct"]):
            errors.append("%s: a wrong expectation did not raise failed_frac "
                          "(%d of %d failed)" % (wl, bad["failed"],
                                                 bad["attempted"]))
        print("%-20s %s" % (wl, "ok" if not errors else "FAILED"), flush=True)
    for e in errors:
        print("  " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
