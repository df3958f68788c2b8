#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark (about a minute on 4 cores).

    python3 e2ebench/run.py --selftest

Checks, each on reduced-scale smoke runs unless noted:
  1. every workload prints every metric BENCHMARK.json names, with its
     unit: end-to-end metrics untraced, per-layer metrics traced;
  2. two runs of the same seed repeat their counts exactly (per-seed
     cuts, levels, FM moves, rollbacks and passes; served cuts, part_crc
     and cache hits), and traced runs reach the same per-seed cuts as
     untraced ones;
  3. a deliberately wrong reference cut fails the command (ML and serve);
  4. full-size golem3 seed 1 start 0 reaches cut 424, as mlpart_bench does;
  5. with only BENCHMARK.json and this directory present, the command
     exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

SMOKE = {  # workload -> (seconds, scale)
    "ml-golem3": (1, 0.05),
    "ml-golem3-par": (1, 0.05),
    "serve-small": (3, 0.25),
}

failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(workload, trace, *extra, seed=3, cwd=ROOT, env=None, quiet=False):
    seconds, scale = SMOKE[workload]
    argv = ["python3", os.path.join(cwd, "e2ebench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--scale", str(scale)] + list(extra)
    p = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    record = None
    if result is not None:
        tag = run.result_tag(workload, seed, trace, scale)
        with open(os.path.join(run.build_dir(), "e2ebench", tag + ".result.json")) as f:
            record = json.load(f)
    if p.returncode != 0 and not quiet:
        sys.stderr.write(p.stderr[-3000:])
    return p.returncode, result, record


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json names the workloads run.py runs")

    for workload in run.WORKLOADS:
        runs = {t: [bench(workload, t) for _ in range(2)] for t in (0, 1)}
        for t, expected in ((0, e2e), (1, layers)):
            for n, (code, result, _) in enumerate(runs[t]):
                check(code == 0 and result is not None and result["correct"],
                      "%s trace=%d run %d exits 0 with a correct result" % (workload, t, n))
                if result is None:
                    continue
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == expected, "%s trace=%d prints exactly the %s metrics with their "
                      "units" % (workload, t, "end-to-end" if t == 0 else "per-layer"))
            records = [r for _, _, r in runs[t]]
            if all(records):
                check(records[0]["counts"] == records[1]["counts"],
                      "%s trace=%d: counts repeat exactly across two runs" % (workload, t))
        plain, traced = runs[0][0][2], runs[1][0][2]
        if plain and traced:
            check(plain["counts"]["cuts"] == traced["counts"]["cuts"],
                  "%s: traced and untraced runs reach the same per-seed cuts" % workload)

    code, result, record = bench("ml-golem3", 0)
    if record:
        wrong = record["counts"]["cuts"][0] + 1
        code, result, _ = bench("ml-golem3", 0, "--expect-cut", str(wrong), quiet=True)
        check(code != 0 and result is not None and not result["correct"],
              "ml-golem3: a wrong reference cut fails the command")
    code, result, _ = bench("serve-small", 0, "--perturb-reference", quiet=True)
    check(code != 0 and result is not None and not result["correct"],
          "serve-small: a wrong reference cut fails the command")

    p = subprocess.run(["python3", os.path.join(HERE, "run.py"), "--workload", "ml-golem3",
                        "--seed", "1", "--seconds", "0", "--trace", "0", "--expect-cut", "424"],
                       cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    check(p.returncode == 0, "full-size golem3 seed 1 start 0 reaches cut 424")

    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    code, result, _ = bench("ml-golem3", 0, cwd=bare, env=env, quiet=True)
    check(code != 0 and result is None,
          "without the partitioner sources the command fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest %s (%d failures)" % ("passed" if not failures else "FAILED", len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
