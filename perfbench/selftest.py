"""Fast self-test of the benchmark: every check, every workload, both trace modes.

    python3 perfbench/selftest.py

1. Each output check is shown to reject a wrong answer: a suboptimal or
   short Viterbi path, a negative or non-finite loss, a gradient off by
   0.1% or a group left unchecked, a loaded model that decodes differently.
2. Each workload runs for one second with `--trace 0` and `--trace 1`; the
   last line must be a correct result with no failed operation, holding the
   metrics `BENCHMARK.json` names, with their units.
3. In a directory holding only `BENCHMARK.json` and the benchmark's files,
   the benchmark must exit non-zero without printing a result.
Exits 1 if anything fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"
TIMEOUT_S = 300


def check_the_checks() -> list:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import bench
    import checks

    failures = []

    def expect(cond, what):
        print("#   %-64s %s" % (what, "ok" if cond else "FAILED"))
        if not cond:
            failures.append(what)

    inputs, model, _ = bench.set_up(bench.WORKLOADS["train_default"], seed=5)
    sentence = inputs.dev[0][2]
    hidden = np.stack([h.data for h in model.hidden_states(sentence)])
    labels = model.decode(sentence)
    tables = checks.crf_tables(model)
    expect(not checks.viterbi_problems(hidden, labels, sentence, model.scheme, tables),
           "viterbi check accepts the decoded path")
    emissions = hidden @ tables[0].T
    best = [model.scheme.label_index(lab) for lab in labels]
    worse = None
    for t in range(len(best)):
        for lab in range(model.scheme.label_count):
            cand = best[:t] + [lab] + best[t + 1:]
            if checks.path_score(emissions, tables[1], tables[2], cand) < \
                    checks.path_score(emissions, tables[1], tables[2], best) - 1e-6:
                worse = [model.scheme.labels[i] for i in cand]
                break
        if worse:
            break
    expect(worse is not None and bool(checks.viterbi_problems(hidden, worse, sentence, model.scheme, tables)),
           "viterbi check rejects a path with one label changed")
    expect(bool(checks.viterbi_problems(hidden, labels[:-1], sentence, model.scheme, tables)),
           "viterbi check rejects a path one label short")
    expect(not checks.loss_problems([0.0, 3.5]), "loss check accepts finite losses >= 0")
    for bad in (-1e-3, math.nan, math.inf):
        expect(bool(checks.loss_problems([1.0, bad])), "loss check rejects %r" % bad)
    rows = checks.gradient_spot_check(model, inputs.train[0][0], np.random.default_rng(0))
    expect({r[0] for r in rows} == set(checks.GRADIENT_GROUPS), "gradient check covers every group")
    expect(not checks.gradient_problems(rows), "gradient check accepts Tensor.backward")
    for i, (group, name, idx, analytic, numeric) in enumerate(rows):
        off = rows[:i] + [(group, name, idx, analytic * 1.001 + 1e-6, numeric)] + rows[i + 1:]
        if not checks.gradient_problems(off):
            expect(False, "gradient check rejects %s[%d] off by 0.1%%" % (name, idx))
            break
    else:
        expect(True, "gradient check rejects each coordinate off by 0.1%")
    expect(bool(checks.gradient_problems([r for r in rows if r[0] != "fusion"])),
           "gradient check rejects a group left unchecked")
    expect(not checks.identity_problems([labels], [list(labels)]), "identity check accepts equal decodes")
    changed = list(labels)
    changed[0] = "O" if changed[0] != "O" else model.scheme.labels[1]
    expect(bool(checks.identity_problems([labels], [changed])), "identity check rejects a changed label")
    return failures


def run_bench(cwd: Path, workload: str, trace: str):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "9",
           "--seconds", SECONDS, "--trace", trace]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_workloads() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            what = "%s --trace %s" % (workload, trace)
            proc = run_bench(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            problems = []
            if proc.returncode != 0 or not lines:
                problems.append("exit %d: %s" % (proc.returncode, proc.stderr.strip()[-300:]))
            else:
                result = json.loads(lines[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append("result keys %s" % sorted(result))
                if result.get("correct") is not True or result.get("failed") != 0:
                    problems.append("correct=%r failed=%r" % (result.get("correct"), result.get("failed")))
                got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
                if got != expected[trace]:
                    problems.append("metrics %s" % sorted(set(got) ^ set(expected[trace])))
                if trace == "0" and not all(v["value"] > 0 for v in result["metrics"].values()):
                    problems.append("an end-to-end metric is not positive")
            print("#   %-64s %s" % (what, "; ".join(problems) or "ok"))
            if problems:
                failures.append(what)
    return failures


def check_bare_directory() -> list:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    try:
        proc = run_bench(bare, "train_default", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and "{" not in proc.stdout
    print("#   %-64s %s" % ("without sources: exit %d, no result" % proc.returncode, "ok" if ok else "FAILED"))
    return [] if ok else ["bare directory"]


def main() -> int:
    os.chdir(ROOT)
    print("# output checks")
    failures = check_the_checks()
    print("# workloads, %s s each" % SECONDS)
    failures += check_workloads()
    print("# bare directory")
    failures += check_bare_directory()
    print("selftest: %s" % ("passed" if not failures else "%d FAILED: %s" % (len(failures), ", ".join(failures))))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
