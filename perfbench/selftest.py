"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload shrunk to a few steps on a coarse mesh through the
untraced and the traced path, and checks that every metric named in
BENCHMARK.json is reported, that the traced counts repeat, that a missing
layer is reported as absent, that the correctness check fires when a
reference output is perturbed, and that the benchmark refuses to run in a
directory without the package.  Exits nonzero on any failed check.
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np

import run
import tracing

TINY = {"mms3d_p1": dict(M=4, steps=3), "free3d_p2": dict(M=2, steps=3),
        "free2d_p1": dict(M=8, steps=3)}
COUNT_SUFFIXES = (".calls", ".iters", "qpoints_per_step", "qpoints_per_cell", "fallbacks",
                  "source_points_per_step")

failures = []


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def metric_names(section):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[section]]


def counts(record):
    return {k: v for k, (v, _) in record["per_layer"].items() if k.endswith(COUNT_SUFFIXES)}


def check_workload(scheme, mms, wl):
    name = wl.name
    ref = run.reference_record(scheme, mms, wl)

    plain = run.result_line(run.measure(wl, 1, 0, False, references=ref))
    check(plain["correct"] and plain["failed"] == 0, f"{name}: untraced run is correct")
    check(list(plain["metrics"]) == metric_names("end_to_end"),
          f"{name}: untraced run reports exactly the end_to_end metrics")
    check(all(m["value"] > 0 for m in plain["metrics"].values()),
          f"{name}: every end-to-end metric is positive")

    traced = run.measure(wl, 1, 0, True, references=ref)
    line = run.result_line(traced)
    check(line["correct"], f"{name}: traced run is correct")
    check(list(line["metrics"]) == metric_names("per_layer"),
          f"{name}: traced run reports exactly the per_layer metrics")
    check(traced["absent"] == [], f"{name}: every wrapped layer exists")
    sources = [line["metrics"][f"{s}.calls"]["value"] for s in sorted(tracing.SOURCES)]
    if wl.mode == "mms":
        check(all(c > 0 for c in sources), f"{name}: mms.source_* run every step")
    else:
        check(sources == [0, 0, 0], f"{name}: mms.source_* read zero calls")
    check(line["metrics"]["scheme.step_coverage"]["value"] >= 0.95,
          f"{name}: step phases cover the traced advance()")
    again = run.measure(wl, 1, 0, True, references=ref)
    check(counts(again) == counts(traced), f"{name}: traced counts repeat exactly")

    missing = tracing.WRAPPED + [("sparsela", "no_such_solver", "sparsela.no_such_solver"),
                                 ("sparsela.NoSuchMatrix", "add", "sparsela.NoSuchMatrix.add")]
    rec = run.measure(wl, 1, 0, True, references=ref, wrapped=missing)
    check(rec["absent"] == ["sparsela.no_such_solver", "sparsela.NoSuchMatrix.add"]
          and rec["correct"], f"{name}: missing layers are recorded as absent")

    bad = copy.deepcopy(ref)
    key = next(iter(bad["outputs"]))
    bad["outputs"][key] *= 1.0 + 1e-6
    rec = run.measure(wl, 1, 0, False, references=bad)
    # only trajectories from the default data are compared with the reference
    n_default = sum(t["inputs"] == "default" for t in rec["trajectories"])
    check(not rec["correct"] and rec["failed"] == n_default * wl.steps > 0,
          f"{name}: perturbed reference {key} fails the check")


def check_bare_directory():
    """Without src/ the benchmark exits nonzero and prints no result."""
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "free2d_p1",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and proc.stdout == "",
          "bare directory: nonzero exit and no result")


def main():
    scheme, mms = run.import_msfem()
    a = run.seeded_psi0(3, 7, 1)
    b = run.seeded_psi0(3, 7, 1)
    c = run.seeded_psi0(3, 8, 1)
    pts = np.random.default_rng(0).uniform(size=(5, 3))
    check(np.array_equal(a(pts), b(pts)) and not np.allclose(a(pts), c(pts)),
          "seeded initial psi depends on the seed only")
    for name, overrides in TINY.items():
        check_workload(scheme, mms, dataclasses.replace(run.WORKLOADS[name], **overrides))
    check_bare_directory()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
