"""Benchmark of the msfem alternating Crank-Nicolson stepper.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload free3d_p2 --seed 3 --seconds 30 --trace 0

or every workload, each in its own process, with a table of the end-to-end
metrics and a nonzero exit status when a correctness check fails:

    python3 perfbench/run.py --workload all

A run repeats trajectories until ``--seconds`` are spent (at least
MIN_TRAJECTORIES).  A trajectory builds a fresh stepper, calls initialize(),
times each of a fixed number of advance() calls and checks the final state.
With ``--trace 1`` every other trajectory runs with the layer wrappers of
perfbench/tracing.py installed and the run reports per-layer metrics instead of
end-to-end ones.  The last line of standard output is the result object;
the full record (environment, checks, spans) goes to perfbench/out/.

See perfbench/README.md for why these workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import gc
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"

DT = 1.0 / 64
V0 = 5.0
MIN_TRAJECTORIES = 3
# Relative difference from a stored reference output that counts as wrong.
# Tightening the solver tolerance from 1e-10 to 1e-12 moves the reference
# outputs by at most 1.5e-9 relative (phi on mms3d_p1); a discretisation
# change moves them by orders of magnitude more.
REFERENCE_RTOL = 1e-7
# Psi-mass drift allowed without sources; runs read about 1e-13.
DRIFT_LIMIT = 1e-10


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    degree: int
    M: int
    mode: str
    steps: int      # advance() calls per trajectory
    warmup: int     # leading steps of each trajectory that are not timed


# Why each workload: perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("mms3d_p1", dim=3, degree=1, M=16, mode="mms", steps=6, warmup=1),
    Workload("free3d_p2", dim=3, degree=2, M=8, mode="free", steps=16, warmup=1),
    Workload("free2d_p1", dim=2, degree=1, M=128, mode="free", steps=16, warmup=1),
)}


class BenchmarkError(RuntimeError):
    """The benchmark could not measure anything."""


def import_msfem():
    """Import msfem from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import msfem
    from msfem import mms, scheme

    where = Path(msfem.__file__).resolve().parent
    if where != SRC / "msfem":
        raise ImportError(f"msfem imported from {where}, not from {SRC / 'msfem'}")
    return scheme, mms


# ---- inputs ------------------------------------------------------------------

def scheme_config(scheme, wl: Workload):
    return scheme.SchemeConfig(dim=wl.dim, M=wl.M, degree=wl.degree,
                               t_final=wl.steps * DT, dt=DT, n_steps=wl.steps,
                               v0=V0, mode=wl.mode)


def seeded_psi0(dim: int, seed: int, index: int):
    """Initial psi: three distinct sine modes sin(k pi x) (k in 1..3 per axis)
    with random complex coefficients of unit total weight.  Each mode vanishes
    on the boundary, so the Dirichlet constraint check of interpolate passes,
    and the L2 norm equals that of the default initial psi."""
    import numpy as np

    rng = np.random.default_rng([seed, index])
    picks = rng.choice(3 ** dim, size=3, replace=False)
    modes = np.array([[p // 3 ** a % 3 + 1 for a in range(dim)] for p in picks])
    coef = rng.normal(size=3) + 1j * rng.normal(size=3)
    coef /= np.linalg.norm(coef)

    def psi0(x):
        out = np.zeros(x.shape[:-1], dtype=complex)
        for c, k in zip(coef, modes):
            out += c * np.prod(np.sin(np.pi * k * x), axis=-1)
        return out

    return psi0


# ---- one trajectory ----------------------------------------------------------

@dataclasses.dataclass
class Trajectory:
    traced: bool
    inputs: str
    setup_s: float = math.nan
    step_s: list = dataclasses.field(default_factory=list)
    outputs: dict = dataclasses.field(default_factory=dict)
    failures: list = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_trajectory(scheme, mms, wl: Workload, seed: int, index: int,
                   references: dict | None, tracer=None) -> Trajectory:
    """Set up, step and check once.  Trajectory 0 starts from the default
    initial data, which the stored reference outputs were recorded from;
    later ones start from a psi drawn from (seed, index) on free workloads."""
    seeded = wl.mode == "free" and index > 0
    traj = Trajectory(traced=tracer is not None,
                      inputs=f"seed={seed},index={index}" if seeded else "default")
    span = tracer.span if tracer is not None else contextlib.nullcontext
    cfg = scheme_config(scheme, wl)
    with span(tracing.TRAJECTORY_SPAN):
        try:
            t0 = time.perf_counter()
            with span(tracing.SETUP_SPAN):
                stepper = scheme.AlternatingStepper(cfg)
                data = stepper.default_initial_data()
                if seeded:
                    data = dataclasses.replace(data, psi0=seeded_psi0(wl.dim, seed, index))
                state = stepper.initialize(data)
            traj.setup_s = time.perf_counter() - t0
            mass0 = stepper.psi_l2_norm(state)
            for _ in range(wl.steps):
                t0 = time.perf_counter()
                with span(tracing.STEP_SPAN):
                    state = stepper.advance(state)
                traj.step_s.append(time.perf_counter() - t0)
            check_trajectory(scheme, mms, wl, stepper, state, mass0,
                             references if not seeded else None, traj)
        except Exception:  # a failing step is a measured outcome, not a crash
            traj.failures.append("raised: " + traceback.format_exc(limit=4))
    return traj


def trajectory_outputs(scheme, mms, wl, stepper, state) -> dict:
    if wl.mode == "mms":
        return {f"err_h1_{w}": mms.error_norms(f, stepper.case, w, state.t).h1
                for w, f in (("psi", state.psi), ("A", state.a), ("phi", state.phi))}
    snap = scheme.snapshot_record(stepper, state)
    return {k: snap[k] for k in ("psi_l2", "A_l2", "phi_l2")}


def check_trajectory(scheme, mms, wl, stepper, state, mass0, reference, traj):
    traj.outputs = trajectory_outputs(scheme, mms, wl, stepper, state)
    drift = abs(stepper.psi_l2_norm(state) / mass0 - 1.0)
    traj.outputs["psi_mass_drift"] = drift
    if wl.mode == "free" and not drift <= DRIFT_LIMIT:
        traj.failures.append(f"psi-mass drift {drift:.3e} > {DRIFT_LIMIT:.0e}")
    if reference is not None:
        traj.failures += compare_to_reference(traj.outputs, reference)


def compare_to_reference(outputs: dict, reference: dict) -> list[str]:
    bad = []
    for key, want in reference["outputs"].items():
        got = outputs.get(key)
        if got is None or not abs(got - want) <= REFERENCE_RTOL * abs(want):
            bad.append(f"{key} = {got!r}, reference {want!r}")
    return bad


def load_references(wl: Workload) -> dict:
    with open(REFERENCES) as fh:
        ref = json.load(fh)[wl.name]
    recorded = {k: ref[k] for k in ("dim", "degree", "M", "mode", "steps")}
    expected = {k: getattr(wl, k) for k in recorded}
    if recorded != expected:
        raise BenchmarkError(f"references for {wl.name} were recorded for {recorded}, "
                             f"the workload is {expected}")
    return ref


def reference_record(scheme, mms, wl: Workload) -> dict:
    """Outputs of the default-data trajectory, stored as the reference."""
    traj = run_trajectory(scheme, mms, wl, 0, 0, None)
    if not traj.ok:
        raise BenchmarkError("reference trajectory failed: " + "; ".join(traj.failures))
    outputs = {k: v for k, v in traj.outputs.items() if k != "psi_mass_drift"}
    return {"dim": wl.dim, "degree": wl.degree, "M": wl.M, "mode": wl.mode,
            "steps": wl.steps, "outputs": outputs}


# ---- a run -------------------------------------------------------------------

def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            references: dict | None = None, wrapped=None) -> dict:
    """Run trajectories for ``seconds`` and return the full record."""
    scheme, mms = import_msfem()
    if references is None:
        references = load_references(wl)
    tracer = tracing.Tracer(wrapped=wrapped or tracing.WRAPPED) if trace else None
    start = time.perf_counter()
    trajectories = []
    while True:
        # In a traced run trajectories alternate traced, untraced, traced, ...
        traced = tracer is not None and len(trajectories) % 2 == 0
        t0 = time.perf_counter()
        if traced:
            tracer.install()
        try:
            traj = run_trajectory(scheme, mms, wl, seed, len(trajectories), references,
                                  tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        trajectories.append(traj)
        gc.collect()
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(trajectories) >= MIN_TRAJECTORIES and elapsed + last > seconds:
            break
    return build_record(wl, seed, seconds, trace, trajectories, tracer)


def tail(samples):
    """Highest percentile with at least ten samples beyond it, but not below
    the median (with fewer than 21 samples it is the median), and its value."""
    ordered = sorted(samples)
    i = max(len(ordered) - 11, len(ordered) // 2)
    return 100.0 * (i + 1) / len(ordered), ordered[i]


def build_record(wl, seed, seconds, trace, trajectories, tracer) -> dict:
    attempted = len(trajectories) * wl.steps
    failed = sum(wl.steps for t in trajectories if not t.ok)
    # Times come from every trajectory that ran all its steps, also when its
    # outputs then failed the check; the check decides `correct`.
    timed = [t for t in trajectories if not t.traced and len(t.step_s) == wl.steps]
    if not timed:
        raise BenchmarkError("no untraced trajectory ran all its steps: "
                             + " | ".join(f for t in trajectories for f in t.failures))
    steps = [s for t in timed for s in t.step_s[wl.warmup:]]
    pct, tail_value = tail(steps)
    e2e = {
        "setup_s": (statistics.median(t.setup_s for t in timed), "s"),
        "step_p50_s": (statistics.median(steps), "s"),
        "step_tail_s": (tail_value, "s"),
        "run_s": (statistics.median(t.setup_s + sum(t.step_s) for t in timed), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record = {
        "workload": dataclasses.asdict(wl),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "end_to_end": e2e,
        "step_tail_percentile": pct,
        "step_samples": len(steps),
        "trajectories": [dataclasses.asdict(t) for t in trajectories],
    }
    if trace:
        layers, coverages = tracing.layer_metrics(tracer, wl.warmup)
        traced_steps = [s for t in trajectories if t.traced and len(t.step_s) == wl.steps
                        for s in t.step_s[wl.warmup:]]
        if not traced_steps:
            raise BenchmarkError("no traced trajectory ran all its steps: "
                                 + " | ".join(f for t in trajectories for f in t.failures))
        traced_p50 = statistics.median(traced_steps)
        untraced_p50 = e2e["step_p50_s"][0]
        layers["trace.step_p50_s"] = (traced_p50, "s")
        layers["trace.untraced_step_p50_s"] = (untraced_p50, "s")
        layers["trace.overhead"] = (traced_p50 / untraced_p50 - 1.0, "ratio")
        layers["scheme.step_coverage"] = (min(coverages) if coverages else 0.0, "ratio")
        record["per_layer"] = layers
        record["absent"] = tracer.absent
        record["spans"] = [s.as_list() for s in tracer.spans]
        if not coverages or min(coverages) < 0.95:
            record["correct"] = False
            record["coverage_failure"] = (
                "the scheme.step_* spans cover less than 95% of a traced advance()")
    return record


def result_line(record: dict) -> dict:
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ---- environment -------------------------------------------------------------

def _blas_threads(lib_glob: str, symbol: str):
    for path in glob.glob(lib_glob):
        try:
            fn = getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "msfem").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy as np
    import scipy

    np_dir = Path(np.__file__).parent
    sp_dir = Path(scipy.__file__).parent
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(),
        "source_sha256_16": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads_numpy": _blas_threads(str(np_dir.parent / "numpy.libs" / "*openblas*"),
                                            "scipy_openblas_get_num_threads64_"),
        "blas_threads_scipy": _blas_threads(str(sp_dir.parent / "scipy.libs" / "*openblas*"),
                                            "scipy_openblas_get_num_threads"),
        "machine": platform.machine(),
    }


# ---- command line ------------------------------------------------------------

def write_record(record: dict):
    """Record to perfbench/out/<workload>-seed<n>-trace<t>.json, spans to
    a -spans.json file beside it as [id, name, parent, start, end, attrs]."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{record['workload']['name']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans", None)
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(OUT_DIR / f"{stem}-spans.json", "w") as fh:
            json.dump(spans, fh)


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; prints the end-to-end table."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                               str(seed), "--seconds", str(seconds), "--trace", "0"],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        verdict = "ok" if result["correct"] else "WRONG"
        print(f"{name}: {verdict}, {result['failed']} of {result['attempted']} steps failed")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<14} {m['value']:.6g} {m['unit']}")
        if not result["correct"] or result["failed"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        import_msfem()
    except ImportError as err:
        print(f"cannot import msfem from {SRC}: {err}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    try:
        record = measure(wl, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    write_record(record)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "environment",
                                            "step_tail_percentile", "step_samples")}))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
