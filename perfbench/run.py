"""Benchmark affmin end to end and per module.

Run from the root of a checkout (no install needed; it imports ``src/affmin``):

    python3 perfbench/run.py --workload certify-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs one round with every op run twice, untraced and then traced through
``spans.Tracer``, and reports the per-module metrics; the difference of the
two walls is the tracing overhead.  The round's median-size op then runs a
third time under ``tracemalloc`` for the per-module memory peaks.
``--smoke`` runs one round at tiny sizes.

Each op's outputs are checked by the benchmark itself (``checks.py``); every
failure is recorded with its workload, family, box and stage.  One op is run
a second time and its artifact digests must match.  Human-readable lines and
a results file under ``.perfbench_out/`` come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Capped before numpy loads: one op at a time, on one thread.
THREAD_CAP = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREAD_CAP

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify-large", "pipeline-mesh", "cli-roundtrip")
SETUP_SAMPLES = 5
# No op starts after this many seconds, so a much slower program still ends
# within the 180 s a run may take.
DEADLINE_S = 120
OUT_DIR = ".perfbench_out"

# Which end-to-end metric each layer metric should move, and on which
# workload it does most / little work.
LAYER_MAP = {
    "conormal.self_s": ("op_p50_s", "cli-roundtrip / small everywhere"),
    "lelieuvre.self_s": ("faces_per_s", "certify-large / pipeline-mesh"),
    "geometry.self_s": ("faces_per_s", "certify-large / pipeline-mesh"),
    "grids.self_s": ("faces_per_s", "certify-large / pipeline-mesh"),
    "geometry.face_volumes.calls": ("faces_per_s", "certify-large, pipeline-mesh"),
    "geometry.face_volumes.useful_ratio": ("faces_per_s", "certify-large"),
    "grids.diff.calls": ("faces_per_s", "certify-large"),
    "forms.self_s": ("faces_per_s", "certify-large / pipeline-mesh"),
    "forms.cubic_coefficients.calls": ("faces_per_s", "certify-large"),
    "compatibility.self_s": ("faces_per_s", "certify-large / pipeline-mesh"),
    "compatibility.reconstruct.fail": ("fail_frac", "certify-large, cli-roundtrip / pipeline-mesh"),
    "variational.self_s": ("faces_per_s", "certify-large"),
    "variational.criticality.fail": ("fail_frac", "certify-large"),
    "mesh.self_s": ("op_p50_s", "pipeline-mesh / zero on certify-large"),
    "mesh.tessellate_s": ("op_p50_s, faces_per_s", "pipeline-mesh / zero on certify-large"),
    "mesh.export_obj_s": ("op_p50_s, faces_per_s", "pipeline-mesh / zero on certify-large"),
    "mesh.obj_mb_per_s": ("op_p50_s", "pipeline-mesh"),
    "gridio.self_s": ("op_p50_s", "cli-roundtrip / zero on certify-large"),
    "gridio.write_s": ("op_p50_s", "cli-roundtrip / pipeline-mesh (writes only)"),
    "gridio.read_s": ("op_p50_s", "cli-roundtrip / zero on pipeline-mesh, certify-large"),
    "gridio.write_mb_per_s": ("op_p50_s", "cli-roundtrip / pipeline-mesh"),
    "gridio.read_mb_per_s": ("op_p50_s", "cli-roundtrip"),
    "cli.self_s": ("op_p50_s", "pipeline-mesh / zero on certify-large"),
    "<module>.peak_mb": ("peak_rss_mb", "mesh on pipeline-mesh; geometry/forms on certify-large"),
    "trace.overhead_frac": ("none", "all"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round at tiny sizes")
    parser.add_argument("--setup-probe", action="store_true",
                        help="import affmin.cli, build the op list and exit")
    return parser.parse_args(argv)


def import_affmin():
    """Import affmin from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import affmin.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import affmin from {src}: {exc}")
    import affmin
    if Path(affmin.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: affmin was imported from {affmin.__file__}, not {src}")


def rounds_for(args, workloads) -> int:
    if args.smoke or args.trace:
        return 1
    return max(1, int(args.seconds // workloads.ROUND_SECONDS[args.workload]))


def measure_setup(args) -> list:
    """Wall time of fresh interpreters that import affmin.cli and build the op list."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    samples = []
    for _ in range(1 if args.smoke else SETUP_SAMPLES):
        # A blocking wait: subprocess's own timeout polls every 50 ms, which
        # would round every sample up to the next poll.
        started = time.perf_counter()
        child = subprocess.Popen(command, cwd=ROOT)
        killer = threading.Timer(60, child.kill)
        killer.start()
        try:
            code = child.wait()
        finally:
            killer.cancel()
        samples.append(time.perf_counter() - started)
        if code != 0:
            raise subprocess.CalledProcessError(code, command)
    return samples


def provenance() -> dict:
    src = ROOT / "src" / "affmin"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.glob("*.py")))
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for p in sorted(src.glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
        "src_sha256": digest.hexdigest(), "blas_threads": THREAD_CAP,
        "src_affmin_lines": lines, "machine": platform.machine(),
    }


@contextlib.contextmanager
def tracing(tracer, op, memory=False):
    """Spans of everything run inside are tagged with ``op``; no-op without a tracer."""
    if tracer is None:
        yield
        return
    tracer.op = op
    tracer.install(memory)
    try:
        yield
    finally:
        tracer.restore()


def run_ops(args, workloads, ops, workdir, tracer=None):
    """Run ops in order; with a tracer, each op runs untraced then traced."""
    outcomes, traced_walls, untraced_walls = [], [], []
    started = time.perf_counter()
    for spec in ops:
        if time.perf_counter() - started > DEADLINE_S:
            break
        out = workloads.run_op(args.workload, spec, workdir)
        outcomes.append(out)
        if tracer is not None:
            with tracing(tracer, spec["id"]):
                traced = workloads.run_op(args.workload, spec, workdir)
            untraced_walls.append(out.wall_s)
            traced_walls.append(traced.wall_s)
            for failure in traced.failures:
                if failure not in out.failures:
                    out.failures.append({**failure, "stage": failure["stage"] + " (traced)"})
    return outcomes, untraced_walls, traced_walls


def determinism(args, workloads, outcomes, workdir) -> dict:
    """Re-run the smallest op and compare every artifact digest."""
    first = min(outcomes, key=lambda o: workloads.faces(o.spec["box"]))
    again = workloads.run_op(args.workload, first.spec, workdir)
    same = again.digests == first.digests and bool(first.digests)
    return {"op": first.spec["id"], "identical": same,
            "first": first.digests, "repeat": again.digests}


def run_workload(args) -> int:
    import_affmin()
    import workloads
    ops = workloads.build_ops(args.workload, args.seed, rounds_for(args, workloads), args.smoke)
    if args.setup_probe:
        return 0
    import spans

    out_dir = ROOT / OUT_DIR
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    workdir = out_dir / "work" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setup_samples = measure_setup(args)
    tracer = spans.Tracer() if args.trace else None
    started = time.perf_counter()
    outcomes, untraced_walls, traced_walls = run_ops(args, workloads, ops, workdir, tracer)
    loop_wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    repeat = determinism(args, workloads, outcomes, workdir)
    if tracer is not None:
        memory_op = sorted(ops, key=lambda spec: workloads.faces(spec["box"]))[len(ops) // 2]
        with tracing(tracer, "memory", memory=True):
            workloads.run_op(args.workload, memory_op, workdir)
    with tracing(tracer, "probe"):
        probes = [workloads.run_op(args.workload, spec, workdir)
                  for spec in workloads.probe_ops(args.workload)]
    shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in outcomes if not o.passed]
    walls = [o.wall_s for o in outcomes]
    op_time = sum(walls)
    certified = sum(workloads.faces(o.spec["box"]) for o in outcomes if o.passed)
    if args.trace:
        overhead = sum(traced_walls) / sum(untraced_walls) - 1.0
        metrics = spans.layer_metrics(tracer.spans, {o.spec["id"] for o in outcomes},
                                      "memory", overhead)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "faces_per_s": {"value": certified / op_time, "unit": "faces/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    # Printed and kept in the results file, but not gated.  Per-op times
    # follow the host's fast and slow phases (about 1.6x apart), so their
    # median flips between them from run to run, and with 20-35 ops a run
    # fewer than 10 samples lie beyond the 90th percentile.
    info = {"op_p50_s": float(np.percentile(walls, 50)),
            "op_p90_s": float(np.percentile(walls, 90)), "samples": len(walls),
            "fail_frac": len(failed) / len(outcomes)}
    probe_failed = [p for p in probes if not p.passed]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "why": workloads.WHY[args.workload],
        "layer_map": LAYER_MAP, "provenance": provenance(),
        "rounds": rounds_for(args, workloads), "ops": len(outcomes),
        "failed": len(failed), **info, "loop_wall_s": loop_wall, "op_wall_s": op_time, "setup_samples_s": setup_samples,
        "metrics": metrics, "determinism": repeat,
        "known_defect_probe": {
            "ops": len(probes), "failed": len(probe_failed),
            "fail_frac": len(probe_failed) / len(probes) if probes else 0.0,
            "failures": [f for p in probes for f in p.failures],
        },
        "op_records": [o.record() for o in outcomes],
    }
    results_path = out_dir / f"{tag}.json"
    results_path.write_text(json.dumps(result, indent=1) + "\n", encoding="ascii")
    if tracer is not None:
        tracer.write(out_dir / f"{tag}.spans.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  rounds {result['rounds']}  "
          f"ops {len(outcomes)}  failed {len(failed)}  fail_frac {info['fail_frac']:.4f}  "
          f"determinism {'ok' if repeat['identical'] else 'MISMATCH'}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        for name in ("op_p50_s", "op_p90_s"):
            print(f"  {name + ' (not gated)':40s} {info[name]:.6g} s  "
                  f"({info['samples']} samples)")
    for failure in [f for o in failed for f in o.failures]:
        print(f"  FAILED op {failure['op']} {failure['family']} {failure['box']} "
              f"{failure['stage']}: {failure['error']}")
    known = result["known_defect_probe"]
    if probes:
        print(f"  known-defect probe: {known['failed']}/{known['ops']} ops fail")
        for failure in known["failures"]:
            print(f"    {failure['family']} {failure['box']} {failure['stage']}: "
                  f"{failure['error'][:120]}")
    prov = result["provenance"]
    print(f"  python {prov['python']}  numpy {prov['numpy']}  nproc {prov['nproc']}  "
          f"BLAS threads {prov['blas_threads']}  src/affmin {prov['src_affmin_lines']} lines  "
          f"commit {prov['git_commit'] or 'n/a'}")
    print(f"  results in {results_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed and repeat["identical"],
        "attempted": len(outcomes), "failed": len(failed), "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process; metric names get a prefix."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
