"""The conewalk benchmark.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Workloads are defined in ``workloads.py``: ``walk-d7``, ``walk-d9``,
``oracle-mixed`` and ``exact-calculus``.  One process on one thread sets
the workload up several times (a fresh import of ``src/conewalk`` plus
input generation each time), then repeats the workload's operations,
checking every output, until another repetition would end after
``--seconds``.  Repetitions of one seed must write identical bytes.
A workload may have several input variants (a walk workload walks
several seeded walks); repetitions cycle through them.

Every time is scaled to a reference speed (``workloads.Ops``): a fixed
pure-Python loop runs between the steps, and a step's time is given in
seconds at the speed where that loop takes ``REF_LOOP_S``, because a
shared host's speed drifts by up to a factor of two in phases of
seconds.  Each
step is then taken at its median over repetitions.  ``run_s`` and
``cpu_s`` are the time of one repetition, the sum of its steps,
averaged over the variants; ``op_s.*`` summarise the operations of all
variants; ``setup_s`` is the median set-up.  The raw times are in the
record printed before the result.  With ``--trace 1``, repetitions run
in whole passes over the variants and per-layer metrics are per pass,
in raw seconds.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` one untraced pass comes
first, then ``tracer.Tracer`` wraps the package's public functions and
the last line carries the per-layer metrics and the tracing overhead
against the untraced pass.  ``--tiny`` runs every workload at its
smallest size, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter
from types import SimpleNamespace

from tracer import Tracer, metric_units
from workloads import REF_LOOP_S, CorrectnessError, Ops, make_workloads

MODULES = [
    "coeffs", "errors", "poly", "gfext", "unifactor", "bifactor", "factorizer", "basecase",
    "bounds", "doublecone", "intlinalg", "skeleton", "stateio", "cli",
]
SETUPS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "decided_share": "share",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import every conewalk module afresh; a namespace of them."""
    for name in [m for m in sys.modules if m == "conewalk" or m.startswith("conewalk.")]:
        del sys.modules[name]
    cw = SimpleNamespace(modules=[])
    for name in MODULES:
        module = importlib.import_module(f"conewalk.{name}")
        setattr(cw, name, module)
        cw.modules.append(module)
    return cw


def tail(samples):
    """(value, percentile) of the highest percentile with at least ten
    samples above it; the maximum when there are too few samples."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def per_step(ops, variant):
    """[(wall s, cpu s)] of each step of ``variant``, scaled to reference
    speed, at its median over the repetitions of that variant."""
    reps = [r for r, v in enumerate(ops.variants) if v == variant]
    scaled = [[ops.scaled(r, i) for i in range(len(ops.steps[r]))] for r in reps]
    return [
        (statistics.median(rep[i][0] for rep in scaled), statistics.median(rep[i][1] for rep in scaled))
        for i in range(len(scaled[0]))
    ]


def scaled_total(ops):
    """Wall time of every step of ``ops``, at reference speed."""
    return sum(ops.scaled(r, i)[0] for r in range(len(ops.steps)) for i in range(len(ops.steps[r])))


def git_sha(root):
    """HEAD of the repository at ``root``, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def why(root, name):
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            entries = json.load(fh)["workloads"]
    except (OSError, ValueError, KeyError):
        return ""
    return next((w["why"] for w in entries if w["name"] == name), "")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="conewalk benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest size, for the benchmark's tests")
    return ap.parse_args(argv)


def result_line(correct, ops, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def repeat(workload, cw, plans, ops, deadline, whole_passes):
    """Run repetitions, cycling through the variants, until another one
    would end after ``deadline``; every variant runs at least once.
    Returns the wall time of each repetition (or of each whole pass)."""
    walls, first = [], {}
    while True:
        t0 = perf_counter()
        for _ in range(len(plans) if whole_passes else 1):
            k = len(ops.steps) % len(plans)
            ops.new_repetition(k)
            digests = workload.run(cw, plans[k], ops)
            if k not in first:
                first[k] = digests
            elif digests != first[k] or len(ops.steps[-1]) != len(ops.steps[k]):
                changed = sorted(d for d in first[k] if digests.get(d) != first[k][d])
                raise CorrectnessError(f"repetition {len(ops.steps)} of variant {k} changed {changed}")
        walls.append(perf_counter() - t0)
        if len(ops.steps) >= len(plans) and perf_counter() + walls[-1] > deadline:
            return walls, first


def set_up(workload, seed, workdir):
    cw = import_package()
    os.makedirs(workdir, exist_ok=True)
    return cw, workload.setup(cw, seed, workdir)


def measure(args, workload, root, workdir):
    setups = Ops()
    setups.new_repetition(0)
    for _ in range(1 if args.tiny else SETUPS):
        setups.calibrate()
        cw, plans = setups.step(set_up, workload, args.seed, workdir)
    setups.calibrate()
    setup_times = [setups.scaled(0, i)[0] for i in range(len(setups.steps[0]))]

    ops = Ops()
    tracer = None
    deadline = perf_counter() + args.seconds
    try:
        if args.trace:
            # one untraced pass for the overhead, then whole traced passes, so
            # per-layer counts are exact per pass
            untraced = Ops()
            repeat(workload, cw, plans, untraced, 0, True)
            untraced.calibrate()
            tracer = Tracer(cw)
            tracer.install()
        walls, first = repeat(workload, cw, plans, ops, deadline, bool(args.trace))
        ops.calibrate()
    except CorrectnessError as ex:
        print(f"correctness error: {ex}", file=sys.stderr)
        print(result_line(False, ops, {}))
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()

    runs, latencies = [], []
    for k in range(len(plans)):
        steps = per_step(ops, k)
        runs.append(steps)
        latencies += [steps[i][0] for i in ops.operations[k]]
    value, percentile = tail(latencies)
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "params": workload.params,
        "why": why(root, workload.name),
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "repetitions": len(ops.steps),
        "repetition_wall_s": walls,
        "raw_setup_s": [wall for wall, _, _ in setups.steps[0]],
        "reference_loop_s": {"nominal": REF_LOOP_S, "median": statistics.median(w for w, _ in ops.reference),
                             "runs": len(ops.reference)},
        "op_samples": len(latencies),
        "op_s.tail_percentile": percentile,
        "digests": first,
    }
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.mean(sum(wall for wall, _ in steps) for steps in runs),
            "cpu_s": statistics.mean(sum(cpu for _, cpu in steps) for steps in runs),
            "op_s.p50": statistics.median(latencies),
            "op_s.tail": value,
            "decided_share": 1 - ops.undecided / ops.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        metrics = tracer.metrics(len(walls))
        # both sides at reference speed, so a change of the host's speed
        # between the untraced and the traced passes does not count
        metrics["trace.overhead"] = scaled_total(ops) / len(walls) / scaled_total(untraced) - 1
        units = metric_units()
        self_times = {k[: -len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
        meta["top_self_s"] = sorted(self_times.items(), key=lambda kv: -kv[1])[:3]
        meta["layer_map"] = tracer.layer_map()
    print(json.dumps(meta, sort_keys=True))
    print(f"{len(ops.steps)} repetition(s) of {len(plans)} variant(s); every step at reference speed, "
          f"at its median repetition; op_s.tail is p{percentile:.1f} of {len(latencies)} operations")
    for name, v in metrics.items():
        print(f"{name} = {v} {units[name]}")
    print(result_line(True, ops, {k: (v, units[k]) for k, v in metrics.items()}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "conewalk", "cli.py")):
        print(f"error: {src}/conewalk not found; run from the repository root", file=sys.stderr)
        return 2
    workloads = make_workloads(args.tiny)
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads)}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    base = os.path.join(root, ".bench_work")
    workdir = os.path.join(base, f"{args.workload}-{os.getpid()}")
    try:
        return measure(args, workloads[args.workload], root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
