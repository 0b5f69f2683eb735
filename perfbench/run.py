"""Pipeline benchmark for the superlocal package.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (see workloads.py and README.md) as a closed loop of
benchmark processes, one at a time: each process is one caller checking
its graphs in sequence. The loop starts processes until --seconds have
passed, and at least one (three when tracing), then checks every
process's output outside its timed region.

With --trace 0 it reports the end-to-end metrics, as medians over the
processes; set-up time also over extra processes that stop at their
first graph. Every end-to-end time is in reference seconds: a speed
probe runs every tenth of a second inside each process and once before and
after it, and each stretch of time is scaled by the speed its two
probes read (speed.py; README.md says why). With --trace 1 it
alternates traced and untraced processes and reports the per-layer
metrics of the traced ones, the tracing overhead, and whether the exact
counts repeat.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed import PROBE_S, START_S, interpreter_start, probe, scaled

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170  # every run ends within 180 s
SETUP_PROBES = 7
MIN_PLAIN, MIN_TRACED = 1, 3

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)


def launch(workload, work, trace, setup_only, deadline):
    """Run one child process; returns what the parent and the child measured."""
    for stale in ("result.json", "out.jsonl", "out.csv"):
        (work / stale).unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), workload.name, str(work), str(int(trace)), str(int(setup_only))]
    start = interpreter_start()
    before = probe()
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        timer.start()
        try:
            # wait4, not wait: it also returns the child's peak memory and CPU time
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    after = probe()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {
        "kind": "setup" if setup_only else ("traced" if trace else "plain"),
        "elapsed_s": t1 - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "exit": proc.returncode,
        "start_s": start,
        "problems": [],
    }
    try:
        child = json.loads((work / "result.json").read_text(encoding="ascii"))
    except (OSError, ValueError):
        child = None
    probes = [before] + [tuple(p) for p in (child or {}).get("probes", [])] + [after]
    rec["probe_ms"] = [(b - a) * 1000 for a, b in probes]
    # "ref": reference seconds, scaled by the probes; "raw": as measured
    for view, reference in (("ref", True), ("raw", False)):
        rec[view] = {"wall_s": scaled(t0, t1, probes, reference), "setup_s": None, "items_ms": []}
    if child is None or proc.returncode != 0:
        tail = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-400:]
        rec["problems"].append(f"process exited {proc.returncode}: {tail.strip()}")
        return rec
    rec["backend"] = child["backend"]
    imported, first = child["imported"], child["first_item"]
    if first is not None:
        # the start stretch counts at the speed interpreter_start() read,
        # the rest of set-up and the run at the speed the probes read
        started = scaled(t0, imported, probes, False)
        rec["ref"]["setup_s"] = started * START_S / start + scaled(imported, first, probes)
        rec["raw"]["setup_s"] = started + scaled(imported, first, probes, False)
        for view, reference in (("ref", True), ("raw", False)):
            rec[view]["wall_s"] = rec[view]["setup_s"] + scaled(first, t1, probes, reference)
    if setup_only:
        return rec
    for view, reference in (("ref", True), ("raw", False)):
        rec[view]["items_ms"] = [scaled(a, b, probes, reference) * 1000 for a, b in child["items"]]
    rec["layers"] = child.get("layers", {})
    try:
        problems, sha, refusals = workload.check(
            json.loads((work / "inputs.json").read_text(encoding="ascii")),
            str(work / "stdout.txt"),
            str(work / "out"),
        )
    except (OSError, ValueError, KeyError) as exc:
        problems, sha, refusals = [f"output unreadable: {exc!r}"], None, (0, 0)
    rec["problems"] += problems
    rec["sha256"] = sha
    rec["refused"], rec["requested"] = refusals
    if len(child["items"]) != workload.expected:
        rec["problems"].append(f"{len(child['items'])} items timed, expected {workload.expected}")
    return rec


def tail_percentile(samples, pct):
    """The pct-th percentile, or None with fewer than 10 samples beyond it."""
    if len(samples) * (100 - pct) / 100 < 10:
        return None
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def per_item_ms(runs, view="ref"):
    """Each graph's latency: its median over the processes, which check the same graphs."""
    return [statistics.median(times) for times in zip(*(r[view]["items_ms"] for r in runs))]


def end_to_end(full, setup_runs, view):
    """The end-to-end metrics, in reference ("ref") or measured ("raw") seconds."""
    setups = [r[view]["setup_s"] for r in full + setup_runs if r[view]["setup_s"] is not None]
    rates = [
        len(r[view]["items_ms"]) / (r[view]["wall_s"] - r[view]["setup_s"])
        for r in full
        if r[view]["setup_s"] is not None and r[view]["items_ms"]
    ]
    items = per_item_ms(full, view)
    if not (setups and rates and items):
        return None
    return {
        "wall_s": statistics.median(r[view]["wall_s"] for r in full),
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(rates),
        "item_ms_p50": statistics.median(items),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in full),
    }


def per_layer(traced, plain, problems, names):
    runs = [r["layers"] for r in traced if r.get("layers")]
    out = {}
    for name, unit in names:
        if name == "trace.overhead_s":
            continue
        values = [layers.get(name, 0) for layers in runs]
        if unit == "count":
            if len(set(values)) > 1:
                problems.append(f"count {name} differs between traced processes: {values}")
            out[name] = values[0] if values else 0
        else:
            out[name] = statistics.median(values) if values else 0.0
    out["trace.overhead_s"] = statistics.median(r["ref"]["wall_s"] for r in traced) - statistics.median(
        r["ref"]["wall_s"] for r in plain
    )
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20240815)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # a terminated run still stops its child process (see launch)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "superlocal" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from spans import PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = workload.make_inputs(args.seed, work)
    (work / "inputs.json").write_text(json.dumps(inputs), encoding="ascii")

    # warm-up: compiles bytecode and fills the file cache; not counted
    warm = launch(workload, work, False, True, deadline)
    setup_runs = [launch(workload, work, False, True, deadline) for _ in range(0 if args.trace else SETUP_PROBES)]
    full = []
    minimum = MIN_TRACED if args.trace else MIN_PLAIN
    loop_start = time.monotonic()
    while len(full) < minimum or time.monotonic() - loop_start < args.seconds:
        if full and time.monotonic() + full[-1]["elapsed_s"] > deadline:
            break
        # traced runs alternate: traced, untraced, traced, ...
        traced = bool(args.trace) and len(full) % 2 == 0
        full.append(launch(workload, work, traced, False, deadline))
        if full[-1]["problems"]:
            break
    problems = [p for r in [warm] + setup_runs + full for p in r["problems"]]
    if len(full) < minimum and not problems:
        problems.append(f"only {len(full)} processes fit in {DEADLINE_S} s")
    shas = {r.get("sha256") for r in full}
    if len(shas) > 1:
        problems.append(f"output differs between processes: {sorted(map(str, shas))}")
    failed_runs = sum(bool(r["problems"]) for r in full)
    attempted = workload.expected * len(full)
    failed = workload.expected * failed_runs
    refused = sum(r.get("refused", 0) for r in full)
    requested = sum(r.get("requested", 0) for r in full)

    plain = [r for r in full if r["kind"] == "plain"]
    traced_runs = [r for r in full if r["kind"] == "traced"]
    if args.trace:
        values = per_layer(traced_runs, plain, problems, PER_LAYER) if traced_runs and plain else None
        names = PER_LAYER
    else:
        values = end_to_end(full, setup_runs, "ref")
        measured = end_to_end(full, setup_runs, "raw")
        names = END_TO_END
    if values is None:
        problems.append("nothing was timed")
        metrics = {}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}

    items = per_item_ms(plain if args.trace else full)
    raw_items = per_item_ms(plain if args.trace else full, "raw")
    p98 = tail_percentile(items, 98) if items else None
    raw_p98 = tail_percentile(raw_items, 98) if raw_items else None
    probe_ms = statistics.median(ms for r in full for ms in r["probe_ms"]) if full else None
    backend = next((r["backend"] for r in full if "backend" in r), None)
    fingerprint = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backend,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "probe_ms": probe_ms,
        "cpu_over_wall": statistics.median(r["cpu_s"] / r["elapsed_s"] for r in full) if full else None,
    }

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(full)} processes in a closed loop, one caller, items in sequence")
    for name, m in metrics.items():
        as_measured = f" (measured {measured[name]:.6g})" if not args.trace and measured and name != "peak_rss_mb" else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{as_measured}")
    print(f"item samples {len(items)} graphs, each timed as its median over the processes; "
          + (f"item_ms_p98 {p98:.6g} ms (measured {raw_p98:.6g})" if p98 is not None
             else "item_ms_p98 not reported: fewer than 10 samples beyond it"))
    if probe_ms is not None:
        print(f"speed probe median {probe_ms:.6g} ms against {PROBE_S * 1000:.6g} ms at the reference speed")
    print(f"fail_frac {failed / attempted if attempted else 0:.6g} fraction ({failed}/{attempted} graphs)")
    print(f"refused_frac {refused / requested if requested else 0:.6g} fraction ({refused}/{requested} values)")
    print(f"output_sha256 {next(iter(shas)) if len(shas) == 1 else None}")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": fingerprint,
        "item_ms_p98": p98,
        "processes": [
            {k: r.get(k) for k in ("kind", "elapsed_s", "start_s", "cpu_s", "rss_mb", "exit", "sha256")}
            | {"wall_s": r["ref"]["wall_s"], "setup_s": r["ref"]["setup_s"], "items": len(r["ref"]["items_ms"]),
               "probes": len(r["probe_ms"]), "probe_ms_median": statistics.median(r["probe_ms"])}
            for r in setup_runs + full
        ],
        "problems": problems,
    }
    print(f"record {json.dumps(record, sort_keys=True)}")
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
