"""Closed-loop benchmark of starlog's verified star-logarithms.

Run from the repository root:

    python3 perfbench/run.py --workload routes-128 --seed 1 --seconds 35 --trace 0

One client in one process sends the next op only after the previous one has
returned; numpy and BLAS run on one thread.  The workload is built from the
seed (set-up), then its ops are cycled for ``--seconds``; the set-up is
timed again after every op and reported as the median.  Every op's output
is checked; a failed op counts in ``failed`` and its time counts against
``ops_per_s``.

``--trace 0`` reports the end-to-end metrics.  Their times are reference
seconds (see hostspeed.py): each op and set-up is timed with a fixed
calibration chunk sampled while it runs, and scaled to a host of fixed speed,
so that a shared host's speed swings do not swamp the program's.  The wall
times are printed next to them.  ``--trace 1`` runs each input twice,
untraced and then with every layer wrapped (see tracing.py), and reports the
per-layer metrics in wall seconds, including the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the per-route medians, sample counts, ``failed_frac`` and the
environment; a fuller record goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import bootstrap

N_SETUPS = 7  # traced set-ups per traced run
OUT_DIR = bootstrap.ROOT / ".perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed_build(workload, seed, probe=None):
    """(set-up, wall seconds it took, reference seconds or None)."""
    if probe is not None:
        return probe.call(lambda: workload.build(seed))
    start = time.perf_counter()
    setup = workload.build(seed)
    return setup, time.perf_counter() - start, None


def run_op(op, tracer=None, probe=None):
    """(wall seconds spent in the call, reference seconds or None, failure
    text or None); the call alone is timed, traced when a tracer is given
    and sampled for host speed when a probe is given."""

    def attempt():
        try:
            return op.call(), None
        except Exception:  # a raising op is a failed op; the loop goes on
            return None, traceback.format_exc(limit=3)

    if tracer is not None:
        tracer.install()
    try:
        if probe is not None:
            (result, failure), elapsed, ref = probe.call(attempt)
        else:
            start = time.perf_counter()
            result, failure = attempt()
            elapsed, ref = time.perf_counter() - start, None
    finally:
        if tracer is not None:
            tracer.uninstall()
    if failure is None:
        try:
            failure = op.check(result)
        except Exception:
            failure = traceback.format_exc(limit=3)
    return elapsed, ref, failure


def closed_loop(workload, seed, seconds, probe):
    """Cycle the ops until ``seconds`` have passed; returns rows of
    (input, label, seconds, reference seconds, failure) and the set-up times
    as (seconds, reference seconds).  The set-up is timed again after every
    op, so its samples span the run like the ops do."""
    setup, *first = timed_build(workload, seed, probe)
    ops, setup_times, rows = setup.ops, [first], []
    deadline = time.perf_counter() + seconds
    while not rows or time.perf_counter() < deadline:
        i = len(rows) % len(ops)
        rows.append((i, ops[i].label, *run_op(ops[i], probe=probe)))
        setup_times.append(timed_build(workload, seed, probe)[1:])
    return rows, setup_times


def traced_loop(ops, seconds, tracer):
    """Each input untraced, then traced, until ``seconds`` have passed and
    every input has been traced once; returns (untraced rows, traced rows)."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < len(ops) or time.perf_counter() < deadline:
        i = len(traced) % len(ops)
        plain.append((i, ops[i].label, *run_op(ops[i])))
        tracer.op = len(traced)
        traced.append((i, ops[i].label, *run_op(ops[i], tracer)))
    return plain, traced


def timing(rows, column=2):
    """Median, p90, count and throughput of the verified ops among ``rows``,
    in wall seconds (column 2) or reference seconds (column 3)."""
    import numpy as np  # only after bootstrap.prepare() has pinned its threads

    ok = [row[column] for row in rows if row[4] is None]
    return {
        "p50": float(np.percentile(ok, 50)) if ok else None,
        "p90": float(np.percentile(ok, 90)) if ok else None,
        "n": len(ok),
        "ops_per_s": len(ok) / sum(row[column] for row in rows),
    }


def summary_lines(name, rows, labels, setup_times, env):
    failures = [row[4] for row in rows if row[4] is not None]
    lines = [f"workload {name}: {len(rows)} ops, failed_frac {len(failures)}/{len(rows)}"]
    columns = ((2, "wall s"), (3, "ref s")) if rows[0][3] is not None else ((2, "wall s"),)
    for column, unit in columns:
        for label in ("",) + (labels if len(labels) > 1 else ()):
            t = timing([row for row in rows if row[1] == label or not label], column)
            key = f"op_s.{label}." if label else "op_s."
            lines.append(
                f"  [{unit}] {key}p50 {t['p50']:.6g}  {key}p90 {t['p90']:.6g}  "
                f"(n={t['n']})  ops_per_s {t['ops_per_s']:.6g}"
            )
        if column - 2 < len(setup_times[0]):
            median = statistics.median(times[column - 2] for times in setup_times)
            lines.append(f"  [{unit}] setup_s {median:.6g} (median of {len(setup_times)})")
    if failures:
        lines.append(f"  first failure: {failures[0].strip()}")
    lines.append("  env " + json.dumps(env, sort_keys=True))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.prepare()
    except bootstrap.MissingSources as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    import hostspeed
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = bootstrap.describe(args.seed)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            setup_times = [timed_build(workload, args.seed)[1:2] for _ in range(N_SETUPS)]
        finally:
            tracer.uninstall()
        setup = workload.build(args.seed)
        plain, traced = traced_loop(setup.ops, args.seconds, tracer)
        rows = plain + traced
        values = tracing.layer_metrics(tracer, N_SETUPS, len(setup.ops), len(traced))
        values["domain.nodes"] = setup.nodes
        untraced_p50 = values["op_s.untraced.p50"] = timing(plain)["p50"]
        traced_p50 = values["op_s.traced.p50"] = timing(traced)["p50"]
        values["trace.overhead_frac"] = (
            traced_p50 / untraced_p50 - 1.0 if untraced_p50 and traced_p50 else None
        )
    else:
        rows, setup_times = closed_loop(workload, args.seed, args.seconds, hostspeed.Probe())
        values = {
            "ops_per_s": timing(rows, 3)["ops_per_s"],
            "setup_s": statistics.median(ref for _, ref in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    declared = bootstrap.benchmark()["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    failed = sum(1 for row in rows if row[4] is not None)
    result = {
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": metrics,
    }
    lines = summary_lines(workload.name, rows, workload.labels, setup_times, env)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=workload.name, env=env, summary=lines,
                  setup_times=setup_times, ops=[list(row) for row in rows])
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.dump(OUT_DIR / f"{stem}-spans.json", set(range(len(setup.ops))))

    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
