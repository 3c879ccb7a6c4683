"""Run one benchmark workload against the program in ./src.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 1 --trace 0

Run from the root of a checkout.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it runs a fixed op list under the layer tracer
and prints the per-layer metrics.  Every answer is checked.  The last
line of standard output is one JSON object (correct, attempted, failed,
metrics); a fuller record, spans included, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 9
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402


class Outcome:
    """One op: its latency and `ok`, `wrong` or `error` with a type."""

    def __init__(self, name, seconds, status, kind="", detail="", start=0.0):
        self.name = name
        self.start = start
        self.seconds = seconds
        self.status = status
        self.kind = kind
        self.detail = detail

    def as_dict(self):
        return {"op": self.name, "s": self.seconds, "status": self.status,
                "kind": self.kind, "detail": self.detail[:300]}


def run_op(op, call=None):
    """Time op.fn (through `call` when given) and type its outcome."""
    t = time.perf_counter()
    try:
        problems = call(op.fn) if call else op.fn()
    except Exception as exc:  # noqa: BLE001 - every failure is recorded
        return Outcome(op.name, time.perf_counter() - t, "error",
                       type(exc).__name__, str(exc), t)
    dt = time.perf_counter() - t
    if problems:
        return Outcome(op.name, dt, "wrong", "check", "; ".join(problems), t)
    return Outcome(op.name, dt, "ok", start=t)


def load_program():
    """Import singlocus from ./src; exit 2 when it is not there."""
    src = ROOT / "src"
    pkg = src / "singlocus"
    if not (pkg / "__init__.py").is_file():
        print(f"perfbench: no program source at {pkg}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    import singlocus
    import singlocus.corpus  # noqa: F401 - the corpus workload's layer
    elapsed = time.perf_counter() - t
    if Path(singlocus.__file__).resolve().parent != pkg.resolve():
        print(f"perfbench: imported singlocus from {singlocus.__file__}, "
              f"not {pkg}", file=sys.stderr)
        raise SystemExit(2)
    return singlocus, elapsed


def git_revision():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def decile(values, k):
    """The k-th decile, interpolated between the sorted values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def setup(sl, cls, seed, reps):
    """Make inputs and run the warm-up ops `reps` times.

    Returns the last workload, its op cycle, the warm-up outcomes and the
    time of each repetition.
    """
    times, warm = [], []
    for _ in range(reps):
        t = time.perf_counter()
        wl = cls(sl, seed)
        ops = wl.cycle()
        warm = [run_op(op) for op in wl.warmup()]
        times.append(time.perf_counter() - t)
    return wl, ops, warm, times


def timed_phase(ops):
    """Run one cycle of ops: a run measures a fixed amount of work.
    `--seconds` is accepted and not used; every cycle takes longer than
    the 1 s that BENCHMARK.json sets."""
    t0 = time.perf_counter()
    outcomes = [run_op(op) for op in ops]
    return outcomes, time.perf_counter() - t0


def _unit(start=None, end=None):
    return 1.0


def end_to_end(outcomes, wall, setup, slowdown=_unit):
    """The end-to-end metrics; `setup` is (seconds, start, end).

    A failed op gets the whole timed wall time as its latency, which sorts
    it above every success.  Times are divided by `slowdown`: each op's
    latency and the set-up time by the slowdown sampled around them, the
    rate by the run's.
    """
    ok = sum(o.status == "ok" for o in outcomes)
    run = slowdown()
    setup_s, setup_start, setup_end = setup
    lat = sorted(o.seconds / slowdown(o.start, o.start + o.seconds)
                 if o.status == "ok" else wall / run
                 for o in outcomes)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (ok / wall * run, "1/s"),
        "op_p50_s": (decile(lat, 5), "s"),
        "op_p90_s": (decile(lat, 9), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "setup_s": (setup_s / slowdown(setup_start, setup_end), "s"),
    }


# Per-layer metric -> (summary field, span name or counter, unit).
LAYER_METRICS = {
    "groebner.intersect.calls": ("calls", "groebner.intersect", "count"),
    "groebner.intersect.busy_s": ("busy", "groebner.intersect", "s"),
    "groebner.saturate.busy_s": ("busy", "groebner.saturate", "s"),
    "groebner.gb.calls": ("calls", "groebner.gb", "count"),
    "groebner.gb.busy_s": ("busy", "groebner.gb", "s"),
    "groebner.gb.basis_terms": ("counts", "groebner.gb.basis_terms", "count"),
    "groebner.nf.calls": ("calls", "groebner.nf", "count"),
    "groebner.nf.busy_s": ("busy", "groebner.nf", "s"),
    "homology.resolution.calls": ("calls", "homology.resolution", "count"),
    "homology.resolution.busy_s": ("busy", "homology.resolution", "s"),
    "homology.resolution.failed": ("failed", "homology.resolution", "count"),
    "homology.hilbert.busy_s": ("busy", "homology.hilbert", "s"),
    "homology.rao.self_s": ("self", "homology.rao", "s"),
    "homology.betti_total": ("counts", "homology.betti_total", "count"),
    "linalg.calls": ("calls", "linalg", "count"),
    "linalg.busy_s": ("busy", "linalg", "s"),
    "arrangement.flats.busy_s": ("busy", "arrangement.flats", "s"),
    "arrangement.jacobian.self_s": ("self", "arrangement.jacobian", "s"),
    "arrangement.top_comb.self_s": ("self", "arrangement.top_comb", "s"),
    "arrangement.radical_comb.self_s": ("self", "arrangement.radical_comb",
                                        "s"),
    "polyring.parse.busy_s": ("busy", "polyring.parse", "s"),
    "polyring.expand.busy_s": ("busy", "polyring.expand", "s"),
    "liaison.construct.self_s": ("self", "liaison.construct", "s"),
    "liaison.verify.self_s": ("self", "liaison.verify", "s"),
    **{f"corpus.{e}.busy_s": ("busy", f"corpus.{e}", "s")
       for e in workloads.CORPUS_ENTRIES},
    **{f"{layer}.self_s": ("layer_self", layer, "s")
       for layer in layertrace.LAYERS},
}


def per_layer(summary, call_cost):
    """The per-layer metrics.  The tracing overhead is the wrapper cost of
    every wrapped call against the traced op time less that cost."""
    m = {name: (summary[field].get(key, 0), unit)
         for name, (field, key, unit) in LAYER_METRICS.items()}
    hits = summary["hits"].get("groebner.gb", 0)
    calls = summary["calls"].get("groebner.gb", 0)
    m["groebner.gb.cache_hit_ratio"] = (
        hits / (hits + calls) if hits + calls else 0.0, "ratio")
    m["trace.op_s"] = (summary["op_total"], "s")
    m["trace.coverage"] = (summary["coverage"], "ratio")
    added = call_cost * summary["wrapped_calls"]
    untraced = summary["op_total"] - added
    m["trace.overhead_frac"] = (added / untraced if untraced > 0 else 0.0,
                                "ratio")
    return m


def traced_phase(wl, ops):
    """The fixed op list of a traced run, under a fresh tracer."""
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        outcomes = [run_op(op, lambda fn, k=k: tracer.run_op(k, fn))
                    for k, op in enumerate(ops)]
    finally:
        tracer.uninstall()
    return outcomes, tracer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cls = workloads.WORKLOADS[args.workload]

    # The speed probe samples untraced runs only, so that no span holds
    # its kernel.
    with contextlib.nullcontext() if args.trace else probe.SpeedProbe() as speed:
        setup_start = time.perf_counter()
        sl, import_s = load_program()
        wl, ops, warm, setup_times = setup(sl, cls, args.seed, SETUP_REPS)
        setup_end = time.perf_counter()
        if args.trace:
            outcomes, tracer = traced_phase(wl, ops)
        else:
            outcomes, wall = timed_phase(ops)

    if args.trace:
        summary = layertrace.layer_metrics(tracer.spans, tracer.hits,
                                            tracer.counts)
        metrics = per_layer(summary, layertrace.wrapper_cost())
        unscaled, spans = {}, tracer.spans
    else:
        setup_s = (import_s + statistics.median(setup_times), setup_start,
                   setup_end)
        unscaled = end_to_end(outcomes, wall, setup_s)
        metrics = end_to_end(outcomes, wall, setup_s, speed.slowdown)
        unscaled["slowdown"] = (speed.slowdown(), "ratio")
        unscaled["slowdown_samples"] = (len(speed.samples), "count")
        spans = None
    report(args, wl, outcomes, warm, metrics, unscaled, spans, import_s,
           setup_times)


def result(outcomes, warm, metrics):
    """The final JSON line.  A wrong answer anywhere, warm-up included,
    makes the run incorrect; `failed` counts errors and wrong answers."""
    wrong = [o for o in warm + outcomes if o.status == "wrong"]
    failed = [o for o in outcomes if o.status != "ok"]
    return {
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def report(args, wl, outcomes, warm, metrics, unscaled, spans, import_s,
           setup_times):
    """Write the run's record and print the metrics and the result line."""
    line = result(outcomes, warm, metrics)
    attempted = len(outcomes)
    by_type = {}
    for o in outcomes:
        if o.status == "error":
            by_type[o.kind] = by_type.get(o.kind, 0) + 1
    wrong = [o for o in warm + outcomes if o.status == "wrong"]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "ops": attempted, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_rev": git_revision(),
        "failed_frac": line["failed"] / attempted,
        "wrong_frac": sum(o.status == "wrong" for o in outcomes) / attempted,
        "errors_by_type": by_type,
        "import_s": import_s, "setup_reps_s": setup_times,
        "metrics": line["metrics"],
        "unscaled": {k: {"value": v, "unit": u}
                     for k, (v, u) in unscaled.items()},
        "outcomes": [o.as_dict() for o in warm + outcomes],
        "workload_inputs": wl.describe(),
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")

    print(f"workload {args.workload} seed {args.seed} ops {attempted} "
          f"python {record['python']} nproc {record['nproc']} "
          f"rev {record['git_rev'][:12]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    for name, (value, unit) in unscaled.items():
        print(f"  {'unscaled ' + name:36s} {value:.6g} {unit}")
    print(f"  {'failed_frac':36s} {record['failed_frac']:.6g} ratio")
    print(f"  {'wrong_frac':36s} {record['wrong_frac']:.6g} ratio")
    for kind, n in sorted(by_type.items()):
        print(f"  error {kind}: {n}")
    for o in wrong:
        print(f"  WRONG {o.name}: {o.detail[:200]}")
    print(json.dumps(line))


if __name__ == "__main__":
    main()
