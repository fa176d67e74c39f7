"""prdyn benchmark: time to a verified solution, end to end and layer by layer.

Each workload runs as a closed loop: one client in one process, each
operation starting when the previous one has finished, for ``--seconds``
seconds. Every operation is checked against the equilibrium oracle and the
paper's bounds; one that raises, exits nonzero or fails its check counts as
failed. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

    python3 benchmarks/run.py --workload fisher-verify --seed 1 --seconds 36 --trace 0

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every market
twice, untraced and traced, and reports the per-layer metrics from spans the
benchmark puts around its own calls into prdyn, plus per-call kernel timings
taken after the ops; the spans go to ``.bench_out/spans-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 7
REFERENCE_CALLS = 3  # reference-kernel timings before each op and each set-up
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


def _use_checkout_source():
    """Import prdyn from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "prdyn", "__init__.py")):
        sys.exit(f"benchmark: no prdyn package under {SRC}")
    sys.path.insert(0, SRC)


def _check_imported_from_checkout():
    import prdyn

    if not os.path.abspath(prdyn.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"prdyn imported from {prdyn.__file__}, not from {SRC}")


def setup_once(spec: str, seed: int, market_dir: str) -> float:
    """One set-up in this fresh interpreter: import prdyn, then generate and
    validate the seeded markets (and write their files, for cli-e2e)."""
    start = time.perf_counter()
    import workloads

    workloads.setup(workloads.workload_from_json(spec), seed, market_dir)
    elapsed = time.perf_counter() - start
    _check_imported_from_checkout()
    return elapsed


def time_reference(into: list):
    import workloads

    for _ in range(REFERENCE_CALLS):
        start = time.perf_counter()
        workloads.reference_kernel()
        into.append(time.perf_counter() - start)


def measure_setup(wl, seed: int, run_dir: str, ref: list) -> float:
    """Median set-up time over SETUP_REPEATS fresh interpreters; the
    reference kernel is timed into ``ref`` before each."""
    import workloads

    times = []
    for k in range(SETUP_REPEATS):
        market_dir = os.path.join(run_dir, f"setup-{k}")
        os.makedirs(market_dir)
        time_reference(ref)
        argv = [sys.executable, os.path.abspath(__file__), "--seed", str(seed),
                "--setup-only", market_dir, "--spec", workloads.workload_to_json(wl)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child exited with code {done.returncode}: {done.stderr[-500:]}")
        times.append(float(done.stdout.split()[-1]))
        shutil.rmtree(market_dir)
    return statistics.median(times)


def tail(times: list):
    """Highest whole percentile, from 99 down to 50, whose nearest-rank value
    leaves at least TAIL_BEYOND samples above it. Returns (percentile, value,
    samples above). With fewer than 2 * TAIL_BEYOND samples it is the median
    and leaves fewer than TAIL_BEYOND above."""
    ordered = sorted(times)
    n = len(ordered)
    for q in range(99, 49, -1):
        rank = -(-q * n // 100)
        if n - rank >= TAIL_BEYOND:
            break
    return q, ordered[rank - 1], n - rank


def run_ops(wl, ctx, cases, seconds: float, tracer):
    """Closed loop over the pool until the next op would end after
    ``seconds``. With a tracer, each market runs untraced and traced, in
    alternating order."""
    import workloads
    from tracing import NullTracer

    op = workloads.OPS[wl.op]
    null = NullTracer()
    res = {"times": [], "kinds": [], "ref": [], "ok": 0, "failures": [], "counts": Counter(),
           "traced_s": 0.0, "untraced_s": 0.0, "child_rss_mb": 0.0, "finals": {}}
    start = time.perf_counter()
    i = 0
    while True:
        case = cases[i % len(cases)]
        plan = [null] if tracer is None else ([null, tracer] if i % 2 == 0 else [tracer, null])
        for tr in plan:
            op_id = len(res["times"])
            gc.collect()
            time_reference(res["ref"])
            t0 = time.perf_counter()
            try:
                with tr.span("op", op_id):
                    outcome = op(ctx, wl, case, tr, op_id)
            except Exception as exc:  # counted as a failed op and reported
                outcome = workloads.Outcome([f"{type(exc).__name__}: {exc}"])
            dt = time.perf_counter() - t0
            res["times"].append(dt)
            res["kinds"].append(case.kind.label)
            res["traced_s" if tr is tracer else "untraced_s"] += dt
            if tr is tracer:
                res["counts"].update(outcome.counts)
            res["child_rss_mb"] = max(res["child_rss_mb"], outcome.peak_rss_mb)
            if outcome.problems:
                res["failures"].append({"op": op_id, "market": case.index,
                                        "kind": case.kind.label, "problems": outcome.problems})
                continue
            res["ok"] += 1
            old = res["finals"].get(case.kind.label)
            res["finals"][case.kind.label] = outcome.final
            if wl.op == "cli" and old:
                shutil.rmtree(old[2], ignore_errors=True)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / i > seconds:
            break
    res["wall_s"] = time.perf_counter() - start
    return res


def end_to_end(wl, res, setup_s: float, setup_ref: list) -> tuple:
    """The timings are scaled to the reference speed: multiplied by
    REFERENCE_NOMINAL_S / (the run's median reference-kernel time). The
    unscaled wall-clock values go to the detail line."""
    import workloads

    q, tail_s, beyond = tail(res["times"])
    attempted = len(res["times"])
    reference_s = statistics.median(setup_ref + res["ref"])
    scale = workloads.REFERENCE_NOMINAL_S / reference_s
    op_wall_s = res["wall_s"] - sum(res["ref"])  # loop wall time less the reference calls
    wall = {
        "setup_s": setup_s,
        "ops_per_s": res["ok"] / op_wall_s,
        "op_s_p50": statistics.median(res["times"]),
        "op_s_tail": tail_s,
    }
    if wl.op == "cli":
        rss = res["child_rss_mb"]
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s * scale, "s"),
        "ops_per_s": (wall["ops_per_s"] / scale, "1/s"),
        "op_s_p50": (wall["op_s_p50"] * scale, "s"),
        "op_s_tail": (wall["op_s_tail"] * scale, "s"),
        "verified_ratio": (res["ok"] / attempted, "1"),
        "peak_rss_mb": (rss, "MB"),
    }
    by_kind: dict = {}
    for label, t in zip(res["kinds"], res["times"]):
        by_kind.setdefault(label, []).append(t)
    detail = {
        "op_s_tail": {"percentile": q, "samples": attempted, "samples_beyond": beyond},
        "reference_s": reference_s,
        "wall_clock": wall,
        "op_s_p50_by_kind": {label: statistics.median(t) for label, t in by_kind.items()},
    }
    return metrics, detail


def per_layer(res, tracer, kernels: dict) -> dict:
    layers = tracer.layers()
    counts = res["counts"]

    def busy(layer):
        return layers.get(layer, {}).get("self_s", 0.0)

    def share(layer):
        return layers.get(layer, {}).get("share", 0.0)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    def median_span(name):
        durations = tracer.durations(name)
        return statistics.median(durations) if durations else 0.0

    metrics = {
        "equilibrium.busy_s": (busy("equilibrium"), "s"),
        "equilibrium.share": (share("equilibrium"), "1"),
        "equilibrium.calls": (counts["equilibrium.calls"], "count"),
        "equilibrium.iterations": (counts["equilibrium.iterations"], "count"),
        "equilibrium.ms_per_iteration": (
            rate(1e3 * tracer.busy("equilibrium.solve_"), counts["equilibrium.iterations"]), "ms"),
        "equilibrium.unconverged": (counts["equilibrium.unconverged"], "count"),
        "demand.demand_us": (kernels.get("demand.demand_us", 0.0), "us"),
        "demand.corresponding_price_us": (kernels.get("demand.corresponding_price_us", 0.0), "us"),
        "utilities.bid_shares_us": (kernels.get("utilities.bid_shares_us", 0.0), "us"),
        "market.validate_us": (kernels.get("market.validate_us", 0.0), "us"),
        "trace.overhead_ratio": (rate(res["traced_s"], res["untraced_s"]), "1"),
    }
    for layer, step in (("fisher", "pr_step"), ("exchange", "lazy_step")):
        metrics[f"{layer}.busy_s"] = (busy(layer), "s")
        metrics[f"{layer}.share"] = (share(layer), "1")
        metrics[f"{layer}.steps"] = (counts[f"{layer}.steps"], "count")
        metrics[f"{layer}.steps_per_s"] = (rate(counts[f"{layer}.steps"], busy(layer)), "1/s")
        metrics[f"{layer}.{step}_us"] = (kernels.get(f"{layer}.{step}_us", 0.0), "us")
    metrics.update({
        "diagnostics.busy_s": (busy("diagnostics"), "s"),
        "diagnostics.share": (share("diagnostics"), "1"),
        "diagnostics.records": (counts["diagnostics.records"], "count"),
        "diagnostics.us_per_record": (rate(1e6 * busy("diagnostics"), counts["diagnostics.records"]), "us"),
        "diagnostics.failed": (counts["diagnostics.failed"], "count"),
        "cli.import_s": (kernels.get("cli.import_s", 0.0), "s"),
        "cli.run_s": (median_span("cli.run"), "s"),
        "cli.verify_s": (median_span("cli.verify"), "s"),
        "cli.load_market_s": (kernels.get("cli.load_market_s", 0.0), "s"),
        "cli.trace_write_s": (kernels.get("cli.trace_write_s", 0.0), "s"),
        "cli.trace_read_s": (kernels.get("cli.trace_read_s", 0.0), "s"),
        "cli.trace_bytes": (kernels.get("cli.trace_bytes", 0), "bytes"),
    })
    return metrics


def run_benchmark(wl, seed: int, seconds: float, traced: bool) -> tuple:
    """Run one workload; return (result object of the last output line, detail)."""
    import workloads
    from tracing import Tracer, environment

    _check_imported_from_checkout()
    run_dir = os.path.join(OUT, f"{wl.name}-seed{seed}-pid{os.getpid()}")
    os.makedirs(run_dir)
    try:
        ctx = workloads.Context(src=SRC, work_dir=run_dir)
        # This set-up also compiles the bytecode, so the timed ones find it.
        cases = workloads.setup(wl, seed, run_dir)
        tracer = Tracer() if traced else None
        setup_ref: list = []
        setup_s = None if traced else measure_setup(wl, seed, run_dir, setup_ref)
        res = run_ops(wl, ctx, cases, seconds, tracer)
        detail = {"workload": wl.name, "seed": seed, "failures": res["failures"]}
        if traced:
            kernels = workloads.kernel_timings(ctx, wl, list(res["finals"].values()))
            metrics = per_layer(res, tracer, kernels)
            env, layers = environment(ROOT, seed), tracer.layers()
            spans_path = os.path.join(OUT, f"spans-{wl.name}-seed{seed}.json")
            with open(spans_path, "w") as fh:
                json.dump({"env": env, "workload": wl.name, "layers": layers,
                           "spans": tracer.spans}, fh)
            detail.update(env=env, layers=layers, spans=os.path.relpath(spans_path, ROOT))
        else:
            metrics, extra = end_to_end(wl, res, setup_s, setup_ref)
            detail.update(extra)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = len(res["times"])
    failed = len(res["failures"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="fisher-verify, exchange-long or cli-e2e")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="time one set-up in DIR, print the seconds and exit (used internally)")
    parser.add_argument("--spec", help="workload as JSON, with --setup-only")
    args = parser.parse_args(argv)
    _use_checkout_source()
    if args.setup_only:
        print(setup_once(args.spec, args.seed, args.setup_only))
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result, detail = run_benchmark(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    for f in detail["failures"]:
        print(f"FAILED op {f['op']} (market {f['market']}, {f['kind']}): {'; '.join(f['problems'])}",
              file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
