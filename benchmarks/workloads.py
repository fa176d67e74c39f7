"""The benchmark's workloads: seeded markets, one operation per workload with
its correctness gate, and the per-call kernel timings of the traced run.

The program is reached only through names exported by ``prdyn``, through
``prdyn.cli.{main, load_market, write_market, read_trace, write_trace}`` and
through ``python -m prdyn.cli``, so refactors behind those names are measured
without editing this file. ``run --batch`` is left out because its exchange
path drops the markets' laziness.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

import prdyn
import prdyn.cli

FAMILIES = ("cobb_douglas", "ces", "separable_power")

# Correctness bounds, the same as the acceptance criteria in
# tests/test_acceptance.py (1, 2, 3, 9 and 10).
PRICE_ERR = 1e-6
ALLOC_ERR = 1e-5
SLACK = 1e-9
DRIFT = 1e-10
VERIFY_TOL = 1e-4

ORACLE_TOL = 1e-10
RUN_PRICE_TOL = 1e-10
MAX_ITERS = 20000
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Kind:
    """One market shape of a workload's rotation. ``family`` is one of
    FAMILIES, or ``mixed``: a per-buyer shuffle of the three families in equal
    numbers."""

    mode: str
    family: str
    n: int
    m: int

    @property
    def label(self) -> str:
        return f"{self.mode}-{self.family}-{self.n}x{self.m}"


@dataclass(frozen=True)
class Workload:
    """Operation ``op`` applied in turn to a pool of ``pool`` seeded markets,
    whose shapes cycle through ``kinds``. ``steps`` is the exchange run length."""

    name: str
    op: str
    kinds: tuple
    pool: int
    steps: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # The rotation puts one CES, one separable-power and one mixed market
        # in every three ops; the mixed ones sit between the other two in op
        # time, so the median op stays inside one kind of market.
        Workload(
            "fisher-verify",
            "fisher",
            (
                Kind("fisher", "ces", 40, 40),
                Kind("fisher", "separable_power", 40, 40),
                Kind("fisher", "mixed", 40, 40),
            ),
            pool=90,
        ),
        # Two 8x12 markets per 4x6 one keep the median op inside the 8x12 kind.
        Workload(
            "exchange-long",
            "exchange",
            (
                Kind("exchange", "mixed", 4, 6),
                Kind("exchange", "mixed", 8, 12),
                Kind("exchange", "mixed", 8, 12),
            ),
            pool=15,
            steps=20000,
        ),
        Workload(
            "cli-e2e",
            "cli",
            (
                Kind("fisher", "ces", 60, 60),
                Kind("fisher", "separable_power", 40, 40),
                Kind("exchange", "mixed", 30, 40),
            ),
            pool=15,
        ),
    )
}


def workload_to_json(wl: Workload) -> str:
    return json.dumps(asdict(wl))


def workload_from_json(text: str) -> Workload:
    doc = json.loads(text)
    return Workload(**{**doc, "kinds": tuple(Kind(**k) for k in doc["kinds"])})


@dataclass
class Case:
    index: int
    kind: Kind
    market: prdyn.MarketSpec
    path: str | None = None  # market file, cli-e2e only


@dataclass
class Context:
    src: str  # directory that holds the prdyn package
    work_dir: str  # scratch directory of this run

    def child_env(self) -> dict:
        return dict(os.environ, PYTHONPATH=self.src)


@dataclass
class Outcome:
    problems: list  # violated gate conditions; empty when the op is verified
    counts: dict = field(default_factory=dict)
    final: tuple = ()  # what the kernel timings and cleanup need
    peak_rss_mb: float = 0.0  # largest child, cli-e2e only


# ---------------------------------------------------------------------------
# seeded markets
# ---------------------------------------------------------------------------

def _utility(family: str, m: int, rng):
    w = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=m))
    if family == "cobb_douglas":
        return prdyn.CobbDouglas(w)
    if family == "ces":
        return prdyn.CES(w, rho=float(rng.uniform(0.2, 0.8)))
    return prdyn.SeparablePower(w, rng.uniform(0.2, 0.8, size=m))


def make_market(kind: Kind, rng) -> prdyn.MarketSpec:
    n, m = kind.n, kind.m
    if kind.family == "mixed":
        families = [FAMILIES[i % len(FAMILIES)] for i in range(n)]
        rng.shuffle(families)
    else:
        families = [kind.family] * n
    utilities = tuple(_utility(f, m, rng) for f in families)
    if kind.mode == "fisher":
        spec = prdyn.MarketSpec(
            n, m, utilities, prdyn.Mode.FISHER, budgets=rng.uniform(0.5, 2.0, size=n)
        )
    else:
        # every agent owns at least one good; the rest are assigned at random
        goods = rng.permutation(m)
        owner = np.empty(m, dtype=int)
        owner[goods[:n]] = np.arange(n)
        owner[goods[n:]] = rng.integers(0, n, size=m - n)
        endow = tuple(tuple(int(j) for j in np.flatnonzero(owner == i)) for i in range(n))
        spec = prdyn.MarketSpec(
            n, m, utilities, prdyn.Mode.EXCHANGE,
            endowments=endow, laziness=rng.uniform(0.3, 0.7, size=n),
        )
    return prdyn.validate_market(spec)


def setup(wl: Workload, seed: int, market_dir: str) -> list:
    """Generate and validate the workload's pool; cli-e2e also writes each
    market to a file. Market i depends only on (seed, i)."""
    cases = []
    for i in range(wl.pool):
        kind = wl.kinds[i % len(wl.kinds)]
        case = Case(i, kind, make_market(kind, np.random.default_rng([seed, i])))
        if wl.op == "cli":
            case.path = os.path.join(market_dir, f"market-{i:03d}.json")
            prdyn.cli.write_market(case.market, case.path)
        cases.append(case)
    return cases


# ---------------------------------------------------------------------------
# operations and their gates
# ---------------------------------------------------------------------------

def _max_err(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def fisher_gate(eq, last, report) -> list:
    problems = []
    if not eq.converged:
        problems.append("oracle did not converge")
    err = _max_err(last.prices, eq.p_star)
    if not err <= PRICE_ERR:
        problems.append(f"price error {err:.3e} > {PRICE_ERR}")
    err = _max_err(last.allocation, eq.x_star)
    if not err <= ALLOC_ERR:
        problems.append(f"allocation error {err:.3e} > {ALLOC_ERR}")
    if not report.passed:
        problems.append(f"diagnose_fisher failed at slack {SLACK}")
    return problems


def fisher_op(ctx: Context, wl: Workload, case: Case, tr, op_id: int) -> Outcome:
    market = case.market
    with tr.span("equilibrium.solve_fisher_eq", op_id):
        eq = prdyn.solve_fisher_eq(market, tol=ORACLE_TOL)
    with tr.span("fisher.run_fisher", op_id):
        trace = prdyn.run_fisher(
            market, prdyn.default_initial_bids(market), prdyn.StopRule(MAX_ITERS, RUN_PRICE_TOL)
        )
    with tr.span("diagnostics.diagnose_fisher", op_id):
        report = prdyn.diagnose_fisher(trace, market, eq, slack=SLACK)
    last = trace.records[-1]
    return Outcome(
        problems=fisher_gate(eq, last, report),
        counts={
            "equilibrium.calls": 1,
            "equilibrium.iterations": eq.iterations,
            "equilibrium.unconverged": int(not eq.converged),
            "fisher.steps": trace.n_steps,
            "diagnostics.records": len(trace.records),
            "diagnostics.failed": int(not report.passed),
        },
        final=(market, eq.p_star, eq.x_star, last),
    )


def exchange_op(ctx: Context, wl: Workload, case: Case, tr, op_id: int) -> Outcome:
    market = case.market
    with tr.span("exchange.run_exchange", op_id):
        trace = prdyn.run_exchange(
            market,
            prdyn.default_initial_exchange(market),
            prdyn.StopRule(max_iters=wl.steps, price_tol=0.0),
            record_every=1,
        )
    with tr.span("equilibrium.solve_exchange_eq", op_id):
        eq = prdyn.solve_exchange_eq(market, tol=ORACLE_TOL)
    with tr.span("equilibrium.transform_exchange_equilibrium", op_id):
        transformed = prdyn.transform_exchange_equilibrium(market, eq)
    with tr.span("diagnostics.check_exchange_potential_decrease", op_id):
        report = prdyn.check_exchange_potential_decrease(
            trace, transformed, market.laziness, slack=SLACK
        )
    last = trace.records[-1]
    with tr.span("equilibrium.verify_exchange_equilibrium", op_id):
        verdict = prdyn.verify_exchange_equilibrium(
            market, last.allocation, eq.p_star, tol=VERIFY_TOL
        )
    problems = []
    if trace.n_steps != wl.steps:
        problems.append(f"ran {trace.n_steps} steps, expected {wl.steps}")
    if not trace.budget_drift <= DRIFT:
        problems.append(f"budget drift {trace.budget_drift:.3e} > {DRIFT}")
    if report.monotone_violations:
        problems.append(f"{len(report.monotone_violations)} potential violations")
    if not eq.converged:
        problems.append("oracle did not converge")
    if not verdict.passed:
        problems.append(f"verify_exchange_equilibrium failed at tol {VERIFY_TOL}")
    return Outcome(
        problems=problems,
        counts={
            "equilibrium.calls": 1,
            "equilibrium.iterations": eq.iterations,
            "equilibrium.unconverged": int(not eq.converged),
            "exchange.steps": trace.n_steps,
            "diagnostics.records": len(trace.records),
            "diagnostics.failed": int(not report.passed),
        },
        final=(market, eq.p_star, eq.x_star, last),
    )


def run_child(argv: list, ctx: Context, log_path: str):
    """Run a child interpreter to completion; return (exit code, peak RSS in MB).

    The child's own resource usage comes from wait4, so the peak is that of
    this child alone. A child still running after CHILD_TIMEOUT_S is killed."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=log, stderr=subprocess.STDOUT, env=ctx.child_env()
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, usage.ru_maxrss / 1024.0


def _cli_problems(step: str, code: int, out_dir: str, log_path: str) -> list:
    if code != 0:
        with open(log_path, errors="replace") as fh:
            tail = fh.read()[-300:].strip()
        return [f"{step} exited with code {code}: {tail}"]
    try:
        with open(os.path.join(out_dir, "diagnostics.json")) as fh:
            passed = json.load(fh)["passed"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{step}: unreadable diagnostics.json ({exc})"]
    return [] if passed is True else [f"{step}: diagnostics.json says passed={passed}"]


def cli_op(ctx: Context, wl: Workload, case: Case, tr, op_id: int) -> Outcome:
    out = os.path.join(ctx.work_dir, f"op-{op_id:04d}")
    run_dir, verify_dir = os.path.join(out, "run"), os.path.join(out, "verify")
    os.makedirs(out)
    cli = ["-m", "prdyn.cli"]
    run_log, verify_log = os.path.join(out, "run.log"), os.path.join(out, "verify.log")
    trace_csv = os.path.join(run_dir, "trace.csv")
    with tr.span("cli.run", op_id):
        run_code, run_rss = run_child(
            cli + ["run", "--market", case.path, "--diagnostics", "--full-dump", "--out", run_dir],
            ctx, run_log,
        )
    problems = _cli_problems("run", run_code, run_dir, run_log)
    verify_rss = 0.0
    if run_code == 0:
        with tr.span("cli.verify", op_id):
            verify_code, verify_rss = run_child(
                cli + ["verify", "--market", case.path, "--trace", trace_csv, "--out", verify_dir],
                ctx, verify_log,
            )
        problems += _cli_problems("verify", verify_code, verify_dir, verify_log)
    return Outcome(
        problems=problems,
        counts={"diagnostics.failed": int(bool(problems))},
        final=(case.path, trace_csv, out),
        peak_rss_mb=max(run_rss, verify_rss),
    )


OPS = {"fisher": fisher_op, "exchange": exchange_op, "cli": cli_op}


# ---------------------------------------------------------------------------
# machine-speed reference
# ---------------------------------------------------------------------------

REFERENCE_NOMINAL_S = 0.005
_REF_A = np.linspace(0.5, 2.0, 320).reshape(8, 40)


def reference_kernel() -> float:
    """Fixed work of the same sort as the ops (Python-level loops over
    small-array numpy calls) that shares no code with prdyn. On the 2-vCPU
    machine this benchmark was built on, the same op ran up to 1.7x slower
    in one 36 s window than in the next, and this kernel slowed with it; its
    median time over a run is the run's speed reference."""
    acc = 0.0
    for _ in range(300):
        s = _REF_A / _REF_A.sum(axis=0)
        t = s ** 0.5
        acc += float((t / t.sum(axis=1, keepdims=True)).max())
        for v in range(20):
            acc += v * 0.5
    return acc


# ---------------------------------------------------------------------------
# per-call kernel timings, after the ops and outside their spans
# ---------------------------------------------------------------------------

def _median_s(calls: list, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        for fn in calls:
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def _incomes(market, p) -> np.ndarray:
    if market.mode is prdyn.Mode.FISHER:
        return market.budgets
    return np.array([p[list(goods)].sum() for goods in market.endowments])


def kernel_calls(market, p_star, x_star, last) -> dict:
    """Calls on one final state: the market, its reference equilibrium
    (p*, x*) and the last trace record."""
    e = _incomes(market, p_star)
    us = list(enumerate(market.utilities))
    calls = {
        "market.validate_us": [partial(prdyn.validate_market, market)],
        "utilities.bid_shares_us": [partial(prdyn.bid_shares, u, last.allocation[i]) for i, u in us],
        "demand.demand_us": [partial(prdyn.demand, u, p_star, e[i]) for i, u in us],
        "demand.corresponding_price_us": [
            partial(prdyn.corresponding_price, u, x_star[i], e[i]) for i, u in us
        ],
    }
    if market.mode is prdyn.Mode.FISHER:
        calls["fisher.pr_step_us"] = [partial(prdyn.pr_step, market, prdyn.FisherState(last.bids))]
    else:
        state = prdyn.ExchangeState(last.budgets_B, last.spend_e, last.bids)
        calls["exchange.lazy_step_us"] = [partial(prdyn.lazy_step, market, state)]
    return calls


def _read_back(final: tuple, io: dict) -> tuple:
    """Load a cli-e2e op's market and trace through prdyn.cli, timing the
    file layer, and return its final state. The run stopped at a price change
    below 1e-10, so its last prices and allocation stand in for (p*, x*)."""
    market_path, trace_csv, out = final
    start = time.perf_counter()
    market = prdyn.cli.load_market(market_path)
    io["cli.load_market_s"].append(time.perf_counter() - start)
    start = time.perf_counter()
    trace = prdyn.cli.read_trace(trace_csv, market)
    io["cli.trace_read_s"].append(time.perf_counter() - start)
    start = time.perf_counter()
    prdyn.cli.write_trace(trace, market, os.path.join(out, "trace-rewritten.csv"), full_dump=True)
    io["cli.trace_write_s"].append(time.perf_counter() - start)
    io["cli.trace_bytes"].append(os.path.getsize(trace_csv))
    last = trace.records[-1]
    return market, last.prices, last.allocation, last


def _import_s(ctx: Context, repeats: int = 3) -> float:
    times = []
    for k in range(repeats):
        start = time.perf_counter()
        code, _ = run_child(["-c", "import prdyn.cli"], ctx, os.path.join(ctx.work_dir, f"import-{k}.log"))
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"python -c 'import prdyn.cli' exited with code {code}")
    return statistics.median(times)


def kernel_timings(ctx: Context, wl: Workload, finals: list, repeats: int = 5) -> dict:
    """Median per-call time of each kernel over the workload's final states,
    one per market kind; for cli-e2e also the file and import timings."""
    metrics = {}
    if wl.op == "cli":
        io = {"cli.load_market_s": [], "cli.trace_read_s": [], "cli.trace_write_s": [],
              "cli.trace_bytes": []}
        finals = [_read_back(final, io) for final in finals]
        metrics.update({name: statistics.mean(v) for name, v in io.items() if v})
        metrics["cli.import_s"] = _import_s(ctx)
    calls: dict = {}
    for final in finals:
        for name, fns in kernel_calls(*final).items():
            calls.setdefault(name, []).extend(fns)
    for name, fns in calls.items():
        metrics[name] = 1e6 * _median_s(fns, repeats)
    return metrics
