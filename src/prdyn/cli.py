"""Command-line surface: gen | solve | run | verify.

Market configs are JSON; traces are CSV (prices and potentials per recorded
iteration, the bids and bank balances behind --full-dump); summaries and
diagnostics are JSON. All floats are serialized with shortest round-trip
rendering, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import equilibrium as eqmod
from .diagnostics import check_exchange_potential_decrease, diagnose_fisher
from .dynamics import (
    StopRule,
    default_initial_bids,
    default_initial_exchange,
    run_exchange,
    run_fisher,
)
from .errors import InvalidRunControl, NonPositiveEntry, ParseError, PrdynError
from .market import DynamicsTrace, ExchangeState, MarketSpec, Mode, validate_market
from .utilities import CES, CobbDouglas, SeparablePower

log = logging.getLogger("prdyn")

_FAMILIES = ("cobb_douglas", "ces", "separable_power")


# ---------------------------------------------------------------------------
# market config (de)serialization
# ---------------------------------------------------------------------------

def _field(entry: dict, name: str, convert, buyer: int):
    """convert(entry[name]) for a field of buyer `buyer`'s entry; a missing
    field or one convert rejects raises ParseError naming both."""
    try:
        value = entry[name]
    except KeyError as exc:
        raise ParseError(f"buyer {buyer}: missing field {exc}") from exc
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"buyer {buyer}: bad {name} {value!r}: {exc}") from exc


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("expected a JSON integer")
    return value


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a JSON number")
    return float(value)


def _vector(value) -> np.ndarray:
    if not isinstance(value, list):
        raise TypeError("expected a JSON list of numbers")
    return np.array([_number(v) for v in value], dtype=float)


def _utility_from_json(doc, buyer: int):
    if not isinstance(doc, dict):
        raise ParseError(f"buyer {buyer}: utility must be a JSON object, got {doc!r}")
    family = _field(doc, "family", str, buyer)
    try:
        if family == "cobb_douglas":
            return CobbDouglas(weights=_field(doc, "weights", _vector, buyer))
        if family == "ces":
            return CES(weights=_field(doc, "weights", _vector, buyer),
                       rho=_field(doc, "rho", _number, buyer))
        if family == "separable_power":
            return SeparablePower(weights=_field(doc, "weights", _vector, buyer),
                                  exponents=_field(doc, "rhos", _vector, buyer))
    except ParseError:
        raise
    except PrdynError as exc:
        raise type(exc)(f"buyer {buyer}: {exc}") from exc
    raise ParseError(f"buyer {buyer}: unknown utility family {family!r}")


def _utility_to_json(u) -> dict:
    if isinstance(u, CobbDouglas):
        return {"family": "cobb_douglas", "weights": list(u.weights)}
    if isinstance(u, CES):
        return {"family": "ces", "weights": list(u.weights), "rho": u.rho}
    return {"family": "separable_power", "weights": list(u.weights), "rhos": list(u.exponents)}


def load_market(path) -> MarketSpec:
    """Parse and validate a market config file. Good indices in
    endowment_goods are 1-based in the file, 0-based in memory."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: a market config must be a JSON object")
    try:
        mode = Mode(doc["mode"])
        goods = doc["goods"]
        buyers = doc["buyers"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad top-level field: {exc}") from exc
    try:
        m = _integer(goods)
    except TypeError as exc:
        raise ParseError(f"{path}: bad goods {goods!r}: {exc}") from exc
    if not isinstance(buyers, list) or not all(isinstance(b, dict) for b in buyers):
        raise ParseError(f"{path}: buyers must be a list of JSON objects")

    utilities = [_utility_from_json(b.get("utility", {}), i) for i, b in enumerate(buyers)]
    if mode is Mode.FISHER:
        budgets = np.array([_field(b, "budget", _number, i) for i, b in enumerate(buyers)])
        spec = MarketSpec(
            n_buyers=len(buyers), n_goods=m, utilities=tuple(utilities),
            mode=mode, budgets=budgets,
        )
    else:
        def good_indices(value):
            if not isinstance(value, list):
                raise TypeError("expected a JSON list of good indices")
            return tuple(_integer(j) - 1 for j in value)

        endow = tuple(_field(b, "endowment_goods", good_indices, i) for i, b in enumerate(buyers))
        alpha = np.array([_field(b, "alpha", _number, i) for i, b in enumerate(buyers)])
        spec = MarketSpec(
            n_buyers=len(buyers), n_goods=m, utilities=tuple(utilities),
            mode=mode, endowments=endow, laziness=alpha,
        )
    return validate_market(spec)


def write_market(spec: MarketSpec, path):
    buyers = []
    for i, u in enumerate(spec.utilities):
        entry = {"utility": _utility_to_json(u)}
        if spec.mode is Mode.FISHER:
            entry["budget"] = float(spec.budgets[i])
        else:
            entry["endowment_goods"] = [j + 1 for j in spec.endowments[i]]
            entry["alpha"] = float(spec.laziness[i])
        buyers.append(entry)
    doc = {"mode": spec.mode.value, "goods": spec.n_goods, "buyers": buyers}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# random instance generation
# ---------------------------------------------------------------------------

def generate_market(
    n: int, m: int, family: str, seed: int, mode: Mode = Mode.FISHER,
    alpha: float | np.ndarray = 0.5,
) -> MarketSpec:
    """Seeded random instance: weights log-uniform in [0.1, 10] row-normalized,
    budgets uniform in [0.5, 2], exponents uniform in [0.2, 0.8]. In exchange
    mode, alpha is the laziness of every agent or a per-agent vector."""
    if family not in _FAMILIES:
        raise ParseError(f"unknown family {family!r}, expected one of {_FAMILIES}")
    if seed < 0:
        raise InvalidRunControl(f"seed must be >= 0, got {seed}")
    if mode is Mode.EXCHANGE and m < n:
        raise ParseError("exchange generation needs at least one good per agent (m >= n)")
    rng = np.random.default_rng(seed)
    utilities = []
    for _ in range(n):
        w = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=m))
        w = w / w.sum()
        if family == "cobb_douglas":
            utilities.append(CobbDouglas(weights=w))
        elif family == "ces":
            utilities.append(CES(weights=w, rho=float(rng.uniform(0.2, 0.8))))
        else:
            utilities.append(SeparablePower(weights=w, exponents=rng.uniform(0.2, 0.8, size=m)))
    if mode is Mode.FISHER:
        budgets = rng.uniform(0.5, 2.0, size=n)
        spec = MarketSpec(
            n_buyers=n, n_goods=m, utilities=tuple(utilities), mode=mode, budgets=budgets
        )
    else:
        # every agent owns at least one good; remaining goods assigned at random
        goods = rng.permutation(m)
        owner = np.empty(m, dtype=int)
        owner[goods[:n]] = np.arange(n)
        owner[goods[n:]] = rng.integers(0, n, size=m - n)
        endow = tuple(tuple(int(j) for j in np.flatnonzero(owner == i)) for i in range(n))
        spec = MarketSpec(
            n_buyers=n, n_goods=m, utilities=tuple(utilities), mode=mode,
            endowments=endow, laziness=np.full(n, alpha),
        )
    return validate_market(spec)


# ---------------------------------------------------------------------------
# trace / report files
# ---------------------------------------------------------------------------

def _trace_header(market: MarketSpec, full_dump: bool) -> list:
    """The trace CSV's columns, in file order: iteration, p_j, potential,
    max_price_delta and, in a full dump, b_i_j and (exchange) B_i. The rest
    of the PR state is derived: x = b / p and e = alpha * B."""
    n, m = market.n_buyers, market.n_goods
    header = ["iteration"] + [f"p_{j + 1}" for j in range(m)] + ["potential", "max_price_delta"]
    if full_dump:
        header += [f"b_{i + 1}_{j + 1}" for i in range(n) for j in range(m)]
        if market.mode is Mode.EXCHANGE:
            header += [f"B_{i + 1}" for i in range(n)]
    return header


def write_trace(trace: DynamicsTrace, market: MarketSpec, path, full_dump: bool = False,
                potential=None):
    """Write one CSV row per recorded iteration, each float as its shortest
    round-trip repr and each line ended by \\r\\n, as csv.writer writes them
    (no field needs quoting). The potential column holds the series
    `potential`, one value per row, or nan when it is None. Each block of rows
    is formatted from one nested list of Python floats."""
    exchange = full_dump and market.mode is Mode.EXCHANGE
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_trace_header(market, full_dump)) + "\r\n")
        if potential is None:
            potential = np.full(len(trace.records), np.nan)
        potential = np.asarray(potential, dtype=float)[:, None]
        done = 0
        for block in trace.blocks:
            k = len(block)
            parts = [block.prices, potential[done:done + k], block.stop_delta[:, None]]
            if full_dump:
                parts.append(block.bids.reshape(k, -1))
            if exchange:
                parts.append(block.budgets_B)
            rows = np.hstack(parts).tolist()
            for t, values in zip(block.iteration.tolist(), rows):
                fh.write(f"{int(t)},{','.join(map(repr, values))}\r\n")
            done += k


# A dump's p_j must be the column sum of its bids, and each of its prices,
# bids and bank balances the replay's, to this relative tolerance.
PRICE_RTOL = 1e-12


def read_trace(path, market: MarketSpec) -> DynamicsTrace:
    """Rebuild a trace from a --full-dump CSV, whose header must be exactly
    the one `run --full-dump` writes for this market, or the older layout
    that also stored x_i_j after the bids and e_i after the B_i. A malformed
    row, a non-integral iteration, a header that does not fit the market or a
    price that is not the sum of its bids raises ParseError; a non-finite
    entry raises NonPositiveEntry. The trace's blocks are views of the one
    array the body parses to; it derives the allocations as b / p and the
    spending as laziness * B, bit for bit as the driver computes them. The
    potential column and the values of the older layout's x and e columns are
    ignored."""
    n, m = market.n_buyers, market.n_goods
    exchange = market.mode is Mode.EXCHANGE
    header = _trace_header(market, True)
    b0, b1 = m + 3, m + 3 + n * m
    legacy = header[:b1] + ["x" + name[1:] for name in header[b0:b1]] + header[b1:]
    if exchange:
        legacy += [f"e_{i + 1}" for i in range(n)]
    with open(path) as fh:
        found = fh.readline().rstrip("\n").split(",")
        if found != header and found != legacy:
            if "b_1_1" not in found:
                raise ParseError(f"{path}: trace has no bid columns; re-run with --full-dump")
            raise ParseError(
                f"{path}: trace columns do not fit this {market.mode.value} market of "
                f"{n} buyers and {m} goods; verify needs the header run --full-dump writes for it"
            )
        body = fh.tell()
        if not fh.readline():
            return DynamicsTrace(market.mode)  # header only: no rows
        fh.seek(body)
        try:
            A = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            # loadtxt names the body row and column; drop its hint on usecols
            raise ParseError(f"{path}: malformed trace row: {str(exc).split(';')[0]}") from exc
    if A.shape[1] != len(found):
        raise ParseError(f"{path}: trace rows have {A.shape[1]} fields, the header {len(found)}")
    iterations = A[:, 0]
    bad = np.flatnonzero((iterations != np.floor(iterations)) | np.isinf(iterations))
    if bad.size:
        raise ParseError(f"{path}: iteration {float(iterations[bad[0]])!r} is not an integer")
    # Every entry but potential and max_price_delta (nan without --diagnostics,
    # inf at t=0) must be finite; argmin finds the first bad one in file order.
    finite = np.isfinite(A)
    finite[:, m + 1:m + 3] = True
    if not finite.all():
        row, col = divmod(int(np.argmin(finite)), A.shape[1])
        raise NonPositiveEntry(
            f"{path}: {found[col]} = {float(A[row, col])!r} at iteration "
            f"{int(iterations[row])}; trace entries must be finite"
        )
    P, bids = A[:, 1:1 + m], A[:, b0:b1].reshape(-1, n, m)
    sums = np.add.reduce(bids, axis=1)
    off = np.abs(P - sums) > PRICE_RTOL * np.abs(sums)
    if off.any():
        row, j = divmod(int(np.argmax(off)), m)
        raise ParseError(
            f"{path}: p_{j + 1} = {float(P[row, j])!r} at iteration {int(iterations[row])} "
            f"is not the sum {float(sums[row, j])!r} of its bids"
        )
    B = None
    if exchange:
        B0 = found.index("B_1")
        B = A[:, B0:B0 + n]
    return DynamicsTrace.stacked(market, iterations, P, bids, A[:, m + 2], B)


def _write_json(doc: dict, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    spec = generate_market(
        args.n, args.m, args.family, seed=args.seed, mode=Mode(args.mode), alpha=args.alpha
    )
    write_market(spec, args.out)
    log.info("wrote %s", args.out)
    return 0


def _solve(market: MarketSpec, **controls) -> eqmod.EquilibriumResult:
    """The equilibrium oracle of market's mode."""
    solve = eqmod.solve_fisher_eq if market.mode is Mode.FISHER else eqmod.solve_exchange_eq
    return solve(market, **controls)


def cmd_solve(args) -> int:
    market = load_market(args.market)
    eq = _solve(market, tol=args.tol, max_iters=args.max_iters)
    residuals = {
        "clearing": eq.clearing,
        "optimality_gap": eq.optimality_gap,
        "budget_gap": eq.budget_gap,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # after the oracle, which can raise
    _write_json(
        {
            "converged": eq.converged,
            "iterations": eq.iterations,
            "p_star": list(eq.p_star),
            "x_star": [list(row) for row in eq.x_star],
            # JSON has no infinity or NaN: a non-finite residual is null
            "residuals": {name: value if np.isfinite(value) else None
                          for name, value in residuals.items()},
        },
        out / "equilibrium.json",
    )
    if not eq.converged:
        log.error("equilibrium solver did not converge (clearing %.3e)", eq.clearing)
        return 1
    return 0


def _diagnostics_doc(market: MarketSpec, trace: DynamicsTrace):
    """The diagnostics.json document of a consecutive trace, the same for a
    fresh run and for a replayed --full-dump trace, and the potential series
    it checked, one value per row."""
    eq = _solve(market)
    if market.mode is Mode.FISHER:
        report = diagnose_fisher(trace, market, eq)
        passed = report.passed
        doc = {
            "lemma_gap_min": report.lemma_gap_min,
            "final_price_error": float(np.max(np.abs(trace.records[-1].prices - eq.p_star))),
        }
    else:
        transformed = eqmod.transform_exchange_equilibrium(market, eq)
        report = check_exchange_potential_decrease(trace, transformed, market.laziness)
        verify = eqmod.verify_exchange_equilibrium(
            market, trace.records[-1].allocation, eq.p_star, tol=1e-4
        )
        passed = report.passed and verify.passed
        doc = {"budget_drift": trace.budget_drift, "final_demand_residual": verify.demand_residual}
    doc.update(
        oracle_converged=eq.converged,
        passed=passed and eq.converged,
        monotone_violations=report.monotone_violations,
        final_potential=report.potential_series[-1],
    )
    return doc, report.potential_series


def _dynamics(market: MarketSpec, stop: StopRule, record_every: int = 1,
              first=None) -> DynamicsTrace:
    """The run of market's mode under stop, from the state of the trace row
    `first` or, when it is None, from the default start."""
    if market.mode is Mode.FISHER:
        bids = default_initial_bids(market) if first is None else first.bids
        return run_fisher(market, bids, stop, record_every)
    init = (default_initial_exchange(market) if first is None
            else ExchangeState(first.budgets_B, first.spend_e, first.bids))
    return run_exchange(market, init, stop, record_every)


def _replay_mismatch(market: MarketSpec, trace: DynamicsTrace):
    """Where a consecutive trace is not the PR run from its row 0: the first
    iteration, then the first column in file order, whose price, bid or bank
    balance is off the run's by more than a relative PRICE_RTOL (SIMD pow
    may round differently on another CPU), or None when every row is on.
    The run is made through the run driver one trace block at a time, each
    from the last row the run reached, so it holds one block of the run."""
    def state(blocks):  # one row per record: its prices, bids and bank balances
        fields = zip(*((b.prices, b.bids.reshape(len(b), -1), b.budgets_B) for b in blocks))
        return np.hstack([np.concatenate(f) for f in fields if f[0] is not None])

    m, header = market.n_goods, _trace_header(market, True)
    names = header[1:m + 1] + header[m + 3:]  # not iteration, potential or max_price_delta
    last = trace.records[0]
    for k, block in enumerate(trace.blocks):
        lead = int(k > 0)  # after the first block, the run starts at the row before
        replay = _dynamics(market, StopRule(max_iters=len(block) + lead), first=last)
        want = state(replay.blocks)[lead:]
        off = np.abs(state([block]) - want) > PRICE_RTOL * np.abs(want)
        if off.any():
            t, col = divmod(int(np.argmax(off)), off.shape[1])
            return {"iteration": int(block.iteration[t]), "column": names[col]}
        last = replay.blocks[-1].row(-1)
    return None


def _run_one(market: MarketSpec, args, out: Path) -> int:
    """One run of `market` under the `run` subcommand's flags, its artifacts
    written to `out`."""
    stop = StopRule(max_iters=args.max_iters, price_tol=args.price_tol)
    trace = _dynamics(market, stop, args.record_every)

    diag_passed, potential = True, None
    if args.diagnostics:
        diag_doc, potential = _diagnostics_doc(market, trace)
        diag_passed = diag_doc["passed"]
    # the directory is made after the run and its diagnostics, which can
    # raise, so that a command that fails leaves none behind
    out.mkdir(parents=True, exist_ok=True)
    if args.diagnostics:
        _write_json(diag_doc, out / "diagnostics.json")

    final = trace.records[-1]
    _write_json(
        {
            "mode": market.mode.value,
            "stop_reason": trace.stop_reason,
            "iterations": trace.n_steps,
            "final_prices": list(final.prices),
            "final_allocation": [list(row) for row in final.allocation],
            "budget_drift": trace.budget_drift,
        },
        out / "summary.json",
    )
    write_trace(trace, market, out / "trace.csv", args.full_dump, potential)

    not_converged = trace.stop_reason == "max_iters" and args.price_tol > 0
    if not_converged:
        log.error("dynamics hit max_iters=%d without reaching price_tol", args.max_iters)
    if not diag_passed:
        log.error("diagnostics failed; see %s", out / "diagnostics.json")
    return 0 if (diag_passed and not not_converged) else 1


def cmd_run(args) -> int:
    if args.batch < 1:
        raise InvalidRunControl(f"batch must be >= 1, got {args.batch}")
    src = load_market(args.market)
    if args.batch == 1:
        return _run_one(src, args, Path(args.out))

    # Run the seeds in turn, one subdirectory each. The per-seed market is
    # regenerated with the shape, family and laziness of the input. Every
    # seed runs; the first structured error, in seed order, is raised after
    # the last one.
    families = sorted({_utility_to_json(u)["family"] for u in src.utilities})
    if len(families) > 1:
        raise ParseError(f"--batch needs a single-family market, got families {families}")
    codes, error = [], None
    for seed in range(args.seed, args.seed + args.batch):
        market = generate_market(
            src.n_buyers, src.n_goods, families[0], seed=seed, mode=src.mode, alpha=src.laziness
        )
        sub = Path(args.out) / f"seed-{seed:04d}"
        sub.mkdir(parents=True, exist_ok=True)
        write_market(market, sub / "market.json")
        try:
            codes.append(_run_one(market, args, sub))
        except (PrdynError, OSError) as exc:
            error = error or exc
    if error is not None:
        raise error
    return 0 if all(c == 0 for c in codes) else 1


def cmd_verify(args) -> int:
    market = load_market(args.market)
    trace = read_trace(args.trace, market)
    doc, _ = _diagnostics_doc(market, trace)  # requires every row from iteration 0
    mismatch = _replay_mismatch(market, trace)
    if mismatch is not None:
        doc.update(passed=False, replay_mismatch=mismatch)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # after the diagnostics, which can raise
    _write_json(doc, out / "diagnostics.json")
    return 0 if doc["passed"] else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prdyn", description="Proportional response market dynamics"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random market config")
    g.add_argument("n", type=int)
    g.add_argument("m", type=int)
    g.add_argument("family", choices=_FAMILIES)
    g.add_argument("--mode", choices=[m.value for m in Mode], default="fisher")
    g.add_argument("--alpha", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="market.json")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="compute the equilibrium oracle only")
    s.add_argument("--market", required=True)
    s.add_argument("--tol", type=float, default=1e-10)
    s.add_argument("--max-iters", type=int, default=20000)
    s.add_argument("--out", default="out")
    s.set_defaults(func=cmd_solve)

    r = sub.add_parser("run", help="run the dynamics and write trace artifacts")
    r.add_argument("--market", required=True)
    r.add_argument("--max-iters", type=int, default=20000)
    r.add_argument("--price-tol", type=float, default=1e-10)
    r.add_argument("--record-every", type=int, default=1)
    r.add_argument("--out", default="out")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--diagnostics", action="store_true")
    r.add_argument("--full-dump", action="store_true")
    r.add_argument("--batch", type=int, default=1)
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="re-run a full-dump trace and check it with diagnostics")
    v.add_argument("--market", required=True)
    v.add_argument("--trace", required=True)
    v.add_argument("--out", default="out")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # logging knows WARN and WARNING; basicConfig checks no level once the
        # root logger has a handler, so the name is checked here
        name = os.environ.get("PRD_LOG_LEVEL", "warn").upper()
        level = logging.getLevelName(name)
        if not isinstance(level, int):
            raise ParseError(f"PRD_LOG_LEVEL {name!r} is not DEBUG, INFO, WARN, ERROR or CRITICAL")
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except (PrdynError, OSError) as exc:  # a missing or unwritable file is no failed check
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 2


def console_main() -> int:
    """Entry point of the `prdyn` script and of `python -m prdyn.cli`. It
    moves the objects that the interpreter and the imports left, about
    22 000, out of the garbage collector's reach with gc.freeze() before
    calling main(), so that no collection, those at interpreter exit
    included, walks them again; that walk cost tens of milliseconds a
    process. main() itself leaves the collector alone, for in-process
    callers."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(console_main())
