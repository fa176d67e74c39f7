import csv
import json
import logging
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prdyn import CES, MarketSpec, Mode, SeparablePower, StopRule, cli, validate_market
from prdyn import equilibrium as eqmod
from prdyn.cli import (
    generate_market, load_market, main, read_trace, write_market, write_trace,
)
from prdyn.errors import (LengthMismatch, ParseError, PrdynError, UnderflowDetected,
                          UtilityParamInvalid)
from prdyn.market import DynamicsTrace
from test_dynamics import CYCLING, count_steps, restacked, stepper
from test_equilibrium import near_linear_fisher_market


def write_json(path, doc):
    path.write_text(json.dumps(doc))


def _bits(value):
    """The float64 bit patterns of a number or array (None stays None), so
    that NaN compares equal to itself and -0.0 differs from 0.0."""
    return None if value is None else np.asarray(value, np.float64).view(np.uint64).tolist()


class TestLoadMarket:
    def test_round_trip(self, tmp_path):
        for family in ("cobb_douglas", "ces", "separable_power"):
            spec = generate_market(3, 4, family, seed=5)
            path = tmp_path / f"{family}.json"
            write_market(spec, path)
            loaded = load_market(path)
            assert loaded.n_buyers == spec.n_buyers
            assert np.allclose(loaded.budgets, spec.budgets)
            for u1, u2 in zip(loaded.utilities, spec.utilities):
                assert np.allclose(u1.weights, u2.weights)

    def test_exchange_round_trip(self, tmp_path):
        spec = generate_market(2, 4, "ces", seed=5, mode=Mode.EXCHANGE)
        path = tmp_path / "x.json"
        write_market(spec, path)
        loaded = load_market(path)
        assert loaded.endowments == spec.endowments
        assert np.allclose(loaded.laziness, spec.laziness)

    def test_rho_one_rejected_with_buyer_index(self, tmp_path):
        path = tmp_path / "bad.json"
        write_json(path, {
            "mode": "fisher", "goods": 2,
            "buyers": [{"budget": 1.0,
                        "utility": {"family": "ces", "weights": [1, 1], "rho": 1.0}}],
        })
        with pytest.raises(UtilityParamInvalid, match="buyer 0"):
            load_market(path)

    def test_negative_weight_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        write_json(path, {
            "mode": "fisher", "goods": 2,
            "buyers": [{"budget": 1.0,
                        "utility": {"family": "cobb_douglas", "weights": [-1, 1]}}],
        })
        with pytest.raises(UtilityParamInvalid):
            load_market(path)

    def test_readme_examples_load(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        examples = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        modes = set()
        for k, text in enumerate(examples):
            path = tmp_path / f"readme-{k}.json"
            path.write_text(text)
            modes.add(load_market(path).mode)
        assert modes == {Mode.FISHER, Mode.EXCHANGE}

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="line"):
            load_market(path)


def _market_doc(family, mode):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        write_market(generate_market(2, 3, family, seed=1, mode=mode), path)
        return json.loads(path.read_text())


BASE_DOCS = [_market_doc(f, mode) for f in ("cobb_douglas", "ces", "separable_power") for mode in Mode]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def _paths(doc, path=()):
    """Every key or index path in a JSON document, the root included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def fuzzed_documents(draw):
    """A generated market config with the value at one path replaced by an
    arbitrary JSON value, or one object key deleted."""
    doc = json.loads(json.dumps(draw(st.sampled_from(BASE_DOCS))))
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(JSON_VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return doc


class TestLoadMalformed:
    @pytest.mark.parametrize("buyer, match", [
        ({"budget": 1, "utility": {"family": "ces", "weights": [1, 1], "rho": "x"}}, "buyer 0: bad rho"),
        ({"budget": "a", "utility": {"family": "ces", "weights": [1, 1], "rho": 0.5}}, "buyer 0: bad budget"),
        ({"budget": 1, "utility": {"family": "ces", "weights": "ab", "rho": 0.5}}, "buyer 0: bad weights"),
    ])
    def test_malformed_field_names_buyer_and_field(self, tmp_path, buyer, match):
        path = tmp_path / "bad.json"
        write_json(path, {"mode": "fisher", "goods": 2, "buyers": [buyer]})
        with pytest.raises(ParseError, match=match):
            load_market(path)

    @pytest.mark.parametrize("mode, path, value, match", [
        ("fisher", ("goods",), 3.5, "bad goods 3.5"),
        ("fisher", ("buyers", 0, "budget"), "1", "buyer 0: bad budget '1'"),
        ("fisher", ("buyers", 0, "budget"), True, "buyer 0: bad budget True"),
        ("fisher", ("buyers", 1, "utility", "weights"), ["1", "2", "3"], "buyer 1: bad weights"),
        ("exchange", ("buyers", 1, "alpha"), "0.5", "buyer 1: bad alpha '0.5'"),
        ("exchange", ("buyers", 0, "endowment_goods"), [1.5], r"buyer 0: bad endowment_goods \[1.5\]"),
    ])
    def test_loosely_typed_field_is_a_parse_error(self, tmp_path, mode, path, value, match):
        # goods and good indices must be JSON integers, the other numeric
        # fields JSON numbers: no float, string or bool is coerced
        doc = _market_doc("ces", Mode(mode))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        write_json(tmp_path / "bad.json", doc)
        with pytest.raises(ParseError, match=match):
            load_market(tmp_path / "bad.json")

    @pytest.mark.parametrize("doc", [{"mode": "fisher", "goods": 2, "buyers": 5}, [1, 2]])
    def test_malformed_structure_is_a_parse_error(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        write_json(path, doc)
        with pytest.raises(ParseError):
            load_market(path)

    def test_malformed_field_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        write_json(path, {"mode": "fisher", "goods": 2, "buyers": [
            {"budget": "a", "utility": {"family": "ces", "weights": [1, 1], "rho": 0.5}}]})
        assert main(["solve", "--market", str(path), "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(fuzzed_documents())
    def test_fuzzed_documents_load_or_raise(self, doc):
        # Each document either loads, and then writing it, loading that file
        # and writing again reproduces the first file byte for byte, or it
        # raises a PrdynError (exit 2 from the CLI), never another exception.
        with tempfile.TemporaryDirectory() as tmp:
            src, once, twice = (Path(tmp) / name for name in ("src", "once", "twice"))
            src.write_text(json.dumps(doc))
            try:
                spec = load_market(src)
            except PrdynError:
                return
            write_market(spec, once)
            write_market(load_market(once), twice)
            assert once.read_bytes() == twice.read_bytes()


class TestGen:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "2", "2", "cobb_douglas", "--seed", "1", "--out", str(a)]) == 0
        assert main(["gen", "2", "2", "cobb_douglas", "--seed", "1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generated_instances_validate(self):
        generate_market(3, 4, "ces", seed=7)
        generate_market(1, 1, "separable_power", seed=0)
        generate_market(2, 3, "cobb_douglas", seed=9, mode=Mode.EXCHANGE)

    @pytest.mark.parametrize("n, m", [("-1", "3"), ("2", "-3"), ("2", "0")])
    def test_market_without_a_buyer_or_a_good_is_error(self, tmp_path, capsys, n, m):
        """Refused before anything is drawn, with validate_market's message."""
        out = tmp_path / "m.json"
        assert main(["gen", n, m, "ces", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "UtilityParamInvalid",
            "message": f"market must have at least one buyer and one good, got {n}x{m}",
        }
        assert not out.exists()


def _wide_weight_ces_market():
    """4 x 5 Fisher CES market whose weights span 16 decades, at rho 0.995:
    demand at uniform prices is out of float range."""
    rng = np.random.default_rng(0)
    rho = float(rng.choice([0.97, 0.99, 0.995]))
    utilities = tuple(CES(np.exp(rng.uniform(np.log(1e-8), np.log(1e8), 5)), rho)
                      for _ in range(4))
    return validate_market(MarketSpec(4, 5, utilities, Mode.FISHER,
                                      budgets=rng.uniform(0.5, 2.0, 4)))


def _with_exponent(market, r):
    """market with every CES rho or separable-power exponent set to r."""
    if isinstance(market.utilities[0], CES):
        utilities = tuple(CES(u.weights, r) for u in market.utilities)
    else:
        utilities = tuple(SeparablePower(u.weights, np.full(market.n_goods, r))
                          for u in market.utilities)
    return validate_market(replace(market, utilities=utilities))


ORACLE_EXITS = {
    "demand-out-of-range-at-uniform-prices": _wide_weight_ces_market,
    "trial-state-rejected": lambda: _with_exponent(generate_market(6, 8, "ces", seed=0), 0.999),
    "line-search-stall": lambda: _with_exponent(
        generate_market(4, 5, "separable_power", seed=3, mode=Mode.EXCHANGE), 0.99),
}


class TestSolve:
    def test_diverging_oracle_exits_one(self, tmp_path):
        mfile = tmp_path / "m.json"
        write_market(near_linear_fisher_market("ces", 1), mfile)
        out = tmp_path / "sol"
        # The oracle solves this market in about a dozen steps; one is too few.
        assert main(["solve", "--market", str(mfile), "--max-iters", "1", "--out", str(out)]) == 1
        doc = json.loads((out / "equilibrium.json").read_text())
        assert doc["converged"] is False
        assert all(np.isfinite(doc["p_star"])) and min(doc["p_star"]) > 0

    def test_non_finite_residual_is_null_and_exits_one(self, tmp_path):
        # CES rho = 0.995 everywhere: the oracle clears the market, but entries
        # of x* underflow to 0, so its optimality gap is not finite and it does
        # not report convergence; the dynamics underflows a bid.
        mfile = tmp_path / "m.json"
        main(["gen", "10", "10", "ces", "--seed", "3", "--out", str(mfile)])
        doc = json.loads(mfile.read_text())
        for buyer in doc["buyers"]:
            buyer["utility"]["rho"] = 0.995
        write_json(mfile, doc)
        assert main(["solve", "--market", str(mfile), "--out", str(tmp_path / "sol")]) == 1
        assert main(["run", "--market", str(mfile), "--out", str(tmp_path / "run")]) == 2

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        artifacts = sorted(tmp_path.rglob("*.json"))
        assert tmp_path / "sol" / "equilibrium.json" in artifacts
        for path in artifacts:
            json.loads(path.read_text(), parse_constant=refuse)
        doc = json.loads((tmp_path / "sol" / "equilibrium.json").read_text())
        assert doc["converged"] is False
        assert doc["residuals"]["clearing"] <= 1e-10
        assert doc["residuals"]["optimality_gap"] is None

    @pytest.mark.parametrize("mode", ["fisher", "exchange"])
    def test_converged_equilibrium_exits_zero(self, tmp_path, mode):
        mfile, out = tmp_path / "m.json", tmp_path / "sol"
        main(["gen", "4", "5", "ces", "--mode", mode, "--seed", "3", "--out", str(mfile)])
        assert main(["solve", "--market", str(mfile), "--out", str(out)]) == 0
        market = load_market(mfile)
        solve = eqmod.solve_fisher_eq if mode == "fisher" else eqmod.solve_exchange_eq
        eq = solve(market)
        assert eq.converged
        assert json.loads((out / "equilibrium.json").read_text()) == {
            "converged": True,
            "iterations": eq.iterations,
            "p_star": list(eq.p_star),
            "x_star": [list(row) for row in eq.x_star],
            "residuals": {"clearing": eq.clearing, "optimality_gap": eq.optimality_gap,
                          "budget_gap": eq.budget_gap},
        }


    @pytest.mark.parametrize("case", ORACLE_EXITS)
    def test_oracle_failure_exit(self, tmp_path, monkeypatch, case):
        """Each exit of the oracle's Newton iteration that reports
        converged=False before max_iters, reached without a warning; solve
        writes null for each non-finite residual and exits 1."""
        market = ORACLE_EXITS[case]()
        sums = []  # the aggregate demand of every state the oracle evaluates
        demand_rows = eqmod.demand_rows

        def recorded(*args):
            x = demand_rows(*args)
            sums.append(x.sum(axis=0))
            return x

        monkeypatch.setattr(eqmod, "demand_rows", recorded)
        solve = eqmod.solve_fisher_eq if market.mode is Mode.FISHER else eqmod.solve_exchange_eq
        eq = solve(market)
        valid = [bool(np.all(np.isfinite(z) & (z > 0))) for z in sums]
        residuals = {"clearing": eq.clearing, "optimality_gap": eq.optimality_gap,
                     "budget_gap": eq.budget_gap}
        finite = all(np.isfinite(list(residuals.values())))
        assert not eq.converged
        if case == "demand-out-of-range-at-uniform-prices":
            assert eq.iterations == 0 and not valid[0]
        elif case == "trial-state-rejected":
            # a line-search trial leaves float range; a shorter step is taken,
            # and the result's optimality gap is not finite
            assert 0 < eq.iterations < 20000 and valid[0] and not all(valid)
            assert not finite
        else:  # the line search stalls with finite residuals, which no other exit gives
            assert 0 < eq.iterations < 20000 and finite
        mfile, out = tmp_path / "m.json", tmp_path / "sol"
        write_market(market, mfile)
        assert main(["solve", "--market", str(mfile), "--out", str(out)]) == 1
        doc = json.loads((out / "equilibrium.json").read_text())
        assert (doc["converged"], doc["iterations"]) == (False, eq.iterations)
        assert doc["residuals"] == {name: value if np.isfinite(value) else None
                                    for name, value in residuals.items()}


class TestRun:
    def test_cobb_douglas_with_diagnostics(self, tmp_path):
        mfile = tmp_path / "m.json"
        assert main(["gen", "2", "2", "cobb_douglas", "--seed", "3", "--out", str(mfile)]) == 0
        out = tmp_path / "out"
        code = main([
            "run", "--market", str(mfile), "--price-tol", "1e-12",
            "--diagnostics", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "price_tol"
        assert summary["iterations"] == 3  # fixed point after one step, detected at t=2
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["passed"]

    def test_determinism_byte_identical(self, tmp_path):
        mfile = tmp_path / "m.json"
        main(["gen", "3", "4", "ces", "--seed", "7", "--out", str(mfile)])
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main([
                "run", "--market", str(mfile), "--price-tol", "1e-10",
                "--full-dump", "--out", str(out),
            ]) == 0
            outs.append(out)
        assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()
        assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()

    def test_max_iters_exhausted_is_nonzero(self, tmp_path):
        mfile = tmp_path / "m.json"
        main(["gen", "3", "4", "ces", "--seed", "7", "--out", str(mfile)])
        out = tmp_path / "out"
        code = main([
            "run", "--market", str(mfile), "--max-iters", "3",
            "--price-tol", "1e-12", "--out", str(out),
        ])
        assert code != 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "max_iters"

    def test_exchange_run_with_diagnostics(self, tmp_path):
        mfile = tmp_path / "m.json"
        main(["gen", "2", "3", "ces", "--mode", "exchange", "--seed", "4", "--out", str(mfile)])
        out = tmp_path / "out"
        assert main([
            "run", "--market", str(mfile), "--price-tol", "1e-12",
            "--diagnostics", "--out", str(out),
        ]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["passed"]
        assert diag["budget_drift"] <= 1e-10

    @pytest.mark.parametrize("command, flag, value", [
        pytest.param("run", "--max-iters", "0", id="--max-iters"),
        pytest.param("run", "--record-every", "0", id="--record-every"),
        pytest.param("solve", "--max-iters", "0", id="solve --max-iters 0"),
        pytest.param("solve", "--max-iters", "-3", id="solve --max-iters -3"),
    ])
    def test_run_control_below_one_is_error(self, tmp_path, capsys, command, flag, value):
        mfile = tmp_path / "m.json"
        main(["gen", "2", "3", "ces", "--seed", "0", "--out", str(mfile)])
        out = tmp_path / "o"
        code = main([command, "--market", str(mfile), flag, value, "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidRunControl"
        assert not (out / "equilibrium.json").exists()

    @pytest.mark.parametrize("batch", ["0", "-5"])
    def test_batch_below_one_is_error(self, tmp_path, capsys, batch):
        # a batch of no seeds is no plain run either
        mfile = tmp_path / "m.json"
        main(["gen", "3", "4", "ces", "--out", str(mfile)])
        out = tmp_path / "o"
        assert main(["run", "--market", str(mfile), "--batch", batch, "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "InvalidRunControl", "message": f"batch must be >= 1, got {batch}"}
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("run", "--price-tol"), ("solve", "--tol")])
    def test_nan_tolerance_is_error(self, tmp_path, capsys, command, flag):
        # no change is below nan, so a run would take every step and the
        # oracle would report that it did not converge
        mfile = tmp_path / "m.json"
        main(["gen", "4", "5", "ces", "--seed", "3", "--out", str(mfile)])
        capsys.readouterr()
        code = main([command, "--market", str(mfile), flag, "nan", "--max-iters", "500",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidRunControl"

    def test_infinite_weight_is_error(self, tmp_path, capsys):
        mfile = tmp_path / "m.json"
        write_json(mfile, {
            "mode": "fisher", "goods": 2,
            "buyers": [{"budget": 1.0,
                        "utility": {"family": "cobb_douglas", "weights": [float("inf"), 1.0]}}],
        })
        assert "Infinity" in mfile.read_text()
        code = main(["run", "--market", str(mfile), "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "UtilityParamInvalid"

    @pytest.mark.parametrize("command", ["run", "solve"])
    def test_weights_with_infinite_sum_are_error(self, tmp_path, capsys, command):
        """Finite weights whose sum is not finite are refused at load, in
        every family: a CES market with such weights once made run exit 2
        with UnderflowDetected and solve exit 0 with an optimality gap of 1."""
        mfile = tmp_path / "m.json"
        main(["gen", "3", "4", "ces", "--out", str(mfile)])
        doc = json.loads(mfile.read_text())
        doc["buyers"][0]["utility"]["weights"] = [1e308] * 4
        write_json(mfile, doc)
        capsys.readouterr()
        out = tmp_path / "o"
        assert main([command, "--market", str(mfile), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "UtilityParamInvalid"
        assert record["message"].startswith("buyer 0: weights must have a finite sum")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["gen", "3", "4", "ces", "--seed", "-1"], id="gen"),
        pytest.param(["run", "--market", "{tmp}/m.json", "--batch", "2", "--seed", "-5"],
                     id="run-batch"),
    ])
    def test_negative_seed_is_error(self, tmp_path, capsys, argv):
        main(["gen", "3", "4", "ces", "--out", str(tmp_path / "m.json")])
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([a.replace("{tmp}", str(tmp_path)) for a in argv] + ["--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidRunControl"
        assert not out.exists()

    def test_batch_keeps_exchange_laziness(self, tmp_path):
        mfile = tmp_path / "m.json"
        main([
            "gen", "2", "3", "cobb_douglas", "--mode", "exchange", "--alpha", "0.9",
            "--seed", "0", "--out", str(mfile),
        ])
        out = tmp_path / "batch"
        assert main(["run", "--market", str(mfile), "--batch", "2", "--out", str(out)]) == 0
        for seed in (0, 1):
            market = load_market(out / f"seed-{seed:04d}" / "market.json")
            assert market.mode is Mode.EXCHANGE
            assert np.array_equal(market.laziness, [0.9, 0.9])

    def test_batch_rejects_mixed_families(self, tmp_path, capsys):
        mfile = tmp_path / "m.json"
        write_json(mfile, {
            "mode": "fisher", "goods": 2,
            "buyers": [
                {"budget": 1.0, "utility": {"family": "ces", "weights": [1, 1], "rho": 0.5}},
                {"budget": 1.0, "utility": {"family": "cobb_douglas", "weights": [1, 1]}},
            ],
        })
        code = main(["run", "--market", str(mfile), "--batch", "2", "--out", str(tmp_path / "b")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"

    def test_batch_runs_in_subdirs(self, tmp_path):
        # Each seed's artifacts are byte-equal to a plain run on its market.
        flags = ["--price-tol", "1e-10", "--diagnostics", "--full-dump"]
        for mode in ("fisher", "exchange"):
            mfile = tmp_path / f"{mode}.json"
            main(["gen", "2", "3", "ces", "--mode", mode, "--seed", "0", "--out", str(mfile)])
            out = tmp_path / f"batch-{mode}"
            assert main([
                "run", "--market", str(mfile), *flags,
                "--batch", "3", "--seed", "10", "--out", str(out),
            ]) == 0
            for seed in (10, 11, 12):
                sub = out / f"seed-{seed:04d}"
                plain = tmp_path / f"plain-{mode}-{seed}"
                assert main([
                    "run", "--market", str(sub / "market.json"), *flags, "--out", str(plain),
                ]) == 0
                for name in ("trace.csv", "summary.json", "diagnostics.json"):
                    assert (sub / name).read_bytes() == (plain / name).read_bytes(), (mode, name)

    def test_batch_error_exits_two_after_every_seed(self, tmp_path, capsys, monkeypatch):
        # Seeds 10 and 12 raise: seeds 11 and 13 still run, and the first
        # error in seed order is the one reported.
        run_one = cli._run_one

        def flaky(market, args, out):
            if out.name == "seed-0010":
                raise UnderflowDetected("first")
            if out.name == "seed-0012":
                raise ParseError("second")
            return run_one(market, args, out)

        monkeypatch.setattr(cli, "_run_one", flaky)
        mfile = tmp_path / "m.json"
        main(["gen", "2", "3", "ces", "--seed", "0", "--out", str(mfile)])
        out = tmp_path / "batch"
        code = main(["run", "--market", str(mfile), "--batch", "4", "--seed", "10", "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {"error": "UnderflowDetected", "message": "first"}
        for seed in (10, 11, 12, 13):
            sub = out / f"seed-{seed:04d}"
            assert (sub / "market.json").exists()
            assert (sub / "summary.json").exists() == (seed in (11, 13))

    def test_batch_os_error_exits_two_after_every_seed(self, tmp_path, capsys):
        # seed 0 cannot write its trace; seed 1 still runs
        mfile = tmp_path / "m.json"
        main(["gen", "2", "3", "ces", "--seed", "0", "--out", str(mfile)])
        out = tmp_path / "batch"
        (out / "seed-0000" / "trace.csv").mkdir(parents=True)
        assert main(["run", "--market", str(mfile), "--batch", "2", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "IsADirectoryError"
        assert (out / "seed-0001" / "trace.csv").is_file()


def _set_cell(row: int, col: int, value: str):
    def tamper(rows):
        rows[row][col] = value
        return rows
    return tamper


def _swap_99_199(rows):
    """The rows of iterations 99 and 199 trade every column but the iteration."""
    rows[100][1:], rows[200][1:] = rows[200][1:], rows[100][1:]
    return rows


def _jump_to_last(rows):
    """The last row's state at every iteration from 1 on."""
    return rows[:2] + [[str(t)] + rows[-1][1:] for t in range(1, len(rows) - 1)]


def _raise_bid(rows):
    """b_2_3 of iteration 150 raised by a relative 1e-6, and p_3 set to its
    new column sum, so that the price still sums its bids."""
    head, row = rows[0], rows[151]
    k = head.index("b_2_3")
    row[k] = repr(float(row[k]) * (1 + 1e-6))
    row[head.index("p_3")] = repr(sum(float(row[head.index(f"b_{i}_3")]) for i in (1, 2, 3)))
    return rows


def _csv_writer_trace(trace, market, path, full_dump: bool, potential=None, legacy: bool = False):
    """The trace CSV as csv.writer writes it, one repr(float(v)) per cell:
    the reference that write_trace must match byte for byte. The potential
    column holds the series potential, or nan when it is None. With legacy,
    a full dump also holds the derived allocations x_i_j after the bids and,
    in exchange mode, the spending e_i after the bank balances, as full dumps
    did before those columns were dropped; read_trace still accepts them."""
    n, m = market.n_buyers, market.n_goods
    exchange = full_dump and market.mode is Mode.EXCHANGE
    header = ["iteration"] + [f"p_{j + 1}" for j in range(m)] + ["potential", "max_price_delta"]
    if full_dump:
        header += [f"b_{i + 1}_{j + 1}" for i in range(n) for j in range(m)]
    if full_dump and legacy:
        header += [f"x_{i + 1}_{j + 1}" for i in range(n) for j in range(m)]
    if exchange:
        header += [f"B_{i + 1}" for i in range(n)]
    if exchange and legacy:
        header += [f"e_{i + 1}" for i in range(n)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if potential is None:
            potential = [float("nan")] * len(trace.records)
        for r, value in zip(trace.records, potential):
            values = [*r.prices, value, r.stop_delta]
            if full_dump:
                values += [*r.bids.ravel()]
            if full_dump and legacy:
                values += [*r.allocation.ravel()]
            if exchange:
                values += [*r.budgets_B]
            if exchange and legacy:
                values += [*r.spend_e]
            writer.writerow([str(r.iteration)] + [repr(float(v)) for v in values])


class TestTraceCsv:
    @pytest.mark.parametrize("full_dump", [False, True])
    @pytest.mark.parametrize("mode", [Mode.FISHER, Mode.EXCHANGE])
    def test_bytes_match_csv_writer(self, tmp_path, mode, full_dump):
        market = generate_market(2, 3, "ces", seed=1, mode=mode)
        rng = np.random.default_rng(0)
        pool = np.concatenate([[5e-324, 1e16, 1e-5, 0.1, 1 / 3, -0.0], rng.uniform(0, 2, 30)])

        def values(shape, k):
            return np.resize(np.roll(pool, -k), shape)

        T = range(4)
        trace = DynamicsTrace.stacked(
            market, T, [values(3, t) for t in T], [values((2, 3), t + 1) for t in T],
            [float("inf") if t == 0 else float(pool[t + 6]) for t in T],
            [values(2, t + 3) for t in T] if mode is Mode.EXCHANGE else None,
        )
        potential = [float("nan") if t < 2 else float(pool[t]) for t in T]
        write_trace(trace, market, tmp_path / "trace.csv", full_dump, potential)
        _csv_writer_trace(trace, market, tmp_path / "reference.csv", full_dump, potential)
        written = (tmp_path / "trace.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert b"5e-324" in written and b"1e+16" in written and b"nan" in written


    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("name", ["fisher-P6", "exchange-P3"])
    def test_cycling_dump_equals_that_of_its_stacked_rows(self, tmp_path, name, record_every):
        """The rows of a cycle's tail take the text of their phase, formatted
        once: the dump is byte for byte that of the same rows stacked, whose
        every row is formatted, with a potential series that does not repeat
        in the tail too."""
        market = CYCLING[name]()
        trace = stepper(market)[2](StopRule(3000, 0.0), record_every)
        assert trace.blocks.tail is not None
        plain = restacked(market, trace)
        rows = len(trace.records)
        for potential in (None, np.random.default_rng(0).random(rows)):
            for full_dump in (False, True):
                for t, path in ((trace, "cycling.csv"), (plain, "stacked.csv")):
                    write_trace(t, market, tmp_path / path, full_dump, potential)
                written = (tmp_path / "cycling.csv").read_bytes()
                assert written == (tmp_path / "stacked.csv").read_bytes()
                assert written.count(b"\r\n") == rows + 1

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_potential_of_another_length_is_refused(self, tmp_path, extra):
        """Before the file is opened: a short series once failed inside the
        writer with part of the file written, and a long one was cut short."""
        market = generate_market(3, 4, "ces", seed=1)
        trace = stepper(market)[2](StopRule(30, 0.0))
        with pytest.raises(LengthMismatch, match="trace of 30 rows"):
            write_trace(trace, market, tmp_path / "trace.csv", True, np.zeros(30 + extra))
        assert not (tmp_path / "trace.csv").exists()


class TestVerify:
    def test_replay_full_dump_trace(self, tmp_path):
        mfile = tmp_path / "m.json"
        main(["gen", "3", "4", "ces", "--seed", "7", "--out", str(mfile)])
        out = tmp_path / "out"
        assert main([
            "run", "--market", str(mfile), "--price-tol", "1e-10",
            "--full-dump", "--out", str(out),
        ]) == 0
        code = main([
            "verify", "--market", str(mfile), "--trace", str(out / "trace.csv"),
            "--out", str(tmp_path / "v"),
        ])
        assert code == 0

    @pytest.mark.parametrize(
        "gen_args, run_args, expected",
        [
            # stopped far from equilibrium: both fail the demand check
            (["2", "3", "ces", "--mode", "exchange", "--seed", "4"],
             ["--max-iters", "5", "--price-tol", "0"], 1),
            (["3", "4", "ces", "--seed", "7"], ["--price-tol", "1e-10"], 0),
            # 20000 steps: run diagnoses the exact cycle's tail by phase,
            # verify every row of the dump
            (["4", "5", "ces", "--seed", "3"], ["--price-tol", "0", "--max-iters", "20000"], 0),
            (["4", "5", "ces", "--mode", "exchange", "--seed", "3"],
             ["--price-tol", "0", "--max-iters", "20000"], 0),
        ],
    )
    def test_verify_reproduces_run_diagnostics(self, tmp_path, gen_args, run_args, expected):
        mfile = tmp_path / "m.json"
        main(["gen", *gen_args, "--out", str(mfile)])
        run_out, verify_out = tmp_path / "run", tmp_path / "verify"
        run_code = main([
            "run", "--market", str(mfile), *run_args,
            "--full-dump", "--diagnostics", "--out", str(run_out),
        ])
        verify_code = main([
            "verify", "--market", str(mfile), "--trace", str(run_out / "trace.csv"),
            "--out", str(verify_out),
        ])
        assert run_code == verify_code == expected
        run_doc = (run_out / "diagnostics.json").read_bytes()
        assert (verify_out / "diagnostics.json").read_bytes() == run_doc

    @pytest.mark.parametrize("mode", ["fisher", "exchange"])
    def test_verify_of_a_long_cycling_dump_steps_to_its_cycle(self, tmp_path, monkeypatch, mode):
        """verify re-runs a 20 000-step dump one stored block at a time, and
        each re-run finds the exact cycle in its first CYCLE_STRIDE-row
        blocks: it steps a few rows a block, not every row, and still
        writes run's diagnostics.json."""
        mfile, run_out, verify_out = tmp_path / "m.json", tmp_path / "run", tmp_path / "verify"
        main(["gen", "4", "5", "ces", "--mode", mode, "--seed", "3", "--out", str(mfile)])
        assert main([
            "run", "--market", str(mfile), "--price-tol", "0", "--max-iters", "20000",
            "--full-dump", "--diagnostics", "--out", str(run_out),
        ]) == 0
        stepped = count_steps(monkeypatch)
        assert main([
            "verify", "--market", str(mfile), "--trace", str(run_out / "trace.csv"),
            "--out", str(verify_out),
        ]) == 0
        assert 0 < stepped[0] < 2000
        run_doc = (run_out / "diagnostics.json").read_bytes()
        assert (verify_out / "diagnostics.json").read_bytes() == run_doc

    @pytest.mark.parametrize("case", ["fisher", "exchange"])
    def test_legacy_dump_verifies_to_run_diagnostics(self, tmp_path, case):
        """A full dump in the older layout, which also stored x_i_j and e_i,
        still replays: verify writes run's diagnostics.json byte for byte.
        Dropping those columns from it gives run's trace.csv byte for byte."""
        from prdyn import (
            StopRule, default_initial_bids, default_initial_exchange, run_exchange, run_fisher,
        )
        from prdyn.cli import _diagnostics_doc

        gen_args, run_args, run = {
            "fisher": (["3", "4", "separable_power", "--seed", "2"], ["--price-tol", "1e-10"],
                       lambda m: run_fisher(m, default_initial_bids(m), StopRule(20000, 1e-10))),
            "exchange": (["3", "4", "ces", "--mode", "exchange", "--seed", "4"],
                         ["--max-iters", "300", "--price-tol", "0"],
                         lambda m: run_exchange(m, default_initial_exchange(m), StopRule(300, 0.0))),
        }[case]
        mfile, run_out, legacy_csv = tmp_path / "m.json", tmp_path / "run", tmp_path / "legacy.csv"
        main(["gen", *gen_args, "--out", str(mfile)])
        assert main([
            "run", "--market", str(mfile), *run_args, "--diagnostics", "--full-dump",
            "--out", str(run_out),
        ]) == 0
        market = load_market(mfile)
        ref = run(market)
        _, potential = _diagnostics_doc(market, ref)
        _csv_writer_trace(ref, market, legacy_csv, True, potential, legacy=True)
        assert main([
            "verify", "--market", str(mfile), "--trace", str(legacy_csv),
            "--out", str(tmp_path / "v"),
        ]) == 0
        run_doc = (run_out / "diagnostics.json").read_bytes()
        assert (tmp_path / "v" / "diagnostics.json").read_bytes() == run_doc
        with open(legacy_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        keep = [k for k, name in enumerate(rows[0]) if name[0] not in "xe"]
        with open(tmp_path / "dropped.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([row[k] for k in keep] for row in rows)
        assert (tmp_path / "dropped.csv").read_bytes() == (run_out / "trace.csv").read_bytes()

    @staticmethod
    def _verify_forged(
        tmp_path, mode: str, tamper, market_mode: str = "", legacy: bool = False,
    ) -> int:
        """Run a 300-step full dump of a 3x4 CES market, rewrite its rows
        (the header first) as tamper(rows), and return the exit code of
        verify against the market of market_mode (default: mode), which
        writes tmp_path/v. With legacy, the dump is first rewritten in the
        older layout that also holds the x_i_j and e_i columns."""
        mfile, vfile = tmp_path / "m.json", tmp_path / "v.json"
        for path, m in ((mfile, mode), (vfile, market_mode or mode)):
            main(["gen", "3", "4", "ces", "--mode", m, "--seed", "4", "--out", str(path)])
        run_out = tmp_path / "run"
        assert main([
            "run", "--market", str(mfile), "--max-iters", "300", "--price-tol", "0",
            "--diagnostics", "--full-dump", "--out", str(run_out),
        ]) == 0
        trace_csv = run_out / "trace.csv"
        if legacy:
            market = load_market(mfile)
            _csv_writer_trace(read_trace(trace_csv, market), market, trace_csv, True, legacy=True)
        with open(trace_csv, newline="") as fh:
            rows = tamper(list(csv.reader(fh)))
        with open(trace_csv, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. loadtxt's "input contained no data"
            return main([
                "verify", "--market", str(vfile), "--trace", str(trace_csv),
                "--out", str(tmp_path / "v"),
            ])

    @classmethod
    def _verify_tampered(
        cls, tmp_path, capsys, mode: str, tamper, market_mode: str = "", legacy: bool = False,
    ):
        """The exit code and the error of _verify_forged."""
        code = cls._verify_forged(tmp_path, mode, tamper, market_mode, legacy)
        return code, json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("mode", ["fisher", "exchange"])
    @pytest.mark.parametrize("forge, iteration, column", [
        pytest.param(_swap_99_199, 99, None, id="swap-99-199"),
        pytest.param(_jump_to_last, 1, "p_1", id="jump-to-last"),
        pytest.param(_raise_bid, 150, "p_3", id="raise-bid"),
    ])
    def test_forged_dump_fails_the_replay(self, tmp_path, mode, forge, iteration, column):
        """verify re-runs the dump from its row 0: a dump that is not the PR
        run exits 1, and the report names the first row and column off the
        run."""
        assert self._verify_forged(tmp_path, mode, forge) == 1
        doc = json.loads((tmp_path / "v" / "diagnostics.json").read_text())
        assert doc["passed"] is False
        found = doc["replay_mismatch"]
        assert found["iteration"] == iteration
        header = (tmp_path / "run" / "trace.csv").read_text().splitlines()[0].split(",")
        assert found["column"] in header and found["column"] not in (
            "iteration", "potential", "max_price_delta")
        assert column is None or found["column"] == column

    @classmethod
    def _verify_with_nan(cls, tmp_path, capsys, mode: str, column: str, legacy: bool = False):
        """verify's exit code and error after one entry of the middle row is set to NaN."""
        def set_nan(rows):
            rows[len(rows) // 2][rows[0].index(column)] = "nan"
            return rows
        return cls._verify_tampered(tmp_path, capsys, mode, set_nan, legacy=legacy)

    @pytest.mark.parametrize("mode", ["fisher", "exchange"])
    def test_nan_bid_in_trace_is_error(self, tmp_path, capsys, mode):
        assert self._verify_with_nan(tmp_path, capsys, mode, "b_1_1") == (2, "NonPositiveEntry")

    @pytest.mark.parametrize("column", ["B_1", "p_1", "x_1_1", "e_1"])
    def test_nan_in_exchange_trace_is_error(self, tmp_path, capsys, column):
        # x_i_j and e_i are only in the older layout, whose values are ignored
        # but must still be finite
        legacy = column[0] in "xe"
        assert self._verify_with_nan(tmp_path, capsys, "exchange", column, legacy) == (
            2, "NonPositiveEntry"
        )

    @pytest.mark.parametrize("mode", ["fisher", "exchange"])
    def test_price_not_sum_of_bids_is_error(self, tmp_path, capsys, mode):
        # allocations are rebuilt as b / p, so a tampered p must not pass
        def double_p1(rows):
            rows[150][1] = repr(2 * float(rows[150][1]))
            return rows
        assert self._verify_tampered(tmp_path, capsys, mode, double_p1) == (2, "ParseError")
        with pytest.raises(ParseError, match=r"p_1 = .* at iteration 149 is not the sum"):
            read_trace(tmp_path / "run" / "trace.csv", load_market(tmp_path / "m.json"))

    @pytest.mark.parametrize(
        "market_mode, tamper, error",
        [
            pytest.param("exchange", lambda rows: rows, "ParseError", id="exchange-market"),
            pytest.param("fisher", _set_cell(5, 3, "abc"), "ParseError", id="non-numeric-cell"),
            pytest.param(
                "fisher", lambda rows: rows[:5] + [rows[5][:-2]] + rows[6:], "ParseError",
                id="two-fields-missing",
            ),
            pytest.param("fisher", _set_cell(5, 0, "4.5"), "ParseError", id="fractional-iteration"),
            pytest.param("fisher", _set_cell(5, 0, "inf"), "ParseError", id="infinite-iteration"),
            pytest.param("fisher", _set_cell(5, 0, "1e300"), "NonConsecutiveTrace", id="huge-iteration"),
            pytest.param("fisher", lambda rows: rows[:1], "NonConsecutiveTrace", id="header-only"),
        ],
    )
    def test_malformed_dump_is_structured_error(self, tmp_path, capsys, market_mode, tamper, error):
        assert self._verify_tampered(tmp_path, capsys, "fisher", tamper, market_mode) == (2, error)

    def test_trace_round_trip_exact(self, tmp_path):
        """Floats are shortest round-trip decimals, so a full dump reads back
        bit for bit: every field of every record of a Fisher and an exchange
        run, and the exchange run's budget_drift and n_steps."""
        from prdyn import (
            StopRule, default_initial_bids, default_initial_exchange, run_exchange, run_fisher,
        )
        from prdyn.cli import _diagnostics_doc

        cases = [
            (["2", "3", "separable_power", "--seed", "2"], [],
             lambda m: run_fisher(m, default_initial_bids(m), StopRule(20000, 1e-10))),
            (["3", "4", "ces", "--mode", "exchange", "--seed", "4"],
             ["--max-iters", "300", "--price-tol", "0"],
             lambda m: run_exchange(m, default_initial_exchange(m), StopRule(300, 0.0))),
        ]
        for k, (gen_args, run_args, run) in enumerate(cases):
            mfile, out = tmp_path / f"m{k}.json", tmp_path / f"out{k}"
            main(["gen", *gen_args, "--out", str(mfile)])
            assert main([
                "run", "--market", str(mfile), *run_args, "--diagnostics", "--full-dump",
                "--out", str(out),
            ]) == 0
            market = load_market(mfile)
            ref = run(market)
            _, potential = _diagnostics_doc(market, ref)
            trace = read_trace(out / "trace.csv", market)
            column = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1,
                                usecols=market.n_goods + 1)
            assert _bits(column) == _bits(potential)
            assert trace.is_consecutive()
            assert trace.n_steps == ref.n_steps
            assert _bits(trace.budget_drift) == _bits(ref.budget_drift)
            assert len(trace.records) == len(ref.records)
            for got, want in zip(trace.records, ref.records):
                assert got.iteration == want.iteration
                for name in ("prices", "stop_delta", "bids", "allocation", "budgets_B",
                             "spend_e"):
                    assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name

    def test_missing_bid_columns_rejected(self, tmp_path):
        mfile = tmp_path / "m.json"
        main(["gen", "2", "3", "ces", "--seed", "2", "--out", str(mfile)])
        out = tmp_path / "out"
        main(["run", "--market", str(mfile), "--out", str(out)])
        code = main([
            "verify", "--market", str(mfile), "--trace", str(out / "trace.csv"),
            "--out", str(tmp_path / "v"),
        ])
        assert code == 2  # surfaced as a machine-readable error record


class TestConsoleEntry:
    def test_console_main_freezes_the_collector_then_runs_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
        assert cli.console_main() == 3
        assert calls == ["freeze", "main"]

    def test_main_leaves_the_collector_alone(self, tmp_path):
        frozen = cli.gc.get_freeze_count()
        assert main(["gen", "2", "2", "ces", "--seed", "1", "--out", str(tmp_path / "m.json")]) == 0
        assert cli.gc.get_freeze_count() == frozen


class TestLogLevel:
    """PRD_LOG_LEVEL names a logging level in any case. main checks the name
    itself: logging.basicConfig ignores its level once the root logger has a
    handler, as it has under pytest."""

    @pytest.mark.parametrize("name, level", [
        ("warning", logging.WARNING), ("WARN", logging.WARNING), ("Info", logging.INFO),
        ("debug", logging.DEBUG), ("error", logging.ERROR), ("CRITICAL", logging.CRITICAL),
    ])
    def test_level_name_sets_that_level(self, tmp_path, monkeypatch, name, level):
        monkeypatch.setenv("PRD_LOG_LEVEL", name)
        levels = []
        monkeypatch.setattr(cli.logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
        assert main(["gen", "2", "2", "ces", "--out", str(tmp_path / "m.json")]) == 0
        assert levels == [level]

    @pytest.mark.parametrize("name", ["bogus", "verbose", "WARNINGING", ""])
    def test_unknown_name_is_a_json_error(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.setenv("PRD_LOG_LEVEL", name)
        out = tmp_path / "m.json"
        assert main(["gen", "2", "2", "ces", "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParseError"
        assert f"PRD_LOG_LEVEL {name.upper()!r}" in record["message"]
        assert not out.exists()


def _short_rows_dump(tmp_path):
    """read_trace of a full dump whose every row lacks its last field."""
    mfile, out = tmp_path / "m.json", tmp_path / "run"
    main(["gen", "3", "4", "ces", "--out", str(mfile)])
    main(["run", "--market", str(mfile), "--max-iters", "5", "--full-dump", "--out", str(out)])
    header, *rows = (out / "trace.csv").read_text().splitlines()
    short = "".join(f"{line}\r\n" for line in [header, *(r.rsplit(",", 1)[0] for r in rows)])
    (out / "trace.csv").write_text(short)
    return read_trace(out / "trace.csv", load_market(mfile))


def _empty_dump(tmp_path):
    """read_trace of a file of 0 bytes, which has no header."""
    main(["gen", "3", "4", "ces", "--out", str(tmp_path / "m.json")])
    (tmp_path / "trace.csv").write_text("")
    return read_trace(tmp_path / "trace.csv", load_market(tmp_path / "m.json"))


@pytest.mark.parametrize("call, words", [
    pytest.param(lambda tmp: generate_market(2, 3, "linear", seed=0),
                 "unknown family 'linear'", id="gen-unknown-family"),
    pytest.param(lambda tmp: generate_market(4, 3, "ces", seed=0, mode=Mode.EXCHANGE),
                 "at least one good per agent (m >= n)", id="gen-exchange-fewer-goods"),
    pytest.param(_short_rows_dump, "trace rows have 18 fields, the header 19",
                 id="dump-rows-one-field-short"),
    pytest.param(_empty_dump, "trace.csv: empty trace file, no header", id="dump-empty-file"),
])
def test_malformed_cli_input_is_a_parse_error(tmp_path, call, words):
    with pytest.raises(ParseError) as raised:
        call(tmp_path)
    assert words in str(raised.value)


def _os_error_cases():
    """(argv, error) of commands whose input or output path the OS refuses;
    "{tmp}" stands for a directory holding the market m.json and its
    full-dump trace.csv."""
    market, trace = ["--market", "{tmp}/m.json"], ["--trace", "{tmp}/trace.csv"]
    return [
        pytest.param(["run", "--market", "{tmp}/nope.json"], "FileNotFoundError",
                     id="run-missing-market"),
        pytest.param(["verify", *market, "--trace", "{tmp}/nope.csv"], "FileNotFoundError",
                     id="verify-missing-trace"),
        pytest.param(["verify", *market, "--trace", "{tmp}"], "IsADirectoryError",
                     id="verify-trace-is-a-directory"),
        pytest.param(["run", *market, "--out", "{tmp}/m.json"], "FileExistsError",
                     id="run-out-is-a-file"),
        pytest.param(["run", *market, "--batch", "2", "--out", "{tmp}/m.json"],
                     "NotADirectoryError", id="batch-out-is-a-file"),
        pytest.param(["verify", *market, *trace, "--out", "{tmp}/trace.csv"], "FileExistsError",
                     id="verify-out-is-a-file"),
        pytest.param(["gen", "3", "4", "ces", "--out", "{tmp}/missing/m.json"],
                     "FileNotFoundError", id="gen-out-in-a-missing-directory"),
    ]


class TestOSErrors:
    """An input or output path the OS refuses is a structured error, exit 2,
    with the JSON record of every other one on stderr; exit 1 stays a failed
    run or check."""

    @pytest.mark.parametrize("argv, error", _os_error_cases())
    def test_os_error_exits_two_with_a_json_record(self, tmp_path, capsys, argv, error):
        main(["gen", "3", "4", "ces", "--out", str(tmp_path / "m.json")])
        main(["run", "--market", str(tmp_path / "m.json"), "--max-iters", "5", "--full-dump",
              "--out", str(tmp_path / "run")])
        (tmp_path / "run" / "trace.csv").rename(tmp_path / "trace.csv")
        capsys.readouterr()
        assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == error
        assert str(tmp_path) in record["message"]


class TestOutDirectory:
    """A command makes its --out directory after every check that can fail,
    just before its first write, so a command that exits 2 leaves none
    behind."""

    @pytest.mark.parametrize("argv, error", [
        pytest.param(["solve", "--max-iters", "0"], "InvalidRunControl", id="solve-max-iters-0"),
        pytest.param(["run", "--max-iters", "0"], "InvalidRunControl", id="run-max-iters-0"),
        pytest.param(["run", "--record-every", "0"], "InvalidRunControl",
                     id="run-record-every-0"),
        pytest.param(["run", "--diagnostics", "--record-every", "7"], "NonConsecutiveTrace",
                     id="run-diagnostics-record-every-7"),
        pytest.param(["verify", "--trace", "{tmp}/header.csv"], "NonConsecutiveTrace",
                     id="verify-header-only-dump"),
        pytest.param(["verify", "--trace", "{tmp}/empty.csv"], "ParseError",
                     id="verify-empty-dump"),
    ])
    def test_failed_command_leaves_no_out_directory(self, tmp_path, capsys, argv, error):
        mfile = tmp_path / "m.json"
        main(["gen", "3", "4", "ces", "--out", str(mfile)])
        main(["run", "--market", str(mfile), "--max-iters", "5", "--full-dump",
              "--out", str(tmp_path / "run")])
        header = (tmp_path / "run" / "trace.csv").read_text().splitlines()[0]
        (tmp_path / "header.csv").write_text(header + "\n")
        (tmp_path / "empty.csv").write_text("")
        capsys.readouterr()
        command, *flags = argv
        out = tmp_path / "out"
        assert main([command, "--market", str(mfile),
                     *(a.replace("{tmp}", str(tmp_path)) for a in flags), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == error
        assert not out.exists()

    def test_run_makes_a_nested_out_directory(self, tmp_path):
        mfile, out = tmp_path / "m.json", tmp_path / "a" / "b" / "c"
        main(["gen", "3", "4", "ces", "--out", str(mfile)])
        assert main(["run", "--market", str(mfile), "--out", str(out)]) == 0
        assert sorted(f.name for f in out.iterdir()) == ["summary.json", "trace.csv"]
