import json
import re
from pathlib import Path

import numpy as np
import pytest

from prdyn import Mode
from prdyn.cli import generate_market, load_market, main, read_trace, write_market
from prdyn.errors import ParseError, UtilityParamInvalid
from test_equilibrium import near_linear_fisher_market


def write_json(path, doc):
    path.write_text(json.dumps(doc))


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


class TestSolve:
    def test_diverging_oracle_exits_one(self, tmp_path):
        mfile = tmp_path / "m.json"
        write_market(near_linear_fisher_market("ces", 1), mfile)
        out = tmp_path / "sol"
        assert main(["solve", "--market", str(mfile), "--out", str(out)]) == 1
        doc = json.loads((out / "equilibrium.json").read_text())
        assert doc["converged"] is False
        assert all(np.isfinite(doc["p_star"])) and min(doc["p_star"]) > 0


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

    @pytest.mark.parametrize("flag", ["--max-iters", "--record-every"])
    def test_run_control_below_one_is_error(self, tmp_path, capsys, flag):
        mfile = tmp_path / "m.json"
        main(["gen", "2", "3", "ces", "--seed", "0", "--out", str(mfile)])
        code = main(["run", "--market", str(mfile), flag, "0", "--out", str(tmp_path / "o")])
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
        mfile = tmp_path / "m.json"
        main(["gen", "2", "3", "ces", "--seed", "0", "--out", str(mfile)])
        out = tmp_path / "batch"
        assert main([
            "run", "--market", str(mfile), "--price-tol", "1e-10",
            "--batch", "3", "--seed", "10", "--out", str(out),
        ]) == 0
        for seed in (10, 11, 12):
            assert (out / f"seed-{seed:04d}" / "summary.json").exists()


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

    def test_trace_round_trip_exact(self, tmp_path):
        mfile = tmp_path / "m.json"
        main(["gen", "2", "3", "separable_power", "--seed", "2", "--out", str(mfile)])
        out = tmp_path / "out"
        main(["run", "--market", str(mfile), "--full-dump", "--out", str(out)])
        market = load_market(mfile)
        trace = read_trace(out / "trace.csv", market)
        assert trace.is_consecutive()
        # serialization is shortest-round-trip decimal: bids survive exactly
        from prdyn import StopRule, default_initial_bids, run_fisher
        ref = run_fisher(
            market, default_initial_bids(market), StopRule(20000, 1e-10)
        )
        assert np.array_equal(trace.records[-1].bids, ref.records[-1].bids)

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
