"""Tests for the command-line interface."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import build_parser, main


def run_cli(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    code = main(list(argv), out=buffer)
    return code, buffer.getvalue()


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_unknown_command_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["frobnicate"])

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "D7", "Q7"])
        assert args.algorithm == "auto"
        assert args.top_k is None
        assert args.num_mappings == 100

    def test_plan_help_derived_from_registry(self):
        from repro.engine import available_plans

        parser = build_parser()
        args = parser.parse_args(["query", "D7", "Q7", "--plan", "compiled"])
        assert args.algorithm == "compiled"
        # Every registered plan must appear in the query and explain
        # subparser help (the text is generated from the registry).
        subparsers = parser._subparsers._group_actions[0].choices
        for command in ("query", "explain"):
            help_text = subparsers[command].format_help()
            for name in available_plans():
                assert name in help_text, f"{name} missing from {command} --plan help"


class TestCommands:
    def test_schemas(self):
        code, output = run_cli("schemas")
        assert code == 0
        assert "xcbl" in output
        assert "1076" in output

    def test_show_schema(self):
        code, output = run_cli("show-schema", "cidx", "--max-lines", "10")
        assert code == 0
        assert output.splitlines()[0] == "Order"
        assert "more elements" in output

    def test_show_schema_unknown(self):
        code, output = run_cli("show-schema", "sap")
        assert code == 2
        assert "error:" in output

    def test_datasets(self):
        code, output = run_cli("datasets")
        assert code == 0
        assert "D7" in output and "apertum" in output

    def test_match(self):
        code, output = run_cli("match", "D1", "--limit", "5")
        assert code == 0
        assert "correspondences" in output
        assert output.count("~") == 5

    def test_match_unknown_dataset(self):
        code, output = run_cli("match", "D42")
        assert code == 2
        assert "error:" in output

    def test_mappings(self):
        code, output = run_cli("mappings", "D1", "--h", "5")
        assert code == 0
        assert "top-5 mappings" in output
        assert "o-ratio" in output

    def test_blocktree(self):
        code, output = run_cli("blocktree", "D1", "--num-mappings", "20", "--tau", "0.3")
        assert code == 0
        assert "num_blocks" in output
        assert "compression_ratio" in output

    def test_query_by_id(self):
        code, output = run_cli("query", "D7", "Q2", "--num-mappings", "50")
        assert code == 0
        assert "answers" in output
        assert "value distribution" in output

    def test_query_by_pattern_basic_algorithm(self):
        code, output = run_cli(
            "query", "D7", "Order/DeliverTo/Contact/EMail",
            "--num-mappings", "50", "--algorithm", "basic",
        )
        assert code == 0
        assert "using basic" in output

    def test_query_compiled_and_dashed_spellings_accepted(self):
        code, output = run_cli(
            "query", "D7", "Q2", "--num-mappings", "25", "--plan", "compiled",
        )
        assert code == 0
        assert "using compiled" in output
        code, output = run_cli(
            "query", "D7", "Q2", "--num-mappings", "25", "--algorithm", "block-tree",
        )
        assert code == 0
        assert "using block-tree" in output

    def test_query_unknown_plan_lists_registered_plans(self):
        code, output = run_cli("query", "D7", "Q2", "--algorithm", "quantum")
        assert code == 2
        assert "error:" in output
        for name in ("basic", "blocktree", "compiled"):
            assert name in output

    def test_query_top_k(self):
        code, output = run_cli("query", "D7", "Q2", "--num-mappings", "50", "--top-k", "5")
        assert code == 0
        assert "5 answers" in output

    def test_query_bad_pattern(self):
        code, output = run_cli("query", "D7", "Order/[")
        assert code == 2
        assert "error:" in output

    def test_query_json(self):
        code, output = run_cli("query", "D7", "Q2", "--num-mappings", "50", "--json")
        assert code == 0
        payload = json.loads(output)
        assert payload["dataset"] == "D7"
        assert payload["query"] == "Order/DeliverTo/Contact/EMail"
        result = payload["result"]
        assert result["num_answers"] == len(result["answers"]) == 50
        assert {"mapping_id", "probability", "matches"} <= set(result["answers"][0])
        # Probabilities travel in their exact hex encoding.
        assert float.fromhex(result["answers"][0]["probability"]) >= 0.0
        assert payload["value_distribution"]

    def test_blocktree_json(self):
        code, output = run_cli(
            "blocktree", "D1", "--num-mappings", "20", "--tau", "0.3", "--json"
        )
        assert code == 0
        payload = json.loads(output)
        assert "num_blocks" in payload and "compression_ratio" in payload

    def test_batch(self):
        code, output = run_cli(
            "batch", "D7", "Q2", "//EMail", "Q2",
            "--num-mappings", "50", "--workers", "4", "--repeat", "2",
        )
        assert code == 0
        assert "6 queries (3 distinct x 2 rounds)" in output
        assert output.count("answers") == 3
        assert "cache: hits=" in output

    def test_batch_json(self):
        code, output = run_cli(
            "batch", "D7", "Q2", "Q4", "--num-mappings", "50",
            "--top-k", "5", "--json",
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["dataset"] == "D7"
        assert payload["total_ops"] == 2
        assert [item["result"]["num_answers"] for item in payload["results"]] == [5, 5]
        assert payload["service"]["completed"] == 2
        assert "result_cache" in payload["service"]

    def test_batch_no_cache(self):
        code, output = run_cli(
            "batch", "D7", "Q2", "--num-mappings", "50", "--repeat", "2",
            "--no-cache", "--json",
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["service"]["result_cache"]["hits"] == 0

    def test_batch_bad_query(self):
        code, output = run_cli("batch", "D7", "Order/[", "--num-mappings", "50")
        assert code == 2
        assert "error:" in output

    def test_explain(self):
        code, output = run_cli("explain", "D7", "Q2", "--num-mappings", "50")
        assert code == 0
        assert "plan:" in output
        assert "compiled" in output
        assert "distinct rewrites" in output
        assert "timings:" in output
        assert "cache:" in output

    def test_explain_forced_plan_json(self):
        code, output = run_cli(
            "explain", "D7", "Q2", "--num-mappings", "50",
            "--algorithm", "basic", "--top-k", "5", "--json",
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["plan"] == "basic"
        assert payload["reason"] == "forced by caller"
        assert payload["k"] == 5
        assert payload["num_selected"] == 5

    def test_explain_unknown_dataset(self):
        code, output = run_cli("explain", "D42", "Q2")
        assert code == 2
        assert "error:" in output


class TestRemovedOptions:
    """The sharded corpus and the cost model are gone, and so are their flags."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["corpus", "D1", "//ContactName"],
            ["serve", "D1", "--shards", "4"],
            ["explain", "D1", "//ContactName", "--analyze"],
        ],
        ids=["corpus", "serve-shards", "explain-analyze"],
    )
    def test_rejected_by_the_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestDeltaCommand:
    def test_delta_reweight_reports_survivors(self):
        code, output = run_cli(
            "delta", "D1", "//ContactName", "--num-mappings", "12", "--touch", "3",
        )
        assert code == 0
        assert "epoch 1" in output
        assert "served without re-evaluation" in output
        assert "retained=" in output

    def test_delta_json_payload(self):
        code, output = run_cli(
            "delta", "D1", "//ContactName", "//Name",
            "--num-mappings", "12", "--touch", "2", "--json",
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["dataset"] == "D1"
        assert payload["delta"]["delta_epoch"] == 1
        assert payload["delta"]["touched_mappings"] == 2
        assert len(payload["queries"]) == 2
        for state in payload["queries"]:
            assert state["cache"] in ("hit", "retained", "miss")
        assert "retained" in payload["result_cache"]

    def test_delta_structural_mode(self):
        code, output = run_cli(
            "delta", "D1", "//ContactName",
            "--num-mappings", "12", "--touch", "2", "--mode", "structural", "--json",
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["delta"]["structural_mappings"] == 2
        assert payload["delta"]["posting_lists_touched"] >= 1

    def test_delta_unknown_dataset(self):
        code, output = run_cli("delta", "D99", "//Name")
        assert code == 2
        assert "error:" in output


class TestStoreCommand:
    def test_persist_then_stats_verify_gc(self, tmp_path):
        path = str(tmp_path / "store.db")
        code, output = run_cli(
            "store", "persist", "--path", path, "--dataset", "D1",
            "--num-mappings", "4", "--json",
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["ref"].startswith("dataspace/D1")
        assert payload["artifacts"] >= 5
        assert payload["provenance"]["matching"]["source"] == "built"

        code, output = run_cli("store", "stats", "--path", path, "--json")
        assert code == 0
        stats = json.loads(output)
        assert stats["blocks"] >= 5
        assert stats["refs"] == 1

        code, output = run_cli("store", "verify", "--path", path)
        assert code == 0
        assert "0 errors" in output

        code, output = run_cli("store", "gc", "--path", path)
        assert code == 0
        assert "removed 0 unreachable blocks" in output

    def test_second_persist_reopens_from_store(self, tmp_path):
        path = str(tmp_path / "store.db")
        code, _ = run_cli(
            "store", "persist", "--path", path, "--dataset", "D1",
            "--num-mappings", "4", "--json",
        )
        assert code == 0
        code, output = run_cli(
            "store", "persist", "--path", path, "--dataset", "D1",
            "--num-mappings", "4", "--json",
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["provenance"]["matching"]["source"] == "loaded"

    def test_gc_sweeps_unreferenced_blocks(self, tmp_path):
        from repro.store import SqliteBlockStore

        path = str(tmp_path / "store.db")
        code, _ = run_cli(
            "store", "persist", "--path", path, "--dataset", "D1",
            "--num-mappings", "4",
        )
        assert code == 0
        with SqliteBlockStore(path) as blocks:
            blocks.put_block(b"orphaned scratch block")
        code, output = run_cli("store", "gc", "--path", path, "--json")
        assert code == 0
        assert json.loads(output)["removed"] == 1

    def test_verify_flags_corruption(self, tmp_path):
        from repro.store import SqliteBlockStore

        path = str(tmp_path / "store.db")
        code, _ = run_cli(
            "store", "persist", "--path", path, "--dataset", "D1",
            "--num-mappings", "4",
        )
        assert code == 0
        with SqliteBlockStore(path) as blocks:
            victim = next(iter(blocks.iter_keys()))
            blocks._write(victim, b"rot")
        code, output = run_cli("store", "verify", "--path", path)
        assert code == 2
        assert "error" in output
