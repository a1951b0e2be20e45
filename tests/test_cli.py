"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.city == "trondheim"
        assert args.hours == 6
        assert args.seed == 0

    def test_city_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--city", "oslo"])

    @pytest.mark.parametrize("flag", ["--hours", "--shards"])
    def test_table1_takes_no_window_flags(self, flag):
        # table1 simulates no window and builds no store.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["table1", flag, "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["query", "air.co2.ppm", "--start", "0"],
        ["query", "air.co2.ppm", "--end", "10"],
        ["query", "air.co2.ppm", "--tenant", "x"],
        ["query", "air.co2.ppm", "--refresh"],
        ["catalog", "--tenant", "x"],
    ])
    def test_connect_only_flags_refused_locally(self, argv):
        # Refused before anything is simulated, naming --connect.
        with pytest.raises(SystemExit, match="--connect HOST:PORT is required by"):
            main(argv)


class TestCommands:
    def test_run(self, capsys):
        assert main(["run", "--city", "vejle", "--hours", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "vejle: 1 simulated hour(s)" in out
        assert "transmissions" in out

    def test_dashboard(self, capsys):
        assert main(["dashboard", "--city", "vejle", "--hours", "1"]) == 0
        out = capsys.readouterr().out
        assert "CAQI per node" in out

    def test_wall(self, capsys):
        assert main(["wall", "--city", "vejle", "--hours", "1"]) == 0
        out = capsys.readouterr().out
        assert "CTT wall" in out
        assert "Active alarms" in out

    def test_table1(self, capsys):
        assert main(["table1", "--city", "vejle"]) == 0
        out = capsys.readouterr().out
        assert "NILU" in out
        assert "connector" in out

    def test_run_deterministic(self, capsys):
        main(["run", "--city", "vejle", "--hours", "1", "--seed", "3"])
        first = capsys.readouterr().out
        main(["run", "--city", "vejle", "--hours", "1", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second


class TestCatalogCommand:
    def test_metrics_listing(self, capsys):
        assert main(["catalog", "--city", "vejle", "--hours", "1"]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["catalog"]["op"] == "metrics"
        assert "air.co2.ppm" in reply["catalog"]["values"]

    def test_tag_values_and_cardinality(self, capsys):
        assert main(["catalog", "--city", "vejle", "--hours", "1",
                     "--metric", "air.co2.ppm", "--key", "city"]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["catalog"]["values"] == ["vejle"]
        assert main(["catalog", "--city", "vejle", "--hours", "1",
                     "--metric", "air.co2.ppm", "--cardinality",
                     "--tags", "node=*"]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["catalog"]["count"] > 0

    def test_flag_validation(self):
        with pytest.raises(SystemExit):
            main(["catalog", "--key", "node"])  # --key needs --metric
        with pytest.raises(SystemExit):
            main(["catalog", "--metric", "m", "--key", "k",
                  "--cardinality"])  # exclusive
        with pytest.raises(SystemExit):
            main(["catalog", "--metric", "m", "--tags", "a=b"])  # no op

    def test_in_band_error_exits_nonzero(self, capsys):
        assert main(["catalog", "--city", "vejle", "--hours", "1",
                     "--metric", "air.co2.ppm", "--key", "bad|key"]) == 1
        reply = json.loads(capsys.readouterr().out)
        assert reply["error"]["type"] == "InvalidName"
