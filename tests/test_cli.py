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
        ["query", "air.co2.ppm", "--start", "0", "--end", "10"],
        ["catalog", "--tenant", "x"],
    ])
    def test_connect_only_flags_refused_locally(self, argv):
        # Refused before anything is simulated, naming --connect.
        with pytest.raises(SystemExit, match="--connect HOST:PORT is required by"):
            main(argv)

    @pytest.mark.parametrize("connect", [[], ["--connect", "127.0.0.1:1"]])
    def test_query_refresh_is_an_unknown_option(self, connect):
        # Every request runs one path on the server: there is no mode to ask for.
        with pytest.raises(SystemExit) as exc:
            main(["query", "air.co2.ppm", "--refresh", *connect])
        assert exc.value.code == 2


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


class TestQueryCommand:
    def test_local_and_remote_print_the_same_points(self, tmp_path, capsys):
        """One request file, run on a simulated store and through a
        server over the same store: one printer, the same text."""
        from repro.cli import _build
        from repro.tsdb import Query, wire
        from test_serve import live_server

        eco, city = _build("vejle", 1, 0)
        start, end = eco.now - 3600, eco.now
        by_node = Query("air.co2.ppm", start, end, tags={"city": "vejle"},
                        downsample="10m-avg", group_by=("node",))
        request = tmp_path / "req.json"
        request.write_text(json.dumps(wire.encode_request([
            by_node,
            Query("air.co2.ppm", start, end, downsample="5m-max-nan"),
            Query("air.co2.ppm", start, end, aggregator="sum",
                  group_by=("city",)),
        ])))

        assert main(["query", "--request", str(request),
                     "--city", "vejle", "--hours", "1"]) == 0
        local = capsys.readouterr().out
        with live_server(city.db) as server:
            host, port = server.address
            assert main(["query", "--request", str(request),
                         "--connect", f"{host}:{port}"]) == 0
        assert capsys.readouterr().out == local

        results = json.loads(local)["results"]
        assert [list(r) for r in results] == [["series", "scannedPoints"]] * 3
        (series, *_) = results[0]["series"]
        assert series["tags"]["node"] and series["points"]
        assert all(len(p) == 2 and isinstance(p[0], int)
                   for p in series["points"])
        assert None in [v for _, v in results[1]["series"][0]["points"]]

    def test_an_in_band_error_is_printed_and_exits_1(self, tmp_path, capsys):
        from repro.tsdb import TSDB, wire
        from test_serve import live_server

        db = TSDB()
        for node in ("a", "b"):
            db.put("air.co2.ppm", 0, 400.0, {"node": node})
        request = tmp_path / "req.json"
        request.write_text(json.dumps({
            "version": wire.WIRE_VERSION,
            "queries": [{"metric": "air.co2.ppm", "start": 0, "end": 10,
                         "tags": {"node": "*"}}],
        }))
        with live_server(db, max_match_series=1) as server:
            host, port = server.address
            code = main(["query", "--request", str(request),
                         "--connect", f"{host}:{port}"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and out["error"]["type"] == "CardinalityLimitError"

    def test_an_expr_request_is_refused_before_anything_runs(
            self, tmp_path, capsys):
        """The retired expression form is refused by the strict field
        check, naming the fields, before the city is simulated."""
        from repro.tsdb import wire

        request = tmp_path / "req.json"
        request.write_text(json.dumps({
            "version": wire.WIRE_VERSION,
            "queries": [{"expr": "a + 1", "operands": {
                "a": {"metric": "air.co2.ppm", "start": 0, "end": 10}}}],
        }))
        with pytest.raises(SystemExit) as exc:
            main(["query", "--request", str(request),
                  "--city", "vejle", "--hours", "1"])
        assert "unknown query fields: ['expr', 'operands']" in str(exc.value.code)


class TestCompactCommand:
    def test_a_directory_is_refused_as_not_a_segment_file(
            self, tmp_path, capsys):
        from repro.tsdb import TSDB, snapshot

        db = TSDB()
        db.put("air.co2.ppm", 0, 400.0, {"node": "a"})
        shard = tmp_path / "shard-0-of-1.seg"
        snapshot(db, shard)
        before = shard.read_bytes()
        for argv in (["compact", str(tmp_path)],
                     ["compact", "--max-blocks", "1", str(tmp_path)]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            # a str code exits with status 1
            assert str(exc.value.code) == (
                f"compact: {tmp_path} is a directory, not a segment file")
        assert [p.name for p in tmp_path.iterdir()] == [shard.name]
        assert shard.read_bytes() == before

        with pytest.raises(SystemExit) as exc:
            main(["compact", "--help"])
        assert exc.value.code == 0
        assert "director" not in capsys.readouterr().out


class TestServeCommand:
    @pytest.mark.parametrize("argv, message", [
        (["--parallelism", "0"], "parallelism must be positive"),
        (["--max-pending", "-1"], "max_pending must be positive"),
        (["--cache-capacity", "0"], "capacity must be positive"),
        (["--max-match-series", "0"], "max_match_series must be positive"),
        (["--compact-every", "0"], "--compact-every must be positive"),
        (["--compact-every", "-1"], "--compact-every must be positive"),
    ], ids=["parallelism", "max-pending", "cache-capacity", "max-match-series",
            "compact-every-0", "compact-every-negative"])
    def test_a_bad_setting_is_refused_before_the_city_is_simulated(
            self, tmp_path, monkeypatch, argv, message):
        """One ``serve: …`` line, exit 1, and no simulation (at the parent
        the first four ended in a traceback after it, and a zero
        ``--compact-every`` was accepted and spun)."""
        import repro.cli

        def simulate(*args):
            raise AssertionError("the city was simulated")

        monkeypatch.setattr(repro.cli, "_build", simulate)
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0",
                  "--wal", str(tmp_path / "serve.wal"), *argv])
        assert str(exc.value.code) == f"serve: {message}"
        assert not any(tmp_path.iterdir())
