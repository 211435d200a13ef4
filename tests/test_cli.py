"""Tests for the ``python -m repro`` command-line interface."""

import argparse

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_gemm_defaults(self):
        args = build_parser().parse_args(["gemm"])
        assert args.system == "Table2"
        assert args.size == 128
        assert not args.verify

    def test_vit_model_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["vit", "--model", "colossal"])

    def test_sweep_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--kind", "packet"])


def _actions(command: str) -> dict:
    """The ``command`` subparser's actions, keyed by option string."""
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {flag: action
            for action in subparsers.choices[command]._actions
            for flag in action.option_strings}


class TestParserContract:
    """The options several subcommands share keep one meaning."""

    COMMANDS = ("systems", "gemm", "vit", "sweep", "surrogate",
                "faults", "telemetry", "serve", "cache")

    def test_sweep_overrides_identical_across_commands(self):
        expected = {"--system": ("system", None), "--size": ("size", int),
                    "--model": ("model", None),
                    "--dim-scale": ("dim_scale", float)}
        for command in ("sweep", "surrogate"):
            actions = _actions(command)
            for flag, (dest, type_) in expected.items():
                action = actions[flag]
                assert (action.dest, action.type, action.default) == (
                    dest, type_, None), (command, flag)

    def test_cache_dir_defaults_to_none_everywhere(self):
        takers = [command for command in self.COMMANDS
                  if "--cache-dir" in _actions(command)]
        assert takers == ["sweep", "surrogate", "serve", "cache"]
        for command in takers:
            assert _actions(command)["--cache-dir"].default is None

    def test_workers_defaults_per_command(self):
        # sweep and surrogate share one --workers action; a default set
        # on it through any one subparser would show up in both.
        defaults = {command: _actions(command)["--workers"].default
                    for command in ("sweep", "surrogate", "serve")}
        assert defaults == {"sweep": None, "surrogate": None, "serve": 1}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_renders(self, command, capsys):
        # Rendering help expands every %-format in every help string.
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert f"usage: repro {command}" in capsys.readouterr().out

    def test_bare_sweep_names_the_way_to_pick_one(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep"])
        assert "--name" in str(exit_info.value.code)
        assert "sweep --list" in str(exit_info.value.code)


class TestCommands:
    def test_systems_lists_all(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        for name in ("PCIe-2GB", "PCIe-8GB", "PCIe-64GB", "DevMem", "Table2"):
            assert name in out

    def test_gemm_runs_and_verifies(self, capsys):
        assert main(["gemm", "--size", "32", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out
        assert "delivered" in out

    def test_gemm_translation_report(self, capsys):
        assert main(["gemm", "--size", "32", "--translation"]) == 0
        out = capsys.readouterr().out
        assert "utlb_lookup_times" in out

    def test_gemm_unknown_system(self):
        with pytest.raises(SystemExit):
            main(["gemm", "--system", "PCIe-999GB"])

    def test_gemm_packet_size(self, capsys):
        assert main(["gemm", "--size", "32", "--packet-size", "512"]) == 0

    def test_vit_runs(self, capsys):
        assert main(
            ["vit", "--model", "base", "--dim-scale", "0.0625",
             "--system", "PCIe-8GB"]
        ) == 0
        out = capsys.readouterr().out
        assert "non-GEMM" in out

    def test_sweep_packet(self, capsys, tmp_path):
        assert main(
            ["sweep", "--name", "packet-size", "--size", "32",
             "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "4096" in out
        assert "0 cached / 7 simulated" in out

    def test_sweep_second_run_served_from_cache(self, capsys, tmp_path):
        argv = ["sweep", "--name", "packet-size", "--size", "32",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "7 cached / 0 simulated" in second
        # The replayed table is byte-identical to the simulated one.
        assert first.splitlines()[:-1] == second.splitlines()[:-1]

    def test_sweep_no_cache(self, capsys, tmp_path):
        argv = ["sweep", "--name", "packet-size", "--size", "32",
                "--cache-dir", str(tmp_path), "--no-cache"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 cached / 7 simulated" in out

    def test_sweep_list_shows_all_experiments(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "pcie-bandwidth", "packet-size", "fig5-memory",
            "fig6a-mem-bandwidth", "fig6b-mem-latency", "fig7-transformer",
            "fig8-gemm-split", "fig9-tradeoff", "tab4-translation",
            "ablation-dataflow", "ablation-smmu", "access-modes",
            "ext-cxl-gemm", "ext-cxl-vit",
            "topo-endpoint-scaling", "topo-contention", "topo-p2p",
            "topo-switch-depth",
        ):
            assert name in out, f"{name} missing from sweep --list"

    def test_sweep_list_json(self, capsys):
        import json

        assert main(["sweep", "--list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in entries}
        assert by_name["topo-p2p"]["runner"] == "peer"
        assert by_name["topo-endpoint-scaling"]["runner"] == "multigemm"
        assert by_name["pcie-bandwidth"]["runner"] == "gemm"
        for entry in entries:
            assert set(entry) == {"name", "runner", "points", "description"}
            assert entry["points"] > 0

    def test_sweep_json_without_list_warns(self, capsys, tmp_path):
        assert main(
            ["sweep", "--name", "access-modes", "--size", "16", "--json",
             "--cache-dir", str(tmp_path)]
        ) == 0
        assert "--json applies to --list" in capsys.readouterr().err

    @pytest.mark.parametrize("margin", ["0", "0.2"])
    def test_sweep_margin_without_ladder_warns(self, capsys, tmp_path,
                                               margin):
        # 0.0 == False, so only an identity test tells "0" from unset.
        assert main(
            ["sweep", "--name", "access-modes", "--size", "16",
             "--margin", margin, "--cache-dir", str(tmp_path)]
        ) == 0
        assert "--margin applies with --ladder" in capsys.readouterr().err

    def test_sweep_multigemm_runner_table(self, capsys, tmp_path):
        assert main(
            ["sweep", "--name", "topo-endpoint-scaling", "--size", "48",
             "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "uplink util" in out
        assert "topo-endpoint-scaling" in out

    def test_sweep_peer_runner_table(self, capsys, tmp_path):
        assert main(
            ["sweep", "--name", "topo-p2p", "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "bounce" in out
        assert "RC bytes" in out

    def test_sweep_by_name(self, capsys, tmp_path):
        assert main(
            ["sweep", "--name", "access-modes", "--size", "16",
             "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "access-modes" in out
        assert "DevMem" in out
        assert "0 cached / 3 simulated" in out

    def test_sweep_by_name_vit_runner(self, capsys, tmp_path):
        assert main(
            ["sweep", "--name", "ext-cxl-vit", "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "non-GEMM" in out
        assert "vit_devmem_cxl" in out

    def test_sweep_unknown_name(self):
        with pytest.raises(SystemExit, match="unknown sweep"):
            main(["sweep", "--name", "no-such-figure"])

    def test_sweep_name_honors_system_base(self, capsys, tmp_path):
        assert main(
            ["sweep", "--name", "packet-size", "--system", "DevMem",
             "--size", "16", "--cache-dir", str(tmp_path)]
        ) == 0
        captured = capsys.readouterr()
        assert "ignores" not in captured.err

    def test_sweep_name_warns_on_unsupported_system(self, capsys, tmp_path):
        assert main(
            ["sweep", "--name", "access-modes", "--system", "DevMem",
             "--size", "16", "--cache-dir", str(tmp_path)]
        ) == 0
        assert "ignores --system" in capsys.readouterr().err

    def test_sweep_shard_flag(self, capsys, tmp_path):
        argv = ["sweep", "--name", "access-modes", "--size", "16",
                "--cache-dir", str(tmp_path)]
        assert main(argv + ["--shard", "1/3"]) == 0
        assert "shard 1/3" in capsys.readouterr().out
        assert main(argv + ["--shard", "2/3"]) == 0
        assert main(argv + ["--shard", "3/3"]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "3 cached / 0 simulated" in capsys.readouterr().out

    def test_sweep_bad_shard_exits_cleanly(self, tmp_path):
        # A malformed --shard must be a clean CLI error, not a traceback.
        with pytest.raises(SystemExit, match="I/N"):
            main(["sweep", "--name", "access-modes", "--shard", "bogus",
                  "--cache-dir", str(tmp_path)])
        with pytest.raises(SystemExit, match="shard"):
            main(["sweep", "--name", "access-modes", "--shard", "0/4",
                  "--cache-dir", str(tmp_path)])

    def test_cache_stats_clear_prune(self, capsys, tmp_path):
        assert main(
            ["sweep", "--name", "access-modes", "--size", "16",
             "--cache-dir", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries:    3" in out
        assert "access-modes" in out
        assert main(["cache", "prune", "--sweep", "access-modes",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "removed 3 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 0 entries" in capsys.readouterr().out

    def test_cache_stats_skips_a_non_utf8_entry(self, capsys, tmp_path):
        assert main(["sweep", "--name", "access-modes", "--size", "16",
                     "--shard", "1/3", "--cache-dir", str(tmp_path)]) == 0
        (tmp_path / f"{'ef' * 32}.json").write_bytes(
            b'{"record": "\xff\xfe"}')
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "entries:    1" in capsys.readouterr().out

    def test_cache_prune_requires_sweep(self, tmp_path):
        with pytest.raises(SystemExit, match="--sweep"):
            main(["cache", "prune", "--cache-dir", str(tmp_path)])

    def test_systems_lists_cxl_presets(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "CXL-host" in out
        assert "DevMem-CXL" in out

    def test_gemm_on_cxl_host(self, capsys):
        assert main(["gemm", "--system", "cxl-host", "--size", "32"]) == 0
        out = capsys.readouterr().out
        assert "CXL-host" in out

    def test_gemm_on_devmem_cxl(self, capsys):
        assert main(["gemm", "--system", "DevMem-CXL", "--size", "32"]) == 0
        out = capsys.readouterr().out
        assert "DevMem-CXL" in out

    @pytest.mark.parametrize("ladder", [False, True])
    def test_sweep_ends_its_telemetry_session(self, capsys, tmp_path,
                                              ladder):
        from repro.sweep import build_sweep, run_sweep
        from repro.telemetry.state import COLLECTOR

        argv = ["sweep", "--name", "access-modes", "--size", "16",
                "--diagnostics", "--no-cache",
                "--telemetry-dir", str(tmp_path / "telemetry")]
        assert main(argv + (["--ladder", "--top-k", "1"] if ladder
                            else ["--shard", "1/3"])) == 0
        capsys.readouterr()
        assert COLLECTOR.get() is None
        report = run_sweep(build_sweep("access-modes", size=16), workers=1,
                           cache=False, shard=(1, 3))
        assert [outcome.telemetry for outcome in report.outcomes] == [None]

    def test_profiled_sweep_then_summarize_prints_layer_table(
            self, capsys, tmp_path):
        directory = str(tmp_path / "telemetry")
        assert main(["sweep", "--name", "access-modes", "--size", "16",
                     "--shard", "1/3", "--profile",
                     "--telemetry-dir", directory,
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "telemetry: 1/1 point(s) captured" in capsys.readouterr().out
        assert main(["telemetry", "summarize", "--dir", directory]) == 0
        out = capsys.readouterr().out
        assert "host self time by layer, 1 profiled point(s)" in out
        table = out.split("host self time by layer", 1)[1].splitlines()
        assert table[1].split() == ["layer", "self", "ms", "share", "calls"]
        layers = {line.split()[0] for line in table[3:] if line.strip()}
        assert {"sim", "cache", "builtins"} <= layers
