"""CLI tests (argparse wiring + command behaviour, in-process)."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.nn.losses import LOSS_NAMES, get_loss


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        commands = set(subparsers.choices)
        assert commands == {
            "table1", "fig4", "train", "search", "simulate", "profile",
            "calibrate", "report", "summary", "telemetry", "top", "trace",
            "serve-bench",
        }

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_requires_method_and_gpus(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate"])
        args = build_parser().parse_args(["simulate", "data_parallel", "8"])
        assert args.gpus == 8

    @pytest.mark.parametrize("argv", [
        ["search", "--losses", "dice", "nope", "--executor", "process"],
        ["train", "--loss", "nope"],
    ], ids=["search", "train"])
    def test_unknown_loss_is_a_parse_error(self, argv, capsys, monkeypatch):
        """An unknown loss name exits 2 with an argparse error before the
        command runs: no cohort is built and no pool is started."""
        import repro.cli as cli

        ran = []
        monkeypatch.setattr(cli, "cmd_search", ran.append)
        monkeypatch.setattr(cli, "cmd_train", ran.append)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        assert ran == []

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_every_registered_loss_parses(self, name):
        """Both loss flags accept exactly the registry's names."""
        parser = build_parser()
        assert parser.parse_args(["train", "--loss", name]).loss == name
        args = parser.parse_args(["search", "--losses", "dice", name])
        assert args.losses == ["dice", name]

    @pytest.mark.parametrize("command", ["train", "search"])
    def test_help_lists_every_registered_loss(self, command, capsys):
        """The loss flags resolve their choices lazily; ``--help`` still
        names every loss the registry holds."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "NAME" in out
        for name in LOSS_NAMES:
            assert name in out, (name, out)

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_configured_loss_is_built_from_registry(self, name):
        """A parsed name resolves to a loss the trainer can call."""
        args = build_parser().parse_args(["train", "--loss", name])
        pred = np.full((1, 1, 2, 2, 2), 0.5)
        assert np.isfinite(get_loss(args.loss)(pred, np.ones_like(pred)))


class TestCommands:
    def test_table1_prints_all_rows(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        for n in (1, 2, 4, 8, 12, 16, 32):
            assert f"{n}  |" in out

    def test_simulate_cell_and_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        assert main(["simulate", "experiment_parallel", "8",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "8 GPUs" in out
        assert trace.exists()

    def test_simulate_with_failures(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        rc = main(["simulate", "experiment_parallel", "8",
                   "--failures", "mtbf=20000,repair=600",
                   "--max-retries", "5", "--seed", "1",
                   "--trace", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "experiment_parallel+failures" in out
        assert "failures:" in out and "wasted" in out
        assert "abandoned trials:" in out
        assert trace.exists()

    def test_simulate_bad_failures_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "experiment_parallel", "8",
                  "--failures", "repair=600"])
        with pytest.raises(SystemExit):
            main(["simulate", "experiment_parallel", "8",
                  "--failures", "mtbf=1,bogus=2"])

    def test_failures_spec_has_exactly_mtbf_and_repair(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "experiment_parallel", "8",
                  "--failures", "mtbf=43200,frac=0.9"])
        assert str(exc.value) == (
            "bad --failures entry 'frac=0.9'; expected "
            "mtbf=SECONDS[,repair=SECONDS]")
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        assert "mtbf=SECONDS[,repair=SECONDS]" in capsys.readouterr().out

    def test_train_command(self, capsys):
        rc = main([
            "train", "--subjects", "6", "--volume", "16", "16", "16",
            "--epochs", "2", "--base-filters", "2", "--depth", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "val DSC" in out and "test DSC" in out

    def test_search_command_experiment_parallel(self, capsys):
        rc = main([
            "search", "--subjects", "6", "--volume", "16", "16", "16",
            "--epochs", "2", "--base-filters", "2", "--depth", "2",
            "--lr", "0.003", "0.0001",
        ])
        assert rc == 0
        assert "best:" in capsys.readouterr().out

    def test_search_command_data_parallel(self, capsys):
        rc = main([
            "search", "--subjects", "6", "--volume", "16", "16", "16",
            "--epochs", "2", "--base-filters", "2", "--depth", "2",
            "--lr", "0.003", "--method", "data_parallel", "--gpus", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trial_0000 {'learning_rate': 0.003, 'loss': 'dice'}" in out
        assert "[terminated]" in out and "best:" in out

    @pytest.mark.parametrize("flags, message", [
        (["--method", "data_parallel", "--gpus", "2",
          "--executor", "process"], "data_parallel trains one trial"),
        (["--gpus", "4"], "executes trials as 1-GPU runs"),
        (["--gpus", "3", "--executor", "process", "--workers", "2"],
         "max_workers=2 conflicts"),
    ], ids=["dp-process", "ep-serial-gpus", "ep-gpus-workers-conflict"])
    def test_search_rejects_placement_before_building_cohort(
            self, flags, message, capsys, monkeypatch):
        """Both combinations used to run silently: data_parallel on the
        serial loop, experiment_parallel ignoring --gpus."""
        import repro.core.pipeline

        def no_cohort(*args, **kwargs):
            raise AssertionError("a cohort was built")

        monkeypatch.setattr(repro.core.pipeline.MISPipeline, "__init__",
                            no_cohort)
        with pytest.raises(SystemExit) as exc:
            main(["search", "--subjects", "6", "--volume", "8", "8", "8",
                  "--epochs", "1", "--base-filters", "2", "--depth", "2",
                  *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_search_defaults_to_float32_and_restores_policy(self, capsys,
                                                            monkeypatch):
        """``search`` flips the compute-dtype default to the float32
        fast path for the duration of the command only: ``main`` must
        hand the process back with the global policy untouched, so
        in-process callers (this suite!) never inherit float32."""
        import numpy as np

        from repro.nn.dtypes import get_compute_dtype
        from repro.nn.layers.conv3d import Conv3D

        monkeypatch.delenv("DISTMIS_COMPUTE_DTYPE", raising=False)
        before = get_compute_dtype()
        seen = {}
        orig_init = Conv3D.__init__

        def spy(self, *a, **kw):
            orig_init(self, *a, **kw)
            seen.setdefault("dtype", self.w.value.dtype)

        monkeypatch.setattr(Conv3D, "__init__", spy)
        rc = main([
            "search", "--subjects", "6", "--volume", "8", "8", "8",
            "--epochs", "1", "--base-filters", "2", "--depth", "2",
            "--lr", "0.003",
        ])
        assert rc == 0
        assert seen["dtype"] == np.float32      # the fast path was on
        assert get_compute_dtype() == before    # ...and was handed back
        capsys.readouterr()

    def test_search_compute_dtype_flag_overrides_fast_path(self, capsys,
                                                           monkeypatch):
        import numpy as np

        from repro.nn.layers.conv3d import Conv3D

        monkeypatch.delenv("DISTMIS_COMPUTE_DTYPE", raising=False)
        seen = {}
        orig_init = Conv3D.__init__

        def spy(self, *a, **kw):
            orig_init(self, *a, **kw)
            seen.setdefault("dtype", self.w.value.dtype)

        monkeypatch.setattr(Conv3D, "__init__", spy)
        rc = main([
            "search", "--subjects", "6", "--volume", "8", "8", "8",
            "--epochs", "1", "--base-filters", "2", "--depth", "2",
            "--lr", "0.003", "--compute-dtype", "float64",
        ])
        assert rc == 0
        assert seen["dtype"] == np.float64
        capsys.readouterr()

    def test_summary_command(self, capsys):
        rc = main(["summary", "--volume", "16", "16", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total params: 352,513" in out
        assert "MaxPool3D" in out

    def test_report_command_writes_markdown(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        rc = main(["report", "--runs", "1", "--output", str(out_file)])
        assert rc == 0
        text = out_file.read_text()
        assert "## Table I (ours vs paper)" in text
        assert "## Data-parallel cost decomposition" in text
        assert "| 32 |" in text

    def test_profile_command(self, capsys):
        rc = main(["profile", "--subjects", "3", "--volume", "16", "16", "16",
                   "--epochs", "1"])
        assert rc == 0
        assert "pipeline stage profile" in capsys.readouterr().out

    def test_telemetry_roundtrip(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        rc = main([
            "search", "--subjects", "6", "--volume", "16", "16", "16",
            "--epochs", "1", "--base-filters", "2", "--depth", "2",
            "--lr", "0.003", "--telemetry", str(run_dir),
        ])
        assert rc == 0
        assert f"telemetry written to {run_dir}" in capsys.readouterr().out

        assert main(["telemetry", "summary", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "kind      : inprocess/experiment_parallel" in out
        assert "train_steps_total" in out

        assert main(["telemetry", "prom", str(run_dir)]) == 0
        assert "# TYPE train_steps_total counter" in capsys.readouterr().out

        merged = tmp_path / "merged.json"
        assert main(["telemetry", "trace", str(run_dir),
                     "--output", str(merged)]) == 0
        capsys.readouterr()
        assert merged.exists()

    def test_telemetry_prom_missing_dir_fails(self, tmp_path, capsys):
        assert main(["telemetry", "prom", str(tmp_path)]) == 1
