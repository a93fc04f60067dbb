"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_evset_defaults(self):
        args = build_parser().parse_args(["evset"])
        assert args.algo == "bins"
        assert args.env == "cloud"
        assert args.machine == "skylake-small"

    def test_page_offset_accepts_hex(self):
        args = build_parser().parse_args(["evset", "--page-offset", "0x3c0"])
        assert args.page_offset == 0x3C0

    def test_rejects_unknown_algo(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evset", "--algo", "magic"])

    def test_rejects_unknown_machine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evset", "--machine", "epyc"])

    def test_evset_jobs_flag(self):
        args = build_parser().parse_args(["evset", "--jobs", "4"])
        assert args.jobs == 4

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.name == "construction"
        assert args.campaign_env == "cloud"
        assert args.jobs == 1
        assert not args.no_journal

    def test_campaign_rejects_unknown_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--name", "magic"])

    def test_campaign_rejects_unknown_env(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--campaign-env", "mars"])


class TestCommands:
    def test_machines_lists(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "skylake-small" in out
        assert "U_LLC=896" in out  # the full-scale preset's paper numbers

    def test_noise_lists(self, capsys):
        assert main(["noise"]) == 0
        out = capsys.readouterr().out
        assert "11.5" in out  # the paper's measured Cloud Run rate

    def test_evset_runs_quiet(self, capsys):
        rc = main([
            "evset", "--env", "none", "--trials", "1", "--seed", "3",
            "--budget-ms", "500",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "valid: 1/1" in out

    @pytest.mark.slow
    def test_monitor_runs(self, capsys):
        rc = main([
            "monitor", "--env", "none", "--duration-us", "50", "--seed", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "monitored one SF set" in out

    def test_evset_parallel_matches_serial(self, capsys):
        argv = [
            "evset", "--env", "none", "--trials", "2", "--seed", "11",
            "--budget-ms", "500",
        ]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out
        assert "valid: 2/2" in serial_out

    def test_campaign_runs_and_resumes_from_journal(self, capsys, tmp_path):
        argv = [
            "campaign", "--name", "construction", "--campaign-env", "local",
            "--algo", "gtop", "--trials", "2", "--budget-ms", "500",
            "--journal-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "campaign: construction-local-gtop" in first
        assert "fingerprint:" in first
        assert "2/2 trials" in first

        # Rerun: every trial must come from the journal, summary unchanged.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "2 cached" in second
        assert (
            second.split("Construction campaign summary")[1]
            == first.split("Construction campaign summary")[1]
        )

    def test_campaign_resumes_after_partial_crash(self, capsys, tmp_path):
        """A journal truncated mid-append must resume, not crash or rerun all."""
        argv = [
            "campaign", "--name", "construction", "--campaign-env", "local",
            "--algo", "gtop", "--trials", "3", "--budget-ms", "500",
            "--journal-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        journal = next(tmp_path.glob("*.jsonl"))
        lines = journal.read_text().splitlines()
        # Simulate a kill mid-append: drop one full record, truncate another.
        journal.write_text("\n".join(lines[:-2]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 cached" in out  # header + 1 intact trial survive

    def test_campaign_ignores_tampered_journal_header(self, capsys, tmp_path):
        argv = [
            "campaign", "--name", "construction", "--campaign-env", "local",
            "--algo", "gtop", "--trials", "2", "--budget-ms", "500",
            "--journal-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        journal = next(tmp_path.glob("*.jsonl"))
        lines = journal.read_text().splitlines()
        header = json.loads(lines[0])
        header["fingerprint"] = "0" * 64
        journal.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cached" not in out  # mismatched journal is ignored wholesale


class TestPolicyFlags:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fleet", "submit", "--shard-retries", "-1"],
             "shard_retries must be >= 0"),
            (["fleet", "submit", "--max-inflight", "0"],
             "max_inflight must be >= 1"),
            (["campaign", "--batch", "0"], "batch must be >= 1"),
            (["campaign", "--jobs", "-2"], "jobs must be >= 1"),
        ],
    )
    def test_bad_value_is_a_usage_error(self, capsys, tmp_path, argv, message):
        dirs = {"fleet": "--fleet-dir", "campaign": "--journal-dir"}
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [dirs[argv[0]], str(tmp_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro " + argv[0])
        assert f"error: {message}" in err
        assert not any(tmp_path.iterdir())  # rejected before any work


class TestFuzzCommand:
    def test_fuzz_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.seeds == 50
        assert args.machine == "tiny"
        assert args.noise == "mix"
        assert args.defense == "mix"
        assert not hasattr(args, "partition")

    def test_fuzz_rejects_unknown_machine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--machine", "epyc"])

    def test_fuzz_rejects_unknown_noise(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--noise", "hurricane"])

    def test_fuzz_rejects_unknown_defense(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--defense", "sometimes"])

    @pytest.mark.slow
    def test_fuzz_smoke_run(self, capsys, tmp_path):
        rc = main([
            "fuzz", "--seeds", "4", "--noise", "none", "--defense", "none",
            "--artifact-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 tier divergences, 0 invariant violations" in out
        assert not list(tmp_path.glob("*.json"))  # no artifacts when clean

    def test_fuzz_replay_round_trip(self, capsys, tmp_path):
        from repro.check import FuzzConfig, generate_trace, write_artifact

        cfg = FuzzConfig(machine="tiny", noise="none", defense="none", n_ops=6)
        path = write_artifact(
            tmp_path / "trace.json", generate_trace(cfg, 2), {}
        )
        assert main(["fuzz", "--replay", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_fuzz_replay_rejects_non_artifact(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"version": 99}))
        assert main(["fuzz", "--replay", str(path)]) == 2
        assert "cannot replay" in capsys.readouterr().out

    def test_fuzz_replay_rejects_missing_file(self, capsys, tmp_path):
        assert main(["fuzz", "--replay", str(tmp_path / "nope.json")]) == 2
        assert "cannot replay" in capsys.readouterr().out
