"""Tests for repro.exec.journal: resume, crash-safety, cache hits."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.exec import (
    Campaign,
    CampaignJournal,
    ExecPolicy,
    run_campaign,
)
from repro.exec.journal import iter_trial_records


def counted_trial(cfg, seed):
    """Records every execution in a scratch directory, then computes."""
    marker_dir = Path(cfg["marker_dir"])
    marker_dir.mkdir(parents=True, exist_ok=True)
    (marker_dir / f"seed-{seed}-{os.getpid()}-{os.urandom(4).hex()}").touch()
    return seed * 3 + 1


def flaky_trial(cfg, seed):
    """Crashes the worker on ``crash_seed`` until a flag file appears."""
    if seed == cfg["crash_seed"] and not Path(cfg["flag_file"]).exists():
        os._exit(9)
    return seed * 3 + 1


def _executions(cfg) -> int:
    marker_dir = Path(cfg["marker_dir"])
    return len(list(marker_dir.glob("seed-*"))) if marker_dir.exists() else 0


class TestResume:
    @pytest.mark.parametrize("jobs, batch", [(1, 1), (2, 2)])
    def test_rerun_serves_all_trials_from_journal(self, tmp_path, jobs, batch):
        cfg = {"marker_dir": str(tmp_path / "markers")}
        campaign = Campaign.build("journal-t", counted_trial, cfg, trials=5)
        journal_dir = tmp_path / "journals"
        policy = ExecPolicy(jobs=jobs, batch=batch)

        first = run_campaign(
            campaign, policy, journal=CampaignJournal(journal_dir, campaign),
        )
        assert first.ok and _executions(cfg) == 5

        second = run_campaign(
            campaign, policy, journal=CampaignJournal(journal_dir, campaign),
        )
        assert second.ok
        assert _executions(cfg) == 5  # nothing re-ran
        assert second.metrics.cached == 5
        assert second.metrics.completed == 0
        assert all(r.cached for r in second.records)
        assert second.values() == first.values()

    def test_killed_campaign_resumes_without_rerunning_finished_trials(
        self, tmp_path
    ):
        """Acceptance: a campaign killed mid-run (worker death) resumed
        from its JSONL journal completes without re-running the trials
        that already finished."""
        flag = tmp_path / "fixed.flag"
        cfg = {
            "crash_seed": None,  # filled per-campaign below
            "flag_file": str(flag),
        }
        campaign = Campaign.build(
            "journal-crash", flaky_trial, dict(cfg, crash_seed=None),
            trials=6, seed_mode="arithmetic", base_seed=50,
        )
        crash_seed = campaign.seeds[3]
        campaign = Campaign.build(
            "journal-crash", flaky_trial, dict(cfg, crash_seed=crash_seed),
            trials=6, seed_mode="arithmetic", base_seed=50,
        )
        journal_dir = tmp_path / "journals"

        # First run: one trial hard-kills its worker every attempt, so the
        # campaign ends with that trial crashed and the rest journaled.
        first = run_campaign(
            campaign, ExecPolicy(jobs=2, max_retries=2),
            journal=CampaignJournal(journal_dir, campaign),
        )
        assert not first.ok
        crashed = [r for r in first.records if r.status == "crashed"]
        assert [r.seed for r in crashed] == [crash_seed]
        assert crashed[0].attempts == 3
        finished_before = {r.index for r in first.records if r.ok}
        assert finished_before  # some trials did complete and were journaled

        # "Fix the environment" and resume the same campaign.
        flag.touch()
        second = run_campaign(
            campaign, ExecPolicy(jobs=2, max_retries=2),
            journal=CampaignJournal(journal_dir, campaign),
        )
        assert second.ok
        for rec in second.records:
            if rec.index in finished_before:
                assert rec.cached, f"trial {rec.index} was re-run after resume"
        assert second.values() == [s * 3 + 1 for s in campaign.seeds]

    def test_non_ok_records_are_not_cached(self, tmp_path):
        campaign = Campaign.build(
            "journal-fail", flaky_trial,
            {"crash_seed": None, "flag_file": str(tmp_path / "nope")},
            trials=3,
        )
        journal = CampaignJournal(tmp_path, campaign)
        run_campaign(campaign, ExecPolicy(jobs=1), journal=journal)
        # Rewrite trial 0's record as a timeout; it must re-run on resume.
        lines = journal.path.read_text(encoding="utf-8").splitlines()
        rewritten = []
        for line in lines:
            obj = json.loads(line)
            if obj.get("kind") == "trial" and obj["index"] == 0:
                obj["status"] = "timeout"
            rewritten.append(json.dumps(obj))
        journal.path.write_text("\n".join(rewritten) + "\n", encoding="utf-8")
        completed = CampaignJournal(tmp_path, campaign).load_completed()
        assert set(completed) == {1, 2}


class TestCrashSafety:
    def _journaled_campaign(self, tmp_path):
        cfg = {"marker_dir": str(tmp_path / "markers")}
        campaign = Campaign.build("journal-io", counted_trial, cfg, trials=4)
        journal = CampaignJournal(tmp_path / "j", campaign)
        run_campaign(campaign, ExecPolicy(jobs=1), journal=journal)
        return campaign, journal

    def test_truncated_trailing_line_is_dropped(self, tmp_path):
        campaign, journal = self._journaled_campaign(tmp_path)
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "trial", "index": 2, "sta')  # killed mid-write
        completed = CampaignJournal(tmp_path / "j", campaign).load_completed()
        assert set(completed) == {0, 1, 2, 3}

    def test_resume_after_torn_tail_keeps_the_rerun_trial(self, tmp_path):
        campaign, journal = self._journaled_campaign(tmp_path)
        raw = journal.path.read_text(encoding="utf-8")
        journal.path.write_text(raw[:-20], encoding="utf-8")  # killed mid-write
        journal = CampaignJournal(tmp_path / "j", campaign)
        assert set(journal.load_completed()) == {0, 1, 2}
        run_campaign(campaign, ExecPolicy(jobs=1), journal=journal)
        # The rerun trial starts a fresh line instead of extending the
        # torn one, so it is durable.
        assert set(journal.load_completed()) == {0, 1, 2, 3}

    def test_tampered_seed_is_ignored(self, tmp_path):
        campaign, journal = self._journaled_campaign(tmp_path)
        lines = journal.path.read_text(encoding="utf-8").splitlines()
        rewritten = []
        for line in lines:
            obj = json.loads(line)
            if obj.get("kind") == "trial" and obj["index"] == 1:
                obj["seed"] = obj["seed"] + 1
            rewritten.append(json.dumps(obj))
        journal.path.write_text("\n".join(rewritten) + "\n", encoding="utf-8")
        completed = CampaignJournal(tmp_path / "j", campaign).load_completed()
        assert set(completed) == {0, 2, 3}

    def test_header_fingerprint_mismatch_ignores_file(self, tmp_path):
        campaign, journal = self._journaled_campaign(tmp_path)
        lines = journal.path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["fingerprint"] = "0" * 64
        lines[0] = json.dumps(header)
        journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        journal = CampaignJournal(tmp_path / "j", campaign)
        assert journal.load_completed() == {}
        # A rerun starts the foreign file afresh and is durable.
        result = run_campaign(campaign, ExecPolicy(jobs=1), journal=journal)
        assert result.metrics.cached == 0
        assert set(journal.load_completed()) == {0, 1, 2, 3}

    def test_different_configs_use_different_files(self, tmp_path):
        cfg_a = {"marker_dir": str(tmp_path / "a")}
        cfg_b = {"marker_dir": str(tmp_path / "b")}
        ca = Campaign.build("journal-x", counted_trial, cfg_a, trials=2)
        cb = Campaign.build("journal-x", counted_trial, cfg_b, trials=2)
        ja = CampaignJournal(tmp_path / "j", ca)
        jb = CampaignJournal(tmp_path / "j", cb)
        assert ja.path != jb.path

    def test_decoded_values_round_trip_through_journal(self, tmp_path):
        campaign, journal = self._journaled_campaign(tmp_path)
        completed = CampaignJournal(tmp_path / "j", campaign).load_completed()
        assert [completed[i]["value"] for i in sorted(completed)] == [
            s * 3 + 1 for s in campaign.seeds
        ]


class TestReader:
    SEEDS = (11, 22, 33)

    @pytest.mark.parametrize(
        "damage",
        [
            {"status": "failed"},
            {"index": "1"},
            {"index": 1.0},
            {"index": 3},
            {"index": -1, "seed": 33},
            {"seed": 23},
        ],
        ids=["not-ok", "str-index", "float-index", "index-past-end",
             "negative-index", "wrong-seed"],
    )
    def test_invalid_record_is_dropped(self, tmp_path, damage):
        records = [
            {"kind": "trial", "index": i, "seed": seed, "status": "ok",
             "value": i}
            for i, seed in enumerate(self.SEEDS)
        ]
        records[1].update(damage)
        path = tmp_path / "j.jsonl"
        path.write_text("".join(
            json.dumps(obj) + "\n"
            for obj in [{"kind": "header", "fingerprint": "fp"}] + records
        ))
        kept = iter_trial_records(path, "fp", self.SEEDS)
        assert [obj["index"] for obj in kept] == [0, 2]
