"""On-disk JSONL result journal: crash-safe resume and rerun cache hits.

One journal file per campaign fingerprint.  The first line is a header
record (campaign name, fingerprint, trial count, code version); each
subsequent line is one finished trial.  Appends are line-atomic enough
for our purposes: a campaign killed mid-write leaves at most one
truncated trailing line, which :meth:`CampaignJournal.load_completed`
silently drops.  Because the fingerprint covers configs, seeds, and code
version, a journal can never resume a campaign it does not match — a
changed input simply lands in a different file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Union

from .spec import Campaign, ResultCodec

#: Default journal directory (gitignored; see also the CLI's --journal-dir).
DEFAULT_JOURNAL_DIR = Path(".repro") / "journals"

#: Statuses a trial record may carry.  Only "ok" records are reused on
#: resume; failures re-run so a fixed environment can complete a campaign.
TRIAL_STATUSES = ("ok", "failed", "timeout", "crashed")

#: JSON text of one journal line, keys sorted.  One shared encoder:
#: ``json.dumps(..., sort_keys=True)`` builds a new one per call, and
#: the output is the same.
encode_line = json.JSONEncoder(sort_keys=True).encode


def trial_line(record: "TrialRecordLike", index: int, codec: ResultCodec) -> str:
    """The journal line (without newline) of one finished trial.

    ``index`` is the trial's index in the journal's campaign, which for
    a fleet shard segment differs from the sub-campaign's ``record.index``.
    Both writers, :class:`CampaignJournal` and the fleet's shard
    segments, render trials here, so they share one line format.
    """
    return encode_line({
        "kind": "trial",
        "index": index,
        "seed": record.seed,
        "status": record.status,
        "elapsed_s": record.elapsed_s,
        "attempts": record.attempts,
        "error": record.error,
        "value": codec.encode(record.value) if record.status == "ok" else None,
    })


class CampaignJournal:
    """Append-only JSONL store of one campaign's trial records."""

    def __init__(
        self,
        directory: Union[str, Path],
        campaign: Campaign,
        version: Optional[str] = None,
    ) -> None:
        self.campaign = campaign
        self.fingerprint = campaign.fingerprint(version)
        self.directory = Path(directory)
        self.path = self.directory / (
            f"{_safe_name(campaign.name)}-{self.fingerprint[:16]}.jsonl"
        )
        self._header_written = self.path.exists()

    # -- writing ----------------------------------------------------------

    def _header(self) -> dict:
        return {
            "kind": "header",
            "name": self.campaign.name,
            "fingerprint": self.fingerprint,
            "n_trials": len(self.campaign),
        }

    def append(self, record: "TrialRecordLike") -> None:
        """Durably record one finished trial."""
        self.directory.mkdir(parents=True, exist_ok=True)
        lines = []
        if not self._header_written:
            lines.append(encode_line(self._header()))
            self._header_written = True
        lines.append(trial_line(record, record.index, self.campaign.codec))
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    # -- reading ----------------------------------------------------------

    def load_completed(self) -> Dict[int, dict]:
        """Raw journal records of successfully finished trials, by index.

        Tolerates a truncated trailing line (killed campaign) and ignores
        the whole file if its header does not match this campaign — that
        can only happen through manual tampering, since the fingerprint is
        part of the filename.
        """
        if not self.path.exists():
            return {}
        completed: Dict[int, dict] = {}
        seeds = self.campaign.seeds
        with open(self.path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        for i, line in enumerate(raw.splitlines()):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                # A truncated line means the writer died mid-append; every
                # complete record before it is still good.
                continue
            if obj.get("kind") == "header":
                if obj.get("fingerprint") != self.fingerprint:
                    return {}
                continue
            if obj.get("kind") != "trial" or obj.get("status") != "ok":
                continue
            index = obj.get("index")
            if not isinstance(index, int) or not 0 <= index < len(seeds):
                continue
            if obj.get("seed") != seeds[index]:
                continue
            obj["value"] = self.campaign.codec.decode(obj["value"])
            completed[index] = obj
        return completed


class TrialRecordLike:
    """Structural interface journal.append expects (see executor.TrialResult)."""

    index: int
    seed: int
    status: str
    elapsed_s: float
    attempts: int
    error: Optional[str]
    value: object


def _safe_name(name: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_.") else "_" for c in name)
