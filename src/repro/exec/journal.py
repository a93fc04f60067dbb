"""On-disk JSONL result journal: crash-safe resume and rerun cache hits.

One journal file per campaign fingerprint.  The first line is a header
record (campaign name, fingerprint, trial count); each subsequent line
is one finished trial.  Appends are line-atomic enough for our purposes:
a campaign killed mid-write leaves at most one truncated trailing line,
which the reader (:func:`iter_trial_records`) silently drops and the
next writer (:func:`open_journal`) ends before its first record.
Because the fingerprint covers configs, seeds, and code version, a
journal can never resume a campaign it does not match — a changed input
simply lands in a different file.  The fleet's shard segments and
compacted files share this line format, the opener and the reader.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterator, Optional, Sequence, TextIO, Union

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


def journal_header(campaign: Campaign, fingerprint: str) -> dict:
    """The header record that opens every journal-format file."""
    return {
        "kind": "header",
        "name": campaign.name,
        "fingerprint": fingerprint,
        "n_trials": len(campaign),
    }


def open_journal(path: Path, header: dict) -> TextIO:
    """Open a journal-format file for appending trial records.

    A missing or empty file, or a foreign one (its first line a header of
    another fingerprint, which :func:`iter_trial_records` ignores whole),
    starts afresh with ``header``.  Any other file keeps the header it
    has; if a writer killed mid-append left it ending in a torn line, a
    newline ends that line, so the next record is not glued onto it.
    """
    first, torn = b"", False
    if path.exists():
        with open(path, "rb") as fh:
            first = fh.readline()
            if first:
                fh.seek(-1, os.SEEK_END)
                torn = fh.read(1) != b"\n"
    if not first or _foreign_header(first, header["fingerprint"]):
        fh = open(path, "w", encoding="utf-8")
        fh.write(encode_line(header) + "\n")
    else:
        fh = open(path, "a", encoding="utf-8")
        if torn:
            fh.write("\n")
    return fh


def _foreign_header(line: bytes, fingerprint: str) -> bool:
    try:
        obj = json.loads(line)
    except ValueError:  # torn or not UTF-8: not a header at all
        return False
    return (
        isinstance(obj, dict)
        and obj.get("kind") == "header"
        and obj.get("fingerprint") != fingerprint
    )


def iter_trial_records(
    path: Path, fingerprint: str, seeds: Sequence[int]
) -> Iterator[dict]:
    """The valid finished-trial records of one journal-format file.

    Yields, in file order, the ``ok`` trial records whose ``index`` is an
    int in ``range(len(seeds))`` and whose ``seed`` is ``seeds[index]``:
    the records a resume may reuse.  Skips blank and unparseable lines: a
    writer killed mid-append leaves a torn line, and writers append to an
    existing file without rewriting its header, so even a torn header
    must not make the file unreadable.  Stops at a header that carries
    another fingerprint; writers put the header first, so a foreign file
    yields nothing.
    """
    n_trials = len(seeds)
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return
    with fh:
        for line in fh:
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(obj, dict):
                continue
            kind = obj.get("kind")
            if kind == "trial":
                index = obj.get("index")
                if (
                    obj.get("status") == "ok"
                    and isinstance(index, int)
                    and 0 <= index < n_trials
                    and obj.get("seed") == seeds[index]
                ):
                    yield obj
            elif kind == "header" and obj.get("fingerprint") != fingerprint:
                return


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

    # -- writing ----------------------------------------------------------

    def append(self, record: "TrialRecordLike") -> None:
        """Durably record one finished trial."""
        self.directory.mkdir(parents=True, exist_ok=True)
        header = journal_header(self.campaign, self.fingerprint)
        with open_journal(self.path, header) as fh:
            fh.write(trial_line(record, record.index, self.campaign.codec) + "\n")
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
        decode = self.campaign.codec.decode
        completed: Dict[int, dict] = {}
        for obj in iter_trial_records(
            self.path, self.fingerprint, self.campaign.seeds
        ):
            obj["value"] = decode(obj["value"])
            completed[obj["index"]] = obj
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
