"""Append-only fleet results store: per-shard segments + a compacted file.

One fleet run = one directory keyed by the campaign fingerprint::

    <root>/<name>-<fp16>/
        meta.json            # campaign identity + how to rebuild it
        compacted.jsonl      # complete shards, merged, index-sorted
        shards/shard-000000.jsonl   # live per-shard segments

The store keeps nothing but the trial records: every count (progress,
pending shards, completed trials) is one pass over them.  Segments and
the compacted file use the *exact* line format of
:mod:`repro.exec.journal` (a header record followed by one JSON trial
record per line) and are read by its one validating reader,
:func:`~repro.exec.journal.iter_trial_records`; the compacted file of a
finished run *is* a valid single-file campaign journal.  Writes are
append-only and the durability unit is a small batch of trials
(``flush_every``): a SIGKILL loses at most the unflushed tail of each
in-flight shard, which resume simply re-runs.

Reading is streaming: a pass walks shards in index order, holding at
most one shard's records in memory at a time — that is what lets a
million-trial campaign aggregate in constant RSS — and reads the
index-sorted compacted file once, front to back, alongside them, so
each record is parsed once per pass however the trials are split
between shards.  A shard being run reads only its own segment:
:meth:`FleetStore.compact` folds only complete shards and the scheduler
runs only shards its planning pass found incomplete, so none of a
running shard's records is in the compacted file.  (A shard that lost a
compacted record, say to a corrupted line, is incomplete, and re-runs
whole from an empty segment.)  An ``index.json`` left in a run
directory by older versions of this store is neither read nor deleted.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..exec.journal import (
    _safe_name,
    encode_line,
    iter_trial_records,
    journal_header,
    open_journal,
    trial_line,
)
from ..exec.spec import Campaign
from .sharding import ShardSpec, plan_shards

#: Default root for fleet run directories (gitignored, like journals).
DEFAULT_FLEET_DIR = Path(".repro") / "fleet"


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Write JSON via tmp-file + rename so readers never see a torn file."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class ShardJournal:
    """Journal adapter for one shard: what ``run_campaign`` writes into.

    Duck-types :class:`repro.exec.journal.CampaignJournal` (``fingerprint``
    / ``load_completed`` / ``append``) but maps the sub-campaign's local
    trial indices to the parent campaign's global ones, and batches
    appends (``flush_every``) so cheap trials are not fsync-bound.  The
    segment is opened on the first flush and stays open until
    :meth:`close`; every flush still writes, flushes and fsyncs its batch.
    """

    def __init__(
        self,
        store: "FleetStore",
        shard: ShardSpec,
        flush_every: int = 64,
    ) -> None:
        self.store = store
        self.shard = shard
        self.fingerprint = store.fingerprint
        self.path = store.segment_path(shard)
        self.flush_every = max(1, flush_every)
        self._buffer: List[str] = []
        self._fh = None

    # -- journal duck-type (local indices, used by run_campaign) ----------

    def load_completed(self) -> Dict[int, dict]:
        """Finished trials of this shard's segment, keyed by *local* index.

        The segment alone: the scheduler runs a shard only while it is
        incomplete, and compaction folds only complete shards, so the
        compacted file holds none of this shard's records.
        """
        decode = self.store.campaign.codec.decode
        completed: Dict[int, dict] = {}
        for obj in self.store._segment_records(self.shard):
            obj["value"] = decode(obj["value"])
            completed[obj["index"] - self.shard.lo] = obj
        return completed

    def append(self, record) -> None:
        """Buffer one finished trial (local index -> global index)."""
        self._buffer.append(
            trial_line(
                record, self.shard.lo + record.index, self.store.campaign.codec
            )
        )
        if len(self._buffer) >= self.flush_every:
            self.flush()

    # -- durability -------------------------------------------------------

    def flush(self) -> None:
        if not self._buffer:
            return
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open_journal(
                self.path, self.store.segment_header(self.shard)
            )
        lines, self._buffer = self._buffer, []
        self._fh.write("\n".join(lines) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        try:
            self.flush()
        finally:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "ShardJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclasses.dataclass(frozen=True)
class ShardProgress:
    """One shard's durable progress, as a pass over the store counts it."""

    shard_id: int
    lo: int
    hi: int
    done: int

    @property
    def total(self) -> int:
        return self.hi - self.lo

    @property
    def complete(self) -> bool:
        return self.done >= self.total


class FleetStore:
    """The on-disk results store of one fleet campaign run."""

    META = "meta.json"
    COMPACTED = "compacted.jsonl"
    SHARD_DIR = "shards"

    def __init__(
        self,
        root: Union[str, Path],
        campaign: Campaign,
        shard_size: int,
        version: Optional[str] = None,
    ) -> None:
        self.campaign = campaign
        self.shard_size = shard_size
        self.fingerprint = campaign.fingerprint(version)
        self.root = Path(root)
        self.run_dir = self.root / (
            f"{_safe_name(campaign.name)}-{self.fingerprint[:16]}"
        )
        self.shards = plan_shards(
            campaign, shard_size, version, fingerprint=self.fingerprint
        )

    # -- identity ---------------------------------------------------------

    @property
    def run_id(self) -> str:
        return self.run_dir.name

    def segment_path(self, shard: ShardSpec) -> Path:
        return self.run_dir / self.SHARD_DIR / f"{shard.key}.jsonl"

    def segment_header(self, shard: ShardSpec) -> dict:
        """Journal-compatible header, extended with the shard range."""
        return {
            **journal_header(self.campaign, self.fingerprint),
            "shard_id": shard.shard_id,
            "lo": shard.lo,
            "hi": shard.hi,
        }

    def write_meta(self, extra: Optional[dict] = None) -> None:
        """Persist run identity (and optional rebuild spec) once."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "kind": "fleet-meta",
            "name": self.campaign.name,
            "fingerprint": self.fingerprint,
            "n_trials": len(self.campaign),
            "shard_size": self.shard_size,
            "n_shards": len(self.shards),
        }
        if extra:
            payload.update(extra)
        _atomic_write_json(self.run_dir / self.META, payload)

    # -- writing ----------------------------------------------------------

    def shard_journal(self, shard: ShardSpec, flush_every: int = 64) -> ShardJournal:
        if shard.fingerprint != self.fingerprint:
            raise ValueError(
                f"shard {shard.key} belongs to campaign "
                f"{shard.fingerprint[:16]}, store holds {self.fingerprint[:16]}"
            )
        return ShardJournal(self, shard, flush_every=flush_every)

    # -- reading ----------------------------------------------------------

    def _shard_records(self) -> Iterator[Tuple[ShardSpec, Dict[int, dict]]]:
        """``(shard, {global index: record})`` for every shard, in order.

        One pass: the index-sorted compacted file is read front to back
        alongside the shards (whose ranges are contiguous and ascending),
        then each shard's live segment, so each line is parsed once.
        """
        stream = iter_trial_records(
            self.run_dir / self.COMPACTED, self.fingerprint, self.campaign.seeds
        )
        head = next(stream, None)
        for shard in self.shards:
            records: Dict[int, dict] = {}
            while head is not None and head["index"] < shard.hi:
                if shard.contains(head["index"]):
                    records[head["index"]] = head
                head = next(stream, None)
            for obj in self._segment_records(shard):
                records[obj["index"]] = obj  # overrides a compacted copy
            yield shard, records

    def _segment_records(self, shard: ShardSpec) -> Iterator[dict]:
        """The valid records of the shard's live segment in its range."""
        for obj in iter_trial_records(
            self.segment_path(shard), self.fingerprint, self.campaign.seeds
        ):
            if shard.contains(obj["index"]):
                yield obj

    def progress(self) -> List[ShardProgress]:
        """Per-shard durable progress: one pass over the store."""
        return [
            ShardProgress(shard.shard_id, shard.lo, shard.hi, len(records))
            for shard, records in self._shard_records()
        ]

    def pending_shards(self) -> List[ShardSpec]:
        """Shards with unfinished trials (what submit/resume must run)."""
        return [
            shard for shard, p in zip(self.shards, self.progress())
            if not p.complete
        ]

    def completed_trials(self) -> int:
        return sum(p.done for p in self.progress())

    def segment_trials(self, shard: ShardSpec) -> int:
        """Finished trials in the shard's live segment (it alone is read)."""
        return len({obj["index"] for obj in self._segment_records(shard)})

    # -- streaming read path ----------------------------------------------

    def iter_completed(self) -> Iterator[Tuple[int, dict]]:
        """All finished trials in global index order, constant memory.

        Holds at most one shard's records in memory: shards are walked in
        id order (= index order, since ranges are contiguous) and each
        shard's records are sorted locally before yielding.
        """
        for _, records in self._shard_records():
            for index in sorted(records):
                yield index, records[index]

    def iter_values(self) -> Iterator[Tuple[int, object]]:
        """Decoded trial values in global index order, constant memory."""
        decode = self.campaign.codec.decode
        for index, obj in self.iter_completed():
            yield index, decode(obj["value"])

    # -- compaction -------------------------------------------------------

    def compact(self) -> Path:
        """Fold every complete shard into the sorted compacted file.

        One pass over the store streams shard-by-shard into a temp file
        that atomically replaces ``compacted.jsonl``; then the folded
        segments are deleted.  The result (plus live segments) is
        bit-equivalent to the pre-compaction state for every reader; for
        a fully complete run it is a valid single-file campaign journal.
        A kill between the replace and the deletes leaves both copies,
        and readers count each trial once.
        """
        self.run_dir.mkdir(parents=True, exist_ok=True)
        target = self.run_dir / self.COMPACTED
        tmp = target.with_suffix(".tmp")
        header = journal_header(self.campaign, self.fingerprint)
        folded: List[ShardSpec] = []
        with open(tmp, "w", encoding="utf-8") as out:
            out.write(encode_line(header) + "\n")
            for shard, records in self._shard_records():
                if len(records) < shard.n_trials:
                    continue
                for index in sorted(records):
                    out.write(encode_line(records[index]) + "\n")
                folded.append(shard)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, target)
        for shard in folded:
            self.segment_path(shard).unlink(missing_ok=True)
        return target
