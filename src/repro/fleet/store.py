"""Append-only fleet results store: per-shard segments + compacted index.

One fleet run = one directory keyed by the campaign fingerprint::

    <root>/<name>-<fp16>/
        meta.json            # campaign identity + how to rebuild it
        index.json           # per-shard progress cache (rebuildable)
        compacted.jsonl      # complete shards, merged, index-sorted
        shards/shard-000000.jsonl   # live per-shard segments

Segments and the compacted file use the *exact* line format of
:mod:`repro.exec.journal` (a header record followed by one JSON trial
record per line) and are read by its one reader,
:func:`~repro.exec.journal.iter_trial_records`; the compacted file of a
finished run *is* a valid single-file campaign journal.  Writes are
append-only and the durability unit is a small batch of trials
(``flush_every``): a SIGKILL loses at most the unflushed tail of each
in-flight shard, which resume simply re-runs.

Reading is streaming: :meth:`FleetStore.iter_completed` walks shards in
index order, holding at most one shard's records in memory at a time —
that is what lets a million-trial campaign aggregate in constant RSS.
A pass over every shard reads the index-sorted compacted file once,
front to back, so it costs O(trials) however the trials are split
between shards.  Readers take compacted records from the compacted file
itself (checked against its header fingerprint), never from the index,
so losing or corrupting ``index.json`` costs a rescan, never data.
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
        """Finished trials of this shard, keyed by *local* index."""
        completed: Dict[int, dict] = {}
        for index, obj in self.store.load_shard_records(self.shard).items():
            obj = dict(obj)
            obj["value"] = self.store.campaign.codec.decode(obj["value"])
            completed[index - self.shard.lo] = obj
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
    """One shard's durable progress, as the index records it."""

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
    INDEX = "index.json"
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

    def read_meta(self) -> Optional[dict]:
        path = self.run_dir / self.META
        if not path.exists():
            return None
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    # -- writing ----------------------------------------------------------

    def shard_journal(self, shard: ShardSpec, flush_every: int = 64) -> ShardJournal:
        self._check_shard(shard)
        return ShardJournal(self, shard, flush_every=flush_every)

    def _check_shard(self, shard: ShardSpec) -> None:
        if shard.fingerprint != self.fingerprint:
            raise ValueError(
                f"shard {shard.key} belongs to campaign "
                f"{shard.fingerprint[:16]}, store holds {self.fingerprint[:16]}"
            )

    # -- raw reading ------------------------------------------------------

    def load_shard_records(self, shard: ShardSpec) -> Dict[int, dict]:
        """Valid finished-trial records of one shard, by *global* index.

        Reads the shard's slice of the compacted file and its live
        segment.  Records are validated against the campaign (index
        range, per-index seed) exactly like
        ``CampaignJournal.load_completed``.  Reads of every shard walk
        the compacted file once for all of them instead (see
        :meth:`iter_completed`).
        """
        self._check_shard(shard)
        records: Dict[int, dict] = {}
        for obj in self._iter_compacted():
            if obj["index"] >= shard.hi:
                break
            self._admit(records, obj, shard)
        self._read_segment(shard, records)
        return records

    def _shard_records(self) -> Iterator[Tuple[ShardSpec, Dict[int, dict]]]:
        """``(shard, load_shard_records(shard))`` for every shard, in order.

        One pass: the index-sorted compacted file is read front to back
        alongside the shards (whose ranges are contiguous and ascending),
        so each line is parsed once.
        """
        stream = self._iter_compacted()
        head = next(stream, None)
        for shard in self.shards:
            records: Dict[int, dict] = {}
            while head is not None and head["index"] < shard.hi:
                self._admit(records, head, shard)
                head = next(stream, None)
            self._read_segment(shard, records)
            yield shard, records

    def _read_segment(self, shard: ShardSpec, records: Dict[int, dict]) -> None:
        """Admit the shard's live segment records (they override compacted)."""
        for obj in iter_trial_records(self.segment_path(shard), self.fingerprint):
            self._admit(records, obj, shard)

    def _admit(self, records: Dict[int, dict], obj: dict, shard: ShardSpec) -> None:
        """Validate one trial record and add it to the shard's map."""
        if obj.get("status") != "ok":
            return
        index = obj.get("index")
        if not isinstance(index, int) or not shard.contains(index):
            return
        if obj.get("seed") != self.campaign.seeds[index]:
            return
        records[index] = obj

    def _iter_compacted(self) -> Iterator[dict]:
        """The compacted file's trial records, in file (= index) order."""
        path = self.run_dir / self.COMPACTED
        for obj in iter_trial_records(path, self.fingerprint):
            if isinstance(obj.get("index"), int):
                yield obj

    # -- progress index ---------------------------------------------------

    def _load_index(self) -> dict:
        path = self.run_dir / self.INDEX
        if not path.exists():
            return {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                index = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return {}
        if index.get("fingerprint") != self.fingerprint:
            return {}
        return index

    def _write_index(self, done: Dict[int, int]) -> dict:
        """Persist the index cache: per-shard finished-trial counts."""
        payload = {
            "kind": "fleet-index",
            "fingerprint": self.fingerprint,
            "shard_size": self.shard_size,
            "shards": {
                str(shard.shard_id): {
                    "lo": shard.lo,
                    "hi": shard.hi,
                    "done": done[shard.shard_id],
                }
                for shard in self.shards
            },
        }
        self.run_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write_json(self.run_dir / self.INDEX, payload)
        return payload

    def refresh_index(self) -> dict:
        """Recount every shard from disk and rewrite the index cache.

        The index is purely derived state — losing or corrupting it
        costs a rescan, never data.
        """
        done = {
            shard.shard_id: len(records)
            for shard, records in self._shard_records()
        }
        return self._write_index(done)

    def progress(self, recount: bool = False) -> List[ShardProgress]:
        """Per-shard progress, from the index cache or a fresh recount."""
        index = {} if recount else self._load_index()
        if not index:
            index = self.refresh_index()
        out = []
        for shard in self.shards:
            entry = index.get("shards", {}).get(str(shard.shard_id))
            done = entry["done"] if entry else 0
            out.append(
                ShardProgress(shard.shard_id, shard.lo, shard.hi, done)
            )
        return out

    def pending_shards(self, recount: bool = True) -> List[ShardSpec]:
        """Shards with unfinished trials (what submit/resume must run)."""
        by_id = {p.shard_id: p for p in self.progress(recount=recount)}
        return [s for s in self.shards if not by_id[s.shard_id].complete]

    def completed_trials(self) -> int:
        return sum(p.done for p in self.progress(recount=True))

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

        Streams shard-by-shard into a temp file and atomically replaces
        ``compacted.jsonl``, then updates the index and deletes the
        folded segments.  The result (plus live segments) is
        bit-equivalent to the pre-compaction state for every reader; for
        a fully complete run it is a valid single-file campaign journal.
        One pass over the store recounts every shard and folds the
        complete ones.
        """
        self.run_dir.mkdir(parents=True, exist_ok=True)
        target = self.run_dir / self.COMPACTED
        tmp = target.with_suffix(".tmp")
        header = journal_header(self.campaign, self.fingerprint)
        done: Dict[int, int] = {}
        folded: List[int] = []
        with open(tmp, "w", encoding="utf-8") as out:
            out.write(encode_line(header) + "\n")
            for shard, records in self._shard_records():
                done[shard.shard_id] = len(records)
                if len(records) < shard.n_trials:
                    continue
                for index in sorted(records):
                    out.write(encode_line(records[index]) + "\n")
                folded.append(shard.shard_id)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, target)
        self._write_index(done)
        for shard in self.shards:
            if shard.shard_id in folded:
                path = self.segment_path(shard)
                if path.exists():
                    path.unlink()
        return target
