"""Truncating a file-backed WAL copies the bytes it wrote.

A checkpoint used to re-encode every retained entry (the live
supervisor runs ~1,000 entries ahead of its worker, so ~1,160 encodes a
checkpoint); the log now holds each entry's stored bytes and
``truncate`` writes those.  What is on disk afterwards is what the
re-encoding wrote, and a truncation that fails leaves the log as it was.
"""

import os
import shutil
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.errors import ReproError
from repro.serve import wal as wal_module
from repro.serve.protocol import FRAME_MAGIC, get_codec
from repro.serve.wal import KIND_ADVANCE, KIND_EVENT, ShardWAL, WalEntry
from tests.conftest import serve_stream as stream

CODECS = [None, "jsonl", "binary"]


def count_encodes(monkeypatch, wal: ShardWAL) -> list[int]:
    """Count ``encode_wal_entry`` calls on ``wal``'s codec from here on."""
    codec_class = type(wal.codec)
    real = codec_class.encode_wal_entry
    calls = [0]

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(codec_class, "encode_wal_entry", counting)
    return calls


def append_recording(wal: ShardWAL, events) -> list[bytes]:
    """Append ``events`` (an advance after every fifth); returns the
    bytes each append added to the file."""
    ends = [os.path.getsize(wal.path)]
    for index, event in enumerate(events):
        wal.append_event(event)
        ends.append(os.path.getsize(wal.path))
        if index % 5 == 4:
            wal.append_advance(event.granule)
            ends.append(os.path.getsize(wal.path))
    blob = file_bytes(wal.path)
    return [blob[start:end] for start, end in zip(ends, ends[1:])]


def file_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("codec", CODECS)
def test_truncate_encodes_nothing(tmp_path, monkeypatch, codec):
    with ShardWAL(str(tmp_path / "shard0.wal"), codec=codec) as wal:
        for event in stream(1000):
            wal.append_event(event)
        calls = count_encodes(monkeypatch, wal)
        assert wal.truncate(100) == 100
        assert calls == [0]  # the parent re-encoded the 900 it kept
        wal.append_event(stream(1)[0])
        assert calls == [1]  # an append is still encoded, once


@pytest.mark.parametrize("codec", CODECS)
def test_in_memory_log_holds_no_bytes(codec):
    wal = ShardWAL(codec=codec)
    for event in stream(20):
        wal.append_event(event)
    wal.truncate(5)
    assert wal._blobs == [] and len(wal) == 15


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("upto", [0, 1, 37, 119])
def test_file_after_truncate_is_the_bytes_the_appends_wrote(
    tmp_path, codec, upto
):
    path = str(tmp_path / "shard0.wal")
    with ShardWAL(path, codec=codec) as wal:
        written = append_recording(wal, stream(100))
        assert len(written) == 120 and file_bytes(path) == b"".join(written)
        assert wal.truncate(upto) == upto
        kept = list(wal)
        assert [entry.seq for entry in kept] == list(range(upto + 1, 121))
        assert file_bytes(path) == b"".join(written[upto:])
        assert not os.path.exists(path + ".tmp")
    with ShardWAL(path, codec=codec) as reopened:
        assert list(reopened) == kept and reopened.torn_tails == 0
        assert reopened.append_advance(99).seq == 121
        # A loaded entry's bytes are its encoding too: truncating the
        # reopened log writes the same file the first log would have.
        reopened.truncate(118)
        assert file_bytes(path) == b"".join(written[max(upto, 118):]) + (
            WalEntry(121, KIND_ADVANCE, granule=99).encode(reopened.codec)
        )


@pytest.mark.parametrize("codec", CODECS)
def test_truncate_past_everything_keeps_the_newest_entry(tmp_path, codec):
    path = str(tmp_path / "shard0.wal")
    with ShardWAL(path, codec=codec) as wal:
        written = append_recording(wal, stream(10))
        assert wal.truncate(10_000) == 11
        assert [entry.seq for entry in wal] == [12] and wal.last_seq == 12
        assert file_bytes(path) == written[-1]
        assert wal.truncate(10_000) == 0  # nothing left to drop
    with ShardWAL(path, codec=codec) as reopened:
        assert [entry.seq for entry in reopened] == [12]
        assert reopened.append_event(stream(1)[0]).seq == 13


def test_mixed_framing_file_loads_truncates_and_reloads(tmp_path):
    path = str(tmp_path / "shard0.wal")
    events = stream(12)
    with ShardWAL(path, codec="jsonl") as wal:
        for event in events[:6]:
            wal.append_event(event)
    with ShardWAL(path, codec="binary") as wal:  # the codec changed
        for event in events[6:]:
            wal.append_event(event)
        whole = list(wal)
        assert [entry.event for entry in whole] == events
        mixed = file_bytes(path)
        assert mixed[:1] == b"{" and bytes([FRAME_MAGIC]) in mixed
    with ShardWAL(path, codec="binary") as wal:
        assert list(wal) == whole
        assert wal.truncate(3) == 3
        # A rewrite stores every retained entry in the log's own codec,
        # the JSONL history included (as the re-encoding loop did).
        binary = get_codec("binary")
        assert file_bytes(path) == b"".join(
            entry.encode(binary) for entry in whole[3:]
        )
        assert wal.append_advance(7).seq == 13
    with ShardWAL(path, codec="binary") as reopened:
        assert list(reopened)[:-1] == whole[3:] and reopened.last_seq == 13


@pytest.mark.parametrize("codec", CODECS)
def test_torn_tail_is_healed_then_the_log_works_normally(tmp_path, codec):
    path = str(tmp_path / "shard0.wal")
    with ShardWAL(path, codec=codec) as wal:
        written = append_recording(wal, stream(10))
    with open(path, "r+b") as handle:  # a crash mid-append
        handle.truncate(os.path.getsize(path) - 3)
    with ShardWAL(path, codec=codec) as wal:
        assert wal.torn_tails == 1 and wal.last_seq == 11
        assert file_bytes(path) == b"".join(written[:-1])
        assert wal.append_event(stream(1)[0]).seq == 12
        assert wal.truncate(4) == 4
        kept = list(wal)
        assert file_bytes(path).startswith(b"".join(written[4:-1]))
    with ShardWAL(path, codec=codec) as reopened:
        assert list(reopened) == kept and reopened.torn_tails == 0


def test_corruption_before_the_tail_is_still_refused(tmp_path):
    path = str(tmp_path / "shard0.wal")
    with ShardWAL(path, codec="jsonl") as wal:
        for event in stream(3):
            wal.append_event(event)
    blob = file_bytes(path)
    with open(path, "wb") as handle:
        handle.write(b"{not json\n" + blob)
    with pytest.raises(ReproError, match="corrupt WAL file"):
        ShardWAL(path, codec="jsonl")


@pytest.mark.parametrize("codec", CODECS)
def test_failed_truncation_leaves_the_log_as_it_was(
    tmp_path, monkeypatch, codec
):
    """``os.replace`` failing (``ENOSPC``, permissions) used to leave the
    append handle closed and memory ahead of the file."""
    path = str(tmp_path / "shard0.wal")
    real_replace = os.replace
    failures = [OSError(28, "No space left on device")]

    def replace_failing_once(src, dst):
        if failures:
            raise failures.pop()
        return real_replace(src, dst)

    with ShardWAL(path, codec=codec) as wal:
        written = append_recording(wal, stream(10))
        before = list(wal)
        monkeypatch.setattr(wal_module.os, "replace", replace_failing_once)
        with pytest.raises(OSError, match="No space left"):
            wal.truncate(6)
        assert list(wal) == before and file_bytes(path) == b"".join(written)
        appended = wal.append_event(stream(1)[0])
        assert appended.seq == 13
        with ShardWAL(path, codec=codec) as reopened:
            assert list(reopened) == before + [appended]
        # The next truncation goes through (over the stale temp file).
        assert wal.truncate(6) == 6
        assert file_bytes(path) == b"".join(written[6:]) + appended.encode(
            wal.codec
        )
        assert not os.path.exists(path + ".tmp")


# --- model-based: a file-backed and an in-memory log against a list ----------


class WalMachine(RuleBasedStateMachine):
    """Random appends, truncations and reopenings: both backings agree
    with a plain list on ``list(wal)``, ``last_seq`` and ``tail(k)``."""

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="wal-machine-")
        self.path = os.path.join(self.directory, "shard0.wal")
        self.events = stream(8)

    @initialize(codec=st.sampled_from(CODECS))
    def open_logs(self, codec):
        self.codec = codec
        self.disk = ShardWAL(self.path, codec=codec)
        self.memory = ShardWAL(codec=codec)
        self.model: list[WalEntry] = []
        self.next_seq = 1

    def _logged(self, entry: WalEntry) -> None:
        self.model.append(entry)
        self.next_seq += 1

    @rule(index=st.integers(0, 7))
    def append_event(self, index):
        event = self.events[index]
        for wal in (self.disk, self.memory):
            assert wal.append_event(event).seq == self.next_seq
        self._logged(WalEntry(self.next_seq, KIND_EVENT, event=event))

    @rule(granule=st.integers(0, 1 << 40))
    def append_advance(self, granule):
        for wal in (self.disk, self.memory):
            assert wal.append_advance(granule).seq == self.next_seq
        self._logged(WalEntry(self.next_seq, KIND_ADVANCE, granule=granule))

    @rule(data=st.data())
    def truncate(self, data):
        upto = data.draw(st.integers(0, self.next_seq + 1))
        keep = [entry for entry in self.model if entry.seq > upto]
        if not keep and self.model:
            keep = [self.model[-1]]
        dropped = len(self.model) - len(keep)
        self.model = keep
        assert self.disk.truncate(upto) == dropped
        assert self.memory.truncate(upto) == dropped

    @rule()
    def close_and_reopen(self):
        self.disk.close()
        self.disk = ShardWAL(self.path, codec=self.codec)
        assert self.disk.torn_tails == 0

    @invariant()
    def logs_agree_with_the_model(self):
        for wal in (self.disk, self.memory):
            assert list(wal) == self.model and len(wal) == len(self.model)
            assert wal.last_seq == self.next_seq - 1
        for after in {0, self.next_seq // 2, self.next_seq}:
            expected = [entry for entry in self.model if entry.seq > after]
            assert self.disk.tail(after) == expected
            assert self.memory.tail(after) == expected
        assert file_bytes(self.path) == b"".join(
            entry.encode(self.disk.codec) for entry in self.model
        )

    def teardown(self):
        self.disk.close()
        shutil.rmtree(self.directory, ignore_errors=True)


TestWalMachine = WalMachine.TestCase
TestWalMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
