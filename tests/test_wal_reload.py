"""A WAL reloads whatever it appended, under every codec setting.

The log's loader used to split a JSONL-codec file with the *ingest*
line bound, so an event the server had accepted (its line just under
``MAX_LINE_BYTES``) became a WAL line a few bytes over it — the entry
wrapper — and the reopened log refused the file, or, when that entry
was last, "healed" it away as a torn tail.  And ``codec=None`` wrote a
text layout of its own; it is the JSONL codec's, byte for byte.
"""

import json

import pytest

from repro.serve.protocol import MAX_LINE_BYTES, ServeEvent
from repro.serve.wal import ShardWAL, WalEntry
from tests.conftest import serve_stream as stream

CODECS = [None, "jsonl", "binary"]


def near_limit_event() -> ServeEvent:
    """An event whose ingest line is 12 bytes under the line bound."""

    def line_bytes(event: ServeEvent) -> int:
        return len(json.dumps(event.to_dict(), sort_keys=True))

    empty = ServeEvent("buy", "ny", 7, 70, {"blob": ""})
    pad = MAX_LINE_BYTES - 12 - line_bytes(empty)
    event = ServeEvent("buy", "ny", 7, 70, {"blob": "x" * pad})
    assert line_bytes(event) == MAX_LINE_BYTES - 12
    return event


def legacy_text(entries) -> bytes:
    """What the ``codec=None`` text writer put in a file, spelled out."""
    return "".join(
        json.dumps(entry.to_dict(), sort_keys=True) + "\n" for entry in entries
    ).encode("utf-8")


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("position", ["mid-file", "last"])
def test_near_limit_entry_reloads(tmp_path, codec, position):
    path = str(tmp_path / "shard0.wal")
    small = stream(2)
    with ShardWAL(path, codec=codec) as wal:
        wal.append_event(small[0])
        wal.append_event(near_limit_event())
        if position == "mid-file":
            wal.append_event(small[1])
        written = list(wal)
    with ShardWAL(path, codec=codec) as reopened:
        assert reopened.torn_tails == 0
        assert list(reopened) == written
        assert reopened.append_advance(9).seq == len(written) + 1


@pytest.mark.parametrize("codec", CODECS)
def test_legacy_text_file_loads_and_appends(tmp_path, codec):
    path = str(tmp_path / "shard0.wal")
    events = stream(3)
    entries = [WalEntry(i + 1, "event", event=e) for i, e in enumerate(events)]
    entries.append(WalEntry(4, "advance", granule=11))
    with open(path, "wb") as handle:
        handle.write(legacy_text(entries))

    with ShardWAL(path, codec=codec) as wal:
        assert list(wal) == entries and wal.torn_tails == 0
        appended = [wal.append_event(events[0]), wal.append_advance(12)]
        assert [entry.seq for entry in appended] == [5, 6]

    blob = open(path, "rb").read()
    assert blob.startswith(legacy_text(entries))  # history untouched
    if codec != "binary":
        # None and "jsonl" are one layout: the file is still the text
        # the legacy writer would have produced for the whole history.
        assert blob == legacy_text(entries + appended)
    with ShardWAL(path, codec=codec) as reopened:
        assert list(reopened) == entries + appended


def test_none_keeps_the_object_and_a_named_codec_rematerialises():
    event = stream(1)[0]
    assert ShardWAL().append_event(event).event is event
    stored = ShardWAL(codec="jsonl").append_event(event).event
    assert stored == event and stored is not event
