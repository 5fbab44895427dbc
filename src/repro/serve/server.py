"""Transports for the serving runtime (stdin and TCP), codec-negotiated.

Clients write stamped primitive events; the server writes detections as
they fire.  Detections stream — each rule is registered with a callback
that serializes inside the owning shard's worker — so a long-lived
client sees composites the moment their terminator event lands, not at
shutdown.

Both transports speak version 0 (JSONL) by default and *negotiate up*:
a client may open with a hello line offering its codecs
(:func:`~repro.serve.protocol.hello_line`); the server answers with the
codec it chose and the connection switches.  With the version-1 binary
codec, events arrive as whole granule-batch frames
(:meth:`~repro.serve.protocol.BinaryCodec.decode_batch`) and ingest
takes the batched path (:meth:`~repro.serve.runtime.ServingRuntime.
ingest_batch`) — one routing pass, one queue item and one shard step
per granule instead of per event.  A client that never says hello is a
version-0 client and keeps working against any server mode; a
``jsonl``-pinned server answers every hello with version 0, so a
binary-capable client falls back cleanly.

The stdin transport reads to EOF, drains (advancing the engine clocks
to one granule past the last event so trailing temporal operators
fire), and exits — the shape the CI ``serve-smoke`` job and shell
pipelines use::

    python -m repro.cli simulate --emit-serve ... | repro serve --stdin ...

Its output side stays line-oriented JSONL regardless of the ingest
framing, because ``repro serve`` stdout feeds shell pipelines.  The TCP
transport accepts any number of concurrent connections; every
connection receives every detection (rules are shared server state, not
per-connection), encoded per that connection's negotiated codec —
binary connections get detection frames, JSONL connections get rows.

Both transports are hardened against hostile input, with oversized
accounting per codec: a JSONL line is bounded by ``max_line_bytes``
(default 1 MiB) and discarded through its terminating newline; a binary
frame is bounded by the codec's :meth:`~repro.serve.protocol.Codec.
frame_limit` (64x — one frame legitimately carries a whole granule) and
skipped by its *declared length*, so neither a monster line nor a
monster frame desyncs the stream.  Malformed and corrupt input costs
one structured error object each (always a JSONL line — errors are
control plane) and the connection survives.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Any, Awaitable, Callable, IO, Iterable

from repro.errors import CodecError, ReproError
from repro.serve.protocol import (
    Codec,
    ServeEvent,
    StreamDecoder,
    StreamUnit,
    choose_codec,
    detection_to_json,
    get_codec,
    hello_ack_line,
    parse_hello,
    row_line,
)
from repro.serve.runtime import ServingRuntime


class DetectionBroadcast:
    """Fans detection rows out to every attached consumer.

    Sinks receive the JSON-ready row dict (see
    :func:`~repro.serve.protocol.detection_to_json`) and encode it for
    their own transport — a JSONL connection writes a line, a binary
    connection writes a detection frame.  ``emitted`` counts rows.
    """

    def __init__(self) -> None:
        # Replaced, never mutated, by attach/detach/eviction: emit
        # iterates the tuple it read without copying it per row.
        self._sinks: tuple[Callable[[dict[str, Any]], None], ...] = ()
        self.emitted = 0
        #: Sinks evicted because delivery raised (e.g. a TCP client
        #: that reset abruptly) — their undeliverable row is counted
        #: once; detection fan-out to the surviving sinks continues.
        self.evicted = 0

    def attach(
        self, sink: Callable[[dict[str, Any]], None]
    ) -> Callable[[], None]:
        """Add a row consumer; returns its detach function."""
        self._sinks += (sink,)
        return lambda: self._drop(sink)

    def _drop(self, sink: Callable[[dict[str, Any]], None]) -> None:
        self._sinks = tuple(s for s in self._sinks if s is not sink)

    def emit(self, row: dict[str, Any]) -> None:
        self.emitted += 1
        for sink in self._sinks:
            try:
                sink(row)
            except (OSError, ConnectionError):
                # A dead transport must not poison the emitting shard's
                # callback path (one reset client would otherwise stop
                # detection delivery for every other consumer).
                self._drop(sink)
                self.evicted += 1


def wire_rules(
    runtime: ServingRuntime,
    rules: Iterable[tuple[str, str]],
    broadcast: DetectionBroadcast,
) -> None:
    """Register ``(name, expression)`` rules that stream detections.

    The callback closes over the rule's shard index so emitted rows
    carry detection provenance without a lookup on the hot path.

    On an approximate runtime the per-rule callbacks (which would fire
    only on the exact engine, i.e. at confirmation) are replaced by a
    per-shard verdict sink: every TENTATIVE / CONFIRMED / RETRACTED
    emission becomes one row tagged with its verdict (see
    :func:`~repro.serve.protocol.detection_to_json`).
    """
    if runtime.config.approximate:
        for name, expression in rules:
            runtime.register(expression, name=name)
        for shard in runtime.shards:
            shard.verdict_sink = lambda index, v: broadcast.emit(
                detection_to_json(
                    index,
                    v.detection,
                    verdict=v.verdict.value,
                    seq=v.seq,
                    ref=v.ref,
                )
            )
        return
    for name, expression in rules:
        index = runtime.router.assign(name)

        def callback(detection: object, _shard: int = index) -> None:
            broadcast.emit(detection_to_json(_shard, detection))  # type: ignore[arg-type]

        runtime.register(expression, name=name, callback=callback)


def _error_line(message: str) -> str:
    return json.dumps({"error": message}, sort_keys=True)


class _Connection:
    """Shared per-stream protocol state: splitter + negotiated codec.

    One instance per transport stream.  ``codec`` starts as ``None``
    (pure version-0 client); a hello upgrades it for the rest of the
    stream.  ``consume`` turns one :class:`StreamUnit` into either a
    hello ack, an error, or a batch of events for the caller to ingest.
    """

    def __init__(self, mode: str, max_line_bytes: int) -> None:
        self.mode = mode
        self.max_line_bytes = max_line_bytes
        self.codec: Codec | None = None
        self.splitter = StreamDecoder(
            max_line_bytes=max_line_bytes,
            max_frame_bytes=get_codec("binary").frame_limit(max_line_bytes),
        )

    def consume(
        self, unit: StreamUnit
    ) -> tuple[list[ServeEvent], str | None, str | None]:
        """``(events, reply_line, error_message)`` for one stream unit."""
        if unit.kind == "error":
            return [], None, unit.message
        if unit.kind == "frame":
            if self.mode == "jsonl":
                return [], None, (
                    "binary frame rejected: this server speaks jsonl only"
                )
            try:
                return get_codec("binary").decode_batch(unit.payload), None, None
            except CodecError as error:
                return [], None, str(error)
        try:
            data = json.loads(unit.payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return [], None, f"invalid JSON event line: {error}"
        if isinstance(data, dict):
            offered = parse_hello(data)
            if offered is not None:
                self.codec = choose_codec(self.mode, offered)
                return [], hello_ack_line(self.codec), None
        if not isinstance(data, dict):
            return [], None, (
                f"event line must be a JSON object, got {type(data).__name__}"
            )
        try:
            return [ServeEvent.from_dict(data)], None, None
        except ReproError as error:
            return [], None, str(error)


async def pump_units(
    source: IO[str] | IO[bytes],
    splitter: StreamDecoder,
    handle_unit: Callable[[StreamUnit], Awaitable[None]],
) -> None:
    """Read ``source`` to EOF through ``splitter``, awaiting
    ``handle_unit`` on every unit it completes.

    ``sys.stdin`` (and any text wrapper over a raw buffer) yields bytes
    for frame-capable reading; a plain text stream (tests pass
    ``io.StringIO``) stays line-oriented and is re-framed per line.
    Blocking reads happen on a thread, so the loop keeps running
    between chunks.
    """
    raw = getattr(source, "buffer", source)
    if hasattr(raw, "encoding"):
        def read() -> bytes:
            return source.readline().encode("utf-8")
    else:
        def read() -> bytes:
            return raw.read(1 << 16)
    while chunk := await asyncio.to_thread(read):
        for unit in splitter.feed(chunk):
            await handle_unit(unit)
    for unit in splitter.finish():
        await handle_unit(unit)


async def serve_stdin(
    runtime: ServingRuntime,
    broadcast: DetectionBroadcast,
    *,
    in_stream: IO[str] | IO[bytes] | None = None,
    out_stream: IO[str] | None = None,
    horizon_pad: int = 1,
    max_line_bytes: int | None = None,
    codec: str | None = None,
) -> int:
    """Pump events from a stream until EOF; returns the event count.

    Input may be JSONL lines, binary event frames, or any interleaving
    (subject to ``codec`` — default: the runtime's configured mode; a
    ``"jsonl"`` server rejects frames with a structured error).  Output
    is always line-oriented JSONL (detection rows, hello acks, errors)
    so ``repro serve --stdin`` composes in shell pipelines
    (:func:`pump_units` is the read loop).  After EOF the runtime
    drains to ``last granule + horizon_pad`` and stops, flushing
    trailing temporal operators.
    Malformed, oversized, or corrupt input costs one structured error
    object and the loop continues.
    """
    config = runtime.config
    mode = codec if codec is not None else config.codec
    if max_line_bytes is None:
        max_line_bytes = config.max_line_bytes
    source = in_stream if in_stream is not None else sys.stdin
    target = out_stream if out_stream is not None else sys.stdout

    def write_line(line: str) -> None:
        target.write(line + "\n")
        target.flush()

    detach = broadcast.attach(lambda row: write_line(row_line(row)))
    connection = _Connection(mode, max_line_bytes)
    count = 0
    last_granule: int | None = None

    async def handle_unit(unit: StreamUnit) -> None:
        nonlocal count, last_granule
        events, reply, error = connection.consume(unit)
        if reply is not None:
            write_line(reply)
        if error is not None:
            write_line(_error_line(error))
        if not events:
            return
        await runtime.ingest_batch(events)
        count += len(events)
        granule = max(event.granule for event in events)
        last_granule = (
            granule if last_granule is None else max(last_granule, granule)
        )

    try:
        async with runtime:
            await pump_units(source, connection.splitter, handle_unit)
            horizon = (
                None if last_granule is None else last_granule + horizon_pad
            )
            await runtime.drain(horizon)
    finally:
        detach()
    return count


async def serve_tcp(
    runtime: ServingRuntime,
    broadcast: DetectionBroadcast,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: "asyncio.Future[int] | None" = None,
    max_line_bytes: int | None = None,
    codec: str | None = None,
) -> None:
    """Run a TCP server until cancelled, negotiating per connection.

    ``ready`` (if given) resolves to the bound port once listening —
    lets tests and supervisors connect without racing the bind.  Every
    connection starts as version-0 JSONL; a hello upgrades it (per the
    server ``codec`` mode — default: the runtime's configured mode) and
    detections flow back in the negotiated framing: rows on JSONL
    connections, detection frames on binary ones.  Errors are always
    JSONL lines.  A malformed line, corrupt frame, or oversized unit
    gets a structured error object on the offending connection, which
    stays open for subsequent input.
    """
    config = runtime.config
    mode = codec if codec is not None else config.codec
    if max_line_bytes is None:
        max_line_bytes = config.max_line_bytes

    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(mode, max_line_bytes)

        def write_line(line: str) -> None:
            if not writer.is_closing():
                writer.write(line.encode("utf-8") + b"\n")

        def emit_row(row: dict[str, Any]) -> None:
            if writer.is_closing():
                return
            if connection.codec is not None and connection.codec.version > 0:
                writer.write(connection.codec.encode_detections([row]))
            else:
                writer.write(row_line(row).encode("utf-8") + b"\n")

        detach = broadcast.attach(emit_row)
        try:
            eof = False
            while not eof:
                chunk = await reader.read(1 << 16)
                if chunk:
                    units = connection.splitter.feed(chunk)
                else:
                    units = connection.splitter.finish()
                    eof = True
                for unit in units:
                    events, reply, error = connection.consume(unit)
                    if reply is not None:
                        write_line(reply)
                    if error is not None:
                        write_line(_error_line(error))
                    if events:
                        await runtime.ingest_batch(events)
                await writer.drain()
            # A disconnecting client flushes what it sent; time advances
            # only as far as the stream itself reached (no horizon pad:
            # other clients may still be behind).
            await runtime.drain()
            await writer.drain()
        except (ConnectionError, OSError):
            # Abrupt client reset mid-stream: everything already
            # ingested stays ingested and time still advances for it;
            # only this connection dies.
            await runtime.drain()
        finally:
            detach()
            writer.close()

    runtime.start()
    server = await asyncio.start_server(handle, host=host, port=port)
    bound = server.sockets[0].getsockname()[1] if server.sockets else port
    if ready is not None and not ready.done():
        ready.set_result(bound)
    try:
        async with server:
            await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await runtime.stop()
