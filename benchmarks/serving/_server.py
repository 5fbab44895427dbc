"""The process under test of the ``paced-tcp`` workload.

Runs ``serve_tcp`` over one RECENT shard holding the standard rules,
announces ``{"listening": port}`` on stdout, serves until SIGTERM, then
prints one summary line (shard counters and its own peak memory).
"""

from __future__ import annotations

import _paths  # noqa: F401  (puts src/ on sys.path; must come first)

import argparse
import asyncio
import json
import signal

from repro.serve import serve_tcp
from repro.sim.serving import STANDARD_RULES

from workloads import PacedTcp, streaming_runtime, vm_hwm_mb


async def serve(timer_ratio: int) -> dict[str, float]:
    runtime, broadcast = streaming_runtime(
        dict(STANDARD_RULES), PacedTcp.context, timer_ratio, PacedTcp.wire
    )
    loop = asyncio.get_running_loop()
    ready: asyncio.Future[int] = loop.create_future()
    serving = loop.create_task(serve_tcp(runtime, broadcast, ready=ready))
    port = await ready
    loop.add_signal_handler(signal.SIGTERM, serving.cancel)
    print(json.dumps({"listening": port}), flush=True)
    await serving  # serve_tcp absorbs the cancel and stops the runtime
    shard = runtime.shards[0]
    return {
        "batches_flushed": shard.batches_flushed,
        "events_processed": shard.events_processed,
        "unrouted": runtime.events_unrouted,
        "peak_rss_mb": vm_hwm_mb(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timer-ratio", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(asyncio.run(serve(args.timer_ratio))), flush=True)


if __name__ == "__main__":
    main()
