"""Command-line interface for the repro toolkit.

Subcommands::

    repro parse  "<expression>"            pretty-print the Snoop AST
    repro relate "<T1>" "<T2>"             classify two composite stamps
    repro grid   "<T>" --sites ...         render the Figure-2 region grid
    repro replay <trace> "<expr>" ...      detect a composite event on a trace
    repro check  [--seed N]                run the theorem sweep
    repro bench  [--quick] [--check]       run the perf regression suite
    repro fuzz   [--seed N] [--cases N]    run the conformance fuzzer
    repro serve  --shards N [--stdin|--port P]  sharded serving runtime
    repro serve  --procs N [--fault-plan J]     multi-process failover cluster
    repro serve  --workers H:P,... [--transport tcp]  remote TCP shard workers
    repro serve  --tenants N --selftest         multi-tenant quota/replay gate
    repro replay --store DIR --tenant T         replay a tenant envelope lane
    repro serve-worker --shard K           one shard worker (cluster internal)
    repro serve-worker --listen H:P        host shard workers over TCP
    repro scale  [--transport tcp]         elastic re-balancing selftest
    repro obs-report <spans.jsonl>         summarize an observability export

Composite timestamps are written as semicolon-separated triples, e.g.
``"site1,8,81; site2,7,72"``.  Exposed both as ``python -m repro.cli`` and
as the ``repro`` console script.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.metrics import (
    detection_mismatch,
    detection_multiset,
    timestamps_multiset,
)
from repro.analysis.properties import check_all
from repro.contexts.policies import Context
from repro.errors import ReproError
from repro.events.expressions import EventExpression
from repro.events.parser import parse_expression
from repro.sim.cluster import DistributedSystem
from repro.sim.config import SimConfig
from repro.sim.trace import load_trace
from repro.time.composite import CompositeTimestamp, composite_relation
from repro.time.regions import render_grid


def _selftest_line(line: str, mismatch: str | None) -> int:
    """Print one rule's selftest verdict, with the first mismatch on a
    failure; returns the failure count (0 or 1)."""
    print(f"[{'ok ' if mismatch is None else 'FAIL'}] {line}")
    if mismatch is not None:
        print(f"       {mismatch}")
    return int(mismatch is not None)


def parse_stamp(text: str) -> CompositeTimestamp:
    """Parse ``"site,global,local; site,global,local"`` into a stamp."""
    triples = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = [f.strip() for f in part.split(",")]
        if len(fields) != 3:
            raise ReproError(
                f"a triple needs site,global,local — got {part!r}"
            )
        site, global_time, local = fields
        triples.append((site, int(global_time), int(local)))
    if not triples:
        raise ReproError(f"no triples found in {text!r}")
    return CompositeTimestamp.from_triples(triples)


def _render_ast(expression: EventExpression, indent: int = 0) -> list[str]:
    label = type(expression).__name__
    if not expression.children():
        return [" " * indent + f"{label}: {expression}"]
    lines = [" " * indent + label]
    for child in expression.children():
        lines.extend(_render_ast(child, indent + 2))
    return lines


def cmd_parse(args: argparse.Namespace) -> int:
    expression = parse_expression(args.expression)
    print(f"expression: {expression}")
    print(f"depth: {expression.depth()}")
    print(f"primitive types: {', '.join(sorted(expression.primitive_types()))}")
    for line in _render_ast(expression):
        print(line)
    return 0


def cmd_simplify(args: argparse.Namespace) -> int:
    from repro.events.rewrite import describe_rewrites, simplify

    expression = parse_expression(args.expression)
    simplified = simplify(expression)
    trace = describe_rewrites(expression)
    print(f"original:   {expression}")
    print(f"simplified: {simplified}")
    print(
        f"laws fired: or-idempotence={trace.or_idempotence} "
        f"unit-times={trace.unit_times} filter-fusion={trace.filter_fusion}"
    )
    return 0


def cmd_relate(args: argparse.Namespace) -> int:
    t1 = parse_stamp(args.first)
    t2 = parse_stamp(args.second)
    rel = composite_relation(t1, t2)
    print(f"T1 = {t1}")
    print(f"T2 = {t2}")
    print(f"relation(T1, T2) = {rel.value}")
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    reference = parse_stamp(args.stamp)
    sites = args.sites if args.sites else sorted(
        reference.sites() | {"other1", "other2"}
    )
    print(render_grid(reference, sites, ratio=args.ratio))
    print()
    print("legend: < before  - weak-before  ~ concurrent  + weak-after  "
          "> after  * reference")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    if args.store is not None:
        return _cmd_replay_store(args)
    if args.trace is None or args.expression is None:
        raise ReproError(
            "replay needs TRACE EXPRESSION positionals, or "
            "--store DIR --tenant NAME for envelope-store replay"
        )
    trace = load_trace(args.trace)
    sites = sorted(trace.sites())
    system = DistributedSystem(sites, config=SimConfig(seed=args.seed))
    for event_type in sorted(trace.types()):
        # Home each type at the site that raises it most often.
        counts: dict[str, int] = {}
        for event in trace:
            if event.event_type == event_type:
                counts[event.site] = counts.get(event.site, 0) + 1
        home = max(sorted(counts), key=lambda s: counts[s])
        system.set_home(event_type, home)
    system.register(
        args.expression, name="query", context=Context[args.context.upper()]
    )
    system.inject(trace)
    system.run()
    records = system.detections_of("query")
    print(f"replayed {len(trace)} events from {args.trace}")
    print(f"detections of {args.expression!r}: {len(records)}")
    for record in records[: args.limit]:
        print(f"  @ {record.detection.occurrence.timestamp} "
              f"latency={float(record.latency) * 1000:.1f}ms")
    if len(records) > args.limit:
        print(f"  ... and {len(records) - args.limit} more")
    return 0


def _cmd_replay_store(args: argparse.Namespace) -> int:
    """``repro replay --store DIR --tenant T [--upto G] [--check]``.

    Point-in-time reconstruction of one tenant's detections from its
    persisted envelope lane.  ``--check`` verifies the rebuild
    byte-for-byte against the live multisets the manifest recorded at
    drain time — the acceptance gate for replay-after-failover.
    """
    from repro.serve import replay_store

    if not args.tenant:
        raise ReproError("--store replay needs --tenant NAME")
    detections, manifest = replay_store(
        args.store, args.tenant, upto=args.upto
    )
    boundary = manifest.get("horizon") if args.upto is None else args.upto
    total = sum(len(occurrences) for occurrences in detections.values())
    print(
        f"replayed tenant {args.tenant!r} from {args.store} upto granule "
        f"{boundary}: {total} detection(s)"
    )
    for name in sorted(detections):
        occurrences = detections[name]
        print(f"  {name}: {len(occurrences)} detection(s)")
        for occurrence in occurrences[: args.limit]:
            print(f"    @ {occurrence.timestamp}")
        if len(occurrences) > args.limit:
            print(f"    ... and {len(occurrences) - args.limit} more")
    if not args.check:
        return 0
    recorded = manifest.get("detections", {}).get(args.tenant)
    if recorded is None:
        raise ReproError(
            f"manifest records no live detections for {args.tenant!r}; "
            "re-drain the cluster to refresh it"
        )
    if args.upto is not None and args.upto != manifest.get("horizon"):
        raise ReproError(
            "--check compares against the multisets recorded at the "
            f"drain horizon ({manifest.get('horizon')}); drop --upto "
            "or pass the horizon itself"
        )
    failures = 0
    for name in sorted(recorded):
        rebuilt = timestamps_multiset(detections.get(name, []))
        failures += _selftest_line(
            f"{name}: replayed {len(rebuilt)} detection(s), recorded "
            f"{len(recorded[name])}",
            detection_mismatch({name: recorded[name]}, {name: rebuilt}),
        )
    print(f"replay check: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


def cmd_check(args: argparse.Namespace) -> int:
    reports = check_all(seed=args.seed)
    failures = 0
    for report in reports:
        marker = "ok " if report.holds else "FAIL"
        print(f"[{marker}] {report}")
        failures += not report.holds
    return 1 if failures else 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import collect, render_markdown, verify_report

    data = collect(seed=args.seed, universe_size=args.universe)
    problems = verify_report(data)
    markdown = render_markdown(data)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(markdown)
        print(f"wrote {args.out}")
    else:
        print(markdown)
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    return 1 if problems else 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import main as bench_main

    return bench_main(args)


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.conformance import fuzz, replay

    if args.replay:
        result, reproduced = replay(args.replay)
        print(f"replayed {args.replay}")
        for check in result.checks:
            marker = "skip" if check.skipped else ("ok " if check.passed else "FAIL")
            print(f"  [{marker}] {check.name}: {check.detail}")
        verdict = "passed" if result.passed else "FAILED"
        agreement = "" if reproduced else " (differs from recorded verdict!)"
        print(f"verdict: {verdict}{agreement}")
        return 0 if result.passed and reproduced else 1

    report = fuzz(
        seed=args.seed,
        cases=args.cases,
        budget=args.budget,
        artifact_dir=args.artifacts,
        include_temporal=not args.no_temporal,
        shrink_failures=not args.no_shrink,
        checks=args.check or None,
    )
    print(report.render())
    return 0 if report.passed else 1


def _serve_rules(args: argparse.Namespace) -> dict[str, str]:
    """``--rule NAME=EXPR`` pairs, or the standard scenario's rules."""
    from repro.sim.serving import STANDARD_RULES

    if not args.rule:
        return dict(STANDARD_RULES)
    rules: dict[str, str] = {}
    for entry in args.rule:
        name, _, expression = entry.partition("=")
        if not name or not expression:
            raise ReproError(
                f"--rule needs NAME=EXPRESSION, got {entry!r}"
            )
        rules[name.strip()] = expression.strip()
    return rules


def _json_flag(text: str | None, parse):
    """The value of a flag that takes inline JSON or a path to a JSON
    file (``--fault-plan``, ``--net-fault-plan``, ``--retry-policy``),
    built by ``parse`` from the JSON text; ``None`` when not given."""
    import json

    if not text:
        return None
    stripped = text.strip()
    if not stripped.startswith("{"):
        with open(stripped, "r", encoding="utf-8") as handle:
            stripped = handle.read()
    try:
        return parse(stripped)
    except json.JSONDecodeError as error:
        raise ReproError(f"malformed JSON in {text!r}: {error}") from None


def _serve_config(args: argparse.Namespace, **overrides):
    """One :class:`~repro.serve.config.ServeConfig` from the CLI flags.

    The whole serving surface — in-process runtime, failover cluster,
    and both transports — reads from this one object; ``overrides``
    adjusts the mode-specific fields (cluster mode swaps ``shards`` for
    ``--procs`` and sets ``state_dir``).
    """
    import json

    from repro.serve import RetryPolicy, ServeConfig

    workers = getattr(args, "workers", None)
    if isinstance(workers, str):
        workers = tuple(
            part.strip() for part in workers.split(",") if part.strip()
        ) or None
    fields = dict(
        shards=args.shards,
        salt=args.salt,
        timer_ratio=args.timer_ratio,
        capacity=args.capacity,
        codec=args.codec,
        heartbeat_interval=args.heartbeat_interval,
        miss_threshold=args.miss_threshold,
        retry_budget=args.retry_budget,
        checkpoint_every=args.checkpoint_every,
        seed=args.seed,
        transport=getattr(args, "transport", "auto"),
        workers=workers,
        retry_policy=_json_flag(
            getattr(args, "retry_policy", None),
            lambda text: RetryPolicy.from_dict(json.loads(text)),
        ),
        session_grace=getattr(args, "session_grace", None),
        rebalance_grace=getattr(args, "rebalance_grace", None),
        tenants=getattr(args, "tenants", None),
        quota_rate=getattr(args, "quota_rate", None),
        quota_burst=getattr(args, "quota_burst", None),
        approximate=getattr(args, "approximate", False),
    )
    fields.update(overrides)
    return ServeConfig(**fields)


def _cmd_serve_cluster(args: argparse.Namespace, rules: dict[str, str]) -> int:
    """``repro serve --procs N``: the supervised multi-process cluster."""
    import asyncio
    import tempfile

    from repro.serve import FaultPlan, NetFaultPlan, serve_events
    from repro.serve.cluster import ClusterSupervisor, cluster_serve_stdin
    from repro.sim.serving import ServingWorkload

    if args.port is not None:
        raise ReproError(
            "--procs serves stdin only; --port needs the in-process runtime"
        )

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as scratch:
        state_dir = args.state_dir or scratch
        fault_plan = _json_flag(args.fault_plan, FaultPlan.from_json)
        net_fault_plan = _json_flag(
            getattr(args, "net_fault_plan", None), NetFaultPlan.from_json
        )

        if not args.selftest:
            supervisor = ClusterSupervisor(
                config=_serve_config(
                    args, shards=args.procs, state_dir=state_dir
                ),
                fault_plan=fault_plan,
                net_fault_plan=net_fault_plan,
            )
            for name, expression in sorted(rules.items()):
                supervisor.register(expression, name)
            count = asyncio.run(cluster_serve_stdin(supervisor))
            print(
                f"served {count} event(s) on {args.procs} worker process(es): "
                f"{supervisor.ledger.accepted} detection(s), "
                f"{supervisor.restarts} restart(s), "
                f"{supervisor.resumes} resume(s), "
                f"{supervisor.replayed} replayed, "
                f"{supervisor.parked} parked",
                file=sys.stderr,
            )
            return 0

        # Chaos selftest: drive the generated workload through real worker
        # processes (under the optional fault plan) and assert the multiset
        # of detections matches the fault-free in-process runtime.
        workload = ServingWorkload.standard(seed=args.seed, events=args.events)
        if not args.rule:
            rules = dict(workload.rules)
        baseline = serve_events(
            rules,
            workload,
            config=_serve_config(
                args, shards=args.procs, timer_ratio=workload.timer_ratio
            ),
            horizon=workload.horizon(),
        )

        async def drive() -> ClusterSupervisor:
            supervisor = ClusterSupervisor(
                config=_serve_config(
                    args,
                    shards=args.procs,
                    timer_ratio=workload.timer_ratio,
                    state_dir=state_dir,
                ),
                fault_plan=fault_plan,
                net_fault_plan=net_fault_plan,
            )
            for name, expression in sorted(rules.items()):
                supervisor.register(expression, name)
            async with supervisor:
                for event in workload:
                    await supervisor.ingest(event)
                signals = await supervisor.drain(workload.horizon())
                if signals:
                    raise ReproError(
                        "shards unavailable during selftest: "
                        + ", ".join(
                            f"shard {s.shard} ({s.reason})" for s in signals
                        )
                    )
            return supervisor

        supervisor = asyncio.run(drive())

        failures = 0
        for name in sorted(rules):
            cluster_multiset = detection_multiset(supervisor.timestamps_of(name))
            baseline_multiset = timestamps_multiset(baseline.detections_of(name))
            failures += _selftest_line(
                f"{name}: procs={args.procs} -> {len(cluster_multiset)} "
                f"detections, in-process -> {len(baseline_multiset)}",
                detection_mismatch(
                    {name: baseline_multiset}, {name: cluster_multiset}
                ),
            )
        print(
            f"cluster selftest over {len(workload)} events: "
            f"{supervisor.restarts} restart(s), {supervisor.resumes} "
            f"resume(s), {supervisor.replayed} replayed, "
            f"{supervisor.checkpoints} checkpoint(s), "
            f"{supervisor.ledger.duplicates} duplicate(s) dropped: "
            f"{'FAILED' if failures else 'passed'}"
        )
        return 1 if failures else 0


def _cmd_serve_tenants(args: argparse.Namespace, rules: dict[str, str]) -> int:
    """``repro serve --tenants N --selftest``: the multi-tenant gate.

    Stripes the generated workload across N tenants through one
    :class:`~repro.serve.tenancy.MultiTenantCluster` (token-bucket
    quotas, optional fault plan), then asserts per tenant that (a) the
    live multiset of every rule equals a solo single-shard run over
    that tenant's sub-stream, and (b) an envelope-log replay to the
    horizon reproduces the live multiset byte-for-byte.  With
    ``--state-dir`` the envelope lanes and manifest persist, so
    ``repro replay --store DIR --tenant T --check`` can re-verify the
    same run offline.
    """
    import tempfile

    from repro.serve import FaultPlan, TenantQuota, serve_events, serve_tenants
    from repro.sim.serving import ServingWorkload

    if not args.selftest:
        raise ReproError(
            "--tenants implements the multi-tenant selftest; add "
            "--selftest (stream serving modes stay single-tenant)"
        )
    if args.port is not None:
        raise ReproError("--tenants --selftest does not serve a port")
    if args.tenants <= 0:
        raise ReproError(f"--tenants must be positive, got {args.tenants}")

    workload = ServingWorkload.standard(seed=args.seed, events=args.events)
    if not args.rule:
        rules = dict(workload.rules)
    horizon = workload.horizon()
    tenants = [f"t{index}" for index in range(args.tenants)]
    # Stripe by arrival position: the standard workload draws event
    # types uniformly at random, so every tenant's sub-stream keeps the
    # full type mix and the per-tenant comparisons stay non-vacuous.
    stream = [
        (tenants[index % len(tenants)], event)
        for index, event in enumerate(workload)
    ]
    quota = TenantQuota(
        rate=args.quota_rate if args.quota_rate is not None else 8.0,
        burst=args.quota_burst if args.quota_burst is not None else 16.0,
    )
    fault_plan = _json_flag(args.fault_plan, FaultPlan.from_json)
    codec = None if args.codec == "auto" else args.codec

    with tempfile.TemporaryDirectory(prefix="repro-tenants-") as scratch:
        state_dir = args.state_dir or scratch
        cluster = serve_tenants(
            {tenant: rules for tenant in tenants},
            stream,
            shards=args.shards,
            salt=args.salt,
            timer_ratio=workload.timer_ratio,
            quota=quota,
            horizon=horizon,
            checkpoint_every=args.checkpoint_every,
            fault_plan=fault_plan,
            codec=codec,
            state_dir=state_dir,
        )

        failures = 0
        for tenant in tenants:
            solo_events = [
                event for owner, event in stream if owner == tenant
            ]
            baseline = serve_events(
                rules,
                solo_events,
                shards=1,
                salt=args.salt,
                timer_ratio=workload.timer_ratio,
                horizon=horizon,
            )
            replayed = cluster.replay(tenant, upto=horizon)
            for name in sorted(rules):
                key = f"{tenant}/{name}"
                live = {key: timestamps_multiset(cluster.detections_of(tenant, name))}
                solo = {key: timestamps_multiset(baseline.detections_of(name))}
                rebuilt = {key: timestamps_multiset(replayed[name])}
                failures += _selftest_line(
                    f"{key}: live={len(live[key])} solo={len(solo[key])} "
                    f"replay={len(rebuilt[key])} detection(s)",
                    detection_mismatch(solo, live, "live vs solo")
                    or detection_mismatch(live, rebuilt, "replay vs live"),
                )
        status = cluster.status()
        throttled = sum(
            int(info.get("throttled", 0))
            for info in status.tenants.values()
        )
        cluster.close()
        print(
            f"tenant selftest over {len(stream)} events, "
            f"{len(tenants)} tenant(s) on {args.shards} shard(s): "
            f"{throttled} throttled (parked), {status.restarts} "
            f"restart(s): {'FAILED' if failures else 'passed'}"
        )
        if args.state_dir:
            print(f"envelope store persisted under {args.state_dir}")
        return 1 if failures else 0


def cmd_serve_worker(args: argparse.Namespace) -> int:
    from repro.serve.cluster import run_worker

    if args.listen is not None:
        return _serve_worker_listen(args)
    if args.shard is None:
        raise ReproError(
            "serve-worker needs --shard K (pipe mode) or --listen HOST:PORT"
        )
    return run_worker(
        args.shard,
        timer_ratio=args.timer_ratio,
        heartbeat_interval=args.heartbeat_interval,
    )


def _serve_worker_listen(args: argparse.Namespace) -> int:
    """``repro serve-worker --listen``: host shard workers over TCP.

    Announces the bound address as a ``{"listening": "host:port"}`` JSON
    line on stdout (so scripts can pass port 0) and serves until killed.
    """
    import asyncio
    import json

    from repro.serve.cluster import serve_worker_listener

    host, _, port = args.listen.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(f"--listen {args.listen!r} is not HOST:PORT")

    async def run() -> None:
        def announce(bound: str) -> None:
            print(json.dumps({"listening": bound}), flush=True)

        server = await serve_worker_listener(
            host,
            int(port),
            timer_ratio=args.timer_ratio,
            heartbeat_interval=args.heartbeat_interval,
            codec=args.codec,
            announce=announce,
            session_grace=getattr(args, "session_grace", None),
        )
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def cmd_netfault_proxy(args: argparse.Namespace) -> int:
    """``repro netfault-proxy``: a severable TCP relay for partition drills.

    Relays ``--listen`` to ``--target`` byte-for-byte, announcing the
    bound address as a ``{"listening": "host:port"}`` JSON line (so
    scripts can pass port 0).  ``--sever-at``/``--heal-at`` schedule
    partitions relative to startup: a sever aborts live pipes and
    refuses new connections until the next heal, exercising the
    resumable session layer of any supervisor dialing through the
    proxy.  Serves until killed.
    """
    import asyncio
    import json

    from repro.serve.netfault import TcpFaultProxy

    host, _, port = args.listen.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(f"--listen {args.listen!r} is not HOST:PORT")
    schedule = sorted(
        [(float(at), "sever") for at in args.sever_at or ()]
        + [(float(at), "heal") for at in args.heal_at or ()]
    )

    async def run() -> None:
        proxy = TcpFaultProxy(args.target, host=host, port=int(port))
        await proxy.start()
        print(json.dumps({"listening": proxy.bound}), flush=True)

        async def drive() -> None:
            start = asyncio.get_running_loop().time()
            for at, action in schedule:
                delay = start + at - asyncio.get_running_loop().time()
                if delay > 0:
                    await asyncio.sleep(delay)
                proxy.sever() if action == "sever" else proxy.heal()
                print(
                    json.dumps({action: round(at, 6)}),
                    file=sys.stderr,
                    flush=True,
                )

        driver = asyncio.ensure_future(drive())
        try:
            await proxy.serve_forever()
        finally:
            driver.cancel()
            await proxy.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import (
        DetectionBroadcast,
        ServingRuntime,
        serve_events,
        serve_stdin,
        serve_tcp,
        wire_rules,
    )
    from repro.sim.serving import ServingWorkload

    rules = _serve_rules(args)

    if args.approximate and (
        args.procs is not None
        or args.workers is not None
        or args.tenants is not None
    ):
        raise ReproError(
            "--approximate serves in-process only; it cannot combine "
            "with --procs/--workers/--tenants"
        )

    if args.tenants is not None:
        if args.procs is not None or args.workers is not None:
            raise ReproError(
                "--tenants runs on the in-process failover cluster; it "
                "cannot combine with --procs/--workers"
            )
        return _cmd_serve_tenants(args, rules)

    if args.workers is not None and args.procs is None:
        # Remote TCP workers imply cluster mode; --shards doubles as the
        # shard-worker count when --procs is not given explicitly.
        args.procs = args.shards
    if args.procs is not None:
        return _cmd_serve_cluster(args, rules)

    if args.selftest:
        # The serve-smoke gate: the sharded runtime must produce the
        # identical multiset of detections as a single-shard exact run
        # over the standard generated workload.  With --approximate the
        # left side is the anytime runtime, so the comparison asserts
        # the soundness contract: CONFIRMED == the exact multiset.
        workload = ServingWorkload.standard(
            seed=args.seed, events=args.events
        )
        if not args.rule:
            rules = dict(workload.rules)
        horizon = workload.horizon()
        sharded = serve_events(
            rules,
            workload,
            config=_serve_config(args, timer_ratio=workload.timer_ratio),
            horizon=horizon,
        )
        baseline = serve_events(
            rules,
            workload,
            config=_serve_config(
                args, shards=1, timer_ratio=workload.timer_ratio,
                approximate=False,
            ),
            horizon=horizon,
        )

        failures = 0
        for name in sorted(rules):
            left = timestamps_multiset(sharded.detections_of(name))
            right = timestamps_multiset(baseline.detections_of(name))
            failures += _selftest_line(
                f"{name}: shards={args.shards} -> {len(left)} "
                f"detections, shards=1 -> {len(right)}",
                detection_mismatch({name: right}, {name: left}),
            )
        if args.approximate:
            from repro.detection.approximate import Verdict

            unresolved = sharded.unresolved()
            counts = {verdict: 0 for verdict in Verdict}
            for _, verdict_detection in sharded.verdicts():
                counts[verdict_detection.verdict] += 1
            marker = "ok " if unresolved == 0 else "FAIL"
            failures += unresolved != 0
            print(
                f"[{marker}] verdicts: "
                f"{counts[Verdict.TENTATIVE]} tentative, "
                f"{counts[Verdict.CONFIRMED]} confirmed, "
                f"{counts[Verdict.RETRACTED]} retracted, "
                f"{unresolved} unresolved"
            )
        print(
            f"selftest over {len(workload)} events"
            f"{' (approximate)' if args.approximate else ''}: "
            f"{'FAILED' if failures else 'passed'}"
        )
        return 1 if failures else 0

    runtime = ServingRuntime(config=_serve_config(args))
    broadcast = DetectionBroadcast()
    wire_rules(runtime, sorted(rules.items()), broadcast)

    if args.port is not None:
        print(
            f"serving {len(rules)} rule(s) on {args.shards} shard(s), "
            f"tcp port {args.port}, codec {args.codec}",
            file=sys.stderr,
        )
        try:
            asyncio.run(serve_tcp(runtime, broadcast, port=args.port))
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        return 0

    count = asyncio.run(serve_stdin(runtime, broadcast))
    print(
        f"served {count} event(s) on {args.shards} shard(s): "
        f"{broadcast.emitted} detection(s), "
        f"{runtime.events_unrouted} unrouted",
        file=sys.stderr,
    )
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    """``repro scale``: the elastic re-balancing selftest.

    Drives the standard generated workload through a live cluster that
    re-hashes onto each ``--steps`` worker count mid-stream (under an
    optional fault plan), over subprocess or remote TCP workers, and
    asserts the detection multiset matches the fault-free
    single-process runtime.
    """
    import asyncio
    import json
    import os
    import subprocess
    import tempfile

    from repro.serve import FaultPlan, ServeConfig, serve_events
    from repro.serve.cluster import ClusterSupervisor
    from repro.sim.serving import ServingWorkload

    steps = [int(part) for part in args.steps.split(",") if part.strip()]
    if not steps:
        raise ReproError("--steps needs at least one shard count")
    if args.start <= 0 or any(step <= 0 for step in steps):
        raise ReproError("shard counts must be positive")

    workload = ServingWorkload.standard(seed=args.seed, events=args.events)
    rules = dict(workload.rules)
    horizon = workload.horizon()
    fault_plan = _json_flag(args.fault_plan, FaultPlan.from_json)

    baseline = serve_events(
        rules,
        workload,
        config=ServeConfig(shards=1, timer_ratio=workload.timer_ratio),
        horizon=horizon,
    )

    events = list(workload)
    # Scale points spread evenly across the stream: with K steps the
    # stream splits into K+1 spans, re-hashing at each interior cut.
    schedule = [
        ((index + 1) * len(events)) // (len(steps) + 1)
        for index in range(len(steps))
    ]

    listeners: list[subprocess.Popen] = []
    endpoints: list[str] = []
    try:
        if args.transport == "tcp":
            for _ in range(args.listeners):
                process = subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro.cli",
                        "serve-worker",
                        "--listen",
                        "127.0.0.1:0",
                        "--heartbeat-interval",
                        str(args.heartbeat_interval),
                        "--codec",
                        args.codec,
                    ],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    text=True,
                )
                listeners.append(process)
                line = process.stdout.readline()
                try:
                    endpoints.append(str(json.loads(line)["listening"]))
                except (ValueError, KeyError, TypeError):
                    raise ReproError(
                        "worker listener failed to announce its address "
                        f"(got {line!r})"
                    ) from None

        with tempfile.TemporaryDirectory(prefix="repro-scale-") as state_dir:
            config = ServeConfig(
                shards=args.start,
                timer_ratio=workload.timer_ratio,
                state_dir=state_dir,
                codec=args.codec,
                heartbeat_interval=args.heartbeat_interval,
                checkpoint_every=args.checkpoint_every,
                retry_budget=args.retry_budget,
                rebalance_grace=args.rebalance_grace,
                seed=args.seed,
                transport=args.transport if args.transport == "tcp" else "auto",
                workers=tuple(endpoints) or None,
            )

            async def drive():
                supervisor = ClusterSupervisor(
                    config=config, fault_plan=fault_plan
                )
                for name, expression in sorted(rules.items()):
                    supervisor.register(expression, name)
                reports = []
                pending = list(zip(schedule, steps))
                async with supervisor:
                    for count, event in enumerate(events):
                        while pending and pending[0][0] <= count:
                            _, target = pending.pop(0)
                            reports.append(await supervisor.scale(target))
                        await supervisor.ingest(event)
                    for _, target in pending:
                        reports.append(await supervisor.scale(target))
                    signals = await supervisor.drain(horizon)
                return supervisor, reports, signals

            supervisor, reports, signals = asyncio.run(drive())
            # Listed before the directory goes: a migration must leave
            # nothing behind of a shard map that no longer exists.
            final = {
                f"shard{index}{suffix}"
                for index in range(supervisor.router.shards)
                for suffix in (".wal", ".ckpt", ".ckpt.prev")
            }
            stale = sorted(set(os.listdir(state_dir)) - final)
    finally:
        for process in listeners:
            process.terminate()
        for process in listeners:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                process.kill()

    if signals:
        print(
            "shards unavailable after drain: "
            + ", ".join(f"shard {s.shard} ({s.reason})" for s in signals)
        )
        return 1

    failures = 0
    if stale:
        failures += 1
        print(
            f"[FAIL] state directory holds files of no shard in the final "
            f"map of {supervisor.router.shards}: {', '.join(stale)}"
        )
    for name in sorted(rules):
        cluster_multiset = detection_multiset(supervisor.timestamps_of(name))
        baseline_multiset = timestamps_multiset(baseline.detections_of(name))
        failures += _selftest_line(
            f"{name}: {len(cluster_multiset)} detections elastic, "
            f"{len(baseline_multiset)} single-process",
            detection_mismatch(
                {name: baseline_multiset}, {name: cluster_multiset}
            ),
        )
    path = " -> ".join(str(n) for n in [args.start] + steps)
    print(
        f"scale selftest over {len(events)} events ({args.transport}, "
        f"workers {path}): {len(reports)} re-balance(s), "
        f"{supervisor.restarts} restart(s), {supervisor.rehomes} "
        f"re-home(s), epoch {supervisor.router.epoch}: "
        f"{'FAILED' if failures else 'passed'}"
    )
    return 1 if failures else 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.report import read_obs_file, render_report, verify_span_chains

    data = read_obs_file(args.path)
    print(render_report(data))
    if args.verify:
        problems = verify_span_chains(data)
        for problem in problems:
            print(f"PROBLEM: {problem}", file=sys.stderr)
        return 1 if problems else 0
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed composite-event semantics toolkit "
        "(Yang & Chakravarthy, ICDE 1999)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    parse_command = commands.add_parser("parse", help="pretty-print a Snoop AST")
    parse_command.add_argument("expression")
    parse_command.set_defaults(handler=cmd_parse)

    simplify_command = commands.add_parser(
        "simplify", help="apply the algebraic rewriter to an expression"
    )
    simplify_command.add_argument("expression")
    simplify_command.set_defaults(handler=cmd_simplify)

    relate_command = commands.add_parser(
        "relate", help="classify the relation of two composite stamps"
    )
    relate_command.add_argument("first")
    relate_command.add_argument("second")
    relate_command.set_defaults(handler=cmd_relate)

    grid_command = commands.add_parser("grid", help="render a Figure-2 grid")
    grid_command.add_argument("stamp")
    grid_command.add_argument("--sites", nargs="*", default=None)
    grid_command.add_argument("--ratio", type=int, default=10)
    grid_command.set_defaults(handler=cmd_grid)

    replay_command = commands.add_parser(
        "replay", help="replay a trace against an expression",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "modes:\n"
            "  repro replay TRACE EXPR           stamped trace file vs one "
            "expression\n"
            "  repro replay --seed N             generated workload when no "
            "trace is given\n"
            "  repro replay --store DIR --tenant NAME\n"
            "                                    rebuild one tenant from a "
            "persisted envelope\n"
            "                                    store (the state dir of "
            "'serve --tenants');\n"
            "                                    --upto bounds the granule, "
            "--check verifies the\n"
            "                                    rebuilt multisets against "
            "the manifest"
        ),
    )
    replay_command.add_argument("trace", nargs="?", default=None)
    replay_command.add_argument("expression", nargs="?", default=None)
    replay_command.add_argument(
        "--context",
        default="unrestricted",
        choices=[context.value for context in Context],
    )
    replay_command.add_argument("--seed", type=int, default=0)
    replay_command.add_argument("--limit", type=int, default=10)
    replay_command.add_argument(
        "--store", default=None, metavar="DIR",
        help="replay from a persisted tenant envelope store instead of "
        "a trace file (the state dir of repro serve --tenants)",
    )
    replay_command.add_argument(
        "--tenant", default=None, metavar="NAME",
        help="which tenant's envelope lane to replay (--store mode)",
    )
    replay_command.add_argument(
        "--upto", type=int, default=None, metavar="GRANULE",
        help="granule boundary to replay to (default: the manifest's "
        "drain horizon)",
    )
    replay_command.add_argument(
        "--check", action="store_true",
        help="verify the rebuilt multisets byte-for-byte against the "
        "live detections recorded in the manifest; exit 1 on mismatch",
    )
    replay_command.set_defaults(handler=cmd_replay)

    check_command = commands.add_parser(
        "check", help="run the theorem/proposition sweep"
    )
    check_command.add_argument("--seed", type=int, default=0)
    check_command.set_defaults(handler=cmd_check)

    report_command = commands.add_parser(
        "report", help="generate the markdown reproduction report"
    )
    report_command.add_argument("--seed", type=int, default=0)
    report_command.add_argument("--universe", type=int, default=40)
    report_command.add_argument("--out", default=None)
    report_command.set_defaults(handler=cmd_report)

    bench_command = commands.add_parser(
        "bench", help="run the performance regression suite"
    )
    bench_command.add_argument(
        "--quick", action="store_true",
        help="smaller workloads and fewer rounds (CI smoke mode)",
    )
    bench_command.add_argument(
        "--label", default="local", help="suffix of the BENCH_<label>.json report"
    )
    bench_command.add_argument(
        "--out", default=".", help="directory the report is written to"
    )
    bench_command.add_argument(
        "--baseline", default="benchmarks/baseline.json",
        help="committed baseline to compare against",
    )
    bench_command.add_argument(
        "--check", action="store_true",
        help="exit 1 when a benchmark regresses past --tolerance",
    )
    bench_command.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional slowdown vs the baseline (default 0.30)",
    )
    bench_command.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline file with this run's numbers",
    )
    bench_command.add_argument(
        "--only", nargs="*", default=None, metavar="NAME",
        help="run only the named benchmarks",
    )
    bench_command.set_defaults(handler=cmd_bench)

    fuzz_command = commands.add_parser(
        "fuzz", help="run the differential conformance fuzzer"
    )
    fuzz_command.add_argument(
        "--seed", type=int, default=0, help="master seed of the campaign"
    )
    fuzz_command.add_argument(
        "--cases", type=int, default=100, help="number of cases to generate"
    )
    fuzz_command.add_argument(
        "--budget", type=float, default=None,
        help="wall-clock bound in seconds (truncates, never changes verdicts)",
    )
    fuzz_command.add_argument(
        "--artifacts", default="fuzz-artifacts",
        help="directory failing replay artifacts are written to",
    )
    fuzz_command.add_argument(
        "--replay", default=None, metavar="FILE",
        help="re-run one saved artifact instead of fuzzing",
    )
    fuzz_command.add_argument(
        "--no-shrink", action="store_true",
        help="skip minimization of failing cases",
    )
    fuzz_command.add_argument(
        "--no-temporal", action="store_true",
        help="exclude P/P*/+ from generated expressions",
    )
    fuzz_command.add_argument(
        "--check", action="append", default=None, metavar="NAME",
        help="run only the named conformance check(s) (repeatable)",
    )
    fuzz_command.set_defaults(handler=cmd_fuzz)

    serve_command = commands.add_parser(
        "serve", help="run the sharded async serving runtime",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "modes:\n"
            "  (default)                  in-process sharded runtime on "
            "stdin or --port\n"
            "  --approximate              anytime verdict streaming "
            "(TENTATIVE/CONFIRMED/\n"
            "                             RETRACTED rows; in-process only)\n"
            "  --procs N                  supervised worker processes with "
            "WAL + heartbeat\n"
            "                             failover (--state-dir, "
            "--fault-plan, --transport,\n"
            "                             --checkpoint-every, "
            "--rebalance-grace)\n"
            "  --workers HOST:PORT,...    remote TCP shard workers (implies "
            "cluster mode)\n"
            "  --tenants N --selftest     multi-tenant gate: namespaces, "
            "quotas (--quota-rate,\n"
            "                             --quota-burst), envelope-log "
            "replay\n"
            "  --selftest                 serve-smoke gate vs the unsharded "
            "exact baseline"
        ),
    )
    serve_command.add_argument(
        "--shards", type=int, default=1, help="number of detection shards"
    )
    serve_command.add_argument(
        "--salt", type=int, default=0,
        help="perturbs the rule-to-shard assignment (testing aid)",
    )
    serve_command.add_argument(
        "--rule", action="append", default=None, metavar="NAME=EXPR",
        help="register a rule (repeatable); defaults to the standard "
        "serving scenario's rules",
    )
    serve_command.add_argument(
        "--timer-ratio", type=int, default=10,
        help="local ticks per global granule (default: Example 5.1's 10)",
    )
    serve_command.add_argument(
        "--capacity", type=int, default=1024,
        help="per-shard ingest queue bound",
    )
    serve_command.add_argument(
        "--stdin", action="store_true",
        help="read events from stdin until EOF (the default mode); input "
        "may be JSONL lines, binary frames, or any interleaving",
    )
    serve_command.add_argument(
        "--codec", choices=("jsonl", "binary", "auto"), default="auto",
        help="wire codec mode: 'jsonl' pins version-0 lines, 'binary' "
        "prefers version-1 granule-batch frames, 'auto' negotiates per "
        "connection (default)",
    )
    serve_command.add_argument(
        "--port", type=int, default=None,
        help="listen for JSONL events on a TCP port instead of stdin",
    )
    serve_command.add_argument(
        "--approximate", action="store_true",
        help="anytime detection: stream TENTATIVE verdicts immediately "
        "and CONFIRMED/RETRACTED resolutions once the stabilization "
        "window closes (in-process modes only)",
    )
    serve_command.add_argument(
        "--selftest", action="store_true",
        help="run the generated workload and assert the sharded "
        "detections match an unsharded baseline (with --approximate: "
        "that CONFIRMED verdicts match the exact baseline)",
    )
    serve_command.add_argument(
        "--seed", type=int, default=0, help="workload seed for --selftest"
    )
    serve_command.add_argument(
        "--events", type=int, default=2000,
        help="workload size for --selftest",
    )
    serve_command.add_argument(
        "--procs", type=int, default=None, metavar="N",
        help="run N supervised shard worker *processes* with heartbeat "
        "failure detection and checkpoint+WAL failover",
    )
    serve_command.add_argument(
        "--state-dir", default=None,
        help="directory for per-shard WAL/checkpoint files (--procs mode; "
        "default: a temporary directory)",
    )
    serve_command.add_argument(
        "--fault-plan", default=None, metavar="JSON|FILE",
        help="deterministic FaultPlan as inline JSON or a file path "
        "(--procs mode chaos testing)",
    )
    serve_command.add_argument(
        "--net-fault-plan", default=None, metavar="JSON|FILE",
        help="deterministic NetFaultPlan as inline JSON or a file path: "
        "inject seeded drops/dups/resets/stalls into the supervisor-to-"
        "worker links (cluster mode partition testing)",
    )
    serve_command.add_argument(
        "--retry-policy", default=None, metavar="JSON|FILE",
        help="reconnect RetryPolicy as inline JSON or a file path, e.g. "
        '\'{"base": 0.05, "cap": 2.0, "attempt_timeout": 5.0, '
        '"deadline": 15.0}\' (TCP transport)',
    )
    serve_command.add_argument(
        "--session-grace", type=float, default=None, metavar="SECONDS",
        help="how long workers hold a dropped link's session state for "
        "resume before declaring it dead (TCP transport; default 30)",
    )
    serve_command.add_argument(
        "--heartbeat-interval", type=float, default=0.25,
        help="seconds between worker heartbeats (--procs mode)",
    )
    serve_command.add_argument(
        "--miss-threshold", type=int, default=4,
        help="missed heartbeat intervals before a worker is respawned",
    )
    serve_command.add_argument(
        "--checkpoint-every", type=int, default=64,
        help="checkpoint a shard every N WAL entries (--procs mode)",
    )
    serve_command.add_argument(
        "--retry-budget", type=int, default=3,
        help="recovery attempts before a shard is declared unavailable",
    )
    serve_command.add_argument(
        "--transport", choices=("auto", "subprocess", "tcp"), default="auto",
        help="how the supervisor reaches shard workers: local subprocess "
        "pipes or remote TCP listeners ('auto' picks tcp when --workers "
        "endpoints are given)",
    )
    serve_command.add_argument(
        "--workers", default=None, metavar="HOST:PORT,...",
        help="comma-separated 'repro serve-worker --listen' endpoints; "
        "implies cluster mode with --shards workers unless --procs is given",
    )
    serve_command.add_argument(
        "--tenants", type=int, default=None, metavar="N",
        help="multi-tenant selftest: stripe the workload across N "
        "tenant namespaces with per-tenant quotas and envelope-log "
        "replay verification (requires --selftest)",
    )
    serve_command.add_argument(
        "--quota-rate", type=float, default=None,
        help="per-tenant admission tokens refilled per granule "
        "(--tenants mode; default 8)",
    )
    serve_command.add_argument(
        "--quota-burst", type=float, default=None,
        help="per-tenant token-bucket burst capacity (--tenants mode; "
        "default 16)",
    )
    serve_command.add_argument(
        "--rebalance-grace", type=float, default=None, metavar="SECONDS",
        help="re-home a failed shard's rules onto the survivors after "
        "this many seconds instead of parking it (default: park)",
    )
    serve_command.set_defaults(handler=cmd_serve)

    worker_command = commands.add_parser(
        "serve-worker",
        help="run one detection shard worker (spawned by serve --procs, "
        "or a TCP worker host with --listen)",
    )
    worker_command.add_argument("--shard", type=int, default=None)
    worker_command.add_argument("--timer-ratio", type=int, default=10)
    worker_command.add_argument("--heartbeat-interval", type=float, default=0.25)
    worker_command.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="host shard workers over TCP (port 0 picks a free port; the "
        "bound address is announced as a JSON line on stdout)",
    )
    worker_command.add_argument(
        "--codec", choices=("jsonl", "binary", "auto"), default="auto",
        help="codec mode offered to connecting supervisors (--listen)",
    )
    worker_command.add_argument(
        "--session-grace", type=float, default=None, metavar="SECONDS",
        help="hold a dropped supervisor link's session for resume this "
        "many seconds before discarding it (--listen; default 30)",
    )
    worker_command.set_defaults(handler=cmd_serve_worker)

    proxy_command = commands.add_parser(
        "netfault-proxy",
        help="severable TCP relay for partition drills: pipe --listen to "
        "--target, sever/heal on a schedule (the CI chaos partition leg)",
    )
    proxy_command.add_argument(
        "--listen", required=True, metavar="HOST:PORT",
        help="address to accept supervisor connections on (port 0 picks "
        "a free port; the bound address is announced as a JSON line)",
    )
    proxy_command.add_argument(
        "--target", required=True, metavar="HOST:PORT",
        help="the real 'serve-worker --listen' endpoint to relay to",
    )
    proxy_command.add_argument(
        "--sever-at", action="append", type=float, default=None,
        metavar="SECONDS",
        help="partition the link this many seconds after startup "
        "(repeatable; in-flight pipes are aborted, new connects refused)",
    )
    proxy_command.add_argument(
        "--heal-at", action="append", type=float, default=None,
        metavar="SECONDS",
        help="end the partition this many seconds after startup "
        "(repeatable)",
    )
    proxy_command.set_defaults(handler=cmd_netfault_proxy)

    scale_command = commands.add_parser(
        "scale",
        help="elastic re-balancing selftest: scale a live cluster "
        "mid-stream and compare against the single-process baseline",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "drives --start workers through the --steps shard counts at "
            "granule\nboundaries, migrating detector state through "
            "checkpoint handoffs.\n--transport tcp spawns --listeners "
            "'serve-worker --listen' hosts;\n--fault-plan injects "
            "deterministic kills and --rebalance-grace re-homes\nfailed "
            "shards onto survivors instead of parking them"
        ),
    )
    scale_command.add_argument(
        "--transport", choices=("subprocess", "tcp"), default="subprocess",
        help="worker transport under test (tcp spawns local --listen "
        "worker hosts)",
    )
    scale_command.add_argument(
        "--start", type=int, default=2, help="initial shard-worker count"
    )
    scale_command.add_argument(
        "--steps", default="4,3", metavar="N,N,...",
        help="shard counts to re-hash onto, spread evenly across the "
        "stream (default 4,3)",
    )
    scale_command.add_argument(
        "--seed", type=int, default=0, help="workload seed"
    )
    scale_command.add_argument(
        "--events", type=int, default=600, help="workload size"
    )
    scale_command.add_argument(
        "--codec", choices=("jsonl", "binary", "auto"), default="auto",
    )
    scale_command.add_argument(
        "--listeners", type=int, default=2,
        help="TCP worker-host processes to spawn (tcp transport)",
    )
    scale_command.add_argument("--heartbeat-interval", type=float, default=0.25)
    scale_command.add_argument("--checkpoint-every", type=int, default=64)
    scale_command.add_argument("--retry-budget", type=int, default=3)
    scale_command.add_argument(
        "--rebalance-grace", type=float, default=None, metavar="SECONDS",
        help="auto re-home failed shards after this many seconds",
    )
    scale_command.add_argument(
        "--fault-plan", default=None, metavar="JSON|FILE",
        help="deterministic FaultPlan as inline JSON or a file path",
    )
    scale_command.set_defaults(handler=cmd_scale)

    obs_command = commands.add_parser(
        "obs-report", help="summarize a JSONL observability export"
    )
    obs_command.add_argument("path")
    obs_command.add_argument(
        "--verify",
        action="store_true",
        help="also check detect->inject span-chain integrity",
    )
    obs_command.set_defaults(handler=cmd_obs_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - direct invocation
    sys.exit(main())
