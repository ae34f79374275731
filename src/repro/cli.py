"""``python -m repro`` — work with graphs and indexes from the shell.

Subcommands operate on the edge-list format of :mod:`repro.graph.io`::

    python -m repro stats graph.txt          # nodes/edges/width/height
    python -m repro stats graph.txt --profile    # + cProfile hot spots
    python -m repro chains graph.txt         # minimum chain cover
    python -m repro antichain graph.txt      # a maximum antichain
    python -m repro query graph.txt 0 1 2 3  # reachability pairs
    python -m repro query graph.txt --pairs-file q.txt   # batch query
    python -m repro generate dsrg 500 200 --seed 3 --out graph.txt
    python -m repro index graph.txt -o graph.idx     # persist the index
    python -m repro index --edges huge.txt -o huge.idx --codec compressed
    python -m repro stats --index graph.idx  # codec, on-disk vs RAM size
    python -m repro query --index graph.idx 0 1      # query without rebuild
    python -m repro serve graph.txt --port 7431      # TCP query service
    python -m repro query --remote 127.0.0.1:7431 0 1    # query a server
    python -m repro serve graph.txt --capture j.ndjson   # request journal
    python -m repro serve graph.txt --slo "positive p99 < 2ms"
    python -m repro slo-report --remote 127.0.0.1:7431   # objective status
    python -m repro remove-edge --remote 127.0.0.1:7431 0 1  # delete edge
    python -m repro remove-node graph.txt 7 --out g2.txt # edit edge list
    python -m repro dot graph.txt --chains           # Graphviz export

``--engine`` (on ``query`` / ``serve`` / ``stats`` / ``index``)
selects any backend from the :mod:`repro.engine` registry — the chain
index variants, the paper's baselines, or the component-partitioned
``composite``::

    python -m repro query graph.txt 0 1 --engine two-hop
    python -m repro serve graph.txt --engine composite
    python -m repro index graph.txt -o g.idx --engine composite  # v3
    python -m repro stats graph.txt --engine chain-stratified

``--observers on`` (on ``query`` / ``serve`` / ``stats``) puts the
O(1)-answer observer stack of ``docs/OBSERVERS.md`` in front of the
selected engine — the ``observed:<engine>`` registry spelling::

    python -m repro query graph.txt 0 1 --observers on --engine bfs
    python -m repro serve graph.txt --observers on

Observability (see ``docs/OBSERVABILITY.md``): ``--profile`` on
``stats`` prints a cProfile breakdown of the width computation, and
``--metrics-out metrics.json`` on ``index`` / ``query`` enables the
:data:`repro.obs.OBS` registry for the run and writes its JSON export
— per-phase spans (``condense``, ``stratify``, ``matching/level-*``,
``resolution``, ``labeling``), build counters (chains, virtual nodes,
transfers, ...) and query counters::

    python -m repro index graph.txt -o graph.idx --metrics-out m.json
    python -m repro query graph.txt 0 1 --metrics-out m.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from repro.core.index import ChainIndex
from repro.core.labelstore import CODECS
from repro.core.width import dag_width, maximum_antichain
from repro.obs import OBS, maybe_profiled
from repro.graph.generators import (
    citation_dag,
    dense_dag,
    graph_stats,
    scale_chain_dag,
    semi_random_dag,
    sparse_random_dag,
    systematic_dag,
)
from repro.graph.io import iter_edges, read_edge_list, write_edge_list
from repro.graph.scc import condense

__all__ = ["main"]


def _load(path: str):
    return read_edge_list(Path(path))


def _load_from_edges(path: str):
    """Stream a (possibly huge) edge list straight into a DiGraph.

    Uses :func:`repro.graph.io.iter_edges`, so one line of the file is
    in memory at a time — no intermediate edge list, no adjacency
    copies; 10M edges land directly in the graph's dense arrays.
    """
    from repro.graph.digraph import DiGraph
    graph = DiGraph()
    ensure_node = graph.ensure_node
    has_edge = graph.has_edge
    add_edge = graph.add_edge
    for tail, head in iter_edges(Path(path)):
        ensure_node(tail)
        ensure_node(head)
        if tail != head and not has_edge(tail, head):
            add_edge(tail, head)
    return graph


def _engine_names() -> list[str]:
    """Registered engine names — the ``--engine`` choice list."""
    import repro.engine as engine
    return list(engine.names())


def _chain_method_choices() -> list[str]:
    """Chain-cover methods, derived from the engine registry (the
    single definition site), so ``--method`` choices cannot drift."""
    import repro.engine as engine
    return list(engine.chain_methods())


def _build_engine(name: str, graph):
    import repro.engine as engine
    return engine.build(name, graph)


def _observed_name(name: str | None) -> str:
    """The ``observed:`` spelling of ``name`` (default chain engine)."""
    import repro.engine as engine
    return engine.OBSERVED_PREFIX + (name or "chain-stratified")


@contextmanager
def _metrics_session(out: str | None):
    """Enable the OBS registry around a command and export its JSON."""
    if not out:
        yield
        return
    OBS.reset()
    OBS.enable()
    try:
        yield
    finally:
        OBS.disable()
        try:
            OBS.export(Path(out))
        except OSError as exc:
            print(f"error: cannot write metrics to {out}: {exc}",
                  file=sys.stderr)
            raise SystemExit(2) from exc
        print(f"metrics -> {out}")


def _print_index_stats(path: str) -> int:
    """``stats --index``: on-disk vs in-memory size and codec."""
    from repro.core.persistence import describe_index_file
    from repro.graph.errors import GraphFormatError
    try:
        info = describe_index_file(Path(path))
    except FileNotFoundError:
        print(f"stats: no such index file: {path}", file=sys.stderr)
        return 2
    except GraphFormatError as exc:
        print(f"stats: {path}: {exc}", file=sys.stderr)
        return 2
    codec = info["codec"]
    if isinstance(codec, list):
        codec = ", ".join(codec)
    print(f"kind:                {info['kind']} "
          f"(format v{info['version']})")
    if info["kind"] == "composite":
        print(f"sub-engine:          {info['sub_engine']} "
              f"({info['partitions']} partitions)")
    else:
        print(f"method:              {info['method']}")
    print(f"codec:               {codec}")
    print(f"on-disk size:        {info['file_bytes']} bytes")
    print(f"label bytes (RAM):   {info['label_bytes']}")
    print(f"label entries:       {info['label_entries']}")
    print(f"size (words):        {info['size_words']}")
    print(f"components:          {info['components']}")
    print(f"chains:              {info['chains']}")
    return 0


def _cmd_stats(args) -> int:
    if args.index:
        return _print_index_stats(args.index)
    if not args.graph:
        print("stats needs a graph file or --index", file=sys.stderr)
        return 2
    graph = _load(args.graph)
    with maybe_profiled(args.profile):
        condensation = condense(graph)
        stats = graph_stats(condensation.dag, path_samples=500, seed=0)
        width = dag_width(condensation.dag)
    print(f"nodes:               {graph.num_nodes}")
    print(f"edges:               {graph.num_edges}")
    print(f"scc components:      {condensation.num_components}")
    print(f"height (strata):     {stats.height}")
    print(f"width (Dilworth):    {width}")
    print(f"avg out-degree:      "
          f"{stats.average_out_degree_internal:.2f}")
    engine_name = args.engine
    if args.observers == "on":
        engine_name = _observed_name(engine_name)
    if engine_name:
        engine = _build_engine(engine_name, graph)
        info = engine.describe()
        flags = [flag for flag, value in info["capabilities"].items()
                 if value]
        print(f"engine:              {info['engine']}")
        print(f"engine size (words): {info['size_words']}")
        print(f"engine capabilities: {', '.join(flags) or '-'}")
        if "partitions" in info:
            print(f"engine partitions:   {info['partitions']} "
                  f"(sizes {info['partition_sizes']})")
        if "observers" in info:
            print(f"engine observers:    {', '.join(info['observers'])}")
    return 0


def _cmd_chains(args) -> int:
    graph = _load(args.graph)
    index = ChainIndex.build(graph, method=args.method)
    print(f"{index.num_chains} chains "
          f"({index.num_components} components):")
    for chain in index.chains():
        print("  " + " > ".join("/".join(map(str, scc))
                                for scc in chain))
    return 0


def _cmd_antichain(args) -> int:
    graph = _load(args.graph)
    condensation = condense(graph)
    antichain = maximum_antichain(condensation.dag)
    members = [condensation.members[c][0] for c in antichain]
    print(f"maximum antichain ({len(members)} nodes):")
    print("  " + " ".join(map(str, sorted(members, key=str))))
    return 0


def _cmd_query(args) -> int:
    with _metrics_session(args.metrics_out):
        return _run_query(args)


def _read_pairs_file(path: str) -> list[str]:
    """Whitespace-separated node tokens; ``#`` starts a comment."""
    tokens: list[str] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    return tokens


def _run_query(args) -> int:
    pairs = list(args.pairs)
    index = None
    if args.remote or args.index:
        # With --remote/--index the positional "graph" slot, if
        # filled, is really the first query node.
        if args.graph is not None:
            pairs.insert(0, args.graph)
    observed = args.observers == "on"
    if args.remote:
        if args.engine:
            print("query: --engine selects a local build; it has no "
                  "effect with --remote", file=sys.stderr)
            return 2
        if observed:
            print("query: --observers wraps a local build; it has no "
                  "effect with --remote", file=sys.stderr)
            return 2
        pass                                 # resolved after pair parsing
    elif args.index:
        if args.engine:
            print("query: --engine selects a local build; a persisted "
                  "--index already fixes the engine", file=sys.stderr)
            return 2
        from repro.core.persistence import load_index
        index = load_index(Path(args.index))
        if observed:
            if not isinstance(index, ChainIndex):
                print("query: --observers on a persisted index needs "
                      "a chain index (composites rebuild from the "
                      "graph instead)", file=sys.stderr)
                return 2
            from repro.engine.adapters import ChainEngine
            from repro.observers import ObserverChain
            index = ObserverChain.wrap(
                None, ChainEngine(index, f"chain-{index.method}"))
    elif args.graph:
        try:
            graph = _load(args.graph)
        except FileNotFoundError:
            print(f"query: no such graph file: {args.graph} "
                  f"(or pass --index)", file=sys.stderr)
            return 2
        engine_name = args.engine
        if observed:
            engine_name = _observed_name(engine_name)
        index = _build_engine(engine_name, graph) if engine_name \
            else ChainIndex.build(graph)
    else:
        print("query needs a graph file, --index or --remote",
              file=sys.stderr)
        return 2
    if args.pairs_file:
        try:
            pairs.extend(_read_pairs_file(args.pairs_file))
        except OSError as exc:
            print(f"query: cannot read pairs file: {exc}",
                  file=sys.stderr)
            return 2
    if not pairs:
        print("query needs at least one source target pair (arguments "
              "or --pairs-file)", file=sys.stderr)
        return 2
    if len(pairs) % 2:
        print("query expects an even number of nodes (source target "
              "pairs)", file=sys.stderr)
        return 2
    if args.int_labels:
        pairs = [int(token) for token in pairs]
    query_pairs = [(pairs[i], pairs[i + 1])
                   for i in range(0, len(pairs), 2)]
    if args.remote:
        return _query_remote(args.remote, query_pairs)
    answers = index.is_reachable_many(query_pairs)
    return _print_answers(query_pairs, answers)


def _print_answers(query_pairs, answers) -> int:
    exit_code = 0
    for (source, target), answer in zip(query_pairs, answers):
        print(f"{source} -> {target}: {'yes' if answer else 'no'}")
        if not answer:
            exit_code = 1
    return exit_code


def _query_remote(address: str, query_pairs) -> int:
    """Answer the batch through a running ``repro serve`` instance."""
    from repro.service import RemoteError, ServiceClient, ServiceError
    try:
        with ServiceClient.from_address(address) as client:
            epoch, answers = client.query_batch(query_pairs)
    except (ServiceError, RemoteError, ValueError, OSError) as exc:
        print(f"query: remote {address}: {exc}", file=sys.stderr)
        return 2
    exit_code = _print_answers(query_pairs, answers)
    print(f"(epoch {epoch})")
    return exit_code


def _cmd_serve(args) -> int:
    """Run the TCP reachability service until interrupted."""
    import asyncio
    import signal

    from repro.service import IndexManager, ReachabilityService

    if args.method is not None:
        print("serve: --method is deprecated; use "
              f"--engine chain-{args.method}", file=sys.stderr)
    slo_specs = list(args.slo or []) or None
    if slo_specs:
        # fail fast on a typo'd objective, before any index build
        from repro.obs import parse_objectives
        try:
            parse_objectives(slo_specs)
        except ValueError as exc:
            print(f"serve: --slo: {exc}", file=sys.stderr)
            return 2
    if args.index:
        if args.engine:
            print("serve: a persisted --index already fixes the "
                  "engine; --engine has no effect", file=sys.stderr)
            return 2
        if args.observers == "on":
            print("serve: --observers needs a graph build; a "
                  "persisted --index serves bare", file=sys.stderr)
            return 2
        manager = IndexManager.from_index_file(Path(args.index))
        label = args.index
    elif args.graph:
        engine_name = args.engine
        if args.observers == "on":
            engine_name = _observed_name(
                engine_name or f"chain-{args.method or 'stratified'}")
        try:
            # under a worker pool the pool owns write-triggered swaps
            # (it must publish + broadcast each epoch), so the manager
            # itself never auto-swaps
            manager = IndexManager.from_graph(
                _load(args.graph), method=args.method or "stratified",
                engine=engine_name,
                auto_swap_after=(None if args.workers
                                 else args.swap_after))
        except ValueError as exc:            # engine/method conflict
            print(f"serve: {exc}", file=sys.stderr)
            return 2
        label = args.graph
    else:
        print("serve needs a graph file or --index", file=sys.stderr)
        return 2
    if args.workers:
        return _serve_pool(args, manager, label)
    if args.metrics_port is not None:
        # the exposition endpoint is most useful with the registry's
        # counters/spans included, so a metrics listener enables OBS
        OBS.enable()
    service = ReachabilityService(
        manager, host=args.host, port=args.port,
        max_batch=args.max_batch, max_pending=args.max_pending,
        request_timeout=args.request_timeout,
        metrics_port=args.metrics_port,
        log=args.log, slow_query_ms=args.slow_query_ms,
        capture=args.capture, capture_capacity=args.capture_capacity,
        capture_sample=args.capture_sample, slo=slo_specs)

    async def run() -> None:
        host, port = await service.start()
        # orchestrators stop with SIGTERM: cancel this task, the path
        # Ctrl-C takes under asyncio.run, so the drain (which flushes
        # the capture journal) starts between callbacks, never inside
        # one
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel)
        print(f"serving {label} on {host}:{port} "
              f"(engine {manager.stats()['engine']}, "
              f"epoch {manager.epoch}, writable={manager.writable})",
              flush=True)
        if service.metrics_address is not None:
            metrics_host, metrics_port = service.metrics_address
            print(f"metrics on http://{metrics_host}:{metrics_port}"
                  f"/metrics", flush=True)
        if args.capture:
            print(f"capturing requests to {args.capture} "
                  f"(capacity {args.capture_capacity}, "
                  f"sample {args.capture_sample}); journal is "
                  f"written on shutdown", flush=True)
        if slo_specs:
            print(f"tracking {len(slo_specs)} SLO objective(s); read "
                  f"with 'repro slo-report --remote {host}:{port}'",
                  flush=True)
        if args.ready_file:
            _write_ready_file(args.ready_file, host, port,
                              epoch=manager.epoch, workers=0,
                              pids=[os.getpid()])
        try:
            await service.serve_forever()
        finally:
            await service.shutdown()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass                      # Ctrl-C lands here or exits run() cleanly
    print("drained and stopped")
    return 0


def _write_ready_file(path, host, port, *, epoch, workers, pids) -> None:
    """One JSON line: address + epoch + serving pids, written only
    once every listener is accepting (docs/SERVICE.md)."""
    payload = {"host": host, "port": port, "epoch": epoch,
               "workers": workers, "pids": pids}
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _serve_pool(args, manager, label) -> int:
    """Run the multi-process worker pool until interrupted."""
    import signal
    import time

    from repro.service import ServiceError, WorkerPool

    if args.metrics_port is not None:
        OBS.enable()
    pool = WorkerPool(
        manager, workers=args.workers, host=args.host, port=args.port,
        swap_after=args.swap_after, metrics_port=args.metrics_port,
        service_options={
            "max_batch": args.max_batch,
            "max_pending": args.max_pending,
            "request_timeout": args.request_timeout,
            # a str capture path is rewritten per worker to
            # PATH.worker<id>; slo trackers are per worker too
            "capture": args.capture,
            "capture_capacity": args.capture_capacity,
            "capture_sample": args.capture_sample,
            "slo": list(args.slo or []) or None,
        },
        log=args.log)
    try:
        host, port = pool.start()
    except (ServiceError, OSError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    pids = pool.worker_pids()
    print(f"serving {label} on {host}:{port} "
          f"({args.workers} workers, pids {pids}, "
          f"engine {manager.stats()['engine']}, "
          f"epoch {manager.epoch}, writable={manager.writable})",
          flush=True)
    if pool.metrics_address is not None:
        metrics_host, metrics_port = pool.metrics_address
        print(f"metrics on http://{metrics_host}:{metrics_port}"
              f"/metrics", flush=True)
    if args.capture:
        print(f"capturing requests to {args.capture}.worker<id> "
              f"(one journal per worker, written on shutdown)",
              flush=True)
    if args.ready_file:
        _write_ready_file(args.ready_file, host, port,
                          epoch=pool.epoch,
                          workers=pool.alive_workers(), pids=pids)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        pool.stop()
    print("drained and stopped")
    return 0


def _cmd_slo_report(args) -> int:
    """Fetch and render a running server's SLO report."""
    from repro.service import RemoteError, ServiceClient, ServiceError
    try:
        with ServiceClient.from_address(args.remote) as client:
            report = client.slo()
    except (ServiceError, RemoteError, ValueError, OSError) as exc:
        print(f"slo-report: remote {args.remote}: {exc}",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report.get("healthy", True) else 1
    if not report.get("enabled"):
        print("SLO tracking is off on this server "
              "(start it with: repro serve ... --slo SPEC)")
        return 0
    windows = report["windows"]
    print(f"windows: fast {windows['fast_seconds']:.0f}s / "
          f"slow {windows['slow_seconds']:.0f}s "
          f"(cells of {windows['cell_seconds']:.0f}s); verdicts are "
          f"over the slow window")
    width = max(len(row["spec"]) for row in report["objectives"]) \
        if report["objectives"] else 0
    for row in report["objectives"]:
        if row["metric"] == "availability":
            observed = f"{100 * row['observed']:.3f}%"
        else:
            observed = f"{1e3 * row['observed']:.3f}ms"
        status = "ok" if row["compliant"] else "BREACH"
        if row["alert"]:
            status += " ALERT"
        print(f"  {row['spec']:<{width}}  observed {observed:>10}  "
              f"compliance {100 * row['compliance_ratio']:7.3f}%  "
              f"burn {row['burn_rate_fast']:.2f}/"
              f"{row['burn_rate_slow']:.2f}  "
              f"n={row['samples']:<6} {status}")
    print(f"breaches since start: {report['breach_count']}")
    for breach in report["breaches"][-5:]:
        print(f"  at +{breach['at']:.1f}s: {breach['spec']} "
              f"(observed {breach['observed']:.6f}, "
              f"n={breach['samples']})")
    return 0 if report["healthy"] else 1


def _cmd_remove(args) -> int:
    """Delete an edge or a node, remotely or in an edge-list file."""
    tokens = ([args.source, args.target] if args.what == "edge"
              else [args.node])
    if args.int_labels:
        tokens = [int(token) for token in tokens]
    if args.remote:
        return _remove_remote(args, tokens)
    if not args.graph:
        print(f"remove-{args.what} needs a graph file or --remote",
              file=sys.stderr)
        return 2
    from repro.graph.errors import GraphError
    graph = _load(args.graph)
    try:
        if args.what == "edge":
            graph.remove_edge(*tokens)
        else:
            graph.remove_node(tokens[0])
    except GraphError as exc:                # unknown node / edge
        print(f"remove-{args.what}: {exc}", file=sys.stderr)
        return 1
    out = args.out or args.graph
    write_edge_list(graph, Path(out))
    print(f"removed {args.what} "
          f"{' -> '.join(map(str, tokens))} -> {out}")
    return 0


def _remove_remote(args, tokens) -> int:
    """Send the removal to a running ``repro serve`` instance."""
    from repro.service import RemoteError, ServiceClient, ServiceError
    try:
        with ServiceClient.from_address(args.remote) as client:
            if args.what == "edge":
                response = client.remove_edge(*tokens)
            else:
                response = client.remove_node(tokens[0])
    except RemoteError as exc:
        print(f"remove-{args.what}: remote {args.remote}: {exc}",
              file=sys.stderr)
        # an unknown node is the same rejection the file path reports
        # with exit 1; only transport/protocol trouble is exit 2
        return 1 if exc.code == "unknown_node" else 2
    except (ServiceError, ValueError, OSError) as exc:
        print(f"remove-{args.what}: remote {args.remote}: {exc}",
              file=sys.stderr)
        return 2
    removed = response["removed"]
    label = " -> ".join(map(str, tokens))
    print(f"{label}: {'removed' if removed else 'not present'} "
          f"(epoch {response['epoch']}, "
          f"pending {response['pending_writes']})")
    return 0 if removed else 1


_GENERATORS = {
    "sparse": lambda a: sparse_random_dag(a.size, a.extra, seed=a.seed),
    "dsg": lambda a: systematic_dag(a.size, max(2, a.extra),
                                    seed=a.seed),
    "dsrg": lambda a: semi_random_dag(a.size, a.extra, seed=a.seed),
    "dense": lambda a: dense_dag(a.size, min(0.5, a.extra / 100),
                                 seed=a.seed),
    "citation": lambda a: citation_dag(a.size, max(1, a.extra),
                                       seed=a.seed),
    "scale": lambda a: scale_chain_dag(a.size, a.extra, seed=a.seed),
}


def _cmd_index(args) -> int:
    from repro.core.persistence import save_index
    with _metrics_session(args.metrics_out):
        if args.graph and args.edges:
            print("index: pass a graph file or --edges, not both",
                  file=sys.stderr)
            return 2
        if args.edges:
            graph = _load_from_edges(args.edges)
        elif args.graph:
            graph = _load(args.graph)
        else:
            print("index needs a graph file or --edges",
                  file=sys.stderr)
            return 2
        codec_note = f", {args.codec} labels" if args.codec else ""
        if args.engine and not args.engine.startswith("chain-"):
            import repro.engine as registry
            spec = registry.get(args.engine)
            if not spec.persistable:
                print(f"index: engine {args.engine!r} is not "
                      f"persistable; choose one of "
                      f"{', '.join(_persistable_engines())}",
                      file=sys.stderr)
                return 2
            index = spec.build(graph)
            save_index(index, Path(args.out), codec=args.codec)
            print(f"indexed {graph.num_nodes} nodes with "
                  f"{args.engine} ({index.size_words()} words"
                  f"{codec_note}) -> {args.out}")
            return 0
        method = args.engine[len("chain-"):] if args.engine \
            else args.method
        index = ChainIndex.build(graph, method=method,
                                 codec=args.codec or "packed")
        save_index(index, Path(args.out))
    print(f"indexed {graph.num_nodes} nodes into {index.num_chains} "
          f"chains ({index.size_words()} words{codec_note}) "
          f"-> {args.out}")
    return 0


def _persistable_engines() -> list[str]:
    import repro.engine as engine
    return [spec.name for spec in engine.specs() if spec.persistable]


def _cmd_dot(args) -> int:
    from repro.graph.dot import chains_to_dot, stratification_to_dot, to_dot
    graph = _load(args.graph)
    if args.chains:
        condensation = condense(graph)
        index = ChainIndex.build(graph)
        text = chains_to_dot(condensation.dag,
                             index._decomposition)  # noqa: SLF001
    elif args.strata:
        from repro.core.stratification import stratify
        condensation = condense(graph)
        text = stratification_to_dot(condensation.dag,
                                     stratify(condensation.dag))
    else:
        text = to_dot(graph)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_generate(args) -> int:
    graph = _GENERATORS[args.family](args)
    if args.out:
        write_edge_list(graph, Path(args.out))
        print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} "
              f"edges to {args.out}")
    else:
        write_edge_list(graph, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro-graph argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Chain-cover reachability toolkit (Chen & Chen, "
                    "ICDE 2008)")
    sub = parser.add_subparsers(dest="command", required=True)
    engine_names = _engine_names()
    method_names = _chain_method_choices()

    stats = sub.add_parser("stats", help="graph statistics incl. width")
    stats.add_argument("graph", nargs="?", default=None)
    stats.add_argument("--index", default=None, metavar="FILE",
                       help="describe a persisted index instead: "
                            "format version, codec, on-disk vs "
                            "in-memory size (v2/v3/v4 files)")
    stats.add_argument("--profile", action="store_true",
                       help="print a cProfile breakdown of the "
                            "width/stats computation")
    stats.add_argument("--engine", default=None, choices=engine_names,
                       help="also build this engine and report its "
                            "size and capabilities")
    stats.add_argument("--observers", default="off",
                       choices=("on", "off"),
                       help="report the engine behind the O(1)-answer "
                            "observer stack (docs/OBSERVERS.md); "
                            "implies --engine chain-stratified if no "
                            "engine is given")
    stats.set_defaults(func=_cmd_stats)

    chains = sub.add_parser("chains", help="minimum chain cover")
    chains.add_argument("graph")
    chains.add_argument("--method", default="stratified",
                        choices=method_names)
    chains.set_defaults(func=_cmd_chains)

    antichain = sub.add_parser("antichain", help="a maximum antichain")
    antichain.add_argument("graph")
    antichain.set_defaults(func=_cmd_antichain)

    query = sub.add_parser("query", help="reachability queries")
    query.add_argument("graph", nargs="?", default=None)
    query.add_argument("pairs", nargs="*",
                       help="source target [source target ...]")
    query.add_argument("--index", default=None,
                       help="use a persisted index instead of a graph")
    query.add_argument("--remote", default=None, metavar="HOST:PORT",
                       help="send the batch to a running 'repro serve' "
                            "instance instead of building locally")
    query.add_argument("--pairs-file", default=None, metavar="FILE",
                       help="read extra whitespace-separated source/"
                            "target pairs from FILE (# comments "
                            "allowed); the whole batch is answered "
                            "through is_reachable_many")
    query.add_argument("--engine", default=None, choices=engine_names,
                       help="answer through this registered engine "
                            "(default: chain-stratified)")
    query.add_argument("--observers", default="off",
                       choices=("on", "off"),
                       help="answer through the O(1)-answer observer "
                            "stack in front of the engine "
                            "(docs/OBSERVERS.md)")
    query.add_argument("--str-labels", dest="int_labels",
                       action="store_false",
                       help="treat node labels as strings")
    query.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="record repro.obs metrics for the run and "
                            "write the JSON export here")
    query.set_defaults(func=_cmd_query)

    index = sub.add_parser("index", help="build and persist an index")
    index.add_argument("graph", nargs="?", default=None)
    index.add_argument("--edges", default=None, metavar="FILE",
                       help="stream the edge list from FILE instead "
                            "of the graph positional — one line in "
                            "memory at a time, for graphs too big to "
                            "parse eagerly (n/v node declarations "
                            "are skipped: only edge endpoints exist)")
    index.add_argument("-o", "--out", required=True)
    index.add_argument("--method", default="stratified",
                       choices=method_names)
    index.add_argument("--codec", default=None, choices=CODECS,
                       help="label codec to build and persist "
                            "(default packed; compressed gap-encodes "
                            "the sorted index sequences, format v4)")
    index.add_argument("--engine", default=None, choices=engine_names,
                       help="persist this engine instead (must be "
                            "persistable; 'composite' writes a "
                            "format-v3 partition manifest)")
    index.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="record repro.obs metrics (phase spans, "
                            "build counters) and write the JSON here")
    index.set_defaults(func=_cmd_index)

    serve = sub.add_parser(
        "serve", help="run the TCP reachability query service")
    serve.add_argument("graph", nargs="?", default=None)
    serve.add_argument("--index", default=None,
                       help="serve a persisted index (read-only) "
                            "instead of building from a graph")
    serve.add_argument("--method", default=None,
                       choices=method_names,
                       help="deprecated spelling of --engine chain-X")
    serve.add_argument("--engine", default=None, choices=engine_names,
                       help="serve this registered engine (default: "
                            "chain-stratified; writes need a DAG)")
    serve.add_argument("--observers", default="off",
                       choices=("on", "off"),
                       help="serve behind the O(1)-answer observer "
                            "stack (docs/OBSERVERS.md); rebuilt on "
                            "every snapshot swap")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7431,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--max-batch", type=int, default=128,
                       help="largest coalesced query batch")
    serve.add_argument("--max-pending", type=int, default=1024,
                       help="query queue bound before 'overloaded'")
    serve.add_argument("--request-timeout", type=float, default=10.0,
                       help="per-request timeout in seconds")
    serve.add_argument("--swap-after", type=int, default=64,
                       metavar="N",
                       help="auto rebuild-and-swap after N writes")
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="serve through N worker processes attached "
                            "to a shared-memory snapshot (0 = single "
                            "process; needs a chain engine)")
    serve.add_argument("--ready-file", default=None, metavar="FILE",
                       help="write a JSON line {host, port, epoch, "
                            "workers, pids} to FILE once every "
                            "listener is accepting (for scripts "
                            "supervising the server)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="serve Prometheus text exposition over "
                            "HTTP on PORT (0 picks a free one); also "
                            "enables the OBS registry")
    serve.add_argument("--log", default=None, metavar="FILE",
                       help="append structured JSON-lines events "
                            "(swaps, drain, overload, slow queries) "
                            "to FILE ('-' for stderr)")
    serve.add_argument("--slow-query-ms", type=float, default=None,
                       metavar="MS",
                       help="log a slow_query record (with the trace "
                            "breakdown) for requests slower than MS "
                            "milliseconds (needs --log)")
    serve.add_argument("--capture", default=None, metavar="FILE",
                       help="journal sampled requests (queries and "
                            "writes) to FILE as NDJSON on shutdown, "
                            "replayable with repro.bench.replay; "
                            "under --workers each worker writes "
                            "FILE.worker<id>")
    serve.add_argument("--capture-capacity", type=int, default=65536,
                       metavar="N",
                       help="capture ring bound: keep the most recent "
                            "N sampled requests, counting drops")
    serve.add_argument("--capture-sample", type=float, default=1.0,
                       metavar="P",
                       help="capture sampling probability in [0, 1] "
                            "(deterministic per seed)")
    serve.add_argument("--slo", action="append", default=None,
                       metavar="SPEC",
                       help="track a per-class latency/availability "
                            "objective, e.g. 'positive p99 < 2ms' or "
                            "'availability >= 99.9%%' (repeatable; "
                            "read back via the slo verb, the metrics "
                            "listener and 'repro slo-report')")
    serve.set_defaults(func=_cmd_serve)

    slo_report = sub.add_parser(
        "slo-report",
        help="objective compliance, burn rates and breaches of a "
             "running server (needs serve --slo)")
    slo_report.add_argument("--remote", required=True,
                            metavar="HOST:PORT",
                            help="address of the 'repro serve' "
                                 "instance to interrogate")
    slo_report.add_argument("--json", action="store_true",
                            help="print the raw report as JSON "
                                 "instead of the table")
    slo_report.set_defaults(func=_cmd_slo_report)

    for what, operands, blurb in (
            ("edge", ("source", "target"),
             "delete one edge (remotely, or rewriting an edge list)"),
            ("node", ("node",),
             "delete a node and its incident edges")):
        remove = sub.add_parser(f"remove-{what}", help=blurb)
        remove.add_argument("graph", nargs="?", default=None,
                            help="edge-list file to rewrite in place "
                                 "(omit with --remote)")
        for operand in operands:
            remove.add_argument(operand)
        remove.add_argument("--remote", default=None,
                            metavar="HOST:PORT",
                            help="send the removal to a running "
                                 "'repro serve' instance (needs a "
                                 "writable manager; dynamic-tol "
                                 "repairs labels in place)")
        remove.add_argument("--out", default=None, metavar="FILE",
                            help="write the edited edge list here "
                                 "instead of back over the input")
        remove.add_argument("--str-labels", dest="int_labels",
                            action="store_false",
                            help="treat node labels as strings")
        remove.set_defaults(func=_cmd_remove, what=what)

    dot = sub.add_parser("dot", help="Graphviz export")
    dot.add_argument("graph")
    group = dot.add_mutually_exclusive_group()
    group.add_argument("--chains", action="store_true",
                       help="colour the minimum chain cover")
    group.add_argument("--strata", action="store_true",
                       help="rank nodes by stratification level")
    dot.add_argument("--out", default=None)
    dot.set_defaults(func=_cmd_dot)

    generate = sub.add_parser("generate",
                              help="emit a benchmark-family graph")
    generate.add_argument("family", choices=sorted(_GENERATORS))
    generate.add_argument("size", type=int,
                          help="node count (dsg: root count)")
    generate.add_argument("extra", type=int,
                          help="edges (sparse, scale) / extra edges "
                               "(dsrg) / levels (dsg) / density%% "
                               "(dense) / citations per paper "
                               "(citation)")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", default=None)
    generate.set_defaults(func=_cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point: dispatch to the chosen subcommand."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
