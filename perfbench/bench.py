"""One workload: set-up, whole rounds of operations, checks, figures.

Every workload runs the same round, so every end-to-end metric is
measured on every workload; the workloads differ in the graph family,
the engine and codec of the in-process build, and which index answers
the warm in-process batches.  A round is, in order:

1. ``build``: ``ChainIndex.build`` of the workload's graph; the cover
   is checked against the oracle (and against the width, where the
   engine promises a minimum cover);
2. ``save``, ``SAVES`` times: ``save_index`` to a file in the run
   directory;
3. ``coldstart``, ``COLDSTARTS`` times: ``load_index`` plus its first
   answered batch;
4. ``attach``: one ``dump_index`` (not in ``attach_s``), then
   ``ATTACHES`` times ``attach_index`` plus its first answered batch;
5. warm ``is_reachable_many`` batches on the built or attached index;
6. served single ``query`` requests, endpoints Zipf-skewed as the
   program's workload zoo documents for the graph's family;
7. served ``query_batch`` requests, drawn the same way;
8. ``ping`` requests;
9. ``WRITE_GROUPS`` times: one group of ``add_edge`` writes from fresh
   source nodes, the size of the server's default auto-swap
   threshold, then polling until the group is visible and one batch
   checking every written edge;
10. served ``query_batch`` requests again (a second window);
11. one ``stats`` request.

The steps shorter than the build repeat within a round: on this kind
of host a second-long step takes the host's mean speed over its
second, which swings by a third, and only many samples of it find the
fast stretches.  Each request and in-process call in that list counts
once in ``attempted``; the polling pings and the ``stats`` request
that ends the run do not.  Every round attempts the same operations,
so the failed share cannot move with speed or seed.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from perfbench import inputs
from perfbench.oracle import (
    BitsetOracle,
    CheckFailed,
    ScaleOracle,
    check_answers,
    check_cover,
    stored_sparse_width,
)
from perfbench.served import CONNECTIONS, WRITE_GROUP, Client, ServerProcess
from perfbench.trace import Tracer

QUERY_BATCHES = 20
QUERY_BATCH = 10_000
SAVES = 2
COLDSTARTS = 2
ATTACHES = 3
#: single queries per round (one latency figure per round)
SINGLES = 500
#: ``query_batch`` requests per window, two windows per round
BATCH_REQUESTS = 32
BATCH_WINDOWS = 2
BATCH_PAIRS = 1000
PINGS = 4
WRITE_GROUPS = 2
#: in the traced run, every this-many-th single query asks for the
#: server's stage breakdown
TRACE_EVERY = 4
WARM_UP_S = 1.0
#: small enough that build, save, load and attach take ~0.5 s each, so
#: a run holds a dozen samples of each; per-node costs still dominate
SCALE_NODES = 50_000
#: the served graph of scale-coldstart: the citation family, whose
#: stratified rebuild-and-swap per write group takes ~0.6 s at 10k nodes
CITATION_NODES = 10_000
#: the served graph of sparse-paper: the same family, small enough that
#: a write group's rebuild-and-swap (a whole ``chain-stratified`` build
#: in the server) leaves room for rounds.  It is fixed like the
#: in-process one: the stratified build time of this family moves with
#: the graph far more than with the host, so a seeded graph would make
#: write_visible_s a lottery
SERVED_SPARSE = (2_500, 3_000)

OPS_PER_ROUND = (1 + SAVES + COLDSTARTS + ATTACHES + QUERY_BATCHES
                 + SINGLES + BATCH_WINDOWS * BATCH_REQUESTS + PINGS
                 + WRITE_GROUPS * (WRITE_GROUP + 1) + 1)


@dataclass(frozen=True)
class Workload:
    """What a workload feeds the program and how its outputs are checked."""

    name: str
    graph: Callable[[int], inputs.Graph]
    #: checks the in-process graph; a served graph of its own is
    #: checked by a :class:`BitsetOracle`
    oracle: Callable[[inputs.Graph], object]
    method: str
    codec: str
    #: answer the warm batches through the shm-attached index
    query_attached: bool
    #: (width or a lower bound on it, whether it is exact)
    width: Callable[[inputs.Graph], tuple[int, bool]]
    #: the graph the server is started on; ``None``: the same graph
    served_graph: Callable[[int], inputs.Graph] | None = None
    #: Zipf exponent of the served query endpoints
    zipf_s: float = inputs.DEFAULT_ZIPF_S


WORKLOADS = {
    "sparse-paper": Workload(
        "sparse-paper", lambda seed: inputs.sparse_paper_graph(),
        BitsetOracle, "stratified", "packed", False,
        lambda graph: (stored_sparse_width(), True),
        lambda seed: inputs.sparse_graph(*SERVED_SPARSE,
                                         inputs.SPARSE_GRAPH_SEED)),
    "scale-coldstart": Workload(
        "scale-coldstart",
        lambda seed: inputs.scale_graph(SCALE_NODES, seed),
        ScaleOracle, "concat", "compressed", True,
        lambda graph: (inputs.SCALE_WIDTH, True),
        lambda seed: inputs.citation_graph(CITATION_NODES,
                                           inputs.CITATION_GRAPH_SEED),
        zipf_s=inputs.CITATION_ZIPF_S),
}


def low(samples: list[float]) -> float:
    """The per-run figure of a time: its fastest sample.

    The host's speed swings for seconds at a time; the fastest of
    samples spread over the whole run moves least from run to run.
    """
    return min(samples)


def high(samples: list[float]) -> float:
    """The per-run figure of a rate: its highest sample."""
    return max(samples)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def _spin() -> float:
    """Seconds a fixed ~2 ms pure-Python loop takes right now."""
    started = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i & 7
    return time.perf_counter() - started


class Placement:
    """Runs each timed step on the CPU the host serves fastest now.

    On a shared host one of two vCPUs can run ~1.4x slower than the
    other for 10-30 s at a time, while a run takes about a minute.  Before each
    step the benchmark times a short loop on every CPU it may use and
    pins the busy process of the step to the fastest: this process for
    in-process steps; for served steps every thread of the server (its
    request workers and the rebuild-and-swap thread too), with this
    process on another CPU.  Without at least two usable CPUs it does
    nothing.
    """

    def __init__(self) -> None:
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            self.cpus = []

    def place(self, server: int | None = None) -> None:
        if len(self.cpus) < 2:
            return
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(_spin() for _ in range(3))
        ranked = sorted(self.cpus, key=speed.__getitem__)
        if server is None:
            os.sched_setaffinity(0, {ranked[0]})
            return
        try:
            threads = os.listdir(f"/proc/{server}/task")
        except OSError:             # the server has exited: checks fail next
            threads = []
        for thread in threads:
            try:
                os.sched_setaffinity(int(thread), {ranked[0]})
            except OSError:         # the thread has ended
                pass
        os.sched_setaffinity(0, {ranked[1]})

    def release(self) -> None:
        if len(self.cpus) >= 2:
            os.sched_setaffinity(0, set(self.cpus))


class Bench:
    """Runs one workload in the checkout at ``root``."""

    def __init__(self, workload: Workload, seed: int, root: Path,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.root = root
        self.tracer = Tracer(trace)
        self.rng = random.Random(f"{workload.name}/{seed}")
        #: write endpoints do not depend on the seed: each round's swap
        #: then rebuilds the same graph in every run, and the stratified
        #: build time moves with the graph more than with the host
        self.write_rng = random.Random(f"{workload.name}/writes")
        self.run_dir = root / ".bench_run" / f"{workload.name}-{os.getpid()}"
        self.samples: dict[str, list[float]] = {}
        self.values: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.segments: set[str] = set()
        self.server: ServerProcess | None = None
        self.client: Client | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.stage_ms: dict[str, list[float]] = {}
        self.final_stats: dict = {}
        #: the server's exit code, once stopped (0 after a SIGINT drain)
        self.server_exit: int | None = None
        self.placement = Placement()

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # ------------------------------------------------------------------
    # set-up and tear-down
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Import the program and start the server: what ``setup_s``
        times.  The benchmark's own work in it is only making the
        served graph and writing its file.  The server starts on the
        fastest CPU (it inherits this process's placement)."""
        from repro import ChainIndex
        from repro.core.persistence import load_index, save_index
        from repro.service import attach_index, dump_index
        self.api = {"build": ChainIndex.build, "save": save_index,
                    "load": load_index, "dump": dump_index,
                    "attach": attach_index}
        self.run_dir.mkdir(parents=True, exist_ok=False)
        served = (self.workload.served_graph
                  or self.workload.graph)(self.seed)
        self.served = served
        graph_path = self.run_dir / "graph.txt"
        inputs.write_edge_list(served, graph_path)
        self.server = ServerProcess(self.root / "src", graph_path,
                                    self.run_dir)
        self.placement.place()
        self.server.start()
        address = self.server.wait_ready()
        self.loop = asyncio.new_event_loop()
        self.client = Client(self.loop)
        self.client.connect(address)
        self.epoch = self.client.ping()["epoch"]

    def prepare(self) -> None:
        """The in-process graph, the oracles and the fixed in-process
        batches, made once the server is up (outside ``setup_s``)."""
        from repro import DiGraph
        served = self.served
        graph = (served if self.workload.served_graph is None
                 else self.workload.graph(self.seed))
        self.graph = graph
        digraph = DiGraph.dense(graph.num_nodes)
        add = digraph.add_edge_ids
        for tail, head in graph.arcs():
            add(tail, head)
        self.digraph = digraph
        self.oracle = self.workload.oracle(graph)
        self.served_oracle = (self.oracle if served is graph
                              else BitsetOracle(served))
        self.width, self.width_exact = self.workload.width(graph)
        n = graph.num_nodes
        self.batches = [inputs.uniform_pairs(self.rng, n, QUERY_BATCH)
                        for _ in range(QUERY_BATCHES)]
        self.expected = [self.oracle.answers(pairs)
                         for pairs in self.batches]
        self.endpoints = inputs.ZipfNodes(served.num_nodes,
                                          self.workload.zipf_s)
        self.next_fresh = served.num_nodes

    def warm_up(self) -> None:
        """Spin, then touch the server: the first ~0.5 s after idle runs
        slow on small hosts."""
        deadline = time.perf_counter() + WARM_UP_S
        spin = 0
        while time.perf_counter() < deadline:
            spin += sum(range(1000))
        for _ in range(20):
            self.client.ping()
        gc.freeze()

    def close(self) -> None:
        """Stop and reap everything this run started; idempotent."""
        try:
            if self.client is not None:
                self.client.close()
        finally:
            try:
                if self.server is not None:
                    self.server_exit = self.server.stop()
            finally:
                gc.unfreeze()
                self.placement.release()
                if self.loop is not None:
                    self.loop.close()
                    self.loop = None
                self._unlink_segments()
                shutil.rmtree(self.run_dir, ignore_errors=True)
                try:
                    self.run_dir.parent.rmdir()
                except OSError:
                    pass

    def _unlink_segments(self) -> None:
        from multiprocessing import shared_memory
        for name in list(self.segments):
            try:
                segment = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                self.segments.discard(name)
                continue
            segment.close()
            segment.unlink()
            self.segments.discard(name)

    # ------------------------------------------------------------------
    # the round
    # ------------------------------------------------------------------
    def run(self, seconds: float) -> None:
        """Whole rounds, until another would end more than half a round
        past ``seconds``."""
        started = time.perf_counter()
        while True:
            self.round()
            elapsed = time.perf_counter() - started
            if elapsed * (1 + 0.5 / self.rounds) > seconds:
                break

    def round(self) -> None:
        self.rounds += 1
        place = self.placement.place
        place()
        index = self._build()
        for _ in range(SAVES):
            place()
            self._save(index)
        for _ in range(COLDSTARTS):
            place()
            self._coldstart()
        self._attach(index)
        if not self.workload.query_attached:
            place()
            self._warm_batches(index)
        del index
        server = self.server.proc.pid
        place(server)
        self._served_singles()
        place(server)
        self._served_batches()
        self._pings()
        for _ in range(WRITE_GROUPS):
            place(server)
            self._writes()
        for _ in range(BATCH_WINDOWS - 1):
            place(server)
            self._served_batches()
        stats = self.client.stats()
        self.attempted += 1
        self.sample("swap_s", stats["index"]["last_pack_seconds"])
        self.final_stats = stats

    def _build(self):
        tracer = self.tracer
        op = tracer.new_op()
        if tracer.enabled:
            self._layer_build(op)
        gc.collect()
        with tracer.span("repro.ChainIndex.build", op):
            started = time.perf_counter()
            index = self.api["build"](self.digraph,
                                      method=self.workload.method,
                                      codec=self.workload.codec)
            elapsed = time.perf_counter() - started
        self.sample("build_s", elapsed)
        self.attempted += 1
        chains = check_cover(index.chains(), self.graph.num_nodes,
                             self.oracle)
        if self.workload.method == "stratified" and self.width_exact \
                and chains != self.width:
            # the paper's engine promises a minimum cover
            self.failed += 1
        self.values["chains"] = chains
        self.values["label_bytes"] = index.label_bytes()
        self.values["label_entries"] = index.label_entries()
        if "prefilter" not in self.values:
            self._split_prefilter(index)
        return index

    def _layer_build(self, op: int) -> None:
        """The build again, one traced layer call at a time.

        Every layer runs on every workload's graph, both covers and the
        compressed encoding included, so each per-layer figure is
        measured everywhere; ``layer_sum_s`` adds up only the layers on
        the workload's own ``ChainIndex.build`` path.
        """
        tracer = self.tracer
        layers = {key: tracer.layer(module, name) for key, (module, name)
                  in {"condense": ("repro.graph.scc", "condense"),
                      "stratify": ("repro.core.stratification", "stratify"),
                      "stratified": ("repro.core.stratified",
                                     "stratified_chain_cover_with_stats"),
                      "concat": ("repro.core.concat", "concat_chain_cover"),
                      "label": ("repro.core.labeling", "build_labeling"),
                      "from_store": ("repro.core.labeling",
                                     "labeling_from_store")}.items()}
        if any(layer is None for layer in layers.values()):
            return
        own = {"graph.scc.condense", "core.labeling.label"} | (
            {"core.stratification.stratify", "core.stratified.cover"}
            if self.workload.method == "stratified"
            else {"core.concat.cover"}) | (
            {"core.labelstore.encode"} if self.workload.codec != "packed"
            else set())
        timed: dict[str, float] = {}

        def call(name: str, function, *args, **kwargs):
            gc.collect()
            with tracer.span(name, op) as span:
                result = function(*args, **kwargs)
            timed[name] = span["end"] - span["start"]
            return result

        try:
            with tracer.span("build.layers", op):
                dag = call("graph.scc.condense", layers["condense"],
                           self.digraph).dag
                strat = call("core.stratification.stratify",
                             layers["stratify"], dag)
                stratified, stats = call("core.stratified.cover",
                                         layers["stratified"], dag, strat)
                concat = call("core.concat.cover", layers["concat"], dag)
                if self.workload.method == "stratified":
                    cover, level_of = stratified, stats.level_of
                else:
                    cover, level_of = concat, None
                labeling = call("core.labeling.label", layers["label"], dag,
                                cover, level_of=level_of)
                store = labeling.store
                call("core.labelstore.encode",
                     lambda: layers["from_store"](store.to_codec("compressed")))
        except (AttributeError, TypeError) as exc:
            tracer.missing.add(f"layer build: {exc}")
            return
        self.values["stats"] = stats
        self.sample("layer_sum_s", sum(timed[name] for name in own))

    def _split_prefilter(self, index) -> None:
        """Split the first batch into pairs the rank/level pre-filter
        settles and pairs that need the probe (traced run only)."""
        if not self.tracer.enabled:
            self.values["prefilter"] = None
            return
        rejects = getattr(index, "prefilter_rejects", None)
        if rejects is None:
            self.tracer.missing.add("repro.ChainIndex.prefilter_rejects")
            self.values["prefilter"] = None
            return
        pairs = self.batches[0]
        rejected = [pair for pair in pairs if rejects(*pair)]
        probed = [pair for pair in pairs
                  if pair[0] != pair[1] and not rejects(*pair)]
        self.values["prefilter"] = (len(rejected) / len(pairs),
                                    rejected, probed)

    def _save(self, index) -> None:
        path = self.run_dir / "index.json"
        gc.collect()
        with self.tracer.span("repro.core.persistence.save_index",
                              self.tracer.new_op()):
            started = time.perf_counter()
            self.api["save"](index, path)
            elapsed = time.perf_counter() - started
        self.sample("save_s", elapsed)
        self.values["file_bytes"] = path.stat().st_size
        self.attempted += 1

    def _coldstart(self) -> None:
        path = self.run_dir / "index.json"
        pairs, expected = self.batches[0], self.expected[0]
        op = self.tracer.new_op()
        gc.collect()
        with self.tracer.span("coldstart", op):
            started = time.perf_counter()
            with self.tracer.span("repro.core.persistence.load_index", op):
                loaded = self.api["load"](path)
            loaded_at = time.perf_counter()
            with self.tracer.span("first_batch", op):
                answers = loaded.is_reachable_many(pairs)
            finished = time.perf_counter()
        self.sample("coldstart_s", finished - started)
        self.sample("load_s", loaded_at - started)
        self.attempted += 1
        check_answers("coldstart first batch", pairs, expected, answers)
        started = time.perf_counter()
        answers = loaded.is_reachable_many(pairs)
        warm = time.perf_counter() - started
        check_answers("coldstart warm batch", pairs, expected, answers)
        self.sample("kernel_s", (finished - loaded_at) - warm)

    def _attach(self, index) -> None:
        """One dump, then ``ATTACHES`` attaches of the same segment."""
        pairs, expected = self.batches[0], self.expected[0]
        self.placement.place()
        gc.collect()
        with self.tracer.span("repro.service.dump_index",
                              self.tracer.new_op()):
            started = time.perf_counter()
            segment = self.api["dump"](index)
            self.sample("dump_s", time.perf_counter() - started)
        self.segments.add(segment.name)
        try:
            for number in range(ATTACHES):
                op = self.tracer.new_op()
                attached = None
                try:
                    self.placement.place()
                    gc.collect()
                    with self.tracer.span("attach", op):
                        started = time.perf_counter()
                        with self.tracer.span("repro.service.attach_index",
                                              op):
                            attached = self.api["attach"](segment.name)
                        attached_at = time.perf_counter()
                        with self.tracer.span("first_batch", op):
                            answers = attached.index.is_reachable_many(pairs)
                        finished = time.perf_counter()
                    self.sample("attach_s", finished - started)
                    self.sample("shm_attach_s", attached_at - started)
                    self.attempted += 1
                    check_answers("attach first batch", pairs, expected,
                                  answers)
                    if self.workload.query_attached \
                            and number == ATTACHES - 1:
                        self.placement.place()
                        self._warm_batches(attached.index)
                finally:
                    if attached is not None:
                        attached.close()
        finally:
            segment.close()
            segment.unlink()
            self.segments.discard(segment.name)

    def _warm_batches(self, index) -> None:
        op = self.tracer.new_op()
        # one collection for the lot: a batch allocates one list, too
        # little to start a collection inside the next one
        gc.collect()
        for pairs, expected in zip(self.batches, self.expected):
            with self.tracer.span("is_reachable_many", op):
                started = time.perf_counter()
                answers = index.is_reachable_many(pairs)
                elapsed = time.perf_counter() - started
            self.sample("batch_s", elapsed)
            self.attempted += 1
            check_answers("warm batch", pairs, expected, answers)
        prefilter = self.values.get("prefilter")
        if prefilter:
            for name, subset in (("prefiltered_ns", prefilter[1]),
                                 ("probed_ns", prefilter[2])):
                if subset:
                    started = time.perf_counter()
                    index.is_reachable_many(subset)
                    self.sample(name, 1e9 * (time.perf_counter() - started)
                                / len(subset))

    def _served_singles(self) -> None:
        stream = self.endpoints.pairs(self.rng, SINGLES)
        # the epoch holds for the whole step, so a repeat is a cache hit
        self.sample("repeat_share",
                    1 - len(set(stream)) / len(stream))
        expected = self.served_oracle.answers(stream)
        requests = []
        for number, (source, target) in enumerate(stream):
            request = {"op": "query", "source": source, "target": target}
            if self.tracer.enabled and number % TRACE_EVERY == 0:
                request["trace"] = True
            requests.append(request)
        gc.collect()
        with self.tracer.span("served.query", self.tracer.new_op()):
            results = self.client.each(requests, Client.timed)
        self.attempted += SINGLES
        check_answers("served query", stream, expected,
                      [response["reachable"] for _, _, response in results])
        latencies = [finish - start for start, finish, _ in results]
        wall = (max(finish for _, finish, _ in results)
                - min(start for start, _, _ in results))
        self.sample("served_qps", SINGLES / wall)
        self.sample("served_p50_s", percentile(latencies, 0.50))
        self.sample("served_p99_s", percentile(latencies, 0.99))
        for _, _, response in results:
            trace = response.get("trace")
            if trace:
                for stage in trace.get("stages", []):
                    self.stage_ms.setdefault(stage["stage"], []).append(
                        stage["ms"])
                self.stage_ms.setdefault("total", []).append(
                    trace["total_ms"])

    def _served_batches(self) -> None:
        batches = [self.endpoints.pairs(self.rng, BATCH_PAIRS)
                   for _ in range(BATCH_REQUESTS)]
        expected = [self.served_oracle.answers(pairs) for pairs in batches]
        requests = [{"op": "query_batch", "pairs": [[s, t] for s, t in pairs]}
                    for pairs in batches]
        gc.collect()
        with self.tracer.span("served.query_batch", self.tracer.new_op()):
            results = self.client.each(requests, Client.timed)
        self.attempted += BATCH_REQUESTS
        for pairs, want, (_, _, response) in zip(batches, expected, results):
            check_answers("served query_batch", pairs, want,
                          response["reachable"])
        latencies = [finish - start for start, finish, _ in results]
        for latency in latencies:
            self.sample("batch_request_s", latency)
        self.sample("batch_window_p50_s", percentile(latencies, 0.50))

    def _pings(self) -> None:
        results = self.client.each([{"op": "ping"}] * PINGS, Client.timed)
        self.attempted += PINGS
        for start, finish, _ in results:
            self.sample("ping_s", finish - start)

    def _writes(self) -> None:
        n = self.served.num_nodes
        group = []
        for _ in range(WRITE_GROUP):
            group.append((self.next_fresh, self.write_rng.randrange(n)))
            self.next_fresh += 1
        requests = [{"op": "add_edge", "source": source, "target": target,
                     "create": True} for source, target in group]
        before = self.epoch
        op = self.tracer.new_op()
        gc.collect()
        with self.tracer.span("served.add_edge", op):
            results = self.client.each(requests, Client.timed)
        self.attempted += WRITE_GROUP
        for (source, target), (_, _, response) in zip(group, results):
            if response.get("added") is not True:
                raise CheckFailed(f"add_edge {source}->{target} not added: "
                                  f"{response}")
        last_ack = max(finish for _, finish, _ in results)
        for start, finish, _ in results:
            self.sample("add_edge_s", finish - start)
        # every written edge, once visible: the fresh source reaches its
        # target, and a random node iff the target does; nothing
        # reaches the fresh source
        pairs, expected = [], []
        for source, target in group:
            other = self.rng.randrange(n)
            pairs += [(source, target), (source, other), (target, source)]
            expected += [True, other == target
                         or self.served_oracle.reaches(target, other), False]
        with self.tracer.span("served.visible", op):
            self.client.wait_for_epoch(before)
            _, checked, response = self.client.run(Client.timed(
                self.client.connections[0],
                {"op": "query_batch", "pairs": [list(p) for p in pairs]}))
        self.attempted += 1
        if response["epoch"] <= before:
            raise CheckFailed(f"write check answered at epoch "
                              f"{response['epoch']}, not after {before}")
        check_answers("written edges", pairs, expected,
                      response["reachable"])
        self.epoch = response["epoch"]
        self.sample("write_visible_s", checked - last_ack)

    # ------------------------------------------------------------------
    # figures
    # ------------------------------------------------------------------
    def end_to_end(self, setup_s: float) -> dict:
        s = self.samples
        return {
            "setup_s": (setup_s, "s"),
            "build_s": (low(s["build_s"]), "s"),
            "query_qps": (QUERY_BATCH / low(s["batch_s"]), "queries/s"),
            "save_s": (low(s["save_s"]), "s"),
            "coldstart_s": (low(s["coldstart_s"]), "s"),
            "attach_s": (low(s["attach_s"]), "s"),
            "label_bytes": (self.values["label_bytes"], "bytes"),
            "file_bytes": (self.values["file_bytes"], "bytes"),
            "served_qps": (high(s["served_qps"]), "queries/s"),
            "served_p50_ms": (1e3 * low(s["served_p50_s"]), "ms"),
            "served_batch_pairs_per_s":
                (CONNECTIONS * BATCH_PAIRS / low(s["batch_window_p50_s"]),
                 "pairs/s"),
            "write_visible_s": (low(s["write_visible_s"]), "s"),
        }

    def per_layer(self) -> dict:
        s = self.samples
        tracer = self.tracer

        def layer(name: str) -> float:
            durations = tracer.durations(name)
            return low(durations) if durations else 0.0

        stats = self.values.get("stats")

        def counter(field: str) -> int:
            return getattr(stats, field, 0) if stats is not None else 0

        batching = self.final_stats.get("batching", {})
        cache = self.final_stats.get("cache") or {}
        prefilter = self.values.get("prefilter")
        layer_sum = s.get("layer_sum_s")
        stages = {stage: statistics.median(values)
                  for stage, values in self.stage_ms.items()}
        metrics = {
            "graph.scc.condense_s": (layer("graph.scc.condense"), "s"),
            "core.stratification.stratify_s":
                (layer("core.stratification.stratify"), "s"),
            "core.stratified.cover_s": (layer("core.stratified.cover"), "s"),
            "core.stratified.levels": (counter("num_levels"), "count"),
            "core.stratified.virtuals": (counter("num_virtuals"), "count"),
            "core.stratified.descents": (counter("descents"), "count"),
            "core.stratified.rollbacks": (counter("rollbacks"), "count"),
            "core.stratified.splits": (counter("splits"), "count"),
            "core.stratified.stitched": (counter("stitched"), "count"),
            "core.cover.chains": (self.values["chains"], "count"),
            "core.cover.excess_chains":
                (self.values["chains"] - self.width, "count"),
            "core.concat.cover_s": (layer("core.concat.cover"), "s"),
            "core.labeling.label_s": (layer("core.labeling.label"), "s"),
            "core.labeling.entries": (self.values["label_entries"], "count"),
            "core.labelstore.encode_s":
                (layer("core.labelstore.encode"), "s"),
            "core.build.layer_sum_s":
                (low(layer_sum) if layer_sum else 0.0, "s"),
            "core.build.index_build_s": (low(s["build_s"]), "s"),
            "core.build.layer_sum_ratio":
                (low(layer_sum) / low(s["build_s"]) if layer_sum else 0.0,
                 "ratio"),
            "core.persistence.save_s": (low(s["save_s"]), "s"),
            "core.persistence.load_s": (low(s["load_s"]), "s"),
            "core.index.kernel_s": (statistics.median(s["kernel_s"]), "s"),
            "core.index.prefilter_share":
                (prefilter[0] if prefilter else 0.0, "ratio"),
            "core.index.prefiltered_ns":
                (low(s["prefiltered_ns"]) if s.get("prefiltered_ns")
                 else 0.0, "ns"),
            "core.index.probed_ns":
                (low(s["probed_ns"]) if s.get("probed_ns") else 0.0, "ns"),
            "service.shm.dump_s": (low(s["dump_s"]), "s"),
            "service.shm.attach_s": (low(s["shm_attach_s"]), "s"),
            "service.server.ping_ms": (1e3 * low(s["ping_s"]), "ms"),
            "service.batching.queue_wait_p50_ms":
                (1e3 * batching.get("queue_wait", {}).get("p50", 0.0), "ms"),
            "service.batching.mean_batch":
                (batching.get("mean_batch_size", 0.0), "queries"),
            "service.batching.kernel_batch_p50_ms":
                (1e3 * batching.get("kernel_batch", {}).get("p50", 0.0),
                 "ms"),
            "service.cache.hit_ratio": (cache.get("hit_rate", 0.0), "ratio"),
            "service.manager.add_edge_ms":
                (1e3 * statistics.median(s["add_edge_s"]), "ms"),
            "service.manager.swap_s": (low(s["swap_s"]), "s"),
        }
        for stage in TRACE_STAGES:
            metrics[f"service.trace.{stage}_ms"] = (stages.get(stage, 0.0),
                                                    "ms")
        return metrics

    def reference(self) -> dict:
        """Median and tails of every sampled series, for the report."""
        return {name: {"n": len(values),
                       "min": min(values),
                       "median": statistics.median(values),
                       "max": max(values)}
                for name, values in sorted(self.samples.items())}


#: the stage marks a ``"trace": true`` query echoes (``docs/SERVICE.md``)
TRACE_STAGES = ("accept", "enqueue", "flush", "kernel", "cache", "respond",
                "total")


def measure(workload: Workload, seed: int, seconds: float, root: Path,
            trace: bool, started: float) -> tuple[Bench, float, str | None]:
    """Set up, warm up and run ``workload``; always tear down.

    ``started`` is the ``perf_counter`` reading set-up time counts
    from; it ends when the server has answered its first ping, before
    the benchmark makes its oracles and in-process inputs.  Returns the bench, the set-up time and the failed check's
    message (``None`` when every check passed).
    """
    bench = Bench(workload, seed, root, trace)
    setup_s = 0.0
    try:
        bench.setup()
        setup_s = time.perf_counter() - started
        bench.prepare()
        bench.warm_up()
        bench.run(seconds)
        sent = bench.client.sent[0] + 1
        served = bench.client.stats()["server"]["requests"]
        if served != sent:
            raise CheckFailed(f"server counted {served} requests, "
                              f"the client sent {sent}")
    except CheckFailed as exc:
        return bench, setup_s, str(exc)
    finally:
        bench.close()
    return bench, setup_s, None
