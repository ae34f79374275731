"""The benchmark's own tests: its checks fail when they should, and a
run always stops and reaps what it started.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import inputs, served  # noqa: E402
from perfbench.bench import (  # noqa: E402
    OPS_PER_ROUND,
    WORKLOADS,
    Placement,
    Workload,
    measure,
)
from perfbench.oracle import (  # noqa: E402
    BitsetOracle,
    CheckFailed,
    ScaleOracle,
    bfs_reaches,
    check_answers,
    check_cover,
    closure_width,
    source_antichain,
    stored_sparse_width,
)


def tiny(width=None, oracle=BitsetOracle) -> Workload:
    """A 300-paper citation graph through the whole round."""
    return Workload(
        "tiny", lambda seed: inputs.citation_graph(300, seed), oracle,
        "stratified", "packed", False,
        width or (lambda graph: (source_antichain(graph), False)))


class FlippedOracle(BitsetOracle):
    """Agrees with the closure except on the first pair it is asked."""

    def answers(self, pairs) -> list[bool]:
        answers = super().answers(pairs)
        answers[0] = not answers[0]
        return answers


@pytest.fixture
def checkout(tmp_path):
    """A scratch checkout root whose ``src`` is this repository's."""
    (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def own_segments() -> list[str]:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return []
    return [p.name for p in shm.iterdir()
            if p.name.startswith(f"repro-{os.getpid()}-")]


def assert_reaped(bench, checkout) -> None:
    assert bench.server.proc.poll() is not None
    assert not (checkout / ".bench_run").exists()
    assert own_segments() == []
    assert bench.segments == set()


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make", [
    lambda: inputs.citation_graph(200, 5),
    lambda: inputs.scale_graph(400, 5),
])
def test_bitset_oracle_matches_bfs(make):
    graph = make()
    oracle = BitsetOracle(graph)
    for source in range(0, graph.num_nodes, 7):
        for target in range(0, graph.num_nodes, 5):
            assert oracle.reaches(source, target) == \
                bfs_reaches(graph, source, target)


def test_scale_oracle_matches_closure():
    graph = inputs.scale_graph(600, 9)
    closure = BitsetOracle(graph)
    oracle = ScaleOracle(graph)
    pairs = [(s, t) for s in range(0, 600, 3) for t in range(0, 600, 4)]
    assert oracle.answers(pairs) == closure.answers(pairs)


def test_scale_width_is_three():
    graph = inputs.scale_graph(600, 2)
    oracle = BitsetOracle(graph)
    assert closure_width(graph, oracle) == inputs.SCALE_WIDTH


def test_stored_sparse_width_recomputes():
    graph = inputs.sparse_paper_graph()
    assert graph.num_nodes == json.loads(
        (ROOT / "perfbench" / "data" / "sparse_width.json").read_text()
    )["dag_nodes"]
    assert closure_width(graph, BitsetOracle(graph)) == stored_sparse_width()


def test_inputs_are_seeded():
    assert inputs.citation_graph(300, 4).succ == \
        inputs.citation_graph(300, 4).succ
    assert inputs.citation_graph(300, 4).succ != \
        inputs.citation_graph(300, 5).succ
    assert inputs.sparse_paper_graph().succ == \
        inputs.sparse_paper_graph().succ


def test_zipf_endpoints_are_seeded_and_skewed():
    import random
    endpoints = inputs.ZipfNodes(20_000, inputs.CITATION_ZIPF_S)
    first = endpoints.pairs(random.Random(7), 2000)
    assert first == endpoints.pairs(random.Random(7), 2000)
    ends = [node for pair in first for node in pair]
    assert all(0 <= node < 20_000 for node in ends)
    # weight (r + 1) ** -1.2 puts about a fifth of the draws on id 0
    assert 0.15 < ends.count(0) / len(ends) < 0.25
    assert ends.count(0) > ends.count(1) > ends.count(9)


# ----------------------------------------------------------------------
# each check fails when it should
# ----------------------------------------------------------------------
def test_flipped_answer_fails_the_check():
    pairs = [(0, 1), (1, 0)]
    check_answers("ok", pairs, [True, False], [True, False])
    with pytest.raises(CheckFailed, match=r"\(1, 0\) answered True"):
        check_answers("flip", pairs, [True, False], [True, True])
    with pytest.raises(CheckFailed, match="1 answers for 2 pairs"):
        check_answers("short", pairs, [True, False], [True])


def test_invalid_cover_fails_the_check():
    graph = inputs.citation_graph(50, 1)
    oracle = BitsetOracle(graph)
    good = [[[v]] for v in range(50)]
    assert check_cover(good, 50, oracle) == 50
    unreachable = next((s, t) for s in range(50) for t in range(50)
                       if s != t and not oracle.reaches(s, t))
    bad = [[[unreachable[0]], [unreachable[1]]]] + [
        [[v]] for v in range(50) if v not in unreachable]
    with pytest.raises(CheckFailed, match="does not reach"):
        check_cover(bad, 50, oracle)
    with pytest.raises(CheckFailed, match="misses"):
        check_cover(good[:-1], 50, oracle)
    with pytest.raises(CheckFailed, match="covered twice"):
        check_cover(good + [[[0]]], 50, oracle)


def test_dropped_response_fails_the_check():
    async def drop(reader, writer):
        await reader.readline()
        writer.close()

    async def scenario():
        server = await asyncio.start_server(drop, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port)
        connection = served.Connection(reader, writer, [0])
        try:
            with pytest.raises(CheckFailed, match="connection"):
                await connection.call({"op": "ping"})
        finally:
            writer.close()
            server.close()
            await server.wait_closed()
    asyncio.run(scenario())


def test_silent_server_fails_the_check(monkeypatch):
    monkeypatch.setattr(served, "RESPONSE_TIMEOUT_S", 0.2)

    async def silent(reader, writer):
        await reader.readline()
        await asyncio.sleep(2)
        writer.close()

    async def scenario():
        server = await asyncio.start_server(silent, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port)
        try:
            with pytest.raises(CheckFailed, match="no response"):
                await served.Connection(reader, writer, [0]).call(
                    {"op": "ping"})
        finally:
            writer.close()
            server.close()
    asyncio.run(scenario())


# ----------------------------------------------------------------------
# whole runs: correct figures, and nothing left behind
# ----------------------------------------------------------------------
def test_tiny_run_passes_and_cleans_up(checkout):
    bench, setup_s, failure = measure(tiny(), 1, 0.1, checkout, True,
                                      time.perf_counter())
    assert failure is None
    assert bench.rounds >= 1
    assert bench.attempted == bench.rounds * OPS_PER_ROUND
    assert bench.failed == 0
    assert setup_s > 0
    end_to_end = bench.end_to_end(setup_s)
    assert all(value > 0 for value, _ in end_to_end.values())
    layers = bench.per_layer()
    assert layers["core.stratification.stratify_s"][0] > 0
    assert layers["core.build.layer_sum_s"][0] > 0
    assert bench.tracer.missing == set()
    # stopped by SIGINT: the drain path ran and the exit code is 0
    assert bench.server_exit == 0
    assert "drained and stopped" in bench.server.final_log
    assert_reaped(bench, checkout)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="placement needs two CPUs")
def test_placement_pins_every_thread_of_the_server():
    # a child with a second thread, as the server's request workers are
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys, threading\n"
         "threading.Thread(target=sys.stdin.read).start()\n"
         "print('up', flush=True)\nsys.stdin.read()"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    placement = Placement()
    try:
        assert child.stdout.readline() == "up\n"
        threads = os.listdir(f"/proc/{child.pid}/task")
        assert len(threads) == 2
        placement.place(child.pid)
        masks = [os.sched_getaffinity(int(t)) for t in threads]
        assert all(len(mask) == 1 for mask in masks)
        assert len({frozenset(mask) for mask in masks}) == 1
        assert os.sched_getaffinity(0).isdisjoint(masks[0])
    finally:
        placement.release()
        child.stdin.close()
        child.wait(timeout=10)


class LateOracle(BitsetOracle):
    """Records when the benchmark builds it."""

    built_at: list[float] = []

    def __init__(self, graph) -> None:
        LateOracle.built_at.append(time.perf_counter())
        super().__init__(graph)


def test_setup_time_ends_before_the_oracle_is_built(checkout):
    started = time.perf_counter()
    bench, setup_s, failure = measure(tiny(oracle=LateOracle), 1, 0.1,
                                      checkout, False, started)
    assert failure is None
    assert LateOracle.built_at
    assert started + setup_s <= min(LateOracle.built_at)
    assert_reaped(bench, checkout)


def test_wrong_width_counts_failed_builds(checkout):
    wrong = tiny(width=lambda graph: (1, True))
    bench, _, failure = measure(wrong, 1, 0.1, checkout, False,
                                time.perf_counter())
    assert failure is None
    assert bench.failed == bench.rounds
    assert_reaped(bench, checkout)


def test_flipped_answer_fails_the_run_and_cleans_up(checkout):
    bench, _, failure = measure(tiny(oracle=FlippedOracle), 1, 0.1,
                                checkout, False, time.perf_counter())
    assert failure is not None and "oracle says" in failure
    assert bench.server_exit == 0
    assert_reaped(bench, checkout)


def test_dead_server_fails_the_run_and_cleans_up(checkout, monkeypatch):
    from perfbench import bench as bench_module
    original = bench_module.Bench.round

    def round_after_kill(self):
        if self.rounds == 0:
            self.server.proc.kill()
            self.server.proc.wait()
        return original(self)

    monkeypatch.setattr(bench_module.Bench, "round", round_after_kill)
    bench, _, failure = measure(tiny(), 1, 0.1, checkout, False,
                                time.perf_counter())
    assert failure is not None and "connection" in failure
    assert_reaped(bench, checkout)


def test_sigterm_stops_the_server_and_cleans_up(checkout):
    shutil.copytree(ROOT / "perfbench", checkout / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-paper",
         "--seed", "1", "--seconds", "60", "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    deadline = time.monotonic() + 120
    ready = []
    while not ready and time.monotonic() < deadline:
        ready = list(checkout.glob(".bench_run/*/ready.json"))
        time.sleep(0.1)
    assert ready, "the server never became ready"
    server = json.loads(ready[0].read_text())["pids"]
    run.terminate()
    _, err = run.communicate(timeout=60)
    assert run.returncode != 0
    assert b'"correct"' not in err
    for pid in server:
        assert not Path(f"/proc/{pid}").exists() or \
            "zombie" in Path(f"/proc/{pid}/status").read_text().lower()
    assert not (checkout / ".bench_run").exists()


def test_run_without_program_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert "correct" not in result.stdout


def test_benchmark_json_names_every_reported_metric(checkout):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    bench, setup_s, failure = measure(tiny(), 2, 0.1, checkout, True,
                                      time.perf_counter())
    assert failure is None
    assert set(bench.end_to_end(setup_s)) == \
        {m["name"] for m in spec["end_to_end"]}
    assert set(bench.per_layer()) == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    figures = dict(bench.end_to_end(setup_s), **bench.per_layer())
    assert {name: unit for name, (_, unit) in figures.items()} == units

