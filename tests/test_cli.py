"""Unit tests for the ``python -m repro`` command line."""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.graph.generators import semi_random_dag
from repro.graph.io import write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(semi_random_dag(60, 30, seed=1), path)
    return str(path)


def wait_ready(process, ready, timeout=30):
    """Block until the serve subprocess writes its JSON ready file;
    returns the parsed payload (host, port, epoch, workers, pids)."""
    deadline = time.monotonic() + timeout
    while not ready.exists() or not ready.read_text().strip():
        assert process.poll() is None, process.stderr.read().decode()
        assert time.monotonic() < deadline, "server never ready"
        time.sleep(0.05)
    return json.loads(ready.read_text())


class TestStats:
    def test_reports_width_and_sizes(self, graph_file, capsys):
        assert main(["stats", graph_file]) == 0
        out = capsys.readouterr().out
        assert "nodes:" in out and "width (Dilworth):" in out


class TestChains:
    def test_prints_every_chain(self, graph_file, capsys):
        assert main(["chains", graph_file]) == 0
        out = capsys.readouterr().out
        first_line = out.splitlines()[0]
        chain_count = int(first_line.split()[0])
        assert len(out.splitlines()) == chain_count + 1

    def test_method_flag(self, graph_file, capsys):
        assert main(["chains", graph_file, "--method", "closure"]) == 0
        capsys.readouterr()


class TestAntichain:
    def test_antichain_size_matches_chain_count(self, graph_file,
                                                capsys):
        main(["chains", graph_file])
        chains = int(capsys.readouterr().out.split()[0])
        main(["antichain", graph_file])
        out = capsys.readouterr().out
        assert f"({chains} nodes)" in out


class TestQuery:
    def test_yes_and_no(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(
            semi_random_dag(10, 0, seed=2), path)
        assert main(["query", str(path), "0", "1"]) == 0
        assert "yes" in capsys.readouterr().out
        assert main(["query", str(path), "1", "0"]) == 1
        assert "no" in capsys.readouterr().out

    def test_odd_pair_count_is_an_error(self, graph_file, capsys):
        assert main(["query", graph_file, "0"]) == 2
        capsys.readouterr()

    def test_pairs_file_batch(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(semi_random_dag(10, 0, seed=2), path)
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("# one pair per line (or any whitespace)\n"
                         "0 1\n1 0\n", encoding="utf-8")
        assert main(["query", str(path),
                     "--pairs-file", str(pairs)]) == 1
        out = capsys.readouterr().out
        assert "0 -> 1: yes" in out
        assert "1 -> 0: no" in out

    def test_pairs_file_combines_with_positional(self, tmp_path,
                                                  capsys):
        path = tmp_path / "g.txt"
        write_edge_list(semi_random_dag(10, 0, seed=2), path)
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0 1\n", encoding="utf-8")
        assert main(["query", str(path), "0", "1",
                     "--pairs-file", str(pairs)]) == 0
        assert capsys.readouterr().out.count("yes") == 2

    def test_missing_pairs_file_is_an_error(self, graph_file, capsys):
        assert main(["query", graph_file,
                     "--pairs-file", "does-not-exist.txt"]) == 2
        assert "cannot read pairs file" in capsys.readouterr().err

    def test_no_pairs_at_all_is_an_error(self, graph_file, capsys):
        assert main(["query", graph_file]) == 2
        assert "at least one" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["two-hop", "composite",
                                        "chain-jagadish"])
    def test_engine_flag_answers_like_the_default(self, tmp_path,
                                                  capsys, engine):
        path = tmp_path / "g.txt"
        write_edge_list(semi_random_dag(10, 0, seed=2), path)
        assert main(["query", str(path), "0", "1",
                     "--engine", engine]) == 0
        assert "yes" in capsys.readouterr().out

    def test_engine_flag_conflicts_with_remote_and_index(
            self, graph_file, tmp_path, capsys):
        assert main(["query", "--remote", "127.0.0.1:1", "0", "1",
                     "--engine", "bfs"]) == 2
        assert "--engine" in capsys.readouterr().err
        index_path = tmp_path / "graph.idx"
        assert main(["index", graph_file, "-o", str(index_path)]) == 0
        capsys.readouterr()
        assert main(["query", "--index", str(index_path), "0", "1",
                     "--engine", "bfs"]) == 2
        assert "--engine" in capsys.readouterr().err

    def test_unknown_engine_is_an_argparse_error(self, graph_file,
                                                 capsys):
        with pytest.raises(SystemExit):
            main(["query", graph_file, "0", "1", "--engine", "nope"])
        assert "invalid choice" in capsys.readouterr().err


class TestObserversFlag:
    def test_query_with_observers_answers_the_same(self, tmp_path,
                                                   capsys):
        path = tmp_path / "g.txt"
        write_edge_list(semi_random_dag(10, 0, seed=2), path)
        assert main(["query", str(path), "0", "1",
                     "--observers", "on"]) == 0
        assert "yes" in capsys.readouterr().out
        assert main(["query", str(path), "1", "0",
                     "--observers", "on"]) == 1
        assert "no" in capsys.readouterr().out

    def test_query_observers_combine_with_engine_flag(self, tmp_path,
                                                      capsys):
        path = tmp_path / "g.txt"
        write_edge_list(semi_random_dag(10, 0, seed=2), path)
        assert main(["query", str(path), "0", "1", "--engine", "bfs",
                     "--observers", "on"]) == 0
        assert "yes" in capsys.readouterr().out

    def test_stats_reports_the_observer_stack(self, graph_file,
                                              capsys):
        assert main(["stats", graph_file, "--observers", "on"]) == 0
        out = capsys.readouterr().out
        assert "engine:              observed:chain-stratified" in out
        assert "engine observers:" in out
        assert "topo-interval" in out

    def test_observers_conflict_with_remote(self, capsys):
        assert main(["query", "--remote", "127.0.0.1:1", "0", "1",
                     "--observers", "on"]) == 2
        assert "--observers" in capsys.readouterr().err

    def test_observers_over_a_persisted_chain_index(self, graph_file,
                                                    tmp_path, capsys):
        index_path = tmp_path / "graph.idx"
        assert main(["index", graph_file, "-o", str(index_path)]) == 0
        capsys.readouterr()
        assert main(["query", "--index", str(index_path), "0", "1",
                     "--observers", "on"]) == 0
        assert "yes" in capsys.readouterr().out

    def test_observers_reject_non_chain_persisted_index(
            self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(semi_random_dag(20, 5, seed=4), path)
        index_path = tmp_path / "composite.idx"
        assert main(["index", str(path), "-o", str(index_path),
                     "--engine", "composite"]) == 0
        capsys.readouterr()
        assert main(["query", "--index", str(index_path), "0", "1",
                     "--observers", "on"]) == 2
        assert "--observers" in capsys.readouterr().err

    def test_serve_observers_conflict_with_index(self, graph_file,
                                                 tmp_path, capsys):
        index_path = tmp_path / "graph.idx"
        assert main(["index", graph_file, "-o", str(index_path)]) == 0
        capsys.readouterr()
        assert main(["serve", "--index", str(index_path),
                     "--observers", "on"]) == 2
        assert "--observers" in capsys.readouterr().err

    def test_serve_observers_subprocess_end_to_end(self, graph_file,
                                                   tmp_path, capsys):
        """``repro serve --observers on`` answers remote queries
        through the observed engine."""
        ready = tmp_path / "ready"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", graph_file,
             "--observers", "on", "--port", "0",
             "--ready-file", str(ready)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            info = wait_ready(process, ready)
            host, port = info["host"], info["port"]
            assert main(["query", "--remote", f"{host}:{port}",
                         "0", "1"]) == 0
            assert "yes" in capsys.readouterr().out
        finally:
            process.send_signal(signal.SIGINT)
            try:
                stdout, _ = process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                stdout, _ = process.communicate()
        assert b"engine observed:chain-stratified" in stdout


class TestIndexPersistence:
    def test_index_then_query(self, graph_file, tmp_path, capsys):
        index_path = tmp_path / "graph.idx"
        assert main(["index", graph_file, "-o", str(index_path)]) == 0
        assert "indexed" in capsys.readouterr().out
        assert main(["query", "--index", str(index_path), "0", "1"]) == 0
        assert "yes" in capsys.readouterr().out

    def test_query_without_source_errors(self, capsys):
        assert main(["query", "0", "1"]) == 2
        assert "no such graph file" in capsys.readouterr().err

    def test_index_method_flag(self, graph_file, tmp_path, capsys):
        index_path = tmp_path / "c.idx"
        assert main(["index", graph_file, "-o", str(index_path),
                     "--method", "closure"]) == 0
        capsys.readouterr()

    def test_index_engine_composite_writes_v3_and_queries(
            self, tmp_path, capsys):
        import json
        path = tmp_path / "g.txt"
        write_edge_list(semi_random_dag(20, 5, seed=4), path)
        index_path = tmp_path / "composite.idx"
        assert main(["index", str(path), "-o", str(index_path),
                     "--engine", "composite"]) == 0
        assert "composite" in capsys.readouterr().out
        assert json.loads(index_path.read_text())["version"] == 3
        assert main(["query", "--index", str(index_path),
                     "0", "1"]) in (0, 1)
        capsys.readouterr()

    def test_index_rejects_non_persistable_engines(self, graph_file,
                                                   tmp_path, capsys):
        assert main(["index", graph_file, "-o",
                     str(tmp_path / "x.idx"), "--engine", "bfs"]) == 2
        assert "not persistable" in capsys.readouterr().err

    def test_stats_engine_flag_reports_capabilities(self, graph_file,
                                                    capsys):
        assert main(["stats", graph_file,
                     "--engine", "composite"]) == 0
        out = capsys.readouterr().out
        assert "engine:              composite" in out
        assert "engine capabilities:" in out
        assert "engine partitions:" in out


class TestDot:
    def test_plain_dot_to_stdout(self, graph_file, capsys):
        assert main(["dot", graph_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_chains_dot_to_file(self, graph_file, tmp_path, capsys):
        out = tmp_path / "chains.dot"
        assert main(["dot", graph_file, "--chains", "--out",
                     str(out)]) == 0
        capsys.readouterr()
        assert "penwidth=2.5" in out.read_text()

    def test_strata_dot(self, graph_file, capsys):
        assert main(["dot", graph_file, "--strata"]) == 0
        assert "rank=same" in capsys.readouterr().out


class TestRemove:
    @pytest.fixture
    def chain_file(self, tmp_path):
        from repro.graph.digraph import DiGraph
        path = tmp_path / "chain.txt"
        write_edge_list(DiGraph.from_edges([(0, 1), (1, 2), (2, 3)]),
                        path)
        return str(path)

    def test_remove_edge_rewrites_the_file(self, chain_file, tmp_path,
                                           capsys):
        from repro.graph.io import read_edge_list
        out = tmp_path / "pruned.txt"
        assert main(["remove-edge", chain_file, "1", "2",
                     "--out", str(out)]) == 0
        assert "removed edge 1 -> 2" in capsys.readouterr().out
        pruned = read_edge_list(out)
        assert not pruned.has_edge(1, 2)
        assert pruned.num_nodes == 4         # endpoints survive
        # without --out the rewrite is in place; removing an interior
        # node punches a hole in the dense label range, which the
        # writer must preserve (no resurrected node 1)
        assert main(["remove-node", chain_file, "1"]) == 0
        capsys.readouterr()
        rewritten = read_edge_list(chain_file)
        assert sorted(rewritten.nodes()) == [0, 2, 3]

    def test_missing_edge_or_node_exits_1(self, chain_file, capsys):
        assert main(["remove-edge", chain_file, "2", "1"]) == 1
        assert "not in the graph" in capsys.readouterr().err
        assert main(["remove-node", chain_file, "99"]) == 1
        capsys.readouterr()

    def test_no_graph_and_no_remote_is_a_usage_error(self, capsys):
        assert main(["remove-edge", "0", "1"]) == 2
        assert "--remote" in capsys.readouterr().err

    def test_remote_removal_round_trip(self, chain_file, capsys):
        from repro.graph.io import read_edge_list
        from repro.service import IndexManager, start_in_thread
        manager = IndexManager.from_graph(read_edge_list(chain_file),
                                          engine="dynamic-tol")
        with start_in_thread(manager, port=0) as handle:
            remote = "%s:%d" % handle.address
            assert main(["query", "--remote", remote, "0", "3"]) == 0
            capsys.readouterr()
            assert main(["remove-edge", "--remote", remote,
                         "1", "2"]) == 0
            assert "removed" in capsys.readouterr().out
            # gone already: the deletable engine repairs in place
            assert main(["query", "--remote", remote, "0", "3"]) == 1
            capsys.readouterr()
            # absent edge: reported, exit 1
            assert main(["remove-edge", "--remote", remote,
                         "1", "2"]) == 1
            assert "not present" in capsys.readouterr().out
            assert main(["remove-node", "--remote", remote, "3"]) == 0
            capsys.readouterr()
            # unknown node: same exit 1 as the file path, not the
            # exit-2 transport-error class
            assert main(["remove-node", "--remote", remote, "3"]) == 1
            assert "not in the graph" in capsys.readouterr().err


class TestRemoteQuery:
    @pytest.fixture
    def remote(self, graph_file):
        from repro.graph.io import read_edge_list
        from repro.service import IndexManager, start_in_thread
        manager = IndexManager.from_graph(read_edge_list(graph_file))
        with start_in_thread(manager, port=0) as handle:
            host, port = handle.address
            yield f"{host}:{port}"

    def test_remote_pairs(self, remote, capsys):
        exit_code = main(["query", "--remote", remote, "0", "1", "1", "0"])
        out = capsys.readouterr().out
        assert "0 -> 1: yes" in out
        assert "1 -> 0: no" in out
        assert "(epoch 0)" in out
        assert exit_code == 1                # at least one "no"

    def test_remote_with_pairs_file(self, remote, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0 1\n", encoding="utf-8")
        assert main(["query", "--remote", remote,
                     "--pairs-file", str(pairs)]) == 0
        assert "yes" in capsys.readouterr().out

    def test_unreachable_server_is_a_usage_error(self, capsys):
        assert main(["query", "--remote", "127.0.0.1:1",
                     "0", "1"]) == 2
        assert "remote" in capsys.readouterr().err

    def test_bad_address_is_a_usage_error(self, capsys):
        assert main(["query", "--remote", "nonsense", "0", "1"]) == 2
        capsys.readouterr()


class TestServe:
    def test_serve_without_source_is_a_usage_error(self, capsys):
        assert main(["serve"]) == 2
        assert "graph file or --index" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--workers", "2"]],
                             ids=["single", "workers"])
    def test_serve_has_no_cache_option(self, graph_file, extra):
        """Served queries go straight to the kernel: there is no result
        cache to size.  Run as a subprocess with a timeout, so a CLI
        that accepted the option fails here instead of serving."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "serve", graph_file,
             "--port", "0", "--cache-size", "0", *extra],
            env=env, capture_output=True, timeout=30)
        assert completed.returncode == 2
        assert b"unrecognized arguments: --cache-size 0" \
            in completed.stderr

    def test_serve_subprocess_end_to_end(self, graph_file, tmp_path,
                                         capsys):
        """``repro serve`` + ``repro query --remote`` over a real pipe."""
        ready = tmp_path / "ready"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", graph_file,
             "--port", "0", "--ready-file", str(ready)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            info = wait_ready(process, ready)
            host, port = info["host"], info["port"]
            assert info["workers"] == 0
            assert info["pids"] == [process.pid]
            assert info["epoch"] == 0
            assert main(["query", "--remote", f"{host}:{port}",
                         "0", "1"]) == 0
            assert "yes" in capsys.readouterr().out
        finally:
            process.send_signal(signal.SIGINT)
            try:
                stdout, _ = process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                stdout, _ = process.communicate()
        assert b"serving" in stdout
        assert b"drained and stopped" in stdout

    def test_serve_sigterm_drains_under_load(self, graph_file, tmp_path):
        """SIGTERM while two clients loop on ``query`` drains like
        Ctrl-C: exit 0, "drained and stopped", no traceback."""
        ready = tmp_path / "ready"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", graph_file,
             "--port", "0", "--ready-file", str(ready)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        request = json.dumps({"op": "query", "source": 0,
                              "target": 1}).encode() + b"\n"
        answered = [0, 0]

        def loop_on_query(slot, address):
            try:
                with socket.create_connection(address,
                                              timeout=10) as sock:
                    reader = sock.makefile("rb")
                    while True:
                        sock.sendall(request)
                        if not reader.readline():
                            return           # drained: server closed
                        answered[slot] += 1
            except OSError:
                return                       # reset while draining

        clients = []
        try:
            info = wait_ready(process, ready)
            address = (info["host"], info["port"])
            clients = [threading.Thread(target=loop_on_query,
                                        args=(slot, address))
                       for slot in range(2)]
            for client in clients:
                client.start()
            deadline = time.monotonic() + 10
            while min(answered) < 20 and time.monotonic() < deadline:
                time.sleep(0.01)
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
            for client in clients:
                client.join(timeout=10)
        assert min(answered) >= 20, "clients never got going"
        assert not any(client.is_alive() for client in clients)
        assert process.returncode == 0, stderr.decode()
        assert b"drained and stopped" in stdout
        assert b"Traceback" not in stderr, stderr.decode()

    def test_serve_workers_subprocess_end_to_end(self, graph_file,
                                                 tmp_path, capsys):
        """``repro serve --workers 2``: the ready file lists two worker
        pids (not the parent's), queries answer through the pool, and
        SIGINT drains every process and segment."""
        ready = tmp_path / "ready"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", graph_file,
             "--workers", "2", "--port", "0",
             "--ready-file", str(ready)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            info = wait_ready(process, ready, timeout=60)
            host, port = info["host"], info["port"]
            assert info["workers"] == 2
            assert len(info["pids"]) == 2
            assert process.pid not in info["pids"]
            assert main(["query", "--remote", f"{host}:{port}",
                         "0", "1", "1", "0"]) == 1
            out = capsys.readouterr().out
            assert "0 -> 1: yes" in out and "1 -> 0: no" in out
        finally:
            process.send_signal(signal.SIGINT)
            try:
                stdout, _ = process.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                stdout, _ = process.communicate()
        assert b"2 workers" in stdout
        assert b"drained and stopped" in stdout

    @pytest.mark.parametrize("engine", ["chain-closure", "two-hop",
                                        "composite"])
    def test_serve_engine_subprocess_end_to_end(self, graph_file,
                                                tmp_path, capsys,
                                                engine):
        """``repro serve --engine <name>`` answers remote queries for
        a chain engine, a baseline engine and the composite."""
        ready = tmp_path / "ready"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", graph_file,
             "--engine", engine, "--port", "0",
             "--ready-file", str(ready)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            info = wait_ready(process, ready)
            host, port = info["host"], info["port"]
            assert main(["query", "--remote", f"{host}:{port}",
                         "0", "1"]) == 0
            assert "yes" in capsys.readouterr().out
        finally:
            process.send_signal(signal.SIGINT)
            try:
                stdout, _ = process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                stdout, _ = process.communicate()
        assert f"engine {engine}".encode() in stdout

    def test_serve_method_flag_warns_deprecated(self, graph_file,
                                                capsys):
        """--method still parses but routes through --engine and says
        so on stderr (it needs a server, so only check the parse +
        deprecation path via the conflict error)."""
        assert main(["serve", graph_file, "--method", "closure",
                     "--engine", "chain-jagadish"]) == 2
        err = capsys.readouterr().err
        assert "deprecated" in err
        assert "conflicts" in err

    def test_serve_persisted_index_read_only(self, graph_file,
                                             tmp_path, capsys):
        from repro.service import IndexManager, RemoteError, \
            ServiceClient, start_in_thread
        index_path = tmp_path / "graph.idx"
        assert main(["index", graph_file, "-o", str(index_path)]) == 0
        capsys.readouterr()
        manager = IndexManager.from_index_file(index_path)
        with start_in_thread(manager, port=0) as handle:
            host, port = handle.address
            with ServiceClient(host, port) as client:
                epoch, reachable = client.query(0, 1)
                assert (epoch, reachable) == (0, True)
                with pytest.raises(RemoteError) as excinfo:
                    client.add_edge(0, 99)
                assert excinfo.value.code == "unsupported"


class TestGenerate:
    def test_writes_graph_file(self, tmp_path, capsys):
        out = tmp_path / "generated.txt"
        assert main(["generate", "dsrg", "50", "20", "--seed", "3",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        from repro.graph.io import read_edge_list
        graph = read_edge_list(out)
        assert graph.num_nodes >= 50

    def test_stdout_output(self, capsys):
        assert main(["generate", "sparse", "30", "35"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# repro edge list")

    def test_round_trip_through_stats(self, tmp_path, capsys):
        out = tmp_path / "dense.txt"
        main(["generate", "dense", "40", "25", "--out", str(out)])
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        assert "width" in capsys.readouterr().out


class TestIndexCodecFlag:
    def test_codec_flag_writes_compressed_v4(self, graph_file,
                                             tmp_path, capsys):
        out = tmp_path / "c.idx"
        assert main(["index", graph_file, "-o", str(out),
                     "--codec", "compressed"]) == 0
        document = json.loads(out.read_text())
        assert document["version"] == 4
        assert document["codec"] == "compressed"
        capsys.readouterr()
        assert main(["query", "--index", str(out), "0", "1"]) in (0, 1)

    def test_codec_flag_applies_to_concat_builds(self, graph_file,
                                                 tmp_path, capsys):
        out = tmp_path / "concat.idx"
        assert main(["index", graph_file, "-o", str(out),
                     "--method", "concat",
                     "--codec", "compressed"]) == 0
        document = json.loads(out.read_text())
        assert document["codec"] == "compressed"
        assert document["method"] == "concat"


class TestIndexFromEdges:
    def test_edges_flag_streams_a_graph(self, graph_file, tmp_path,
                                        capsys):
        out_graph = tmp_path / "from_graph.idx"
        out_edges = tmp_path / "from_edges.idx"
        assert main(["index", graph_file, "-o", str(out_graph)]) == 0
        assert main(["index", "--edges", graph_file,
                     "-o", str(out_edges)]) == 0
        # same graph, either ingest path: identical labelled answers
        capsys.readouterr()
        for pair in (("0", "1"), ("3", "0"), ("5", "5")):
            a = main(["query", "--index", str(out_graph), *pair])
            b = main(["query", "--index", str(out_edges), *pair])
            assert a == b

    def test_graph_and_edges_together_rejected(self, graph_file,
                                               capsys):
        assert main(["index", graph_file, "--edges", graph_file,
                     "-o", "x.idx"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_neither_graph_nor_edges_rejected(self, capsys):
        assert main(["index", "-o", "x.idx"]) == 2


class TestStatsIndex:
    def test_reports_codec_and_sizes(self, graph_file, tmp_path,
                                     capsys):
        out = tmp_path / "s.idx"
        main(["index", graph_file, "-o", str(out),
              "--codec", "compressed"])
        capsys.readouterr()
        assert main(["stats", "--index", str(out)]) == 0
        text = capsys.readouterr().out
        assert "compressed" in text
        assert "label bytes" in text
        assert "on-disk" in text

    def test_missing_index_file_errors(self, tmp_path, capsys):
        assert main(["stats", "--index",
                     str(tmp_path / "missing.idx")]) == 2

    def test_stats_without_any_source_errors(self, capsys):
        assert main(["stats"]) == 2


class TestGenerateScale:
    def test_scale_family_generates(self, tmp_path, capsys):
        out = tmp_path / "scale.txt"
        assert main(["generate", "scale", "200", "240",
                     "--seed", "4", "--out", str(out)]) == 0
        from repro.graph.io import read_edge_list
        graph = read_edge_list(out)
        assert graph.num_nodes == 200
