"""The live serve daemon, in process: sessions, backpressure, stats, drain.

These tests embed :class:`~repro.serve.server.ServeServer` on a background
thread (the same ergonomics as ``WorkerServer`` in the dist tests) and talk
to it through real TCP connections — both via the bundled
:class:`~repro.serve.client.ServeClient` and via raw frames where the test
needs to control exactly what hits the wire (backpressure, handshake
violations).
"""

from __future__ import annotations

import asyncio
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.dist.framing import READ_BYTES, encode_frame, recv_frame, send_frame
from repro.dist.protocol import PROTOCOL_VERSION
from repro.serve.client import ServeClient, drive_load
from repro.serve.engine import ServeEngine, ServeError
from repro.serve.server import ServeServer

QUEUE_LIMIT = 4


@pytest.fixture()
def server():
    instance = ServeServer(
        n_nodes=63, algorithm="rotor-push", queue_limit=QUEUE_LIMIT
    ).start()
    yield instance
    instance.stop()


def raw_connection(server):
    sock = socket.create_connection((server.host, server.port), timeout=10.0)
    send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
    welcome = recv_frame(sock)
    assert welcome["type"] == "welcome"
    return sock


class TestHandshake:
    def test_welcome_reports_configuration(self, server):
        with ServeClient(server.address) as client:
            assert client.n_nodes == 63
            assert client.server["algorithm"]["name"] == "rotor-push"
            assert client.server["queue_limit"] == QUEUE_LIMIT

    def test_protocol_mismatch_rejected(self, server):
        sock = socket.create_connection((server.host, server.port), timeout=10.0)
        try:
            send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION + 999})
            assert recv_frame(sock)["type"] == "error"
        finally:
            sock.close()


class TestSessions:
    def test_request_reply_carries_costs_and_depth(self, server):
        with ServeClient(server.address) as client:
            session = client.open("alpha")
            assert session["source_id"] == 0
            reply = client.request_batch([1, 2, 3])
            assert reply["type"] == "reply"
            assert reply["source"] == "alpha"
            assert reply["n"] == 3
            assert reply["access_cost"] >= 0
            assert reply["adjustment_cost"] >= 0
            single = client.request(7)
            assert single["n"] == 1

    def test_request_without_session_rejected(self, server):
        with ServeClient(server.address) as client:
            with pytest.raises(ServeError, match="open_session"):
                client.request(1)

    def test_double_bind_of_an_active_source_rejected(self, server):
        with ServeClient(server.address) as first:
            first.open("alpha")
            with ServeClient(server.address) as second:
                with pytest.raises(ServeError, match="already bound"):
                    second.open("alpha")

    def test_one_connection_serves_one_source(self, server):
        with ServeClient(server.address) as client:
            client.open("alpha")
            with pytest.raises(ServeError, match="already serves"):
                client.open("beta")

    def test_reconnect_resumes_the_same_source(self, server):
        with ServeClient(server.address) as client:
            assert client.open("alpha")["source_id"] == 0
            client.request_batch([1, 2])
        # same source id, same tree, totals continue accumulating
        with ServeClient(server.address) as client:
            assert client.open("alpha")["source_id"] == 0
            client.request_batch([3])
            client.drain()
            stats = client.stats()
        row = stats["engine"]["sources"][0]
        assert row["n_requests"] == 3

    def test_bad_destinations_rejected_per_batch(self, server):
        with ServeClient(server.address) as client:
            client.open("alpha")
            for batch in ([], [63], [-1], [True], ["x"], "not-a-list"):
                with pytest.raises(ServeError):
                    client.request_batch(batch)
            # the session is still usable afterwards
            assert client.request_batch([0])["n"] == 1

    @pytest.mark.parametrize(
        "destination", [True, 1.5, -1, 63, 2**63], ids=["true", "float", "negative", "n", "2**63"]
    )
    def test_a_refused_batch_keeps_its_error_text(self, tmp_path, destination):
        from repro.serve.ingest import read_ingest_log

        instance = ServeServer(
            n_nodes=63, algorithm="rotor-push", log_dir=str(tmp_path / "log")
        ).start()
        try:
            with ServeClient(instance.address) as client:
                client.open("alpha")
                with pytest.raises(ServeError) as refused:
                    client.request_batch([1, destination])
                assert str(refused.value) == (
                    "server rejected request_batch: "
                    f"destination {destination!r} outside the 63-node tree"
                )
                assert client.request_batch([2])["n"] == 1
                assert instance.engine.source("alpha").n_requests == 1
        finally:
            instance.stop()
        records = read_ingest_log(tmp_path / "log").request_records()
        assert [record["destinations"] for record in records] == [[2]]


class TestBackpressure:
    def test_full_queue_answers_busy_immediately(self, server):
        server.pause_engine()
        sock = raw_connection(server)
        try:
            send_frame(sock, {"type": "open_session", "source": "alpha"})
            assert recv_frame(sock)["type"] == "session"
            # with the engine paused the queue fills deterministically:
            # queue_limit batches are accepted silently, the next is busy
            for reply_id in range(1, QUEUE_LIMIT + 2):
                send_frame(
                    sock,
                    {"type": "request_batch", "id": reply_id, "destinations": [1]},
                )
            busy = recv_frame(sock)
            assert busy["type"] == "busy"
            assert busy["id"] == QUEUE_LIMIT + 1
            assert busy["queue_depth"] == QUEUE_LIMIT
            assert busy["queue_limit"] == QUEUE_LIMIT
            # resume: every accepted batch is served and replied to, in order
            server.resume_engine()
            replies = [recv_frame(sock) for _ in range(QUEUE_LIMIT)]
            assert [r["id"] for r in replies] == list(range(1, QUEUE_LIMIT + 1))
            assert all(r["type"] == "reply" for r in replies)
        finally:
            sock.close()

    def test_client_observes_busy_then_succeeds(self, server):
        with ServeClient(server.address) as client:
            client.open("alpha")
            server.pause_engine()
            # fill the queue over the client's own socket without consuming
            # replies (none come while paused), then observe busy directly
            for fill_id in range(100, 100 + QUEUE_LIMIT):
                send_frame(
                    client._sock,
                    {"type": "request_batch", "id": fill_id, "destinations": [1]},
                )
            busy = client.request_batch([2], block=False)
            assert busy["type"] == "busy"
            assert client.busy_count == 1
            server.resume_engine()
            replies = [recv_frame(client._sock) for _ in range(QUEUE_LIMIT)]
            assert [r["id"] for r in replies] == list(range(100, 100 + QUEUE_LIMIT))
            # with room again, the blocking path goes straight through
            assert client.request_batch([2])["type"] == "reply"

    def test_busy_is_not_logged_or_served(self, tmp_path):
        from repro.serve.ingest import read_ingest_log

        instance = ServeServer(
            n_nodes=63,
            algorithm="rotor-push",
            queue_limit=2,
            log_dir=str(tmp_path / "log"),
        ).start()
        try:
            instance.pause_engine()
            sock = raw_connection(instance)
            try:
                send_frame(sock, {"type": "open_session", "source": "alpha"})
                assert recv_frame(sock)["type"] == "session"
                for reply_id in range(1, 5):  # 2 accepted, 2 busy
                    send_frame(
                        sock,
                        {
                            "type": "request_batch",
                            "id": reply_id,
                            "destinations": [reply_id],
                        },
                    )
                assert recv_frame(sock)["type"] == "busy"
                assert recv_frame(sock)["type"] == "busy"
                instance.resume_engine()
                assert recv_frame(sock)["type"] == "reply"
                assert recv_frame(sock)["type"] == "reply"
            finally:
                sock.close()
        finally:
            instance.stop()
        log = read_ingest_log(tmp_path / "log")
        # only the two accepted batches were logged — busy is a pure bounce
        assert [r["destinations"] for r in log.request_records()] == [[1], [2]]


class TestPipelining:
    def test_two_batches_in_one_write_get_two_replies_in_order(self, server):
        sock = raw_connection(server)
        try:
            send_frame(sock, {"type": "open_session", "source": "alpha"})
            assert recv_frame(sock)["type"] == "session"
            sock.sendall(
                encode_frame({"type": "request_batch", "id": 1, "destinations": [1, 2]})
                + encode_frame({"type": "request_batch", "id": 2, "destinations": [3]})
            )
            replies = [recv_frame(sock), recv_frame(sock)]
            assert [(r["type"], r["id"], r["n"]) for r in replies] == [
                ("reply", 1, 2),
                ("reply", 2, 1),
            ]
        finally:
            sock.close()

    def test_a_frame_larger_than_the_read_buffer_is_served_whole(self, server):
        destinations = [(7 * index) % 63 for index in range(40_000)]
        frame = encode_frame(
            {"type": "request_batch", "id": 1, "destinations": destinations}
        )
        assert len(frame) > READ_BYTES
        sock = raw_connection(server)
        try:
            send_frame(sock, {"type": "open_session", "source": "alpha"})
            assert recv_frame(sock)["type"] == "session"
            sock.sendall(frame)
            reply = recv_frame(sock)
        finally:
            sock.close()
        reference = ServeEngine(63, "rotor-push")
        reference.bind("alpha")
        expected = reference.submit("alpha", destinations)
        assert (reply["type"], reply["id"]) == ("reply", 1)
        assert {key: reply[key] for key in expected} == expected

    def test_frames_after_a_drain_wait_for_drained(self, server):
        sock = raw_connection(server)
        try:
            send_frame(sock, {"type": "open_session", "source": "alpha"})
            assert recv_frame(sock)["type"] == "session"
            server.pause_engine()
            sock.sendall(
                encode_frame({"type": "request_batch", "id": 1, "destinations": [1]})
                + encode_frame({"type": "drain"})
                + encode_frame({"type": "stats"})
            )
            time.sleep(0.05)
            # nothing is answered while the batch the drain waits on is queued
            sock.settimeout(0.2)
            with pytest.raises(socket.timeout):
                sock.recv(1)
            sock.settimeout(10.0)
            server.resume_engine()
            kinds = [recv_frame(sock)["type"] for _ in range(3)]
            assert kinds == ["reply", "drained", "stats"]
        finally:
            sock.close()

    def test_malformed_frame_is_answered_with_an_error(self, server):
        sock = raw_connection(server)
        try:
            sock.sendall(struct.pack(">Q", 9) + b"{not json")
            error = recv_frame(sock)
            assert error["type"] == "error"
            assert "undecodable" in error["error"]
        finally:
            sock.close()
        # the daemon keeps serving new connections
        with ServeClient(server.address) as client:
            client.open("alpha")
            assert client.request_batch([1])["n"] == 1

    def test_unread_replies_leave_the_write_buffer_bounded(self, server):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect((server.host, server.port))
        send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
        assert recv_frame(sock)["type"] == "welcome"
        send_frame(sock, {"type": "open_session", "source": "alpha"})
        assert recv_frame(sock)["type"] == "session"
        chunk = b"".join(
            encode_frame({"type": "request_batch", "id": i, "destinations": [1]})
            for i in range(1_000)
        )
        sent = [0]

        def flood() -> None:
            try:
                while True:
                    sock.sendall(chunk)
                    sent[0] += len(chunk)
            except OSError:
                pass

        sender = threading.Thread(target=flood, daemon=True)
        sender.start()

        async def write_buffers():
            return [c.transport.get_write_buffer_size() for c in server._connections]

        try:
            # the sender stalls once the server stops reading
            deadline = time.monotonic() + 30
            last = -1
            while sent[0] != last and time.monotonic() < deadline:
                last = sent[0]
                time.sleep(0.5)
            assert sent[0] == last, "the server never stopped reading"
            sizes = asyncio.run_coroutine_threadsafe(write_buffers(), server._loop)
            (write_buffer,) = sizes.result(5)
            assert write_buffer <= 128 << 10
            assert sent[0] >= 16 * write_buffer
        finally:
            sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked sender
            sock.close()
            sender.join(10)
        assert not sender.is_alive()


class TestStatsAndDrain:
    def test_stats_frame_shape(self, server):
        with ServeClient(server.address) as client:
            client.open("alpha")
            client.request_batch([1, 2, 3, 4])
            client.drain()
            stats = client.stats()
        assert stats["served_batches"] >= 1
        assert stats["queue_limit"] == QUEUE_LIMIT
        assert stats["req_per_s"] > 0
        assert stats["queues"] == {"alpha": 0}
        assert stats["stopping"] is False
        assert stats["engine"]["n_requests"] == 4
        table = stats["cost_table"]
        assert table["name"] == "serve"
        assert table["rows"][-1]["source"] == "total"

    def test_drain_reports_global_request_count(self, server):
        with ServeClient(server.address) as client:
            client.open("alpha")
            client.request_batch([1])
            drained = client.drain()
            assert drained["type"] == "drained"
            assert drained["source"] == "alpha"
            assert drained["n_requests"] == 1

    def test_live_cost_table_matches_engine(self, server):
        with ServeClient(server.address) as client:
            client.open("alpha")
            client.request_batch([1, 2, 3])
            client.drain()
            table = client.cost_table()
        engine_table = server.engine.cost_table()
        assert table.rows == engine_table.rows
        assert table.format_text() == engine_table.format_text()


class TestConcurrentLoad:
    def test_drive_load_totals_agree_with_server_stats(self, server):
        totals = drive_load(
            server.address, ["alpha", "beta", "gamma"], n_requests=60, batch_size=7
        )
        with ServeClient(server.address) as client:
            stats = client.stats()
        rows = {row["source"]: row for row in stats["engine"]["sources"]}
        assert set(rows) == {"alpha", "beta", "gamma"}
        for source, accumulated in totals.items():
            assert rows[source]["n_requests"] == accumulated["n"] == 60
            assert rows[source]["total_access_cost"] == accumulated["access_cost"]
            assert (
                rows[source]["total_adjustment_cost"]
                == accumulated["adjustment_cost"]
            )


class TestEngineFailures:
    def test_a_batch_that_fails_to_serve_closes_no_connection(self, server, monkeypatch):
        # alpha's batch fails in the sweep that beta's read runs: the error
        # goes to the loop's exception handler, beta is still answered, and
        # alpha's next batch is served
        reported = []
        submit = server.engine.submit
        failures = ["alpha"]

        def failing_submit(source, destinations):
            if source in failures:
                failures.remove(source)
                raise OSError("no space left on the log device")
            return submit(source, destinations)

        def on_loop(action):
            async def run():
                action()

            asyncio.run_coroutine_threadsafe(run(), server._loop).result(timeout=5.0)

        on_loop(
            lambda: server._loop.set_exception_handler(
                lambda _loop, context: reported.append(context)
            )
        )
        monkeypatch.setattr(server.engine, "submit", failing_submit)
        alpha, beta = raw_connection(server), raw_connection(server)
        try:
            for sock, source in ((alpha, "alpha"), (beta, "beta")):
                send_frame(sock, {"type": "open_session", "source": source})
                assert recv_frame(sock)["type"] == "session"
            server.pause_engine()
            send_frame(alpha, {"type": "request_batch", "id": 1, "destinations": [1]})
            send_frame(alpha, {"type": "stats"})
            assert recv_frame(alpha)["queues"]["alpha"] == 1
            # lift the pause without a scheduled sweep: beta's read runs it
            on_loop(lambda: setattr(server, "_paused", False))
            send_frame(beta, {"type": "request_batch", "id": 2, "destinations": [2]})
            reply = recv_frame(beta)
            assert (reply["type"], reply["id"], reply["n"]) == ("reply", 2, 1)
            [context] = reported
            assert context["message"] == "serve engine sweep failed"
            assert isinstance(context["exception"], OSError)
            send_frame(alpha, {"type": "request_batch", "id": 3, "destinations": [3]})
            reply = recv_frame(alpha)
            assert (reply["type"], reply["id"], reply["n"]) == ("reply", 3, 1)
            assert server.engine.source("alpha").n_requests == 1
        finally:
            alpha.close()
            beta.close()


class TestLifecycle:
    def test_graceful_stop_drains_queued_work(self, tmp_path):
        from repro.serve.ingest import read_ingest_log

        instance = ServeServer(
            n_nodes=63,
            algorithm="rotor-push",
            queue_limit=8,
            log_dir=str(tmp_path / "log"),
        ).start()
        sock = raw_connection(instance)
        try:
            send_frame(sock, {"type": "open_session", "source": "alpha"})
            assert recv_frame(sock)["type"] == "session"
            instance.pause_engine()
            for reply_id in range(1, 6):
                send_frame(
                    sock,
                    {
                        "type": "request_batch",
                        "id": reply_id,
                        "destinations": [reply_id],
                    },
                )
            # a stats round-trip proves all five enqueues were dispatched
            # (frames on one connection are handled FIFO) before we stop
            send_frame(sock, {"type": "stats"})
            stats = recv_frame(sock)
            assert stats["queues"] == {"alpha": 5}
            # stop with 5 batches still queued: the shutdown drain (which
            # also lifts the pause) must serve every one of them
            instance.stop()
        finally:
            sock.close()
        assert instance.engine.n_requests == 5
        log = read_ingest_log(tmp_path / "log")
        assert len(log.request_records()) == 5
        assert not log.report.truncated

    def test_queue_limit_must_be_positive(self):
        with pytest.raises(ServeError, match="positive"):
            ServeServer(queue_limit=0)

    def test_bad_configuration_fails_before_touching_the_log_dir(self, tmp_path):
        with pytest.raises(ServeError):
            ServeServer(algorithm="static-opt", log_dir=str(tmp_path / "log"))
        assert not (tmp_path / "log").exists()


def test_client_module_runs_once_as_main():
    """``repro.serve`` loads ``ServeClient`` lazily, so ``-m repro.serve.client``
    does not find the module already imported (a RuntimeWarning)."""
    path = [str(Path(__file__).resolve().parents[2] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.serve.client", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    from repro.serve import ServeClient as lazy
    from repro.serve.client import ServeClient

    assert lazy is ServeClient
