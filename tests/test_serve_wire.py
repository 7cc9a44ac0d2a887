"""Wire-level behaviour of the serve layer: socket options and long-polling.

* **No Nagle stall** — the server's accepted sockets and every socket a
  :class:`~repro.serve.worker.ServerClient` opens (reconnects included)
  carry ``TCP_NODELAY``, so a body written after its headers is not held
  back for the peer's delayed ACK.
* **Long-polling task board** — :meth:`TaskBoard.wait_for_task` and the
  ``/v1/task`` route block until a task is queued, the board closes, the
  run finishes, or the wait bound passes; an expired lease goes straight
  to a waiting request.
* **Malformed ``Content-Length``** — answered with HTTP 400 ``malformed``
  and a closed connection instead of a dropped socket.

No test asserts on wall-clock speed: waits use generous bounds and only
check *that* a blocked call returned.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import pytest

import repro.serve.server as server_module
from repro.experiments.configs import AlgorithmSpec, ExperimentConfig, serve_config
from repro.serve import protocol
from repro.serve.server import FederationServer, TaskBoard, _Handler, _Ticket
from repro.serve.worker import ServerClient, WorkerEnvironment, handshake

JOIN_TIMEOUT_S = 5.0


def _nodelay(sock: socket.socket) -> bool:
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


def _wait_until(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise TimeoutError("condition not reached in time")
        time.sleep(0.01)


def _in_thread(target, *args):
    """Run ``target(*args)`` in a daemon thread; returns (thread, results)."""
    results: list = []
    thread = threading.Thread(
        target=lambda: results.append(target(*args)), daemon=True
    )
    thread.start()
    return thread, results


@pytest.fixture
def server():
    """A started one-round server whose tasks no worker drains."""
    config = serve_config().with_overrides(num_rounds=1)
    server = FederationServer(config, AlgorithmSpec("fedavg"), num_rounds=1)
    server.start()
    yield server
    server.stop()


def _lease_everything(server: FederationServer) -> list[_Ticket]:
    """Wait for the round's tasks, then lease them all off the board."""
    _wait_until(lambda: server.board.pending > 0)
    tickets = []
    while (ticket := server.board.pull()) is not None:
        tickets.append(ticket)
    return tickets


def _post_task(url: str) -> tuple[int, str, bytes]:
    client = ServerClient(url)
    try:
        return client.post("/v1/task", b"")
    finally:
        client.close()


# --------------------------------------------------------------------------- #
# TCP_NODELAY on both ends
# --------------------------------------------------------------------------- #
def test_server_accepted_sockets_disable_nagle(server, monkeypatch):
    seen: list[bool] = []
    setup = _Handler.setup

    def recording_setup(self):
        setup(self)
        seen.append(_nodelay(self.connection))

    monkeypatch.setattr(_Handler, "setup", recording_setup)
    client = ServerClient(server.url)
    try:
        status, _, _ = client.post("/v1/handshake", b"{}")
    finally:
        client.close()
    assert status == 426  # no protocol version: refused, but it was served
    assert seen == [True]


def test_server_client_sockets_disable_nagle_across_reconnects(server):
    client = ServerClient(server.url)
    body = json.dumps({"protocol_version": protocol.PROTOCOL_VERSION}).encode()
    try:
        assert client.post("/v1/handshake", body)[0] == 200
        first = client._conn.sock
        assert _nodelay(first)

        # http.client re-opens a dropped socket on its own on the next request.
        client._conn.close()
        assert client.post("/v1/handshake", body)[0] == 200
        reopened = client._conn.sock
        assert reopened is not first and _nodelay(reopened)

        # A socket the peer no longer serves: ServerClient reconnects.
        reopened.shutdown(socket.SHUT_RDWR)
        assert client.post("/v1/handshake", body)[0] == 200
        reconnected = client._conn.sock
        assert reconnected is not reopened and _nodelay(reconnected)
    finally:
        client.close()


# --------------------------------------------------------------------------- #
# TaskBoard.wait_for_task
# --------------------------------------------------------------------------- #
def _ticket(board: TaskBoard) -> _Ticket:
    return _Ticket(
        task_id=board.next_task_id(0, 0), frame=b"", client_index=0, client_id=0
    )


def test_publish_wakes_a_blocked_waiter():
    board = TaskBoard()
    waiter, _ = _in_thread(board.wait_for_task, 60.0)
    time.sleep(0.05)
    assert waiter.is_alive()
    board.publish([_ticket(board)])
    waiter.join(JOIN_TIMEOUT_S)
    assert not waiter.is_alive()
    assert board.pull() is not None


def test_close_wakes_a_blocked_waiter():
    board = TaskBoard()
    waiter, _ = _in_thread(board.wait_for_task, 60.0)
    time.sleep(0.05)
    board.close()
    waiter.join(JOIN_TIMEOUT_S)
    assert not waiter.is_alive()


def test_wait_returns_when_its_bound_passes_with_nothing_queued():
    board = TaskBoard()
    board.wait_for_task(0.05)
    assert board.pull() is None


def test_expired_lease_is_handed_to_a_waiter_on_the_board():
    board = TaskBoard(lease_s=0.2)
    board.publish([_ticket(board)])
    leased = board.pull()
    waiter, _ = _in_thread(board.wait_for_task, 60.0)
    waiter.join(JOIN_TIMEOUT_S)
    assert not waiter.is_alive()
    assert board.pull().task_id == leased.task_id
    assert board.reclaimed == 1


def test_many_waiters_lease_every_task_exactly_once():
    """Waiters outnumber cores and switch often; no task is lost or leased twice."""
    board = TaskBoard()
    leased: list[str] = []
    lock = threading.Lock()

    def waiter():
        while True:
            board.wait_for_task(60.0)
            ticket = board.pull()
            if ticket is not None:
                with lock:
                    leased.append(ticket.task_id)
            elif board._closed:
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        waiters = [threading.Thread(target=waiter, daemon=True) for _ in range(8)]
        for thread in waiters:
            thread.start()
        published = []
        for _ in range(200):
            ticket = _ticket(board)
            published.append(ticket.task_id)
            board.publish([ticket])
        _wait_until(lambda: len(leased) == len(published), timeout=JOIN_TIMEOUT_S)
        board.close()
        for thread in waiters:
            thread.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in waiters)
    assert sorted(leased) == sorted(published)


# --------------------------------------------------------------------------- #
# The /v1/task long-poll
# --------------------------------------------------------------------------- #
def test_task_request_answers_empty_when_the_bound_passes(server, monkeypatch):
    _lease_everything(server)
    monkeypatch.setattr(server_module, "TASK_WAIT_S", 0.1)
    status, content_type, data = _post_task(server.url)
    assert status == 200 and content_type.startswith("application/json")
    assert json.loads(data) == {"task": None, "done": False}


def test_task_request_receives_an_expired_lease(monkeypatch):
    monkeypatch.setattr(server_module, "TASK_WAIT_S", 60.0)
    config = serve_config().with_overrides(num_rounds=1)
    server = FederationServer(
        config, AlgorithmSpec("fedavg"), num_rounds=1, lease_s=0.3
    )
    server.start()
    try:
        leased = _lease_everything(server)
        waiter, results = _in_thread(_post_task, server.url)
        waiter.join(JOIN_TIMEOUT_S)
        assert not waiter.is_alive()
        status, content_type, data = results[0]
        assert status == 200 and content_type == "application/octet-stream"
        header, blobs = protocol.unpack_frame(data)
        task = protocol.decode_task(header, blobs)
        assert task["task_id"] in {ticket.task_id for ticket in leased}
        assert server.board.reclaimed >= 1
    finally:
        server.stop()


def test_finishing_the_run_wakes_a_waiting_task_request(server, monkeypatch):
    monkeypatch.setattr(server_module, "TASK_WAIT_S", 60.0)
    tickets = _lease_everything(server)
    waiter, results = _in_thread(_post_task, server.url)
    time.sleep(0.05)
    assert waiter.is_alive()

    # Compute and submit every leased task; the one-round run then finishes.
    client = ServerClient(server.url)
    try:
        info = handshake(client, worker_id="wire-test")
        env = WorkerEnvironment(ExperimentConfig(**info["config"]), info["algorithm"])
        for ticket in tickets:
            header, blobs = protocol.unpack_frame(ticket.frame)
            frame = env.execute(protocol.decode_task(header, blobs))
            assert client.post("/v1/submit", frame)[0] == 200
    finally:
        client.close()

    waiter.join(JOIN_TIMEOUT_S)
    assert not waiter.is_alive()
    status, _, data = results[0]
    assert status == 200 and json.loads(data) == {"task": None, "done": True}


def test_stopping_the_server_wakes_a_waiting_task_request(server, monkeypatch):
    monkeypatch.setattr(server_module, "TASK_WAIT_S", 60.0)
    _lease_everything(server)
    waiter, results = _in_thread(_post_task, server.url)
    time.sleep(0.05)
    assert waiter.is_alive()
    server.stop()
    waiter.join(JOIN_TIMEOUT_S)
    assert not waiter.is_alive()
    status, _, data = results[0]
    assert status == 200 and json.loads(data)["task"] is None


# --------------------------------------------------------------------------- #
# Malformed Content-Length
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("length", ["-5", "abc"])
def test_malformed_content_length_gets_a_400_and_a_closed_connection(
    server, length
):
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(
            b"POST /v1/submit HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: " + length.encode() + b"\r\n\r\n"
        )
        response = b""
        while chunk := sock.recv(4096):  # the server closes after replying
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert json.loads(body)["code"] == "malformed"
    counters = server.metrics.snapshot()["counters"]
    assert counters["serve.errors.malformed"] == 1
