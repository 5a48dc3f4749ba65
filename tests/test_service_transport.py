"""The ND-JSON transport and its Python client, over a real socket.

One ephemeral-port server per test class; the tests drive the same wire
operations the ``repro submit`` / ``jobs`` / ``cache`` CLI uses, plus
protocol-level edge cases (bad JSON, unknown ops, errors crossing the
boundary) that the client never generates itself.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import traceback
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.search.spec import SearchSpec
from repro.service import (
    ResultStore,
    SearchServer,
    ServiceClient,
    ServiceError,
    probe,
    start_transport,
)
from repro.service.transport import MAX_REQUEST_BYTES


def _spec(**overrides) -> SearchSpec:
    base = dict(model="mnasnet", method="random", budget=40, seed=0,
                layer_slice=3)
    base.update(overrides)
    return SearchSpec(**base)


@pytest.fixture
def service(tmp_path):
    server = SearchServer(store=ResultStore(root=tmp_path / "cache"),
                          progress_every=5)
    transport = start_transport(server, port=0)
    try:
        yield transport.server_address[1]
    finally:
        transport.shutdown()
        transport.server_close()
        server.close()


class TestClient:
    def test_ping_and_probe(self, service):
        import repro

        with ServiceClient(port=service) as client:
            assert client.ping() == repro.__version__
        assert probe("127.0.0.1", service)
        assert not probe("127.0.0.1", 1)  # nothing listens there

    def test_submit_roundtrip_and_cache_hit(self, service):
        with ServiceClient(port=service) as client:
            first = client.submit(_spec())
            second = client.submit(_spec())
            assert second.to_dict() == first.to_dict()
            stats = client.stats()
            assert stats["executions"] == 1
            assert stats["cache"]["hits"] == 1

    def test_async_submit_status_result(self, service):
        with ServiceClient(port=service) as client:
            job = client.submit(_spec(), wait=False)
            assert job["id"].startswith("j")
            result = client.result(job["id"])
            status = client.status(job["id"])
            assert status["state"] == "DONE"
            assert result.spec == _spec()

    def test_watch_streams_events_then_final_response(self, service):
        with ServiceClient(port=service) as client:
            messages = list(client.watch(_spec()))
            final = messages[-1]
            assert final["ok"] and final["job"]["state"] == "DONE"
            events = [m["event"] for m in messages[:-1]]
            assert events, "expected at least the state events"
            assert all("ok" not in m for m in messages[:-1])
            assert events[-1]["type"] == "state"

    def test_jobs_listing_and_cancel_noop(self, service):
        with ServiceClient(port=service) as client:
            client.submit(_spec())
            jobs = client.jobs()
            assert len(jobs) == 1 and jobs[0]["state"] == "DONE"
            assert not client.cancel(jobs[0]["id"])

    def test_cache_stats_and_clear_over_the_wire(self, service):
        with ServiceClient(port=service) as client:
            client.submit(_spec())
            assert client.cache_stats()["entries"] == 1
            assert client.cache_clear() == 1
            assert client.cache_stats()["entries"] == 0

    def test_force_over_the_wire(self, service):
        with ServiceClient(port=service) as client:
            client.submit(_spec())
            client.submit(_spec(), force=True)
            assert client.stats()["executions"] == 2

    def test_error_crosses_the_boundary_typed(self, service):
        with ServiceClient(port=service) as client:
            with pytest.raises(ServiceError):
                client.status("j999")
            # The connection survives an error response.
            assert client.ping()

    def test_connect_retry_gives_up_cleanly(self):
        with pytest.raises(OSError):
            ServiceClient(port=1, connect_timeout=0.2)


class TestCLI:
    """``repro submit``, ``jobs`` and ``cache`` through ``main`` against
    a live in-process service."""

    def test_submit_twice_then_jobs_and_cache_stats(self, service,
                                                    tmp_path, capsys):
        from repro.__main__ import main

        def rows():
            return [line.split() for line in
                    capsys.readouterr().out.splitlines()]

        port = ["--port", str(service)]
        spec = ["--model", "mnasnet", "--method", "random", "--budget",
                "40", "--seed", "0", "--layers", "3", *port]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["submit", *spec, "--save", str(first)]) == 0
        assert ["cached", "False"] in rows()
        assert main(["submit", *spec, "--save", str(second)]) == 0
        assert ["cached", "True"] in rows()
        assert first.read_bytes() == second.read_bytes()

        assert main(["jobs", *port]) == 0
        jobs = rows()
        assert jobs[0][:4] == ["2", "jobs,", "1", "executed"]
        assert [row[:4] for row in jobs[3:]] == [
            ["j1", "DONE", "-", "random"], ["j2", "DONE", "hit", "random"]]

        assert main(["cache", "--stats", *port]) == 0
        stats = rows()
        for row in (["entries", "1"], ["hits", "1"], ["misses", "1"],
                    ["puts", "1"]):
            assert row in stats

    def test_serve_runs_a_job_then_shuts_down(self, tmp_path):
        """``repro serve`` in its own process, caching on disk under
        ``$REPRO_CACHE_DIR``: it prints its port first, then serves
        ``repro submit``, ``jobs`` and ``cache --stats``, each in its own
        process.  One spec submitted twice runs once: the second
        submission is a hit from the one entry on disk, saved
        byte-identically.  The server exits 0 on the ``shutdown`` op."""
        import repro
        from repro.search.session import SessionResult

        cache = tmp_path / "cache"
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache),
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))

        def cli(*args):
            done = subprocess.run(
                [sys.executable, "-m", "repro", *args], env=env,
                capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            return [line.split() for line in done.stdout.splitlines()]

        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            first = process.stdout.readline()
            assert first.startswith("repro service on 127.0.0.1:")
            port = first.split()[3].rsplit(":", 1)[1]
            spec = ["--model", "mnasnet", "--method", "random", "--budget",
                    "40", "--seed", "0", "--layers", "3", "--port", port]
            saved = [tmp_path / "first.json", tmp_path / "second.json"]
            assert ["cached", "False"] in cli("submit", *spec,
                                              "--save", str(saved[0]))
            assert ["cached", "True"] in cli("submit", *spec,
                                             "--save", str(saved[1]))
            assert saved[0].read_bytes() == saved[1].read_bytes()
            result = SessionResult.load(saved[0])
            assert result.spec == _spec() and result.feasible
            assert len(list(cache.glob("*/*.json"))) == 1

            jobs = cli("jobs", "--port", port)
            assert jobs[0][:4] == ["2", "jobs,", "1", "executed"]
            assert [row[:4] for row in jobs[3:]] == [
                ["j1", "DONE", "-", "random"],
                ["j2", "DONE", "hit", "random"]]
            stats = cli("cache", "--stats", "--port", port)
            for row in (["entries", "1"], ["hits", "1"], ["misses", "1"],
                        ["puts", "1"]):
                assert row in stats
            with ServiceClient(port=int(port)) as client:
                client.shutdown()
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()

    def test_refused_submit_exits_cleanly(self, service, capsys):
        """The server's refusal reaches the shell as the CLI's error
        line, not as a ``ServiceError`` traceback."""
        from repro.__main__ import main

        with pytest.raises(SystemExit) as stop:
            main(["submit", "--model", "ncf", "--epochs", "4", "--envs",
                  "4", "--port", str(service)])
        message = str(stop.value)
        assert message.startswith("repro: error:")
        assert "confuciux has no lockstep-wave path" in message
        assert capsys.readouterr().out == ""


class TestWireProtocol:
    def _raw(self, port, lines):
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            handle = sock.makefile("rwb")
            responses = []
            for line in lines:
                handle.write(line.encode("utf-8") + b"\n")
                handle.flush()
                responses.append(
                    json.loads(handle.readline().decode("utf-8")))
            return responses

    def test_bad_json_yields_an_error_line(self, service):
        bad, good = self._raw(service, ["{not json", '{"op": "ping"}'])
        assert bad["ok"] is False and "bad request" in bad["error"]
        assert good["ok"] is True

    def test_non_object_request_is_rejected(self, service):
        response, = self._raw(service, ['["op", "ping"]'])
        assert response["ok"] is False

    def test_unknown_op_is_rejected(self, service):
        response, = self._raw(service, ['{"op": "frobnicate"}'])
        assert response["ok"] is False
        assert "frobnicate" in response["error"]

    def test_invalid_spec_surfaces_as_error(self, service):
        response, = self._raw(
            service,
            ['{"op": "submit", "spec": {"model": "nope"}}'])
        assert response["ok"] is False
        assert "nope" in response["error"]

    def test_unknown_method_is_refused_before_a_job_exists(self, service):
        """A method the registry does not know gets one error line that
        names it, even at ``"wait": false``: no job is queued and no
        session runs."""
        spec = _spec(method="nope").to_dict()
        response, stats = self._raw(service, [
            json.dumps({"op": "submit", "spec": spec, "wait": False}),
            '{"op": "stats"}'])
        assert response["ok"] is False
        assert "'nope'" in response["error"]
        assert stats["stats"]["jobs"] == 0
        assert stats["stats"]["executions"] == 0

    def test_unrunnable_spec_is_refused_before_a_job_exists(self, service):
        """A spec its method cannot run (REINFORCE at ``envs=4``) gets
        one error line naming the method; no job is queued."""
        spec = SearchSpec(model="ncf", method="reinforce", envs=4)
        response, stats = self._raw(service, [
            json.dumps({"op": "submit", "spec": spec.to_dict(),
                        "wait": False}),
            '{"op": "stats"}'])
        assert response["ok"] is False
        assert "reinforce has no lockstep-wave path" in response["error"]
        assert stats["stats"]["jobs"] == 0
        assert stats["stats"]["executions"] == 0

    @pytest.mark.parametrize("field, value", [
        ("force", "false"), ("force", 0), ("watch", "no"), ("wait", 1),
        ("timeout", "soon"), ("timeout", True), ("timeout", [1]),
        ("timeout", float("nan")), ("timeout", float("inf")),
    ])
    def test_mistyped_options_are_bad_requests(self, service, field, value):
        """Options must carry their JSON types: a string "false" must not
        force a re-run, and a string timeout must not queue a job."""
        spec = _spec().to_dict()
        first, = self._raw(service, [json.dumps(
            {"op": "submit", "spec": spec})])
        assert first["ok"] is True
        response, stats = self._raw(service, [
            json.dumps({"op": "submit", "spec": spec, field: value}),
            '{"op": "stats"}'])
        assert response["ok"] is False
        assert response["error"].startswith("bad request: ")
        assert field in response["error"]
        assert stats["stats"]["executions"] == 1
        assert stats["stats"]["jobs"] == 1

    def test_blank_lines_are_ignored(self, service):
        with socket.create_connection(("127.0.0.1", service),
                                      timeout=10) as sock:
            handle = sock.makefile("rwb")
            handle.write(b"\n\n" + b'{"op": "ping"}\n')
            handle.flush()
            response = json.loads(handle.readline().decode("utf-8"))
            assert response["ok"] is True

    def test_oversized_line_is_refused_and_the_connection_closed(
            self, service):
        # A request line may fill MAX_REQUEST_BYTES, newline included...
        ping = b'{"op": "ping"}'
        padded = ping + b" " * (MAX_REQUEST_BYTES - len(ping) - 1) + b"\n"
        with socket.create_connection(("127.0.0.1", service),
                                      timeout=10) as sock:
            handle = sock.makefile("rwb")
            handle.write(padded)
            handle.flush()
            assert json.loads(handle.readline())["ok"] is True
            # ...but one byte more, with no newline in sight, is refused
            # without waiting for the rest, and the server hangs up.
            handle.write(b"x" * (MAX_REQUEST_BYTES + 1))
            handle.flush()
            response = json.loads(handle.readline())
            assert response["ok"] is False
            assert response["error"].startswith("bad request: ")
            assert handle.readline() == b""
        assert self._raw(service, ['{"op": "ping"}'])[0]["ok"] is True


# ----------------------------------------------------------------------
# Wire fuzz: malformed lines never hang, never crash a handler.
# ----------------------------------------------------------------------
#: Well-formed requests, cut short for the truncated-frame cases; every
#: ``submit`` and ``result`` is at ``"wait": false``, so nothing runs long.
_REQUESTS = [
    {"op": "ping"},
    {"op": "submit", "spec": _spec().to_dict(), "wait": False},
    {"op": "status", "job": "j1"},
    {"op": "result", "job": "j1", "wait": False},
    {"op": "cancel", "job": "j1"},
    {"op": "cache", "action": "stats"},
    {"op": "jobs"},
    {"op": "stats"},
]

_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.floats(), st.text(max_size=8))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=3)),
    max_leaves=8)
_LISTS = st.lists(st.integers(), max_size=2)
_NOT_STR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                     _LISTS)
_NOT_INT = st.one_of(st.booleans(), st.floats(), st.text(max_size=4),
                     _LISTS)
_NOT_BOOL = st.one_of(st.none(), st.integers(), st.floats(),
                      st.text(max_size=4), _LISTS)

#: Each spec field -> values of the wrong JSON type for it.
_WRONG_FIELD = {
    **{name: _NOT_STR for name in ("model", "method", "objective",
                                   "dataflow", "constraint_kind",
                                   "platform", "deployment")},
    **{name: st.one_of(st.none(), _NOT_INT)
       for name in ("budget", "num_levels", "max_pes", "max_total_pes",
                    "max_total_l1")},
    **{name: _NOT_INT for name in ("seed", "layer_slice", "finetune",
                                   "envs")},
    "mix": _NOT_BOOL,
}


@st.composite
def _truncated_frames(draw) -> bytes:
    line = json.dumps(draw(st.sampled_from(_REQUESTS)))
    return line[:draw(st.integers(1, len(line) - 1))].encode("utf-8")


@st.composite
def _wrong_typed_fields(draw) -> bytes:
    spec = _spec().to_dict()
    case = draw(st.sampled_from(["op", "spec", "spec field", "flag",
                                 "timeout", "job", "action"]))
    if case == "op":
        request = {"op": draw(_NOT_STR)}
    elif case == "spec":
        request = {"op": "submit", "wait": False,
                   "spec": draw(_JSON.filter(
                       lambda value: not isinstance(value, dict)))}
    elif case == "spec field":
        field = draw(st.sampled_from(sorted(_WRONG_FIELD)))
        spec[field] = draw(_WRONG_FIELD[field])
        request = {"op": "submit", "spec": spec, "wait": False}
    elif case == "flag":
        request = {"op": "submit", "spec": spec, "wait": False}
        request[draw(st.sampled_from(["force", "watch", "wait"]))] = \
            draw(_NOT_BOOL)
    elif case == "timeout":
        request = {"op": "submit", "spec": spec, "wait": False,
                   "timeout": draw(st.one_of(
                       st.booleans(), st.text(max_size=4), _LISTS,
                       st.sampled_from([float("nan"), float("inf")])))}
    elif case == "job":
        request = {"op": draw(st.sampled_from(["status", "result",
                                               "cancel"])),
                   "job": draw(_NOT_STR), "wait": False}
    else:
        request = {"op": "cache", "action": draw(_NOT_STR)}
    return json.dumps(request).encode("utf-8")


_MALFORMED = st.one_of(
    _truncated_frames(),
    st.binary(min_size=1, max_size=64).filter(
        lambda line: b"\n" not in line and line.strip()),
    _JSON.filter(lambda value: not isinstance(value, dict)).map(
        lambda value: json.dumps(value).encode("utf-8")),
    _wrong_typed_fields(),
)


@pytest.fixture(scope="class")
def fuzzed_service(tmp_path_factory):
    """One server for every fuzz example, recording each traceback its
    handler threads would otherwise print."""
    server = SearchServer(store=ResultStore(
        root=tmp_path_factory.mktemp("fuzz") / "cache"))
    transport = start_transport(server, port=0)
    tracebacks = []
    transport.handle_error = \
        lambda request, address: tracebacks.append(traceback.format_exc())
    try:
        yield transport.server_address[1], server, tracebacks
    finally:
        transport.shutdown()
        transport.server_close()
        server.close()


class TestWireFuzz:
    @settings(max_examples=300, deadline=None)
    @given(line=_MALFORMED)
    @example(line=b"[" * 5000)
    @example(line=b'{"op": "cache", "action": "clera"}')
    @example(line=b'{"op": "submit", "spec": {"model": "mnasnet", '
                  b'"method": 7}, "wait": false}')
    def test_each_malformed_line_gets_one_error_and_the_link_lives(
            self, fuzzed_service, line):
        """Truncated frames, random bytes, non-object JSON and
        wrong-typed fields: each line is answered by exactly one
        ``ok: false`` line (the next line read answers the ``ping`` sent
        after it), no job is queued and no handler raises."""
        port, server, tracebacks = fuzzed_service
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            handle = sock.makefile("rwb")
            handle.write(line + b"\n" + b'{"op": "ping"}\n')
            handle.flush()
            response = json.loads(handle.readline())
            assert response["ok"] is False
            assert isinstance(response["error"], str)
            assert json.loads(handle.readline())["ok"] is True
        assert server.stats()["jobs"] == 0
        assert tracebacks == []
