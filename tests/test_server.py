"""Tests for the ``repro serve`` daemon and its client.

Two layers:

* **subprocess smoke** — a real ``repro serve`` child driven through
  :class:`repro.service.client.ServeClient`: fingerprints identical to
  one-shot in-process analysis, duplicate in-flight requests coalesced
  to a single execution, graceful shutdown.
* **embedded** — an :class:`AnalysisServer` inside the test's event
  loop with a slowed-down execution hook, which makes backpressure,
  timeout, and drain behaviour deterministic.
"""

import asyncio
import json
import threading
import time

import pytest

from repro import analyze
from repro.benchprogs import benchmark
from repro.service.cache import ResultCache
from repro.service.client import ServeClient, ServeError, spawn_server
from repro.service.serialize import result_fingerprint
from repro.service import server as server_module
from repro.service.server import AnalysisServer, RequestError


def direct_fingerprint(name):
    bp = benchmark(name)
    analysis = analyze(bp.source, bp.query, input_types=bp.input_types)
    return result_fingerprint(analysis.result)


# -- subprocess smoke --------------------------------------------------------

@pytest.fixture(scope="module")
def served():
    process, host, port = spawn_server("--timeout", "120")
    yield host, port
    try:
        with ServeClient(host, port, timeout=10) as client:
            client.shutdown()
        process.wait(timeout=30)
    except Exception:
        process.terminate()
        process.wait(timeout=30)


def test_benchmark_fingerprint_matches_oneshot(served):
    host, port = served
    with ServeClient(host, port) as client:
        result = client.analyze(benchmark="QU")
    assert result["fingerprint"] == direct_fingerprint("QU")
    assert result["payload"]["entries"]


def test_repeat_is_cache_hit(served):
    host, port = served
    with ServeClient(host, port) as client:
        first = client.analyze(benchmark="PL", payload=False)
        second = client.analyze(benchmark="PL", payload=False)
    assert second["cached"]
    assert second["fingerprint"] == first["fingerprint"]


def test_source_query_and_input_types(served, nreverse_source):
    host, port = served
    with ServeClient(host, port) as client:
        result = client.analyze(source=nreverse_source,
                                query=("nreverse", 2),
                                input_types=["list", "any"])
    direct = analyze(nreverse_source, ("nreverse", 2),
                     input_types=["list", "any"])
    assert result["fingerprint"] == result_fingerprint(direct.result)


def test_parallel_duplicates_coalesce_to_one_execution(served):
    """The acceptance-criteria scenario: N concurrent identical
    requests on a cold key -> one underlying analysis, N responders,
    all fingerprints identical to the one-shot CLI's."""
    host, port = served
    # a fresh source no other test analyzes -> cold CacheKey
    source = """
    coal([], []).
    coal([X|Xs], [f(X)|R]) :- coal(Xs, R).
    """
    with ServeClient(host, port) as client:
        before = client.stats()
    results = []
    errors = []

    def fire():
        try:
            with ServeClient(host, port) as client:
                results.append(client.analyze(source=source,
                                              query=("coal", 2),
                                              payload=False))
        except BaseException as error:  # pragma: no cover
            errors.append(error)

    threads = [threading.Thread(target=fire) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(results) == 8
    fingerprints = {r["fingerprint"] for r in results}
    assert fingerprints == \
        {result_fingerprint(analyze(source, ("coal", 2)).result)}
    with ServeClient(host, port) as client:
        after = client.stats()
    assert after["analyses_executed"] - before["analyses_executed"] == 1
    coalesced = sum(1 for r in results if r["coalesced"])
    cached = sum(1 for r in results if r["cached"])
    assert coalesced + cached == 7
    assert after["coalesced"] - before["coalesced"] == coalesced


def test_batch_op(served):
    host, port = served
    with ServeClient(host, port) as client:
        report = client.batch(benchmarks=["QU", "PL"])
    names = [job["name"] for job in report["jobs"]]
    assert names == ["QU", "PL"]
    for job in report["jobs"]:
        assert job["ok"]
        assert job["fingerprint"] == direct_fingerprint(job["name"])


def test_invalidate_and_cache_info(served, append_source):
    host, port = served
    with ServeClient(host, port) as client:
        client.analyze(source=append_source, query=("append", 3),
                       payload=False)
        info = client.cache_info()
        assert info["entries"] >= 1
        report = client.invalidate(source=append_source)
        assert report["invalidated"] >= 1
        again = client.analyze(source=append_source,
                               query=("append", 3), payload=False)
        assert not again["cached"]


def test_errors_keep_connection_usable(served):
    host, port = served
    with ServeClient(host, port) as client:
        with pytest.raises(ServeError) as exc_info:
            client.request("no-such-op")
        assert exc_info.value.code == "bad-request"
        with pytest.raises(ServeError):
            client.analyze(source="p(a).", query=("p", "x"))
        with pytest.raises(ServeError):
            client.analyze(source="p(a).", query=("missing", 1))
        with pytest.raises(ServeError):
            client.analyze(source="p(a).", query=("p", 1),
                           input_types=["list", "any"])
        # and the connection still works
        assert client.ping()["pong"]


def test_malformed_json_line(served):
    import socket
    host, port = served
    with socket.create_connection((host, port), timeout=30) as sock:
        handle = sock.makefile("rwb")
        handle.write(b"this is not json\n")
        handle.flush()
        response = json.loads(handle.readline())
        assert not response["ok"]
        assert response["code"] == "bad-request"
        handle.write(b'{"op": "ping"}\n')
        handle.flush()
        assert json.loads(handle.readline())["ok"]


# -- embedded deterministic tests -------------------------------------------

def run_scenario(scenario, **server_kwargs):
    """Start an embedded server on an ephemeral port, run the async
    scenario against it, and always drain afterwards."""

    async def main():
        server = AnalysisServer(port=0, **server_kwargs)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.drain_and_close()

    return asyncio.run(main())


async def send(server, request):
    reader, writer = await asyncio.open_connection("127.0.0.1",
                                                   server.port)
    try:
        writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()


def slow_execute(delay):
    real = server_module._execute_spec

    def execute(spec):
        time.sleep(delay)
        return real(spec)

    return execute


SOURCES = ["slow%d(a%d). slow%d(b%d)." % (i, i, i, i)
           for i in range(4)]


def test_backpressure_rejects_when_queue_full(monkeypatch):
    monkeypatch.setattr(server_module, "_execute_spec",
                        slow_execute(0.4))

    async def scenario(server):
        tasks = [asyncio.create_task(send(server, {
            "op": "analyze", "source": SOURCES[i],
            "query": ["slow%d" % i, 1], "payload": False,
        })) for i in range(3)]
        # let the first two occupy the queue before the third lands
        responses = await asyncio.gather(*tasks)
        return responses

    responses = run_scenario(scenario, max_pending=2)
    codes = sorted((r.get("code") or "ok") for r in responses)
    assert codes.count("overloaded") >= 1
    assert codes.count("ok") == 2


def test_timeout_then_warm_retry(monkeypatch):
    monkeypatch.setattr(server_module, "_execute_spec",
                        slow_execute(0.5))

    async def scenario(server):
        request = {"op": "analyze", "source": SOURCES[3],
                   "query": ["slow3", 1], "payload": False}
        first = await send(server, dict(request, timeout=0.05))
        assert not first["ok"]
        assert first["code"] == "timeout"
        # the abandoned computation finishes and lands in the cache
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            retry = await send(server, request)
            if retry["ok"]:
                return retry
            await asyncio.sleep(0.05)
        raise AssertionError("retry never succeeded")

    # the retry either rode the still-running computation (coalesced)
    # or arrived after it landed in the cache — both are warm paths
    retry = run_scenario(scenario, request_timeout=30.0)
    assert retry["result"]["cached"] or retry["result"]["coalesced"]


def test_shutdown_drains_inflight(tmp_path, monkeypatch):
    monkeypatch.setattr(server_module, "_execute_spec",
                        slow_execute(0.3))
    cache = ResultCache(tmp_path)

    async def scenario(server):
        task = asyncio.create_task(send(server, {
            "op": "analyze", "source": "drainme(a).",
            "query": ["drainme", 1], "payload": False}))
        await asyncio.sleep(0.1)  # the analysis is now in flight
        shutdown = await send(server, {"op": "shutdown"})
        assert shutdown["ok"]
        assert shutdown["result"]["draining"] == 1
        response = await task
        assert response["ok"], response
        await server.serve_until_shutdown()
        # new computations are refused while draining
        return response

    run_scenario(scenario, cache=cache)
    # the drained result was flushed/persisted for the next process
    fresh = ResultCache(tmp_path)
    assert len(fresh) == 1


def test_draining_rejects_new_computations():
    async def scenario(server):
        server._draining = True
        response = await send(server, {
            "op": "analyze", "source": "latecomer(a).",
            "query": ["latecomer", 1], "payload": False})
        assert not response["ok"]
        assert response["code"] == "shutting-down"
        # but pings still answer
        assert (await send(server, {"op": "ping"}))["ok"]

    run_scenario(scenario)


def test_request_error_codes():
    error = RequestError("nope")
    assert error.code == "bad-request"
    assert str(RequestError("busy", "overloaded")) == "busy"


def test_stats_shape(served):
    host, port = served
    with ServeClient(host, port) as client:
        stats = client.stats()
    for field in ("uptime", "requests", "analyses_executed",
                  "coalesced", "rejected", "timeouts", "queue_depth",
                  "max_pending", "cache", "opcache", "arena",
                  "latency"):
        assert field in stats, field
    assert stats["latency"]["count"] >= 1
    assert stats["latency"]["p95"] >= stats["latency"]["p50"]
    assert stats["cache"]["hit_rate"] is None or \
        0.0 <= stats["cache"]["hit_rate"] <= 1.0


def test_worker_pool_mode_matches_oneshot():
    """workers>=1 dispatches to a persistent process pool; results
    must be identical to the in-process path."""
    process, host, port = spawn_server("--workers", "2",
                                       "--timeout", "120")
    try:
        with ServeClient(host, port) as client:
            first = client.analyze(benchmark="AR", payload=False)
            second = client.analyze(benchmark="AR", payload=False)
            assert first["fingerprint"] == direct_fingerprint("AR")
            assert second["cached"]
            client.shutdown()
        process.wait(timeout=60)
        assert process.returncode == 0
    finally:
        if process.poll() is None:
            process.terminate()
            process.wait(timeout=30)


# -- the encoded hit path ----------------------------------------------------
#
# The memory tier holds each result as JSON bytes encoded once when it
# is stored; analyze replies copy those bytes in.  These tests pin that
# every path into the tier serves the same bytes and that a hit never
# re-encodes the table.

def without_stats(payload):
    """A payload minus ``stats`` (its measured times differ per run)."""
    return {k: v for k, v in payload.items() if k != "stats"}


def count_payload_encodes(monkeypatch):
    """Record every ``json.dumps`` of an analysis payload, alone or as
    the payload of a reply envelope."""
    calls = []
    real = json.dumps

    def is_payload(obj):
        return isinstance(obj, dict) and "entries" in obj \
            and "stats" in obj

    def dumps(obj, *args, **kwargs):
        result = obj.get("result") if isinstance(obj, dict) else None
        if is_payload(obj) or (isinstance(result, dict)
                               and is_payload(result.get("payload"))):
            calls.append(obj)
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps)
    return calls


def test_warm_hits_serve_the_cold_payload_encoded_once(monkeypatch):
    from repro.service.serialize import encode_result
    bp = benchmark("QU")
    direct = encode_result(analyze(bp.source, bp.query,
                                   input_types=bp.input_types).result)
    calls = count_payload_encodes(monkeypatch)

    async def scenario(server):
        cold = await send(server, {"id": 1, "op": "analyze",
                                   "benchmark": "QU"})
        hits = [await send(server, {"id": i, "op": "analyze",
                                    "benchmark": "QU"})
                for i in range(2, 7)]
        return cold, hits

    cold, hits = run_scenario(scenario)
    assert cold["ok"] and not cold["result"]["cached"]
    assert cold["result"]["fingerprint"] == direct_fingerprint("QU")
    assert without_stats(cold["result"]["payload"]) == \
        without_stats(direct)
    for request_id, hit in enumerate(hits, 2):
        assert hit["id"] == request_id and hit["ok"]
        assert hit["result"]["cached"]
        assert hit["result"]["payload"] == cold["result"]["payload"]
        assert hit["result"]["fingerprint"] == \
            cold["result"]["fingerprint"]
    assert len(calls) == 1, "the payload must be encoded once, on store"


def test_hit_after_invalidate_serves_the_recomputed_bytes(monkeypatch):
    """Each computation is tagged in its stats; after ``invalidate``
    and a recompute, hits carry the new tag, never the stale one."""
    real = server_module._execute_spec
    generation = [0]

    def tagged(spec):
        name, payload, seconds = real(spec)
        generation[0] += 1
        payload["stats"]["cpu_time"] = generation[0]
        return name, payload, seconds

    monkeypatch.setattr(server_module, "_execute_spec", tagged)
    request = {"op": "analyze", "source": "gen(a).\n",
               "query": ["gen", 1]}

    async def scenario(server):
        seen = []
        for _ in range(2):
            await send(server, dict(request, id=1))
            seen.append(await send(server, dict(request, id=2)))
            await send(server, {"op": "invalidate",
                                "source": request["source"]})
        return seen

    first, second = run_scenario(scenario)
    assert first["result"]["cached"] and second["result"]["cached"]
    assert first["result"]["payload"]["stats"]["cpu_time"] == 1
    assert second["result"]["payload"]["stats"]["cpu_time"] == 2
    assert first["result"]["fingerprint"] == \
        second["result"]["fingerprint"]


def test_disk_promoted_and_seeded_entries_serve_the_computed_bytes(
        tmp_path):
    request = {"op": "analyze", "benchmark": "AR"}

    async def analyze_once(server):
        return await send(server, dict(request, id=1))

    cold = run_scenario(analyze_once, cache=ResultCache(tmp_path))
    from_disk = run_scenario(analyze_once, cache=ResultCache(tmp_path))

    async def seeded(server):
        pushed = await send(server, {"id": 1, "op": "seed",
                                     "benchmark": "AR",
                                     "payload": cold["result"]["payload"]})
        return pushed, await send(server, dict(request, id=2))

    pushed, from_seed = run_scenario(seeded)
    assert not cold["result"]["cached"]
    assert pushed["ok"] and pushed["result"]["key"] == cold["result"]["key"]
    for hit in (from_disk, from_seed):
        assert hit["result"]["cached"]
        assert hit["result"]["payload"] == cold["result"]["payload"]
        assert hit["result"]["fingerprint"] == \
            cold["result"]["fingerprint"]


def test_dict_callers_get_the_same_objects_as_analyze():
    """check, slice, batch with payload=True and fetch decode the same
    stored entry the analyze reply carries."""
    from repro.service.serialize import check_fingerprint

    async def scenario(server):
        analyzed = await send(server, {"id": 1, "op": "analyze",
                                       "benchmark": "QU"})
        batched = await send(server, {"id": 2, "op": "batch",
                                      "benchmarks": ["QU"],
                                      "payload": True})
        fetched = await send(server, {"id": 3, "op": "fetch",
                                      "digest": analyzed["result"]["key"]})
        check = await send(server, {"id": 4, "op": "check",
                                    "benchmark": "CHK", "payload": True})
        sliced = await send(server, {"id": 5, "op": "slice",
                                     "benchmark": "CHK"})
        return analyzed, batched, fetched, check, sliced

    analyzed, batched, fetched, check, sliced = run_scenario(scenario)
    payload = analyzed["result"]["payload"]
    [job] = batched["result"]["jobs"]
    assert job["ok"] and job["cached"] and job["payload"] == payload
    assert job["fingerprint"] == analyzed["result"]["fingerprint"]
    assert fetched["result"]["payload"] == payload
    assert fetched["result"]["key"]["query"] == \
        list(benchmark("QU").query)
    section = check["result"]["payload"]["check"]
    assert check["result"]["verdicts"] == section["verdicts"]
    assert check["result"]["check_fingerprint"] == \
        check_fingerprint(section)
    assert sliced["result"]["cached"]
    assert sliced["result"]["slices"] == section["slices"]
    assert sliced["result"]["check_fingerprint"] == \
        check["result"]["check_fingerprint"]


def test_malformed_seed_is_refused_and_stores_nothing():
    """A seed payload that cannot be fingerprinted used to be stored
    and then fail every analyze of its workload (KeyError: 'entries')
    until evicted."""
    request = {"source": "p(a).\n", "query": ["p", 1]}

    async def scenario(server):
        seeded = await send(server, dict(request, id=1, op="seed",
                                         payload={}))
        inventory = server.cache.memory_digests()
        analyzed = await send(server, dict(request, id=2, op="analyze"))
        return seeded, inventory, analyzed

    seeded, inventory, analyzed = run_scenario(scenario)
    assert not seeded["ok"] and seeded["code"] == "bad-request"
    assert inventory == []
    assert analyzed["ok"] and not analyzed["result"]["cached"]
    assert analyzed["result"]["fingerprint"] == result_fingerprint(
        analyze(request["source"], ("p", 1)).result)
