"""The query service end to end: hot cache, refine path, HTTP front end.

The refine round trip is the PR's acceptance criterion, exercised for
real: an out-of-grid query against a warm store returns an extrapolated
answer flagged ``refine=true`` and enqueues exactly one work item; a
worker completes it exactly as ``campaign work`` would (lease the task,
run the pickled closure, publish the pickled row); the service folds the
result into the store and the hot cache; the re-asked query is a hot
``source="exact"`` hit.
"""

import asyncio
import json
import pickle
import time
from urllib.parse import urlencode, urlsplit

import pytest

from repro.campaigns import CampaignSpec
from repro.distributed import WorkQueue
from repro.query import GridIndex, Query, QueryService
from repro.query import http as query_http
from repro.query.http import (
    _MAX_REQUEST_BYTES,
    QueryHTTPServer,
    parse_query_document,
)
from repro.query.normalize import QueryError
from repro.store import ResultStore
from repro.store import keys as store_keys
from repro.supervision import RetryPolicy
from repro import telemetry
from repro.telemetry import metrics

#: Synthetic (but physically shaped) rows for the smoke grid sides.
ROW_256 = {
    "l": 256.0, "n": 16.0, "rstationary": 2.0,
    "r0": 1.0, "r10": 1.5, "r90": 3.0, "r100": 4.0,
}
ROW_1024 = {
    "l": 1024.0, "n": 32.0, "rstationary": 3.0,
    "r0": 2.0, "r10": 2.5, "r90": 5.0, "r100": 6.0,
}


def make_spec():
    return CampaignSpec(name="query-grid", experiments=("fig2",), scale="smoke")


def warm_store(tmp_path, spec):
    """A store holding both smoke-grid rows of the fig2 waypoint cell."""
    store = ResultStore(tmp_path / "store")
    grid = GridIndex(spec)
    checkpoint = grid.checkpoint_for(grid.scenario_for("waypoint"), store=store)
    checkpoint.save(256.0, ROW_256)
    checkpoint.save(1024.0, ROW_1024)
    return store


def run(coroutine):
    return asyncio.run(coroutine)


async def with_service(service, body):
    await service.start()
    try:
        return await body()
    finally:
        await service.close()


class TestAnswering:
    def test_exact_grid_point_is_bit_identical_to_the_stored_row(self, tmp_path):
        spec = make_spec()
        service = QueryService(warm_store(tmp_path, spec), spec)

        async def body():
            answer = await service.ask(Query(side=256.0, probability=0.9))
            assert answer.value == ROW_256["r90"]  # bitwise, not approx
            assert answer.source == "exact"
            assert answer.unit == "range"
            assert not answer.refine
            assert not answer.hot  # first touch decodes from disk
            again = await service.ask(Query(side=256.0, probability=0.9))
            assert again.hot
            assert again.value == ROW_256["r90"]
            return answer

        run(with_service(service, body))

    def test_forward_query_returns_a_probability(self, tmp_path):
        spec = make_spec()
        service = QueryService(warm_store(tmp_path, spec), spec)

        async def body():
            answer = await service.ask(Query(side=256.0, range=3.0))
            assert answer.unit == "probability"
            assert answer.value == 0.9
            assert answer.source == "exact"

        run(with_service(service, body))

    def test_nodes_address_the_same_cell_as_the_side(self, tmp_path):
        spec = make_spec()
        service = QueryService(warm_store(tmp_path, spec), spec)

        async def body():
            by_side = await service.ask(Query(side=256.0, probability=0.9))
            by_nodes = await service.ask(Query(nodes=16, probability=0.9))
            assert by_nodes.value == by_side.value
            assert by_nodes.hot  # the side query warmed the same cell

        run(with_service(service, body))

    def test_between_grid_points_interpolates_monotonically(self, tmp_path):
        spec = make_spec()
        service = QueryService(warm_store(tmp_path, spec), spec)

        async def body():
            low = await service.ask(Query(side=256.0, probability=0.9))
            mid = await service.ask(Query(side=640.0, probability=0.9))
            high = await service.ask(Query(side=1024.0, probability=0.9))
            assert mid.source == "interpolated"
            assert not mid.refine
            assert low.value <= mid.value <= high.value
            # Larger systems never shrink the critical range on this grid.
            sides = [300.0, 500.0, 700.0, 900.0]
            answers = [
                (await service.ask(Query(side=s, probability=0.9))).value
                for s in sides
            ]
            assert answers == sorted(answers)

        run(with_service(service, body))

    def test_out_of_grid_extrapolates_and_flags_refine(self, tmp_path):
        spec = make_spec()
        service = QueryService(warm_store(tmp_path, spec), spec)

        async def body():
            answer = await service.ask(Query(side=4096.0, probability=0.9))
            assert answer.source == "extrapolated"
            assert answer.refine  # flagged, never silently clamped
            assert answer.value is not None
            assert answer.refine_task is None  # no queue attached

        run(with_service(service, body))

    def test_empty_store_answers_none_and_refines(self, tmp_path):
        spec = make_spec()
        service = QueryService(ResultStore(tmp_path / "store"), spec)

        async def body():
            answer = await service.ask(Query(side=256.0, probability=0.9))
            assert answer.value is None
            assert answer.source == "none"
            assert answer.refine

        run(with_service(service, body))

    def test_confidence_floor_gates_in_grid_refinement(self, tmp_path):
        spec = make_spec()
        store = ResultStore(tmp_path / "store")
        grid = GridIndex(spec)
        checkpoint = grid.checkpoint_for(
            grid.scenario_for("waypoint"), store=store
        )
        checkpoint.save(256.0, ROW_256)  # half the cell: coverage 0.5
        strict = QueryService(store, spec, confidence_floor=1.0)
        lax = QueryService(store, spec, confidence_floor=0.0)

        async def body():
            gated = await strict.ask(Query(side=256.0, probability=0.9))
            assert gated.source == "exact"
            assert gated.refine  # a row exists, but the cell is half done
            assert gated.coverage == 0.5
            trusted = await lax.ask(Query(side=256.0, probability=0.9))
            assert not trusted.refine

        run(with_service(strict, lambda: with_service(lax, body)))

    def test_a_corrupt_row_is_a_miss_not_an_error(self, tmp_path):
        spec = make_spec()
        store = warm_store(tmp_path, spec)
        grid = GridIndex(spec)
        key = grid.checkpoint_for(grid.scenario_for("waypoint")).key_for(256.0)
        payload = store.entry(key)["payload_file"]
        (store.root / "objects" / key[:2] / key / payload).write_bytes(b"garbage")
        service = QueryService(store, spec)
        metrics.drain()

        async def body():
            return await service.ask(Query(side=256.0, probability=0.9))

        answer = run(with_service(service, body))
        assert answer.source != "exact"
        assert answer.refine
        # An exact side's row is read once: its bracket is the same row.
        assert metrics.drain()["query.integrity_misses"]["value"] == 1.0

    def test_a_row_without_thresholds_is_a_miss_not_an_error(self, tmp_path):
        spec = make_spec()
        store = ResultStore(tmp_path / "store")
        grid = GridIndex(spec)
        checkpoint = grid.checkpoint_for(grid.scenario_for("waypoint"), store=store)
        checkpoint.save(256.0, {"l": 256.0, "n": 16.0})
        service = QueryService(store, spec)
        metrics.drain()

        async def body():
            return await service.ask(Query(side=256.0, probability=0.9))

        answer = run(with_service(service, body))
        assert answer.value is None
        # An exact side's row is read once: its bracket is the same row.
        assert metrics.drain()["query.unfittable_rows"]["value"] == 1.0

    def test_hot_cache_is_bounded_lru(self, tmp_path):
        spec = make_spec()
        service = QueryService(warm_store(tmp_path, spec), spec, cache_cells=1)

        async def body():
            await service.ask(Query(side=256.0, probability=0.9))
            await service.ask(Query(side=1024.0, probability=0.9))
            assert service.stats()["cache_cells"] == 1
            # 256 was evicted by 1024; re-asking it is cold again.
            again = await service.ask(Query(side=256.0, probability=0.9))
            assert not again.hot

        run(with_service(service, body))


class TestRefineRoundTrip:
    def test_refine_enqueues_once_and_completes_into_a_hot_hit(self, tmp_path):
        spec = make_spec()
        store = warm_store(tmp_path, spec)
        queue = WorkQueue(RetryPolicy(max_retries=1), lease_seconds=30.0)
        queue.seal()
        service = QueryService(store, spec, queue=queue)
        ask = Query(side=16.0, probability=0.9)  # tiny, below the grid

        async def body():
            first = await service.ask(ask)
            assert first.refine
            assert first.source == "extrapolated"
            assert first.refine_task is not None
            assert queue.stats()["pending"] == 1

            # Re-asking must not enqueue a duplicate.
            second = await service.ask(ask)
            assert second.refine_task == first.refine_task
            assert queue.stats()["total"] == 1

            # Complete the task exactly as `campaign work` does: lease,
            # run the pickled closure, publish the pickled row.
            grant = queue.lease("test-worker")
            assert grant["status"] == "ok"
            function, args, kwargs = pickle.loads(grant["payload"])
            row = function(*args, **kwargs)
            assert row["l"] == 16.0
            queue.publish_result(
                grant["task"], "test-worker", pickle.dumps(row)
            )

            for _ in range(200):  # let the drain task fold the result in
                if service.stats()["pending_refines"] == 0:
                    break
                await asyncio.sleep(0.05)
            assert service.stats()["pending_refines"] == 0

            refined = await service.ask(ask)
            assert refined.hot  # promoted straight into the hot cache
            assert refined.source == "exact"
            assert refined.value == row["r90"]
            return row

        row = run(with_service(service, body))
        # The refinement persisted through the campaign's own checkpoint.
        grid = GridIndex(spec)
        checkpoint = grid.checkpoint_for(
            grid.scenario_for("waypoint"), store=store
        )
        assert store.get(checkpoint.key_for(16.0)) == row

    def test_a_poisoned_refinement_can_be_requested_again(self, tmp_path):
        spec = make_spec()
        queue = WorkQueue(RetryPolicy(max_retries=0), lease_seconds=30.0)
        queue.seal()
        service = QueryService(warm_store(tmp_path, spec), spec, queue=queue)
        ask = Query(side=16.0, probability=0.9)
        metrics.drain()

        async def body():
            first = await service.ask(ask)
            grant = queue.lease("test-worker")
            queue.publish_error(grant["task"], "test-worker", "worker failed")
            for _ in range(200):
                if service.stats()["pending_refines"] == 0:
                    break
                await asyncio.sleep(0.05)
            assert service.stats()["pending_refines"] == 0
            again = await service.ask(ask)
            assert again.refine_task not in (None, first.refine_task)
            assert queue.stats()["total"] == 2

        run(with_service(service, body))
        assert metrics.drain()["query.refines_poisoned"]["value"] == 1.0

    def test_refinement_stops_at_four_times_the_largest_side(self, tmp_path):
        spec = make_spec()  # smoke sides 256 and 1024: the bound is 4096
        queue = WorkQueue(RetryPolicy(max_retries=0), lease_seconds=30.0)
        queue.seal()
        service = QueryService(warm_store(tmp_path, spec), spec, queue=queue)
        metrics.drain()

        async def body():
            huge = await service.ask(Query(nodes=1_000_000, probability=0.9))
            assert huge.source == "extrapolated"
            assert huge.value is not None
            assert not huge.refine
            assert huge.refine_task is None
            assert queue.stats()["total"] == 0
            just_past = await service.ask(Query(side=1025.0, probability=0.9))
            assert just_past.refine and just_past.refine_task is not None
            assert queue.stats()["total"] == 1
            at_bound = await service.ask(Query(side=4096.0, probability=0.9))
            assert at_bound.refine and at_bound.refine_task is not None
            above = await service.ask(Query(side=4096.5, probability=0.9))
            assert not above.refine
            assert queue.stats()["total"] == 2

        run(with_service(service, body))
        assert metrics.drain()["query.refines_refused"]["value"] == 2.0

    def test_refined_row_survives_a_service_restart(self, tmp_path):
        spec = make_spec()
        store = warm_store(tmp_path, spec)
        grid = GridIndex(spec)
        checkpoint = grid.checkpoint_for(
            grid.scenario_for("waypoint"), store=store
        )
        off_grid = {
            "l": 16.0, "n": 4.0, "rstationary": 1.0,
            "r0": 0.5, "r10": 0.7, "r90": 1.2, "r100": 1.5,
        }
        checkpoint.save(16.0, off_grid)
        service = QueryService(store, spec)

        async def body():
            answer = await service.ask(Query(side=16.0, probability=0.9))
            assert answer.source == "exact"
            assert answer.value == off_grid["r90"]
            # A refined row is real measured data: no further refinement.
            assert not answer.refine

        run(with_service(service, body))


class TestKeyTable:
    def test_hot_asks_normalize_no_payload(self, tmp_path, monkeypatch):
        # Every key comes from the grid's key table: once it is built, a
        # hot question renders no canonical JSON, on any host.
        spec = make_spec()
        service = QueryService(warm_store(tmp_path, spec), spec)
        exact = Query(side=256.0, probability=0.9)
        midpoint = Query(side=640.0, probability=0.9)
        calls = []
        original = store_keys.normalize

        def counting(value):
            calls.append(value)
            return original(value)

        async def body():
            await service.ask(exact)  # decode both cells once
            await service.ask(midpoint)
            monkeypatch.setattr(store_keys, "normalize", counting)
            answers = [await service.ask(q) for q in (exact, midpoint) * 3]
            assert all(answer.hot for answer in answers)
            assert {answer.source for answer in answers} == {
                "exact", "interpolated"
            }

        run(with_service(service, body))
        assert calls == []


class TestTelemetry:
    def test_query_metrics_land_in_the_run_report(self, tmp_path):
        spec = make_spec()
        store = warm_store(tmp_path, spec)
        handle = telemetry.start_run(tmp_path / "telemetry", campaign="query")
        service = QueryService(store, spec)

        async def body():
            await service.ask(Query(side=256.0, probability=0.9))
            await service.ask(Query(side=256.0, probability=0.9))
            await service.ask(Query(side=4096.0, probability=0.9))

        run(with_service(service, body))
        telemetry.flush()
        report_path = handle.finish()
        report = json.loads(report_path.read_text())
        metrics = report["metrics"]
        assert metrics["query.requests"]["value"] == 3.0
        assert metrics["query.hot_hits"]["value"] == 1.0
        assert metrics["query.cold_misses"]["value"] == 2.0
        assert metrics["query.out_of_grid"]["value"] == 1.0
        assert "query.hot_seconds" in metrics
        assert "query.cold_seconds" in metrics


class TestParseQueryDocument:
    def test_parses_string_fields_from_a_get_query(self):
        query = parse_query_document(
            {"model": "waypoint", "side": "256", "probability": "0.9"}
        )
        assert query == Query(model="waypoint", side=256.0, probability=0.9)

    def test_unknown_fields_are_rejected_not_defaulted(self):
        with pytest.raises(QueryError, match="probabilty"):
            parse_query_document({"side": "256", "probabilty": "0.9"})

    def test_malformed_numbers_are_rejected(self):
        with pytest.raises(QueryError, match="malformed"):
            parse_query_document({"side": "huge", "probability": "0.9"})


async def http_request(url, method, path, document=None):
    """One raw HTTP/1.1 exchange against the asyncio front end."""
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    reader, writer = await asyncio.open_connection(parts.hostname, parts.port)
    body = b"" if document is None else json.dumps(document).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {parts.hostname}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    writer.write(head.encode("ascii") + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, BrokenPipeError):
        pass
    header, _, payload = raw.partition(b"\r\n\r\n")
    return int(header.split()[1]), json.loads(payload)


class TestHTTPFrontEnd:
    def serve(self, tmp_path, body):
        spec = make_spec()
        service = QueryService(warm_store(tmp_path, spec), spec)

        async def main():
            server = QueryHTTPServer(service)
            url = await server.start()
            try:
                return await body(url)
            finally:
                await server.close()

        return run(main())

    def test_health_and_stats(self, tmp_path):
        async def body(url):
            status, document = await http_request(url, "GET", "/health")
            assert (status, document) == (200, {"status": "ok"})
            status, document = await http_request(url, "GET", "/stats")
            assert status == 200
            assert document["models"] == ["waypoint"]

        self.serve(tmp_path, body)

    def test_ask_via_post_and_get_agree(self, tmp_path):
        async def body(url):
            status, posted = await http_request(
                url, "POST", "/ask", {"side": 256.0, "probability": 0.9}
            )
            assert status == 200
            assert posted["value"] == ROW_256["r90"]
            assert posted["unit"] == "range"
            assert not posted["refine"]
            status, queried = await http_request(
                url, "GET", "/ask?side=256&probability=0.9"
            )
            assert status == 200
            assert queried["value"] == posted["value"]
            assert queried["hot"]  # the POST warmed the cell

        self.serve(tmp_path, body)

    def test_bad_queries_are_400s(self, tmp_path):
        async def body(url):
            status, document = await http_request(url, "POST", "/ask", {})
            assert status == 400
            assert "side" in document["error"]
            status, document = await http_request(
                url, "POST", "/ask", {"side": 256.0, "probability": 2.0}
            )
            assert status == 400
            status, _ = await http_request(url, "GET", "/nowhere")
            assert status == 404

        self.serve(tmp_path, body)

    @pytest.mark.parametrize("method", ["GET", "POST"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "field, other",
        [("side", "probability"), ("probability", "side"), ("range", "side")],
    )
    def test_non_finite_numbers_are_400s(self, tmp_path, field, other, value, method):
        # Python's json reads and writes the Infinity and NaN literals, so a
        # POST can carry them as well as a GET.
        valid = {"side": 256.0, "probability": 0.9}
        document = {field: float(value), other: valid[other]}

        async def body(url):
            if method == "GET":
                return await http_request(url, "GET", "/ask?" + urlencode(document))
            return await http_request(url, "POST", "/ask", document)

        status, answer = self.serve(tmp_path, body)
        assert status == 400
        assert f"{field} must be finite" in answer["error"]

    @pytest.mark.parametrize("nodes", [float("inf"), 10**200], ids=["infinite", "huge"])
    def test_node_counts_past_any_side_are_400s(self, tmp_path, nodes):
        async def body(url):
            return await http_request(
                url, "POST", "/ask", {"nodes": nodes, "probability": 0.9}
            )

        status, _ = self.serve(tmp_path, body)
        assert status == 400

    def test_unknown_paths_share_one_latency_histogram(self, tmp_path):
        metrics.drain()

        async def body(url):
            for index in range(20):
                status, _ = await http_request(url, "GET", f"/nowhere/{index}")
                assert status == 404
            await http_request(url, "GET", "/")
            await http_request(url, "GET", "/health")
            await http_request(url, "GET", "/ask?side=256&probability=0.9")

        self.serve(tmp_path, body)
        recorded = {
            name: snapshot["count"]
            for name, snapshot in metrics.drain().items()
            if name.startswith("query.http.")
        }
        assert recorded == {
            "query.http.unrouted_seconds": 21,
            "query.http.health_seconds": 1,
            "query.http.ask_seconds": 1,
        }

    def test_a_handler_bug_is_a_500_and_the_server_keeps_serving(
        self, tmp_path, monkeypatch
    ):
        async def broken(self, query):
            raise RuntimeError("boom")

        monkeypatch.setattr(QueryService, "ask", broken)

        async def body(url):
            status, document = await http_request(
                url, "GET", "/ask?side=256&probability=0.9"
            )
            assert status == 500
            assert "boom" in document["error"]
            assert await http_request(url, "GET", "/health") == (200, {"status": "ok"})

        self.serve(tmp_path, body)

    def test_stalled_request_is_answered_408_and_closed(
        self, tmp_path, monkeypatch
    ):
        deadline = 0.2
        monkeypatch.setattr(query_http, "_READ_DEADLINE_SECONDS", deadline)

        async def body(url):
            parts = urlsplit(url)
            reader, writer = await asyncio.open_connection(
                parts.hostname, parts.port
            )
            writer.write(b"GET /health HT")  # ... and then nothing more
            await writer.drain()
            started = time.monotonic()
            try:
                # read() returns only once the server closes the connection.
                raw = await asyncio.wait_for(reader.read(), deadline + 1.0)
            finally:
                writer.close()
            assert time.monotonic() - started <= deadline + 1.0
            head = raw.partition(b"\r\n\r\n")[0]
            assert head.split()[1] == b"408"
            assert b"Connection: close" in head
            # A request that arrives in time is still answered.
            status, document = await http_request(url, "GET", "/health")
            assert (status, document) == (200, {"status": "ok"})

        self.serve(tmp_path, body)


def respond_to(tmp_path, raw):
    """Status :meth:`QueryHTTPServer._respond` gives the raw request bytes."""
    spec = make_spec()
    server = QueryHTTPServer(QueryService(warm_store(tmp_path, spec), spec))

    async def main():
        reader = asyncio.StreamReader()  # start_server's default 64 KiB limit
        reader.feed_data(raw)
        reader.feed_eof()
        status, _ = await server._respond(reader)
        return status

    return run(main())


class TestRequestFraming:
    @pytest.mark.parametrize(
        "raw",
        [
            b"POST /ask HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
            b"POST /ask HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
            b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
            b'POST /ask HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"side": 256',
            b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * 40_000
            + b"\r\nContent-Length: 40000\r\n\r\n" + b" " * 40_000,
            b"",
            b"GET\r\n\r\n",
            b"GET /health HTTP/1.1\r\n"
            + (b"X-Pad: " + b"a" * 1_000 + b"\r\n") * 70 + b"\r\n",
            b"POST /ask HTTP/1.1\r\nContent-Length: 0x10\r\n\r\n" + b" " * 16,
            # A valid /ask document, padded past the limit.
            b"POST /ask HTTP/1.1\r\nContent-Length: 100000\r\n\r\n"
            + b'{"side": 256.0, "probability": 0.9}'.ljust(100_000),
            b"POST /ask HTTP/1.1\r\nContent-Length: 5\r\n\r\nside=",
            b"POST /ask HTTP/1.1\r\nContent-Length: 2\r\n\r\n[]",
        ],
        ids=[
            "non-integer-length",
            "negative-length",
            "request-line-over-limit",
            "header-line-over-limit",
            "body-shorter-than-length",
            "body-counts-toward-limit",
            "empty-request",
            "request-line-without-target",
            "headers-over-limit",
            "hexadecimal-length",
            "length-over-limit",
            "ask-body-not-json",
            "ask-body-not-an-object",
        ],
    )
    def test_malformed_framing_is_a_400(self, tmp_path, raw):
        assert respond_to(tmp_path, raw) == 400

    def test_other_methods_on_ask_are_405s(self, tmp_path):
        assert respond_to(tmp_path, b"DELETE /ask HTTP/1.1\r\n\r\n") == 405

    def test_well_formed_health_request_is_a_200(self, tmp_path):
        raw = b"GET /health HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
        assert respond_to(tmp_path, raw) == 200

    @pytest.mark.parametrize("extra, status", [(0, 200), (1, 400)], ids=["at", "above"])
    def test_limit_covers_line_headers_and_body_inclusively(
        self, tmp_path, extra, status
    ):
        head = b"GET /health HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        # The length has five digits either way, so the head's size is fixed.
        length = _MAX_REQUEST_BYTES - len(head % 10_000) + extra
        raw = head % length + b" " * length
        assert len(raw) == _MAX_REQUEST_BYTES + extra
        assert respond_to(tmp_path, raw) == status

    def test_well_formed_ask_with_a_body_is_answered(self, tmp_path):
        body = json.dumps({"side": 256.0, "probability": 0.9}).encode("utf-8")
        raw = b"POST /ask HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body
        assert respond_to(tmp_path, raw) == 200
