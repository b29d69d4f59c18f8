"""The serving layer: coalescing conformance, backpressure, lifecycle.

The binding contract (README.md, "Serving"): for ANY admission-window
shape — ``max_batch`` and ``max_linger_us`` — the canonical
response trace of a replayed workload is byte-identical to
request-at-a-time serving (``max_batch=1``) of the same admission
order.  The lockstep conformance tests pin that, error paths included;
the rest of the file covers the service's own machinery: admission
backpressure (``OverloadedError`` + retry-after), graceful drain,
abandon-on-close, the request/response taxonomy, and the CLI.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    InvalidParameterError,
    OverloadedError,
    ReproError,
    ServiceClosedError,
)
from repro.serving import (
    HistogramService,
    Request,
    ServiceConfig,
    WorkloadConfig,
    WorkloadGenerator,
    canonical,
    error_code,
    replay,
)

N, K, EPSILON = 256, 4, 0.35
REFERENCE = np.full(N, 1.0 / N)


def mixed_workload(**overrides) -> WorkloadConfig:
    """A small trace exercising every op, both norms, chains, storms."""
    settings = dict(
        streams=6,
        requests=80,
        seed=3,
        n=N,
        k=K,
        epsilon=EPSILON,
        mix=(
            ("ingest", 4.0),
            ("test", 3.0),
            ("selectivity", 2.0),
            ("learn", 0.5),
            ("min_k", 1.0),
            ("uniformity", 0.5),
            ("identity", 0.5),
        ),
        l1_fraction=0.3,
        chain_after_test=0.4,
        burst_every=32,
        burst_len=12,
        ingest_batch=12,
    )
    settings.update(overrides)
    return WorkloadConfig(**settings)


def build_service(
    names,
    *,
    max_batch,
    linger_us,
    cache_capacity=None,
):
    config_kwargs = dict(
        max_batch=max_batch, max_linger_us=linger_us, max_queue=2048
    )
    if cache_capacity is not None:
        config_kwargs["cache_capacity"] = cache_capacity
    return HistogramService(
        names,
        N,
        K,
        EPSILON,
        config=ServiceConfig(**config_kwargs),
        references={"baseline": REFERENCE},
        reservoir_capacity=N,
        rng=7,
    )


def replay_canonical(
    config,
    *,
    max_batch,
    linger_us,
    clients=24,
    cache_capacity=None,
):
    """Replay ``config``'s trace; return the canonical response trace."""
    generator = WorkloadGenerator(config)
    trace = generator.trace()

    async def run():
        service = build_service(
            generator.stream_names,
            max_batch=max_batch,
            linger_us=linger_us,
            cache_capacity=cache_capacity,
        )
        async with service:
            report = await replay(service, trace, clients=clients, collect=True)
        return report

    report = asyncio.run(run())
    assert report.rejected == 0  # max_queue is sized to the whole trace
    assert len(report.responses) == len(trace)
    return tuple(canonical(response) for response in report.responses)


class TestCoalescingConformance:
    """Coalesced serving == request-at-a-time, byte for byte."""

    def test_window_shapes_match_serial(self):
        config = mixed_workload()
        reference = replay_canonical(config, max_batch=1, linger_us=0.0)
        for max_batch, linger_us in ((4, 0.0), (7, 300.0), (24, 500.0), (96, 1000.0)):
            trace = replay_canonical(
                config, max_batch=max_batch, linger_us=linger_us
            )
            assert trace == reference, (max_batch, linger_us)

    def test_no_warmup_error_paths_match_serial(self):
        # Without warmup (and without storms, whose ingest wave would
        # cover every stream up front), early probes hit quiet streams:
        # the structured empty-stream errors must coalesce identically.
        config = mixed_workload(warmup=False, burst_len=0, requests=60, seed=11)
        reference = replay_canonical(config, max_batch=1, linger_us=0.0)
        errors = [entry for entry in reference if entry[1][0] == ("ok", False)]
        assert errors  # the workload does exercise the error path
        trace = replay_canonical(config, max_batch=16, linger_us=400.0)
        assert trace == reference

    def test_coalescing_actually_batches(self):
        config = mixed_workload()
        generator = WorkloadGenerator(config)
        trace = generator.trace()

        async def run():
            service = build_service(
                generator.stream_names, max_batch=64, linger_us=500.0
            )
            async with service:
                await replay(service, trace, clients=24)
            return service.stats

        stats = asyncio.run(run())
        assert stats["served"] == len(trace)
        assert stats["batches"] < len(trace)  # windows really folded
        assert stats["largest_batch"] > 1
        assert stats["coalesced"] > 0


class TestResponseCache:
    """The generation-keyed response cache: hits are byte-identical,
    mutations fence and invalidate, capacity bounds entries."""

    def test_cache_on_matches_cache_off_byte_identically(self):
        # The acceptance criterion: for a requery-heavy workload, every
        # response byte is independent of whether the cache served it.
        config = mixed_workload(requery_bias=0.6, requests=100, seed=21)
        reference = replay_canonical(
            config, max_batch=1, linger_us=0.0, cache_capacity=0
        )
        for max_batch, linger_us in ((1, 0.0), (16, 400.0), (96, 1000.0)):
            trace = replay_canonical(
                config, max_batch=max_batch, linger_us=linger_us
            )
            assert trace == reference, (max_batch, linger_us)

    def test_repeat_probe_hits_and_mutation_invalidates(self):
        async def run():
            service = build_service(["a", "b"], max_batch=8, linger_us=0.0)
            async with service:
                await service.submit(Request.ingest("a", list(range(32))))
                first = await service.submit(Request.test("a"))
                second = await service.submit(Request.test("a"))
                hits_after_repeat = service.stats["cache_hits"]
                await service.submit(Request.ingest("a", [1, 2, 3]))
                third = await service.submit(Request.test("a"))
            return first, second, third, hits_after_repeat, service.stats

        first, second, third, hits_after_repeat, stats = asyncio.run(run())
        assert first.ok and second.ok and third.ok
        assert canonical(second) == canonical(first)
        assert hits_after_repeat == 1
        # The post-ingest probe re-executed: its generation key moved.
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] >= 2

    def test_pending_mutation_fences_cached_reads(self):
        async def run():
            service = build_service(["a"], max_batch=8, linger_us=0.0)
            async with service:
                await service.submit(Request.ingest("a", list(range(32))))
                await service.submit(Request.test("a"))
                repeat = await service.submit(Request.test("a"))
                assert repeat.ok and service.stats["cache_hits"] == 1
                lookups_before = (
                    service.stats["cache_hits"] + service.stats["cache_misses"]
                )
                loop = asyncio.get_running_loop()
                ingest = loop.create_task(
                    service.submit(Request.ingest("a", [5, 6, 7]))
                )
                await asyncio.sleep(0)  # ingest enqueued: fence armed
                fenced = await service.submit(Request.test("a"))
                await ingest
                assert not service._pending_mutations  # fence released
            return fenced, lookups_before, service.stats

        fenced, lookups_before, stats = asyncio.run(run())
        assert fenced.ok
        # The fenced probe skipped the cache entirely: neither a hit nor
        # a miss was counted, and it executed after the ingest.
        assert stats["cache_hits"] + stats["cache_misses"] == lookups_before

    def test_capacity_zero_disables_the_cache(self):
        async def run():
            service = build_service(
                ["a"], max_batch=4, linger_us=0.0, cache_capacity=0
            )
            async with service:
                await service.submit(Request.ingest("a", list(range(32))))
                await service.submit(Request.test("a"))
                await service.submit(Request.test("a"))
            return service.stats

        stats = asyncio.run(run())
        assert stats["cache_hits"] == 0 and stats["cache_misses"] == 0

    def test_lru_eviction_bounds_entries(self):
        async def run():
            service = build_service(
                ["a"], max_batch=4, linger_us=0.0, cache_capacity=2
            )
            async with service:
                await service.submit(Request.ingest("a", list(range(32))))
                for start in (0, 8, 16):
                    await service.submit(Request.selectivity("a", start, start + 4))
                assert len(service._cache) == 2
                # The oldest range was evicted: re-probing it misses.
                hits = service.stats["cache_hits"]
                await service.submit(Request.selectivity("a", 0, 4))
                assert service.stats["cache_hits"] == hits
            return service.stats

        asyncio.run(run())

    def test_health_reports_generations(self):
        async def run():
            service = build_service(["a", "b"], max_batch=4, linger_us=0.0)
            async with service:
                before = service.health()["generations"]
                await service.submit(Request.ingest("a", list(range(16))))
                after = service.health()["generations"]
            return before, after

        before, after = asyncio.run(run())
        assert len(before) == len(after) == 2
        assert after[0] > before[0]  # the ingested member moved
        assert after[1] == before[1]  # the quiet member did not


class TestDeadlines:
    def test_spent_budget_rejected_at_admission(self):
        async def run():
            service = build_service(["a"], max_batch=4, linger_us=0.0)
            async with service:
                response = await service.submit(
                    Request.test("a").with_deadline(0)
                )
            return response, service.stats

        response, stats = asyncio.run(run())
        assert not response.ok
        assert response.error_code == "deadline_exceeded"
        assert stats["deadline_hits"] == 1 and stats["served"] == 1

    def test_generous_budget_is_served(self):
        async def run():
            service = build_service(["a"], max_batch=4, linger_us=0.0)
            async with service:
                await service.submit(
                    Request.ingest("a", np.arange(32) % N)
                )
                response = await service.submit(
                    Request.learn("a").with_deadline(3_600_000)
                )
            return response, service.stats

        response, stats = asyncio.run(run())
        assert response.ok
        assert stats["deadline_hits"] == 0

    def test_queued_request_ages_out_before_execution(self):
        # Deterministic pre-execution expiry: hand the collector's
        # window path an entry whose absolute deadline already passed.
        async def run():
            service = build_service(["a"], max_batch=4, linger_us=0.0)
            async with service:
                await service.submit(Request.ingest("a", np.arange(32) % N))
                loop = asyncio.get_running_loop()
                expired = loop.create_future()
                live = loop.create_future()
                service._serve_window(
                    [
                        (
                            Request.learn("a").with_deadline(5.0),
                            expired,
                            loop.time() - 1.0,
                        ),
                        (Request.learn("a"), live, None),
                    ]
                )
                return await expired, await live, service.stats

        expired, live, stats = asyncio.run(run())
        assert not expired.ok and expired.error_code == "deadline_exceeded"
        assert "resubmit" in expired.error[1]
        assert live.ok
        assert stats["deadline_hits"] == 1

    def test_invalid_budgets_are_structured_errors(self):
        import dataclasses

        async def run():
            service = build_service(["a"], max_batch=4, linger_us=0.0)
            responses = []
            async with service:
                for bad in (-5.0, float("nan"), float("inf")):
                    responses.append(
                        await service.submit(
                            dataclasses.replace(
                                Request.learn("a"), deadline_ms=bad
                            )
                        )
                    )
            return responses

        for response in asyncio.run(run()):
            assert response.error_code == "invalid_parameter"
            assert "deadline_ms" in response.error[1]

    def test_with_deadline_validates_and_signature_ignores_it(self):
        request = Request.test("a", norm="l2")
        stamped = request.with_deadline(250.0)
        assert stamped.deadline_ms == 250.0
        assert stamped.signature == request.signature
        assert stamped.with_deadline(None).deadline_ms is None
        with pytest.raises(InvalidParameterError):
            request.with_deadline(-1.0)
        with pytest.raises(InvalidParameterError):
            request.with_deadline(float("inf"))
        assert error_code(DeadlineExceededError("x")) == "deadline_exceeded"

    def test_workload_config_stamps_deadlines(self):
        config = mixed_workload(requests=20, deadline_ms=500.0)
        trace = WorkloadGenerator(config).trace()
        warmup = config.streams
        assert all(
            request.deadline_ms is None for _, request in trace[:warmup]
        )
        assert all(
            request.deadline_ms == 500.0 for _, request in trace[warmup:]
        )


class TestHealthSurface:
    def test_health_reports_service_state(self):
        async def run():
            service = build_service(["a", "b"], max_batch=4, linger_us=0.0)
            async with service:
                await service.submit(Request.ingest("a", np.arange(16) % N))
                return service.health()

        health = asyncio.run(run())
        assert health["streams"] == 2 and health["accepting"]
        assert health["stats"]["served"] == 1
        assert not health["warm_started"]


class TestAdmission:
    def test_unknown_stream_is_a_structured_error(self):
        async def run():
            service = build_service(["a", "b"], max_batch=4, linger_us=0.0)
            async with service:
                return await service.submit(Request.test("nope"))

        response = asyncio.run(run())
        assert not response.ok
        assert response.error_code == "unknown_stream"
        assert "nope" in response.error[1]

    def test_overload_rejects_with_retry_after(self):
        async def run():
            service = HistogramService(
                ["a"],
                N,
                K,
                config=ServiceConfig(
                    max_batch=1, max_linger_us=0.0, max_queue=1, retry_after_s=0.25
                ),
                reservoir_capacity=N,
                rng=1,
            )
            async with service:
                # Tasks enqueue before the collector runs: with a
                # one-deep queue everyone past the first is rejected.
                request = Request.ingest("a", [1, 2, 3])
                tasks = [
                    asyncio.get_running_loop().create_task(service.submit(request))
                    for _ in range(6)
                ]
                results = await asyncio.gather(*tasks, return_exceptions=True)
            return results, service.stats

        results, stats = asyncio.run(run())
        rejections = [r for r in results if isinstance(r, OverloadedError)]
        served = [r for r in results if not isinstance(r, BaseException)]
        assert rejections and served
        assert all(r.retry_after == 0.25 for r in rejections)
        assert error_code(rejections[0]) == "overloaded"
        assert stats["rejected"] == len(rejections)

    def test_hand_built_bogus_op_rejected_at_admission(self):
        # A raw Request with an op the taxonomy doesn't know must come
        # back as a structured error, not poison the coalescer.
        async def run():
            service = build_service(["a"], max_batch=4, linger_us=0.0)
            async with service:
                bogus = await service.submit(Request(op="transmogrify", stream="a"))
                ok = await service.submit(Request.ingest("a", [1]))
            return bogus, ok

        bogus, ok = asyncio.run(run())
        assert bogus.error_code == "invalid_parameter"
        assert "transmogrify" in bogus.error[1]
        assert ok.ok  # the service survived

    def test_non_library_failures_crash_loudly(self):
        # A reference registered as garbage blows up inside the fleet
        # op itself — a programming error, so it propagates unmapped
        # instead of hiding behind an "internal" response.
        async def run():
            service = build_service(["a"], max_batch=4, linger_us=0.0)
            service.register_reference("garbage", "not a distribution")
            async with service:
                await service.submit(Request.ingest("a", [1, 2, 3, 4]))
                with pytest.raises(Exception) as excinfo:
                    await service.submit(Request.identity("a", "garbage"))
                assert not isinstance(excinfo.value, ReproError)

        try:
            asyncio.run(run())
        except Exception as exc:  # close() re-raises the collector crash
            assert not isinstance(exc, ReproError)

    def test_empty_stream_probe_is_structured(self):
        async def run():
            service = build_service(["a", "b"], max_batch=4, linger_us=0.0)
            async with service:
                return await service.submit(Request.min_k("a"))

        response = asyncio.run(run())
        assert not response.ok
        assert response.error_code == "empty_stream"
        assert "'a'" in response.error[1]

    def test_bad_ingest_batch_maps_with_stream_context(self):
        async def run():
            service = build_service(["a", "b"], max_batch=4, linger_us=0.0)
            async with service:
                floats = await service.submit(Request.ingest("b", [0.5, 1.5]))
                out_of_range = await service.submit(Request.ingest("b", [1, N]))
                ok = await service.submit(Request.ingest("b", [1, 2]))
            return floats, out_of_range, ok

        floats, out_of_range, ok = asyncio.run(run())
        assert floats.error_code == "invalid_parameter"
        assert "dtype" in floats.error[1]
        assert out_of_range.error_code == "invalid_parameter"
        assert "outside the domain" in out_of_range.error[1]
        assert ok.ok and ok.result == 2

    def test_unknown_identity_reference_is_structured(self):
        async def run():
            service = build_service(["a"], max_batch=4, linger_us=0.0)
            async with service:
                await service.submit(Request.ingest("a", [1, 2, 3, 4]))
                return await service.submit(Request.identity("a", "mystery"))

        response = asyncio.run(run())
        assert response.error_code == "invalid_parameter"
        assert "mystery" in response.error[1]

    def test_selectivity_range_validated_per_request(self):
        async def run():
            service = build_service(["a"], max_batch=4, linger_us=0.0)
            async with service:
                await service.submit(Request.ingest("a", [1, 2, 3, 4]))
                bad = await service.submit(Request.selectivity("a", 5, N + 9))
                good = await service.submit(Request.selectivity("a", 0, N))
            return bad, good

        bad, good = asyncio.run(run())
        assert bad.error_code == "invalid_parameter"
        assert good.ok and good.result == pytest.approx(1.0)


class TestBatchErrorPaths:
    def test_member_independent_error_fails_the_whole_batch(self):
        # k=0 passes every per-request pre-check; the shared fleet op
        # itself rejects it, and every pending request in the batch
        # gets the same structured error a singleton would.
        async def run():
            service = build_service(["a", "b"], max_batch=8, linger_us=0.0)
            async with service:
                await service.submit(Request.ingest("a", [1, 2, 3, 4]))
                return await service.submit(Request.test("a", k=0))

        response = asyncio.run(run())
        assert response.error_code == "invalid_parameter"

    def test_empty_ingest_batch_is_served(self):
        async def run():
            service = build_service(["a"], max_batch=4, linger_us=0.0)
            async with service:
                return await service.submit(Request.ingest("a", []))

        response = asyncio.run(run())
        assert response.ok and response.result == 0

    def test_introspection_surface(self):
        service = build_service(["a", "b"], max_batch=4, linger_us=0.0)
        assert service.streams == ["a", "b"]
        assert service.config.max_batch == 4
        assert service.maintainer.fleet_size == 2
        assert service.stats["submitted"] == 0
        service.register_reference("extra", REFERENCE)

        async def run():
            async with service:
                await service.submit(Request.ingest("a", [1, 2, 3, 4]))
                return await service.submit(Request.identity("a", "extra"))

        assert asyncio.run(run()).ok


class TestLifecycle:
    def test_drain_serves_backlog_then_refuses(self):
        async def run():
            service = build_service(["a", "b"], max_batch=8, linger_us=0.0)
            await service.start()
            loop = asyncio.get_running_loop()
            tasks = [
                loop.create_task(service.submit(Request.ingest("a", [i])))
                for i in range(5)
            ]
            await asyncio.sleep(0)  # let every task enqueue
            await service.close(drain=True)
            drained = await asyncio.gather(*tasks)
            with pytest.raises(ServiceClosedError):
                await service.submit(Request.ingest("a", [1]))
            return drained

        drained = asyncio.run(run())
        assert all(response.ok for response in drained)

    def test_abandon_fails_pending(self):
        async def run():
            service = build_service(["a"], max_batch=8, linger_us=0.0)
            await service.start()
            loop = asyncio.get_running_loop()
            tasks = [
                loop.create_task(service.submit(Request.ingest("a", [i])))
                for i in range(4)
            ]
            await asyncio.sleep(0)  # enqueue, but never run the collector
            await service.close(drain=False)
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(run())
        assert all(isinstance(r, ServiceClosedError) for r in results)

    def test_close_is_idempotent(self):
        async def run():
            service = build_service(["a", "b"], max_batch=4, linger_us=0.0)
            async with service:
                await service.submit(Request.ingest("a", list(range(16))))
                response = await service.submit(Request.test("a"))
            await service.close()  # second close: no-op
            return response, service

        response, service = asyncio.run(run())
        assert response.ok
        assert service.stats["served"] == 2

    def test_double_start_rejected(self):
        async def run():
            service = build_service(["a"], max_batch=1, linger_us=0.0)
            async with service:
                with pytest.raises(InvalidParameterError):
                    await service.start()

        asyncio.run(run())

    def test_submit_before_start_refused(self):
        async def run():
            service = build_service(["a"], max_batch=1, linger_us=0.0)
            with pytest.raises(ServiceClosedError):
                await service.submit(Request.test("a"))

        asyncio.run(run())


class TestRequestShapes:
    def test_signatures_split_operating_points_not_payloads(self):
        assert (
            Request.ingest("a", [1, 2]).signature
            == Request.ingest("b", [3]).signature
        )
        assert (
            Request.selectivity("a", 0, 5).signature
            == Request.selectivity("b", 9, 12).signature
        )
        assert Request.test("a").signature == Request.test("b").signature
        assert Request.test("a", norm="l1").signature != Request.test("a").signature
        assert Request.test("a", k=5).signature != Request.test("a", k=6).signature
        assert (
            Request.identity("a", "p").signature
            != Request.identity("a", "q").signature
        )
        assert Request.min_k("a", max_k=4).signature != Request.min_k("a").signature
        assert Request.ingest("a", [1]).mutates
        # learn can commit the stored histogram: the service treats it
        # as a mutation (a cache fence), not a pure read.
        assert Request.learn("a").mutates
        assert not Request.test("a").mutates
        assert not Request.selectivity("a", 0, 5).mutates
        assert (
            Request.selectivity("a", 0, 5).cache_key
            != Request.selectivity("a", 0, 6).cache_key
        )
        assert Request.test("a").cache_key == Request.test("b").cache_key
        with pytest.raises(InvalidParameterError):
            _ = Request(op="transmogrify", stream="a").signature

    def test_taxonomy_rejects_foreign_exceptions(self):
        with pytest.raises(TypeError):
            error_code(ValueError("not a library error"))
        assert error_code(ReproError("x")) == "internal"

    def test_service_config_validation(self):
        with pytest.raises(InvalidParameterError):
            ServiceConfig(max_batch=0)
        with pytest.raises(InvalidParameterError):
            ServiceConfig(max_linger_us=-1.0)
        with pytest.raises(InvalidParameterError):
            ServiceConfig(max_queue=0)
        with pytest.raises(InvalidParameterError):
            ServiceConfig(retry_after_s=-0.1)
        with pytest.raises(InvalidParameterError):
            ServiceConfig(cache_capacity=-1)
        assert ServiceConfig(cache_capacity=0).cache_capacity == 0

    def test_service_constructor_validation(self):
        with pytest.raises(InvalidParameterError):
            HistogramService([], N, K)
        with pytest.raises(InvalidParameterError):
            HistogramService(["a", "a"], N, K)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 2.0, -1.0, float("nan")])
    def test_service_rejects_epsilon_outside_unit_interval(self, epsilon):
        with pytest.raises(InvalidParameterError, match=r"epsilon must be in \(0, 1\)"):
            HistogramService(["a"], N, K, epsilon)

    def test_canonical_rejects_unknown_objects(self):
        with pytest.raises(TypeError):
            canonical(object())

    def test_canonical_plain_forms(self):
        assert canonical(np.int64(3)) == 3
        assert canonical(np.array([1, 2])) == ("ndarray", (2,), (1, 2))
        assert canonical({"b": 1, "a": 2}) == (("a", 2), ("b", 1))

    def test_response_retry_after_surfaces_from_the_error_triple(self):
        from repro.serving import Response

        plain = Response(ok=True, op="test", stream="a", result=1)
        assert plain.retry_after is None and plain.error_code is None
        failed = Response(
            ok=False, op="test", stream="a", error=("overloaded", "full", 0.5)
        )
        assert failed.retry_after == 0.5


class TestReplayBackpressure:
    def test_replay_retries_through_overload(self):
        config = mixed_workload(requests=40, seed=13)
        generator = WorkloadGenerator(config)
        trace = generator.trace()

        async def run():
            service = HistogramService(
                generator.stream_names,
                N,
                K,
                EPSILON,
                config=ServiceConfig(
                    max_batch=2, max_linger_us=0.0, max_queue=2,
                    retry_after_s=0.001,
                ),
                references={"baseline": REFERENCE},
                reservoir_capacity=N,
                rng=7,
            )
            async with service:
                return await replay(service, trace, clients=16, max_retries=50)

        report = asyncio.run(run())
        assert report.rejected > 0 and report.retried > 0  # queue of 2 thrashes
        assert report.ok + sum(report.error_counts.values()) == report.requests
        assert "overloaded" not in report.error_counts  # retries recovered all

    def test_replay_gives_up_after_max_retries(self):
        config = mixed_workload(requests=30, seed=17)
        generator = WorkloadGenerator(config)
        trace = generator.trace()

        async def run():
            service = HistogramService(
                generator.stream_names,
                N,
                K,
                EPSILON,
                config=ServiceConfig(
                    max_batch=1, max_linger_us=0.0, max_queue=1,
                    retry_after_s=0.0001,
                ),
                references={"baseline": REFERENCE},
                reservoir_capacity=N,
                rng=7,
            )
            async with service:
                return await replay(service, trace, clients=24, max_retries=0)

        report = asyncio.run(run())
        assert report.error_counts.get("overloaded", 0) > 0
        assert report.ok < report.requests

    def test_replay_rejects_zero_clients(self):
        async def run():
            service = build_service(["a"], max_batch=1, linger_us=0.0)
            async with service:
                with pytest.raises(InvalidParameterError):
                    await replay(service, [], clients=0)

        asyncio.run(run())


class TestCli:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--checkpoint-every", "2"], "--checkpoint-every requires --snapshot-dir"),
            (["--checkpoint-mode", "delta"], "--checkpoint-mode delta requires"),
            (["--max-batch", "0"], "--max-batch must be >= 1"),
            (["--clients", "0"], "--clients must be >= 1"),
            (["--streams", "0"], "--streams must be >= 1"),
            (["--cache-capacity", "-1"], "--cache-capacity must be >= 0"),
            (["--checkpoint-every", "0"], "--checkpoint-every must be >= 1"),
        ],
        ids=[
            "checkpoint-every-no-dir",
            "delta-no-dir",
            "max-batch-0",
            "clients-0",
            "streams-0",
            "cache-capacity-negative",
            "checkpoint-every-0",
        ],
    )
    def test_flag_mistakes_exit_before_any_work(
        self, capsys, monkeypatch, flags, message
    ):
        import repro.serving.cli as cli

        def no_work(*args, **kwargs):
            raise AssertionError("the workload was generated")

        monkeypatch.setattr(cli, "WorkloadGenerator", no_work)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(flags)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err

    def test_repro_serve_runs_both_modes(self, capsys):
        from repro.serving.cli import main

        assert (
            main(
                [
                    "--streams", "3", "--requests", "12", "--n", "128",
                    "--k", "4", "--clients", "6", "--max-batch", "8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[coalesced]" in out and "[one-at-a-time]" in out

    def test_repro_serve_no_baseline(self, capsys):
        from repro.serving.cli import main

        assert (
            main(
                [
                    "--streams", "2", "--requests", "8", "--n", "128",
                    "--k", "4", "--clients", "4", "--no-baseline",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[coalesced]" in out and "[one-at-a-time]" not in out

    def test_repro_serve_snapshot_dir_warm_starts_second_run(
        self, capsys, tmp_path
    ):
        from repro.serving.cli import main

        args = [
            "--streams", "2", "--requests", "8", "--n", "128",
            "--k", "4", "--clients", "4",
            "--snapshot-dir", str(tmp_path), "--checkpoint-every", "1",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "cold start:" in out
        assert "checkpoints:" in out
        assert "[one-at-a-time]" not in out  # snapshot dir implies no baseline
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "warm start: restored" in out

    def test_repro_serve_deadline_flag(self, capsys):
        from repro.serving.cli import main

        assert (
            main(
                [
                    "--streams", "2", "--requests", "8", "--n", "128",
                    "--k", "4", "--clients", "4", "--no-baseline",
                    "--deadline-ms", "60000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "deadline hits" in out
