"""The online verification service: wire protocol, gateway end-to-end,
poison isolation, and online/offline report identity."""

import asyncio
import dataclasses
import os
import subprocess
import sys

import pytest

from repro import PG_SERIALIZABLE, OnlineVerifier, Verifier
from repro import pipeline_from_client_streams
from repro.__main__ import main
from repro.core.codec import encode_batch
from repro.core.io import dump_client_streams, load_client_streams
from repro.core.report import report_fingerprint
from repro.core.trace import SEQ_BITS, Trace
from repro.service import (
    IngestGateway,
    ServiceConfig,
    ServiceProtocolError,
    create_gateway,
)
from repro.service import protocol
from repro.service.load import (
    LoadConfig,
    drive_client,
    initial_db,
    iter_frames,
    offline_fingerprint,
    query_status,
    run_load_sync,
    synthetic_stream,
)
from tests.conftest import with_nan_timestamps
from tests.test_online import REFUSAL, REFUSAL_DB, refusal_streams


# -- protocol frames -----------------------------------------------------------


class TestProtocolFrames:
    def test_control_frames_round_trip(self):
        cases = [
            (protocol.hello_frame(42), protocol.F_HELLO, {"client_id": 42}),
            (
                protocol.heartbeat_frame(1.5),
                protocol.F_HEARTBEAT,
                {"now": 1.5},
            ),
            (protocol.bye_frame(), protocol.F_BYE, {}),
            (
                protocol.welcome_frame(7, 8),
                protocol.S_WELCOME,
                {"session_id": 7, "credit": 8},
            ),
            (protocol.credit_frame(3), protocol.S_CREDIT, {"frames": 3}),
            (protocol.pause_frame(), protocol.S_PAUSE, {}),
            (protocol.resume_frame(), protocol.S_RESUME, {}),
            (
                protocol.error_frame(9, 1234, "bad frame"),
                protocol.S_ERROR,
                {"session_id": 9, "byte_offset": 1234, "message": "bad frame"},
            ),
            (
                protocol.bye_ack_frame(100),
                protocol.S_BYE,
                {"traces_accepted": 100},
            ),
        ]
        for frame, expect_tag, expect_fields in cases:
            payload = frame[protocol.PREFIX_SIZE :]
            tag, body = protocol.split_frame(payload)
            assert tag == expect_tag
            assert protocol.parse_control(tag, body) == expect_fields

    def test_every_tag_has_a_name(self):
        for tag in (
            protocol.F_HELLO,
            protocol.F_TRACES,
            protocol.F_HEARTBEAT,
            protocol.F_BYE,
            protocol.S_WELCOME,
            protocol.S_CREDIT,
            protocol.S_PAUSE,
            protocol.S_RESUME,
            protocol.S_ERROR,
            protocol.S_BYE,
        ):
            assert tag in protocol.TAG_NAMES

    def test_large_varints_round_trip(self):
        # Deterministic trace ids pack the client id above bit 40.
        frame = protocol.hello_frame(2**53)
        tag, body = protocol.split_frame(frame[protocol.PREFIX_SIZE :])
        assert protocol.parse_control(tag, body)["client_id"] == 2**53

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ServiceProtocolError, match="trailing"):
            protocol.parse_control(protocol.F_BYE, b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ServiceProtocolError, match="unknown frame tag"):
            protocol.parse_control(0x7F, b"")

    def test_error_formats_session_and_offset(self):
        err = ServiceProtocolError("boom", session_id=3, byte_offset=99)
        assert "session 3" in str(err)
        assert "byte offset 99" in str(err)
        assert err.reason == "boom"


class TestFrameReader:
    def _reader(self, data: bytes) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return reader

    def test_clean_eof_returns_none(self):
        async def scenario():
            return await protocol.read_frame(self._reader(b""))

        assert asyncio.run(scenario()) is None

    def test_truncated_prefix_raises(self):
        async def scenario():
            await protocol.read_frame(self._reader(b"\x01\x02"))

        with pytest.raises(ServiceProtocolError, match="length prefix"):
            asyncio.run(scenario())

    def test_truncated_payload_raises(self):
        async def scenario():
            await protocol.read_frame(self._reader(b"\x08\x00\x00\x00\x01"))

        with pytest.raises(ServiceProtocolError, match="payload"):
            asyncio.run(scenario())

    def test_oversize_frame_refused_before_allocation(self):
        huge = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "little")

        async def scenario():
            await protocol.read_frame(self._reader(huge))

        with pytest.raises(ServiceProtocolError, match="cap"):
            asyncio.run(scenario())

    def test_bad_magic_raises(self):
        async def scenario():
            await protocol.read_magic(self._reader(b"not the service magic!!"))

        with pytest.raises(ServiceProtocolError, match="stream"):
            asyncio.run(scenario())


# -- gateway end-to-end --------------------------------------------------------


def _quick_cfg(tmp_path, **overrides) -> LoadConfig:
    defaults = dict(
        traces=640,
        sessions=4,
        frame_traces=16,
        session_credit=4,
        pending_budget=5_000,
        gc_every=64,
        socket_dir=str(tmp_path),
    )
    defaults.update(overrides)
    return LoadConfig(**defaults)


def _gateway(cfg: LoadConfig, tmp_path) -> IngestGateway:
    return IngestGateway(
        ServiceConfig(
            spec=cfg.spec,
            initial_db=initial_db(cfg),
            ingest_unix=os.path.join(str(tmp_path), "ingest.sock"),
            status_unix=os.path.join(str(tmp_path), "status.sock"),
            gc_every=cfg.gc_every,
            session_credit=cfg.session_credit,
            pending_budget=cfg.pending_budget,
        )
    )


class TestGatewayEndToEnd:
    def test_concurrent_clients_match_offline_fingerprint(self, tmp_path):
        cfg = _quick_cfg(tmp_path)

        async def scenario():
            gateway = _gateway(cfg, tmp_path)
            await gateway.start()
            ingest = gateway.ingest_endpoint
            status = gateway.status_endpoint
            try:
                gate = asyncio.Barrier(cfg.sessions)
                stats = await asyncio.gather(
                    *(
                        drive_client(
                            ingest, c, iter_frames(cfg, c), start_gate=gate
                        )
                        for c in range(cfg.sessions)
                    )
                )
                mid = await query_status(status, "status")
                drained = await query_status(status, "drain")
                final = await query_status(status, "report")
            finally:
                await gateway.aclose()
            return gateway, stats, mid, drained, final

        gateway, stats, mid, drained, final = asyncio.run(scenario())

        # Every client's whole stream was accepted and acked.
        per_client = cfg.actual_traces // cfg.sessions
        assert [s["acked"] for s in stats] == [per_client] * cfg.sessions
        assert not any(s["errors"] for s in stats)
        assert gateway.traces_total == cfg.actual_traces

        # Status counters agree with the online verifier's own snapshot.
        snapshot = gateway.online.snapshot()
        assert mid["verifier"]["dispatched"] == snapshot["dispatched"]
        assert mid["service"]["traces"] == gateway.traces_total
        assert mid["service"]["sessions_total"] == cfg.sessions
        assert mid["budget"]["pending_peak"] == gateway.pending_peak

        # The drained report is byte-identical to the offline batch run.
        assert drained["ok"] and drained["report_ok"]
        assert final["fingerprint"] == drained["fingerprint"]
        assert drained["fingerprint"] == offline_fingerprint(cfg)
        assert gateway.pending_peak <= cfg.pending_budget

    def test_budget_is_a_hard_ceiling_under_pressure(self, tmp_path):
        """A budget far below the workload forces the gate to trip, and
        the predictive margin (budget - in-flight credit capacity) keeps
        the pending peak under the configured ceiling anyway -- while
        the drained report stays byte-identical to the offline run."""
        cfg = _quick_cfg(
            tmp_path,
            traces=1280,
            session_credit=2,
            pending_budget=160,
        )
        # in-flight capacity: 4 sessions x 2 credits x 16-trace frames =
        # 128, so the gate trips as soon as 32 events sit pending.
        assert cfg.sessions * cfg.session_credit * cfg.frame_traces < 160

        async def scenario():
            gateway = _gateway(cfg, tmp_path)
            await gateway.start()
            try:
                gate = asyncio.Barrier(cfg.sessions)
                stats = await asyncio.gather(
                    *(
                        drive_client(
                            gateway.ingest_endpoint,
                            c,
                            iter_frames(cfg, c),
                            start_gate=gate,
                        )
                        for c in range(cfg.sessions)
                    )
                )
                drained = await query_status(gateway.status_endpoint, "drain")
            finally:
                await gateway.aclose()
            return gateway, stats, drained

        gateway, stats, drained = asyncio.run(scenario())
        assert not any(s["errors"] for s in stats)
        assert gateway.traces_total == cfg.actual_traces
        assert gateway.stalls_total > 0
        assert gateway.pending_peak <= cfg.pending_budget
        assert drained["ok"] and drained["report_ok"]
        assert drained["fingerprint"] == offline_fingerprint(cfg)

    def test_disconnect_and_reconnect_resumes_cursor(self, tmp_path):
        cfg = _quick_cfg(tmp_path, sessions=2)

        async def partial_session(path, client_id, frames, gate):
            """Send ``frames`` without BYE, then drop the connection."""
            reader, writer = await asyncio.open_unix_connection(path)
            writer.write(protocol.SERVICE_MAGIC + protocol.hello_frame(client_id))
            await writer.drain()
            payload = await protocol.read_frame(reader)
            tag, _ = protocol.split_frame(payload)
            assert tag == protocol.S_WELCOME
            await gate.wait()
            for frame in frames:
                writer.write(frame)
                await writer.drain()
                # One credit comes back per drained frame.
                payload = await protocol.read_frame(reader)
                tag, _ = protocol.split_frame(payload)
                assert tag == protocol.S_CREDIT
            writer.close()
            await writer.wait_closed()

        async def scenario():
            gateway = _gateway(cfg, tmp_path)
            await gateway.start()
            ingest = gateway.ingest_endpoint
            try:
                frames = list(iter_frames(cfg, 0))
                half = len(frames) // 2
                gate = asyncio.Barrier(2)
                # Client 1 streams its whole history; client 0's first
                # session drops mid-stream without BYE, then a fresh
                # session resumes the same client id from its cursor.
                other = asyncio.ensure_future(
                    drive_client(
                        ingest, 1, iter_frames(cfg, 1), start_gate=gate
                    )
                )
                await partial_session(ingest, 0, frames[:half], gate)
                resumed = await drive_client(ingest, 0, iter(frames[half:]))
                stats = [resumed, await other]
                report = await gateway.drain()
            finally:
                await gateway.aclose()
            return gateway, stats, report

        gateway, stats, report = asyncio.run(scenario())
        per_client = cfg.actual_traces // cfg.sessions
        # The reconnected session acks only its own frames; the totals
        # still cover both full streams.
        assert stats[1]["acked"] == per_client
        assert gateway.traces_total == cfg.actual_traces
        assert report.ok
        from repro.core.report import report_fingerprint

        assert report_fingerprint(report) == offline_fingerprint(cfg)

    def test_heartbeat_advances_idle_client(self, tmp_path):
        cfg = _quick_cfg(tmp_path, sessions=2)

        async def scenario():
            gateway = _gateway(cfg, tmp_path)
            await gateway.start()
            ingest = gateway.ingest_endpoint
            try:
                # Client 1 connects but only heartbeats: without the
                # heartbeat, client 0's traces would stay staged forever.
                reader, writer = await asyncio.open_unix_connection(ingest)
                writer.write(
                    protocol.SERVICE_MAGIC + protocol.hello_frame(1)
                )
                await writer.drain()
                await protocol.read_frame(reader)  # WELCOME
                writer.write(protocol.heartbeat_frame(10.0**6))
                await writer.drain()

                await drive_client(ingest, 0, iter_frames(cfg, 0))
                dispatched = gateway.online.snapshot()["dispatched"]
                writer.write(protocol.bye_frame())
                await writer.drain()
                await protocol.read_frame(reader)  # BYE_ACK
                writer.close()
                await writer.wait_closed()
                await gateway.drain()
            finally:
                await gateway.aclose()
            return dispatched

        dispatched = asyncio.run(scenario())
        assert dispatched == cfg.actual_traces // cfg.sessions


# -- poison isolation ----------------------------------------------------------


class TestPoisonFrames:
    def _bad_client(self, path, client_id, bad_payload):
        """Connect, handshake, send one poison frame, return the ERROR."""

        async def run():
            reader, writer = await asyncio.open_unix_connection(path)
            try:
                writer.write(
                    protocol.SERVICE_MAGIC + protocol.hello_frame(client_id)
                )
                await writer.drain()
                payload = await protocol.read_frame(reader)
                tag, body = protocol.split_frame(payload)
                expected_offset = len(protocol.SERVICE_MAGIC) + len(
                    protocol.hello_frame(client_id)
                )
                if tag == protocol.S_ERROR:
                    # Refused at HELLO (e.g. an evicted client rejoining).
                    return protocol.parse_control(tag, body), expected_offset
                assert tag == protocol.S_WELCOME
                writer.write(bad_payload)
                await writer.drain()
                while True:
                    payload = await protocol.read_frame(reader)
                    if payload is None:
                        return None, expected_offset
                    tag, body = protocol.split_frame(payload)
                    if tag == protocol.S_ERROR:
                        return (
                            protocol.parse_control(tag, body),
                            expected_offset,
                        )
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

        return run()

    def test_error_carries_session_and_byte_offset(self, tmp_path):
        cfg = _quick_cfg(tmp_path, sessions=1)

        async def scenario():
            gateway = _gateway(cfg, tmp_path)
            await gateway.start()
            try:
                error, offset = await self._bad_client(
                    gateway.ingest_endpoint,
                    0,
                    protocol.traces_frame(b"\xff garbage bytes \xff"),
                )
            finally:
                await gateway.aclose()
            return gateway, error, offset

        gateway, error, offset = asyncio.run(scenario())
        assert error is not None
        assert error["session_id"] == 1
        assert error["byte_offset"] == offset
        assert gateway.errors_total == 1
        assert gateway.evictions_total == 1
        assert gateway.errors[-1]["byte_offset"] == offset

    def test_unsorted_frame_is_poison(self, tmp_path):
        cfg = _quick_cfg(tmp_path, sessions=1)
        backwards = [
            Trace.write(5.0, 5.1, "tz", {("acct", 0): {"v": 1}}, client_id=0),
            Trace.write(1.0, 1.1, "ty", {("acct", 0): {"v": 2}}, client_id=0),
        ]

        async def scenario():
            gateway = _gateway(cfg, tmp_path)
            await gateway.start()
            try:
                error, _ = await self._bad_client(
                    gateway.ingest_endpoint,
                    0,
                    protocol.traces_frame(encode_batch(backwards)),
                )
            finally:
                await gateway.aclose()
            return error

        error = asyncio.run(scenario())
        assert error is not None and "monotone" in error["message"]

    def test_bad_client_does_not_stall_other_sessions(self, tmp_path):
        cfg = _quick_cfg(tmp_path, sessions=3)

        async def scenario():
            gateway = _gateway(cfg, tmp_path)
            await gateway.start()
            ingest = gateway.ingest_endpoint
            try:
                # The poison client registers in watermark accounting and
                # then sends garbage: without eviction, its -inf floor
                # would hold the watermark (and every session) forever.
                bad = self._bad_client(
                    ingest,
                    99,
                    protocol.traces_frame(b"\x00 not a batch"),
                )
                gate = asyncio.Barrier(cfg.sessions)
                good = asyncio.gather(
                    *(
                        drive_client(
                            ingest, c, iter_frames(cfg, c), start_gate=gate
                        )
                        for c in range(cfg.sessions)
                    )
                )
                (error, _), stats = await asyncio.wait_for(
                    asyncio.gather(bad, good), timeout=30
                )
                report = await gateway.drain()
            finally:
                await gateway.aclose()
            return gateway, error, stats, report

        gateway, error, stats, report = asyncio.run(scenario())
        assert error is not None
        per_client = cfg.actual_traces // cfg.sessions
        assert [s["acked"] for s in stats] == [per_client] * cfg.sessions
        assert report.ok
        # The poisoned stream contributed nothing; the good streams'
        # report is still byte-identical to the offline run.
        from repro.core.report import report_fingerprint

        assert report_fingerprint(report) == offline_fingerprint(cfg)

    def test_nan_timestamps_are_poison(self, tmp_path):
        """A ``TRACES`` frame whose timestamps are NaN is refused at
        decode, to its own session at its own offset, instead of being
        staged where the dispatch order never releases it; the other
        sessions drain to the offline report."""
        cfg = _quick_cfg(tmp_path, sessions=2)
        poison = with_nan_timestamps(
            Trace.write(1.0, 1.1, "tnan", {("acct", 0): {"v": 1}}, client_id=99)
        )
        open_, reply = TestRefusedAtDispatch._open, TestRefusedAtDispatch._reply

        async def scenario():
            gateway = _gateway(cfg, tmp_path)
            await gateway.start()
            ingest = gateway.ingest_endpoint
            try:
                reader, writer, session = await open_(ingest, 99)
                writer.write(protocol.traces_frame(encode_batch([poison])))
                await writer.drain()
                error = await reply(reader)
                writer.close()
                await writer.wait_closed()
                stats = await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            drive_client(ingest, c, iter_frames(cfg, c))
                            for c in range(cfg.sessions)
                        )
                    ),
                    timeout=30,
                )
                report = await gateway.drain()
            finally:
                await gateway.aclose()
            return session, error, stats, report

        session, (tag, error), stats, report = asyncio.run(scenario())
        assert tag == protocol.S_ERROR
        assert error["session_id"] == session
        assert error["byte_offset"] == len(protocol.SERVICE_MAGIC) + len(
            protocol.hello_frame(99)
        )
        assert "nan" in error["message"]
        per_client = cfg.actual_traces // cfg.sessions
        assert [s["acked"] for s in stats] == [per_client] * cfg.sessions
        assert report_fingerprint(report) == offline_fingerprint(cfg)

    def test_evicted_client_cannot_rejoin(self, tmp_path):
        cfg = _quick_cfg(tmp_path, sessions=1)

        async def scenario():
            gateway = _gateway(cfg, tmp_path)
            await gateway.start()
            ingest = gateway.ingest_endpoint
            try:
                await self._bad_client(
                    ingest, 0, protocol.traces_frame(b"junk")
                )
                # The same client id comes back: refused at HELLO.
                error, _ = await self._bad_client(
                    ingest, 0, protocol.bye_frame()
                )
            finally:
                await gateway.aclose()
            return error

        error = asyncio.run(scenario())
        assert error is not None and "evicted" in error["message"]


class TestRefusedAtDispatch:
    """A trace the verifier refuses is found at dispatch, inside whichever
    session's frame moved the watermark -- possibly not the offender's.
    It costs the offender its stream and nobody else anything."""

    @staticmethod
    async def _open(path, client_id):
        reader, writer = await asyncio.open_unix_connection(path)
        writer.write(protocol.SERVICE_MAGIC + protocol.hello_frame(client_id))
        await writer.drain()
        tag, body = protocol.split_frame(await protocol.read_frame(reader))
        assert tag == protocol.S_WELCOME
        return reader, writer, protocol.parse_control(tag, body)["session_id"]

    @staticmethod
    async def _reply(reader):
        payload = await asyncio.wait_for(protocol.read_frame(reader), timeout=10)
        if payload is None:
            return None, None
        tag, body = protocol.split_frame(payload)
        return tag, protocol.parse_control(tag, body)

    @pytest.mark.parametrize("first", [2, 1], ids=["serial-c2-c1", "serial-c1-c2"])
    def test_offender_evicted_feeder_unharmed(self, tmp_path, first):
        streams = refusal_streams()
        frames = {
            c: protocol.traces_frame(encode_batch(streams[c])) for c in streams
        }

        async def scenario():
            gateway = IngestGateway(
                ServiceConfig(
                    spec=PG_SERIALIZABLE,
                    initial_db=REFUSAL_DB,
                    ingest_unix=os.path.join(str(tmp_path), "ingest.sock"),
                    status_unix=os.path.join(str(tmp_path), "status.sock"),
                    gc_every=2,
                )
            )
            await gateway.start()
            path = gateway.ingest_endpoint
            try:
                conns = {c: await self._open(path, c) for c in (1, 2)}
                second = 3 - first
                # The first frame waits on the other client's floor ...
                conns[first][1].write(frames[first])
                assert (await self._reply(conns[first][0]))[0] == protocol.S_CREDIT
                # ... the second one's advance dispatches both, and meets
                # client 1's read in the committed transaction ``a``.
                conns[second][1].write(frames[second])
                error = await self._reply(conns[1][0])
                assert await self._reply(conns[1][0]) == (None, None)  # closed
                if second == 2:  # the feeder was not the offender: credited
                    assert (await self._reply(conns[2][0]))[0] == protocol.S_CREDIT
                # Client 2's session is alive and its stream complete.
                conns[2][1].write(protocol.bye_frame())
                bye = await self._reply(conns[2][0])
                # Client 1 may not come back.
                reader, writer = await asyncio.open_unix_connection(path)
                writer.write(protocol.SERVICE_MAGIC + protocol.hello_frame(1))
                rejoin = await self._reply(reader)
                writer.close()
                for _, writer, _ in conns.values():
                    writer.close()
                report = await gateway.drain()
            finally:
                await gateway.aclose()
            return gateway, conns, error, bye, rejoin, report

        gateway, conns, error, bye, rejoin, report = asyncio.run(scenario())
        # The ERROR went to client 1, with an offset into its own stream:
        # the frame being processed when it was the one feeding, the next
        # frame boundary when client 2's frame found the offence.
        offset = len(protocol.SERVICE_MAGIC) + len(protocol.hello_frame(1))
        if first == 1:
            offset += len(frames[1])
        session = conns[1][2]
        assert error == (
            protocol.S_ERROR,
            {"session_id": session, "byte_offset": offset, "message": REFUSAL},
        )
        assert gateway.errors[0] == {
            "session": session, "client": 1, "byte_offset": offset, "error": REFUSAL,
        }
        assert (gateway.errors_total, gateway.evictions_total) == (2, 1)
        assert "evicted" in gateway.errors[1]["error"]  # the refused rejoin
        assert rejoin[0] == protocol.S_ERROR and "evicted" in rejoin[1]["message"]
        assert bye == (protocol.S_BYE, {"traces_accepted": 4})
        # What ran is what the report says ran: everything but client 1's
        # suffix, ``b`` committed and checked, ``a2`` never seen.
        assert gateway.online.dispatched == report.stats.traces_processed == 6
        assert report.stats.txns_committed == 2
        assert gateway.online.pending == 0

        survivors = refusal_streams()
        survivors[1] = survivors[1][:2]
        offline = Verifier(spec=PG_SERIALIZABLE, initial_db=REFUSAL_DB, gc_every=2)
        for batch in pipeline_from_client_streams(survivors).iter_batches():
            offline.process_batch(batch)
        assert gateway.fingerprint == report_fingerprint(offline.finish())


class TestLateJoiner:
    """A session whose first trace sorts in front of one already
    dispatched cannot be merged soundly; a timestamp *tie* with the
    dispatched trace is such a trace when its id is lower."""

    def test_tie_with_the_dispatched_trace_is_poison(self, tmp_path):
        db = {"x": {"v": 0}, "y": {"v": 0}, "z": {"v": 0}}
        streams = {
            1: [
                Trace.write(5.0, 5.1, "a", {"x": 1}, client_id=1),
                Trace.commit(7.0, 7.1, "a", client_id=1, op_index=1),
            ],
            2: [
                Trace.write(5.0, 5.1, "b", {"y": 1}, client_id=2),
                Trace.commit(6.0, 6.1, "b", client_id=2, op_index=1),
            ],
            3: [
                Trace.write(5.0, 5.1, "c", {"z": 1}, client_id=3),
                Trace.commit(6.5, 6.6, "c", client_id=3, op_index=1),
            ],
        }
        frames = {
            c: [protocol.traces_frame(encode_batch([t])) for t in stream]
            for c, stream in streams.items()
        }
        reply = TestRefusedAtDispatch._reply

        async def scenario():
            gateway = IngestGateway(
                ServiceConfig(
                    spec=PG_SERIALIZABLE,
                    initial_db=db,
                    ingest_unix=os.path.join(str(tmp_path), "ingest.sock"),
                    status_unix=os.path.join(str(tmp_path), "status.sock"),
                    gc_every=2,
                )
            )
            await gateway.start()
            path = gateway.ingest_endpoint
            try:
                conns = {c: await TestRefusedAtDispatch._open(path, c) for c in (2, 3)}
                # (5.0, 2 << 40) goes as soon as client 3 stages (5.0, 3 << 40).
                for c in (2, 3):
                    conns[c][1].write(frames[c][0])
                    assert (await reply(conns[c][0]))[0] == protocol.S_CREDIT
                assert gateway.online.dispatched == 1
                # Client 1 joins late, tied at 5.0 with a lower id.
                conns[1] = await TestRefusedAtDispatch._open(path, 1)
                conns[1][1].write(frames[1][0])
                error = await reply(conns[1][0])
                assert await reply(conns[1][0]) == (None, None)  # closed
                for c in (2, 3):
                    conns[c][1].write(frames[c][1])
                    assert (await reply(conns[c][0]))[0] == protocol.S_CREDIT
                for c in (2, 3):
                    conns[c][1].write(protocol.bye_frame())
                    assert (await reply(conns[c][0]))[0] == protocol.S_BYE
                for _, writer, _ in conns.values():
                    writer.close()
                report = await gateway.drain()
            finally:
                await gateway.aclose()
            return gateway, conns[1][2], error, report

        gateway, session, error, report = asyncio.run(scenario())
        offset = len(protocol.SERVICE_MAGIC) + len(protocol.hello_frame(1))
        tag, fields = error
        assert tag == protocol.S_ERROR
        assert (fields["session_id"], fields["byte_offset"]) == (session, offset)
        assert "behind the last dispatched" in fields["message"]
        assert gateway.evictions_total == 1
        assert report.stats.traces_processed == gateway.online.dispatched == 4
        survivors = {c: streams[c] for c in (2, 3)}
        for client_id, stream in survivors.items():
            for seq, trace in enumerate(stream):
                trace.trace_id = (client_id << SEQ_BITS) | seq
        offline = Verifier(spec=PG_SERIALIZABLE, initial_db=db, gc_every=2)
        for batch in pipeline_from_client_streams(survivors).iter_batches():
            offline.process_batch(batch)
        assert gateway.fingerprint == report_fingerprint(offline.finish())


# -- status endpoint -----------------------------------------------------------


class TestStatusQueries:
    def _boot(self, tmp_path, cfg):
        gateway = _gateway(cfg, tmp_path)

        async def ask(*requests):
            await gateway.start()
            try:
                return [
                    await query_status(gateway.status_endpoint, r)
                    for r in requests
                ]
            finally:
                await gateway.aclose()

        return gateway, ask

    def test_ping_and_unknown(self, tmp_path):
        _, ask = self._boot(tmp_path, _quick_cfg(tmp_path))
        pong, unknown = asyncio.run(ask("ping", "definitely-not-a-query"))
        assert pong == {"ok": True, "q": "ping", "pong": True}
        assert not unknown["ok"]
        assert unknown["known"] == [
            "ping",
            "status",
            "violations",
            "metrics",
            "drain",
            "report",
        ]

    def test_report_before_drain_is_an_error(self, tmp_path):
        _, ask = self._boot(tmp_path, _quick_cfg(tmp_path))
        (resp,) = asyncio.run(ask("report"))
        assert not resp["ok"] and "drain" in resp["error"]

    def test_violations_empty_and_windowed(self, tmp_path):
        _, ask = self._boot(tmp_path, _quick_cfg(tmp_path))
        resp, *refused = asyncio.run(
            ask(
                '{"q": "violations", "offset": 0, "limit": 10}',
                # A negative bound would slice from the tail while echoing
                # the offset back: refused like a non-integer.
                '{"q": "violations", "offset": -3}',
                '{"q": "violations", "limit": -1}',
                '{"q": "violations", "offset": "x"}',
            )
        )
        assert resp["ok"] and resp["total"] == 0 and resp["violations"] == []
        for answer in refused:
            assert answer["ok"] is False and answer["q"] == "violations"
            assert "non-negative integers" in answer["error"]

    def test_refuses_connections_while_draining(self, tmp_path):
        cfg = _quick_cfg(tmp_path, sessions=1)

        async def scenario():
            gateway = _gateway(cfg, tmp_path)
            await gateway.start()
            try:
                await drive_client(
                    gateway.ingest_endpoint, 0, iter_frames(cfg, 0)
                )
                drained = await query_status(gateway.status_endpoint, "drain")
                again = await query_status(gateway.status_endpoint, "drain")
            finally:
                await gateway.aclose()
            return drained, again

        drained, again = asyncio.run(scenario())
        assert drained["ok"] and again["ok"]
        # Idempotent: the second drain returns the same fingerprint.
        assert drained["fingerprint"] == again["fingerprint"]


# -- deterministic stamping ----------------------------------------------------


class TestSyntheticWorkload:
    def test_stream_is_monotone_and_unique(self):
        cfg = LoadConfig(traces=400, sessions=4)
        seen = set()
        for client in range(cfg.sessions):
            last = float("-inf")
            for trace in synthetic_stream(cfg, client):
                assert trace.ts_bef > last
                last = trace.ts_bef
                assert trace.ts_bef not in seen
                seen.add(trace.ts_bef)


# -- one id scheme: offline files == the gateway, ties included ----------------


def _tied_streams(clients=(0, 1, 2), txns=24):
    """Every client runs on the same timestamp grid, so operation ``k``
    of every client carries the same ``ts_bef``: cross-client order is
    decided by the trace ids alone."""
    streams = {}
    for client in clients:
        key = ("acct", client)
        stream = streams[client] = []
        for j in range(txns):
            txn, t = f"c{client}x{j}", float(3 * j)
            stream.append(
                Trace.write(t, t + 0.5, txn, {key: {"v": j + 1}}, client_id=client)
            )
            stream.append(
                Trace.commit(t + 1, t + 1.5, txn, client_id=client, op_index=1)
            )
    return streams


def _order(traces):
    return [(t.ts_bef, t.client_id, t.trace_id) for t in traces]


class TestOneIdScheme:
    """Offline capture files and the gateway both stamp ``client_id <<
    SEQ_BITS | seq`` at decode.  With equal ``ts_bef`` on every client the
    dispatch order is then ``(ts_bef, client_id, arrival)`` on both, trace
    ids included, and the reports are byte-identical."""

    def _offline(self, directory, db):
        dispatched = []
        verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=db)
        pipeline = pipeline_from_client_streams(load_client_streams(directory))
        for batch in pipeline.iter_batches():
            dispatched.extend(batch)
            verifier.process_batch(batch)
        return _order(dispatched), report_fingerprint(verifier.finish())

    def _served(self, streams, db, tmp_path, monkeypatch):
        dispatched = []
        plain = OnlineVerifier._dispatch

        def recording(self, batch):
            dispatched.extend(batch)
            return plain(self, batch)

        monkeypatch.setattr(OnlineVerifier, "_dispatch", recording)
        frames = {
            client: [
                protocol.traces_frame(encode_batch(stream[i : i + 10]))
                for i in range(0, len(stream), 10)
            ]
            for client, stream in streams.items()
        }

        async def scenario():
            gateway = create_gateway(
                ServiceConfig(
                    initial_db=db,
                    ingest_unix=str(tmp_path / "ingest.sock"),
                    status_unix=str(tmp_path / "status.sock"),
                )
            )
            await gateway.start()
            try:
                gate = asyncio.Barrier(len(streams))
                stats = await asyncio.gather(
                    *(
                        drive_client(
                            gateway.ingest_endpoint,
                            client,
                            iter(client_frames),
                            start_gate=gate,
                        )
                        for client, client_frames in frames.items()
                    )
                )
                report = await gateway.drain()
            finally:
                await gateway.aclose()
            return stats, report

        stats, report = asyncio.run(scenario())
        assert [s["errors"] for s in stats] == [[]] * len(stats)
        return _order(dispatched), report_fingerprint(report)

    def test_tied_timestamps_dispatch_identically_everywhere(
        self, tmp_path, monkeypatch
    ):
        streams = _tied_streams()
        db = {("acct", client): {"v": 0} for client in streams}
        expected = [
            (t.ts_bef, client, (client << SEQ_BITS) + seq)
            for client, stream in streams.items()
            for seq, t in enumerate(stream)
        ]
        expected.sort()
        runs = {}
        for fmt in ("binary", "jsonl"):
            dump_client_streams(streams, tmp_path / fmt, fmt=fmt)
            runs[fmt] = self._offline(tmp_path / fmt, db)
        runs["served"] = self._served(streams, db, tmp_path, monkeypatch)
        for name, (order, _fingerprint) in runs.items():
            assert order == expected, name
        assert len({fingerprint for _, fingerprint in runs.values()}) == 1


# -- one loop: drain identity, lean imports, the refused tier ------------------

#: A gateway that starts, ingests one TRACES frame and drains must not
#: have loaded what only the offline ``verify --parallel`` needs.
_LEAN_SERVE_SCRIPT = r"""
import asyncio, sys, tempfile
from repro.core.codec import encode_batch
from repro.core.trace import Trace
from repro.service import ServiceConfig, create_gateway, protocol

async def scenario(sockets):
    gateway = create_gateway(
        ServiceConfig(ingest_unix=sockets + "/i.sock", status_unix=sockets + "/s.sock")
    )
    await gateway.start()
    try:
        reader, writer = await asyncio.open_unix_connection(gateway.ingest_endpoint)
        batch = [Trace.write(1.0, 1.5, "t", {"k": {"v": 1}}, client_id=0),
                 Trace.commit(2.0, 2.5, "t", client_id=0, op_index=1)]
        writer.write(protocol.SERVICE_MAGIC + protocol.hello_frame(0)
                     + protocol.traces_frame(encode_batch(batch)) + protocol.bye_frame())
        await writer.drain()
        while (payload := await protocol.read_frame(reader)) is not None:
            tag, body = protocol.split_frame(payload)
            if tag == protocol.S_BYE:
                assert protocol.parse_control(tag, body) == {"traces_accepted": 2}
        writer.close()
        await writer.wait_closed()
        report = await gateway.drain()
    finally:
        await gateway.aclose()
    assert report.ok and gateway.traces_total == 2

with tempfile.TemporaryDirectory(prefix="repro-svc-test-") as sockets:
    asyncio.run(scenario(sockets))
heavy = ["repro.core.parallel", "repro.core.sharding", "multiprocessing", "ctypes"]
assert not [m for m in heavy if m in sys.modules], sorted(sys.modules)
"""


class TestOneLoop:
    def test_drain_equals_offline_and_capture_files(self, tmp_path):
        """The drained gateway, the offline run over the same streams
        and the run over the same streams read back from capture files
        fingerprint identically: all three stamp their trace ids at
        decode."""
        cfg = _quick_cfg(tmp_path, poll_interval=0.1)
        doc = run_load_sync(cfg)
        assert doc["fingerprints_match"], doc
        assert doc["traces_accepted"] == doc["traces"]
        assert doc["client_errors"] == 0
        assert doc["report_ok"] is True
        dump_client_streams(
            {c: synthetic_stream(cfg, c) for c in range(cfg.sessions)},
            tmp_path / "capture",
            fmt="binary",
        )
        verifier = Verifier(
            spec=cfg.spec, initial_db=initial_db(cfg), gc_every=cfg.gc_every
        )
        pipeline = pipeline_from_client_streams(
            load_client_streams(tmp_path / "capture"), batch_size=cfg.frame_traces
        )
        for batch in pipeline.iter_batches():
            verifier.process_batch(batch)
        assert report_fingerprint(verifier.finish()) == doc["online_fingerprint"]

    def test_serial_gateway_imports_stay_lean(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        child = subprocess.run(
            [sys.executable, "-c", _LEAN_SERVE_SCRIPT],
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert child.returncode == 0, child.stderr

    def test_more_than_one_acceptor_is_refused(self, capsys):
        """The multi-loop tier is retired: the library refuses it, the
        CLI exits 2, and both point at docs/service.md; ``--workers 0``
        is no longer coerced to 1."""
        assert type(create_gateway(ServiceConfig(acceptor_workers=1))) is IngestGateway
        with pytest.raises(ValueError, match=r"docs/service\.md"):
            create_gateway(ServiceConfig(acceptor_workers=2))
        for argv, told in (
            (["serve", "--workers", "2"], "docs/service.md"),
            (["serve", "--workers", "0"], "invalid choice"),
            (["serve", "--workers", "-3"], "invalid choice"),
        ):
            with pytest.raises(SystemExit) as refusal:
                main(argv)
            assert refusal.value.code == 2
            assert told in capsys.readouterr().err

    def test_no_sharded_backend(self, capsys):
        """The service runs one serial verifier: the sharded backend, its
        flags and its config fields were retired (docs/service.md
        section 8); argparse refuses the flags like any unknown one."""
        assert not {"shards", "backend"} & {
            field.name for field in dataclasses.fields(ServiceConfig)
        }
        for flag in ("--parallel", "--parallel-backend"):
            with pytest.raises(SystemExit) as refusal:
                main(["serve", flag, "2"])
            assert refusal.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestDamagedStreams:
    """A stream damaged anywhere ends its session in bounded time, and
    only its session: truncated at every byte offset, or with any byte
    outside the ``TRACES`` bodies flipped (magic, length prefixes, tags,
    control bodies -- the codec tests cover body damage).  Each variant
    runs on its own session and client id and closes its write side
    after sending; it ends in an ``ERROR`` naming its own session at an
    offset no later than the damaged byte, in a close with no reply, or
    -- for a flip that still decodes to a legal frame -- in acceptance.
    A clean client registered before them and fed after them has every
    trace accepted, and the gateway still answers ``status`` and
    drains."""

    #: two-byte varint client ids, so every variant's stream has one layout
    FIRST_CLIENT = 200

    @staticmethod
    def _stream(client_id):
        """magic, HELLO, two TRACES, HEARTBEAT, BYE -- and the byte ranges
        of the two TRACES bodies."""
        txn = f"t{client_id:05d}"
        frames = [
            protocol.hello_frame(client_id),
            protocol.traces_frame(
                encode_batch(
                    [
                        Trace.write(
                            1.0, 1.1, txn, {("dmg", client_id): {"v": 1}},
                            client_id=client_id,
                        ),
                    ]
                )
            ),
            protocol.traces_frame(
                encode_batch([Trace.commit(2.0, 2.1, txn, client_id=client_id)])
            ),
            protocol.heartbeat_frame(3.0),
            protocol.bye_frame(),
        ]
        stream = bytearray(protocol.SERVICE_MAGIC)
        bodies = []
        for frame in frames:
            if frame[protocol.PREFIX_SIZE] == protocol.F_TRACES:
                start = len(stream) + protocol.PREFIX_SIZE + 1
                bodies.append(range(start, len(stream) + len(frame)))
            stream += frame
        heartbeat = len(stream) - len(frames[-1]) - 8
        return bytes(stream), bodies, range(heartbeat, heartbeat + 8)

    @staticmethod
    async def _send(path, data):
        """Send ``data``, close the write side, read every reply until
        the server closes."""
        reader, writer = await asyncio.open_unix_connection(path)
        try:
            writer.write(data)
            await writer.drain()
            writer.write_eof()
            replies = []
            while True:
                try:
                    payload = await protocol.read_frame(reader)
                except (ServiceProtocolError, ConnectionError):
                    break
                if payload is None:
                    break
                tag, body = protocol.split_frame(payload)
                replies.append((tag, protocol.parse_control(tag, body)))
            return replies
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def test_damaged_streams_end_in_bounded_time(self, tmp_path):
        template, bodies, heartbeat = self._stream(self.FIRST_CLIENT)
        damages = [("cut", offset) for offset in range(len(template))]
        damages += [
            ("flip", offset)
            for offset in range(len(template))
            if not any(offset in body for body in bodies)
        ]
        cfg = _quick_cfg(tmp_path, sessions=1)
        clean_frames = list(iter_frames(cfg, 0))

        async def scenario():
            gateway = _gateway(cfg, tmp_path)
            await gateway.start()
            ingest = gateway.ingest_endpoint
            try:
                # The clean client joins first and holds the watermark
                # until every variant has had its say: no variant's
                # traces can fall behind a dispatched one.
                clean = await TestRefusedAtDispatch._open(ingest, 0)
                outcomes = []
                for number, (kind, offset) in enumerate(damages):
                    client = self.FIRST_CLIENT + number
                    stream, _, _ = self._stream(client)
                    assert len(stream) == len(template)
                    if kind == "cut":
                        data = stream[:offset]
                    else:
                        data = bytearray(stream)
                        data[offset] ^= 0xFF
                        data = bytes(data)
                    replies = await asyncio.wait_for(
                        self._send(ingest, data), timeout=10
                    )
                    outcomes.append((kind, offset, number + 2, replies))
                reader, writer, _ = clean
                for frame in clean_frames:
                    writer.write(frame)
                writer.write(protocol.bye_frame())
                await writer.drain()
                acked = None
                while acked is None:
                    tag, body = await TestRefusedAtDispatch._reply(reader)
                    assert tag in (protocol.S_CREDIT, protocol.S_BYE), tag
                    if tag == protocol.S_BYE:
                        acked = body["traces_accepted"]
                writer.close()
                await writer.wait_closed()
                status = await query_status(gateway.status_endpoint, "status")
                drained = await asyncio.wait_for(
                    query_status(gateway.status_endpoint, "drain"), timeout=30
                )
            finally:
                await gateway.aclose()
            return outcomes, acked, status, drained

        outcomes, acked, status, drained = asyncio.run(scenario())
        for kind, offset, session, replies in outcomes:
            tags = [tag for tag, _ in replies]
            errors = [body for tag, body in replies if tag == protocol.S_ERROR]
            case = (kind, offset, replies)
            if errors:
                (error,) = errors
                assert tags[-1] == protocol.S_ERROR, case
                assert error["session_id"] == session, case
                assert error["byte_offset"] <= offset, case
            elif protocol.S_BYE in tags:
                assert kind == "flip" and offset in heartbeat, case
                assert replies[-1] == (protocol.S_BYE, {"traces_accepted": 2}), case
            else:
                # Closed with no reply to the damage: nothing but the
                # handshake and the credit for frames that were whole.
                assert set(tags) <= {protocol.S_WELCOME, protocol.S_CREDIT}, case
                assert kind == "cut", case
        assert acked == cfg.actual_traces
        assert status["ok"]
        assert status["service"]["sessions_total"] == len(damages) + 1
        assert status["service"]["errors"] == sum(
            protocol.S_ERROR in (tag for tag, _ in replies)
            for _, _, _, replies in outcomes
        )
        assert drained["ok"]
