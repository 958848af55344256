"""Socket-to-verdict: a ``python -m repro serve`` subprocess driven over
the ``repro.service/v1`` Unix socket from one asyncio thread.

Three processes take part.  The benchmark process starts the server and,
beside it, this file as the *driver* child, which loads the pre-encoded
frames, speaks the protocol and prints what it measured as one JSON line.
The benchmark process itself never imports the program, so it stays small
enough that the server's ``ru_maxrss`` is the server's own.

Two passes exist.  The *closed loop* keeps every session's credit window
full, so a slower server receives less load: it measures the ingest
ceiling.  The *open loop* hands frames over on a fixed schedule whatever
the server does, and times each frame from the moment it was *due* to its
``CREDIT``: it measures latency at a stated rate, queueing included.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from common import (
    LEDGER_DIR,
    ChildRun,
    Timed,
    child_env,
    reap,
    repro_cli,
    require_program,
    run_child,
)

#: traces per ``TRACES`` frame.
FRAME_TRACES = 256
#: open-loop schedule, traces per second: about a third of the closed-loop
#: ceiling on this class of box, so the backlog never grows.
OPEN_LOOP_RATE = 10_000.0


@dataclass
class Frame:
    wire: bytes
    traces: int
    first_ts: float


@dataclass
class ServiceInputs:
    """What set-up leaves behind for the service workload."""

    frames: Dict[int, List[Frame]]
    fingerprint: str
    #: wall time of the same streams through the offline batch path,
    #: in-process: the base of ``service.wall_over_offline``.
    offline_wall_s: float

    @property
    def frame_count(self) -> int:
        return sum(len(frames) for frames in self.frames.values())

    @property
    def trace_count(self) -> int:
        return sum(f.traces for frames in self.frames.values() for f in frames)


def prepare(run, directory: Path) -> None:
    """Set-up side (runs in the set-up child): pre-encode every client's
    stream into wire frames and verify the identically stamped streams
    offline for the reference fingerprint; leave both under ``directory``
    for :func:`load_inputs`."""
    from repro.core.codec import encode_batch
    from repro.core.pipeline import pipeline_from_client_streams
    from repro.core.report import report_fingerprint
    from repro.core.spec import PG_SERIALIZABLE
    from repro.core.verifier import Verifier
    from repro.service import protocol
    from repro.service.sessions import SEQ_BITS

    index: Dict[str, List[List[float]]] = {}
    for client_id, stream in sorted(run.client_streams.items()):
        rows = index[str(client_id)] = []
        with open(directory / f"frames-{client_id}.bin", "wb") as sink:
            for i in range(0, len(stream), FRAME_TRACES):
                chunk = stream[i : i + FRAME_TRACES]
                wire = protocol.traces_frame(encode_batch(chunk))
                sink.write(wire)
                rows.append([len(chunk), chunk[0].ts_bef, len(wire)])
    started = time.perf_counter()
    stamped = {
        client_id: [
            dataclasses.replace(trace, trace_id=(client_id << SEQ_BITS) + seq)
            for seq, trace in enumerate(stream)
        ]
        for client_id, stream in run.client_streams.items()
    }
    verifier = Verifier(spec=PG_SERIALIZABLE, initial_db=run.initial_db)
    pipeline = pipeline_from_client_streams(stamped, batch_size=FRAME_TRACES)
    for batch in pipeline.iter_batches():
        verifier.process_batch(batch)
    fingerprint = report_fingerprint(verifier.finish())
    (directory / "service.json").write_text(
        json.dumps(
            {
                "frames": index,
                "fingerprint": fingerprint,
                "offline_wall_s": time.perf_counter() - started,
            }
        ),
        encoding="utf-8",
    )


def load_inputs(directory: Path) -> ServiceInputs:
    doc = json.loads((directory / "service.json").read_text(encoding="utf-8"))
    frames: Dict[int, List[Frame]] = {}
    for client, rows in doc["frames"].items():
        blob = (directory / f"frames-{client}.bin").read_bytes()
        offset = 0
        frames[int(client)] = []
        for traces, first_ts, size in rows:
            frames[int(client)].append(Frame(blob[offset : offset + size], traces, first_ts))
            offset += size
    return ServiceInputs(frames, doc["fingerprint"], doc["offline_wall_s"])


# -- the server process --------------------------------------------------------


def serve_argv(capture_dir: Path) -> List[str]:
    """The measured server: one event loop, serial verifier."""
    return repro_cli(
        "serve", "--unix", "i.sock", "--status-unix", "s.sock",
        "--initial-db", str(capture_dir / "initial_db.json"), "--workers", "1",
    )


class Server:
    """A server subprocess, ready once it has printed both endpoints.
    Sockets are named relative to ``workdir`` (its cwd) so a deep checkout
    cannot overflow ``sun_path``."""

    def __init__(self, argv: Sequence[str], workdir: Path):
        for name in ("i.sock", "s.sock"):
            (workdir / name).unlink(missing_ok=True)
        env, _ = child_env()
        self._started = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv), cwd=workdir, env=env, stdout=subprocess.PIPE, text=True
        )
        for _ in range(2):
            if not self.proc.stdout.readline():
                self.finish()
                raise RuntimeError("server exited before announcing its endpoints")

    def finish(self) -> ChildRun:
        """Collect the drained server (it exits on its own after a drain)."""
        with self.proc.stdout:
            stdout = self.proc.stdout.read()
        return reap(self.proc, self._started, stdout)

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.finish()


# -- one protocol session ------------------------------------------------------


class Session:
    """A well-behaved client session: honours credit, pairs each
    ``CREDIT`` with the due time of the frame it acknowledges."""

    def __init__(self, client_id: int, reader, writer, credit: int):
        self.client_id = client_id
        self._reader = reader
        self._writer = writer
        self._credit = asyncio.Semaphore(credit)
        self._due: deque = deque()
        self._done = asyncio.Event()
        self.latencies_ms: List[float] = []
        self.errors: List[str] = []
        self.frames_sent = 0
        self.traces_sent = 0
        self.accepted: Optional[int] = None
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, path: str, client_id: int) -> "Session":
        from repro.service import protocol

        reader, writer = await asyncio.open_unix_connection(path)
        writer.write(protocol.SERVICE_MAGIC + protocol.hello_frame(client_id))
        await writer.drain()
        tag, body = protocol.split_frame(await protocol.read_frame(reader))
        if tag != protocol.S_WELCOME:
            raise RuntimeError(f"client {client_id}: expected WELCOME, got {tag:#x}")
        welcome = protocol.parse_control(tag, body)
        return cls(client_id, reader, writer, int(welcome["credit"]))

    async def _read_loop(self) -> None:
        from repro.service import protocol

        try:
            while True:
                payload = await protocol.read_frame(self._reader)
                if payload is None:
                    self.errors.append("server closed the session")
                    return
                tag, body = protocol.split_frame(payload)
                if tag == protocol.S_CREDIT:
                    now = time.perf_counter()
                    for _ in range(int(protocol.parse_control(tag, body)["frames"])):
                        self.latencies_ms.append((now - self._due.popleft()) * 1e3)
                        self._credit.release()
                elif tag == protocol.S_ERROR:
                    self.errors.append(str(protocol.parse_control(tag, body)))
                    return
                elif tag == protocol.S_BYE:
                    self.accepted = int(
                        protocol.parse_control(tag, body)["traces_accepted"]
                    )
                    return
                # PAUSE / RESUME are advisory: credit is the hard gate.
        finally:
            self._done.set()
            # Unblock a sender waiting on credit that will never come.
            self._credit.release()

    async def send(self, frame: Frame, due: float) -> None:
        await self._credit.acquire()
        if self._done.is_set():
            # Pass the wake-up token on: every later send must return too.
            self._credit.release()
            return
        self._due.append(due)
        self._writer.write(frame.wire)
        await self._writer.drain()
        self.frames_sent += 1
        self.traces_sent += frame.traces

    async def close(self) -> None:
        from repro.service import protocol

        try:
            if not self._done.is_set():
                self._writer.write(protocol.bye_frame())
                await self._writer.drain()
            await self._done.wait()
            await self._reader_task
        finally:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def failed_frames(self, planned: int) -> int:
        """Frames that did not make it: never sent, never acknowledged, or
        all of them when the session errored or the server's accepted
        count disagrees with what was sent."""
        if self.errors or self.accepted != self.traces_sent:
            return planned
        return planned - len(self.latencies_ms)


# -- the two passes ------------------------------------------------------------


@dataclass
class Pass:
    """What the driver measured in one pass, plus the reaped server."""

    verdict_s: float
    latencies_ms: List[float]
    frames: int
    traces: int
    failed: int
    problems: List[str]
    status: Dict[str, object]
    drain_ms: float
    late_ms: List[float]
    offered_rate: float
    status_query_ms: List[float]
    offline_wall_s: float
    server: Optional[ChildRun] = None

    def timed(self) -> Timed:
        return Timed(
            verdict_s=self.verdict_s,
            process=self.server,
            traces=self.traces,
            attempted=self.frames,
            failed=self.failed,
            problems=self.problems,
        )


async def _drive(
    inputs: ServiceInputs, ingest: str, status_path: str, open_loop: bool, poll_status: bool
) -> Pass:
    from repro.service.load import query_status

    started = time.perf_counter()
    sessions = {
        client_id: await Session.open(ingest, client_id)
        for client_id in inputs.frames
    }
    late_ms: List[float] = []
    offered_rate = 0.0
    polls: List[float] = []
    stream_over = asyncio.Event()

    async def poll() -> None:
        while not stream_over.is_set():
            tick = time.perf_counter()
            await query_status(status_path, "status")
            polls.append((time.perf_counter() - tick) * 1e3)
            try:
                await asyncio.wait_for(stream_over.wait(), timeout=0.25)
            except asyncio.TimeoutError:
                pass

    poller = asyncio.ensure_future(poll()) if poll_status else None
    if open_loop:
        queues = {client_id: asyncio.Queue() for client_id in sessions}

        async def sender(client_id: int) -> None:
            while True:
                item = await queues[client_id].get()
                if item is None:
                    return
                await sessions[client_id].send(*item)

        senders = [asyncio.ensure_future(sender(c)) for c in sessions]
        schedule = sorted(
            (
                (frame.first_ts, client_id, frame)
                for client_id, frames in inputs.frames.items()
                for frame in frames
            ),
            key=lambda entry: entry[:2],
        )
        origin = time.perf_counter() + 0.05
        offered = 0
        for _ts, client_id, frame in schedule:
            due = origin + offered / OPEN_LOOP_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            # The scheduler never waits for the server, so this is the
            # generator's own lateness.
            late_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
            queues[client_id].put_nowait((frame, due))
            offered += frame.traces
        handed_over = time.perf_counter() + frame.traces / OPEN_LOOP_RATE
        offered_rate = offered / (handed_over - origin)
        for queue in queues.values():
            queue.put_nowait(None)
        await asyncio.gather(*senders)
    else:

        async def stream(client_id: int) -> None:
            for frame in inputs.frames[client_id]:
                await sessions[client_id].send(frame, time.perf_counter())

        await asyncio.gather(*(stream(c) for c in sessions))
    await asyncio.gather(*(s.close() for s in sessions.values()))
    stream_over.set()
    if poller is not None:
        await poller
    # The open loop is not timed to the verdict, so it can afford one last
    # look at the server's own counters before they are gone.
    status = (
        await query_status(status_path, "status") if open_loop else {}
    )
    drain_started = time.perf_counter()
    drained = await query_status(status_path, "drain")
    finished = time.perf_counter()

    problems: List[str] = []
    failed = 0
    for client_id, session in sessions.items():
        planned = len(inputs.frames[client_id])
        bad = session.failed_frames(planned)
        if bad:
            failed += bad
            problems.append(
                f"client {client_id}: {bad}/{planned} frames failed "
                f"(errors={session.errors}, accepted={session.accepted}, "
                f"sent={session.traces_sent})"
            )
    if drained.get("fingerprint") != inputs.fingerprint:
        failed = inputs.frame_count
        problems.append("drained fingerprint != offline reference fingerprint")
    if not drained.get("report_ok", False):
        failed = inputs.frame_count
        problems.append("service reported violations on a clean history")
    return Pass(
        verdict_s=finished - started,
        latencies_ms=[ms for s in sessions.values() for ms in s.latencies_ms],
        frames=inputs.frame_count,
        traces=inputs.trace_count,
        failed=failed,
        problems=problems,
        status=status,
        drain_ms=(finished - drain_started) * 1e3,
        late_ms=late_ms,
        offered_rate=offered_rate,
        status_query_ms=polls,
        offline_wall_s=inputs.offline_wall_s,
    )


def run_pass(
    capture_dir: Path,
    workdir: Path,
    open_loop: bool,
    server_argv: Optional[Sequence[str]] = None,
    poll_status: bool = False,
) -> Pass:
    """One fresh server, one driver child pushing every frame through it,
    drain, reap."""
    server = Server(server_argv or serve_argv(capture_dir), workdir)
    try:
        argv = [sys.executable, str(LEDGER_DIR / "service.py"), str(capture_dir)]
        argv += ["--open-loop"] if open_loop else []
        argv += ["--poll-status"] if poll_status else []
        driver = run_child(argv, cwd=workdir)
        if driver.returncode != 0:
            raise RuntimeError(f"service driver exited {driver.returncode}")
        result = Pass(**json.loads(driver.stdout.splitlines()[-1]))
        result.server = server.finish()
    finally:
        server.kill()
    if result.server.returncode != 0:
        result.failed = result.frames
        result.problems.append(f"server exited {result.server.returncode}")
    return result


def main(argv=None) -> int:
    """The driver child.  Runs with the server's work directory as its cwd,
    so both sockets are reached by their bare names."""
    require_program()
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("capture_dir")
    parser.add_argument("--open-loop", action="store_true")
    parser.add_argument("--poll-status", action="store_true")
    args = parser.parse_args(argv)
    inputs = load_inputs(Path(args.capture_dir))
    result = asyncio.run(
        _drive(inputs, "i.sock", "s.sock", args.open_loop, args.poll_status)
    )
    print(json.dumps(dataclasses.asdict(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
