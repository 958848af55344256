"""Command-line interface: capture / verify round trips, exit codes for
damaged input, start-up imports, the flat-memory ingest bound, and no
configuration read from the environment."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.core.codec import (
    MAGIC,
    RUN,
    CodecError,
    decode_batch,
    dump_traces_binary,
    read_strings,
)
from repro.core.io import dump_initial_db, dump_traces
from repro.core.trace import Trace
from repro.service.load import LoadConfig, initial_db, synthetic_stream
from tests.conftest import with_nan_timestamps

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


class TestRunVerify:
    def test_clean_round_trip(self, tmp_path, capsys):
        capture = tmp_path / "capture"
        assert (
            main(
                [
                    "run",
                    "--workload",
                    "blindw-rw",
                    "--dbms",
                    "postgresql",
                    "--level",
                    "SR",
                    "--txns",
                    "120",
                    "--clients",
                    "4",
                    "--out",
                    str(capture),
                ]
            )
            == 0
        )
        assert list(capture.glob("client-*.jsonl"))
        assert (capture / "initial_db.json").exists()
        assert (
            main(["verify", str(capture), "--dbms", "postgresql", "--level", "SR"])
            == 0
        )
        out = capsys.readouterr().out
        assert "violations      : 0" in out

    def test_binary_format_round_trip(self, tmp_path, capsys):
        capture = tmp_path / "capture"
        assert (
            main(
                [
                    "run",
                    "--workload",
                    "blindw-rw",
                    "--txns",
                    "120",
                    "--clients",
                    "4",
                    "--format",
                    "binary",
                    "--out",
                    str(capture),
                ]
            )
            == 0
        )
        assert list(capture.glob("client-*.rtb"))
        assert not list(capture.glob("client-*.jsonl"))
        assert main(["verify", str(capture)]) == 0
        out = capsys.readouterr().out
        assert "(binary)" in out
        assert "violations      : 0" in out

    def test_faulty_round_trip_exits_nonzero(self, tmp_path, capsys):
        capture = tmp_path / "capture"
        main(
            [
                "run",
                "--workload",
                "lost-update",
                "--dbms",
                "postgresql",
                "--level",
                "SI",
                "--txns",
                "300",
                "--clients",
                "8",
                "--inject",
                "no-fuw",
                "--out",
                str(capture),
            ]
        )
        assert (
            main(["verify", str(capture), "--dbms", "postgresql", "--level", "SI"])
            == 1
        )
        out = capsys.readouterr().out
        assert "lost-update" in out

    def test_unknown_workload(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "--workload",
                    "nope",
                    "--out",
                    str(tmp_path / "c"),
                ]
            )

    def test_unknown_level(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "--workload",
                    "blindw-rw",
                    "--level",
                    "XX",
                    "--out",
                    str(tmp_path / "c"),
                ]
            )

    def test_unsupported_profile_combination(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "--workload",
                    "blindw-rw",
                    "--dbms",
                    "sqlite",
                    "--level",
                    "RC",
                    "--out",
                    str(tmp_path / "c"),
                ]
            )


class TestOtherCommands:
    def test_profiles(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "postgresql" in out and "ME+CR+FUW+SC" in out

    def test_bench_passthrough(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig14" in out


class TestOutOfRangeFlags:
    """A numeric flag out of range ends in one usage error (exit 2) that
    names the flag -- before any capture is read or socket bound."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify", "CAP", "--gc-every", "-1"], "--gc-every"),
            (["verify", "CAP", "--parallel", "2", "--gc-every", "-3"], "--gc-every"),
            (["verify", "CAP", "--parallel", "-2"], "--parallel"),
            (["serve", "--gc-every", "-1"], "--gc-every"),
            (["serve", "--credit", "0"], "--credit"),
        ],
    )
    def test_exit_2_naming_the_flag(self, tmp_path, capsys, argv, flag):
        argv = [str(tmp_path) if arg == "CAP" else arg for arg in argv]
        with pytest.raises(SystemExit) as refusal:
            main(argv)
        assert refusal.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be at least" in err
        assert "Traceback" not in err

    def test_zero_stays_a_value(self, tmp_path, capsys):
        """``--gc-every 0`` (no collection) and ``--parallel 0`` (serial)
        are values, not errors; a non-integer keeps argparse's wording."""
        capture = tmp_path / "capture"
        main(["run", "--workload", "blindw-rw", "--txns", "40", "--clients", "2",
              "--seed", "1", "--out", str(capture)])
        capsys.readouterr()
        assert main(["verify", str(capture), "--gc-every", "0", "--parallel", "0"]) == 0
        with pytest.raises(SystemExit):
            main(["verify", str(capture), "--parallel", "two"])
        assert "invalid int value: 'two'" in capsys.readouterr().err


class TestNewWorkloadsAndFaults:
    def test_insert_scan_with_phantom_fault(self, tmp_path, capsys):
        capture = tmp_path / "capture"
        main(
            [
                "run",
                "--workload",
                "insert-scan",
                "--dbms",
                "postgresql",
                "--level",
                "SR",
                "--txns",
                "250",
                "--clients",
                "8",
                "--inject",
                "phantom",
                "--out",
                str(capture),
            ]
        )
        assert (
            main(["verify", str(capture), "--dbms", "postgresql", "--level", "SR"])
            == 1
        )
        out = capsys.readouterr().out
        assert "phantom" in out

    def test_list_append_clean(self, tmp_path):
        capture = tmp_path / "capture"
        main(
            [
                "run",
                "--workload",
                "list-append",
                "--txns",
                "150",
                "--clients",
                "6",
                "--out",
                str(capture),
            ]
        )
        assert (
            main(["verify", str(capture), "--dbms", "postgresql", "--level", "SR"])
            == 0
        )


# -- damaged input: exit 2, one located line, no report -------------------------

FRAME = 32
#: frames of more than one run, so damage can sit behind a frame's first.
LONG_FRAME = 2 * RUN + 22


def write_capture(directory, traces=1200, clients=3, fmt="binary", frame=FRAME):
    """A clean synthetic capture with several small frames per client."""
    cfg = LoadConfig(traces=traces, sessions=clients)
    directory.mkdir()
    for client in range(clients):
        stream = synthetic_stream(cfg, client)
        if fmt == "binary":
            dump_traces_binary(stream, directory / f"client-{client}.rtb", batch_size=frame)
        else:
            dump_traces(stream, directory / f"client-{client}.jsonl")
    dump_initial_db(initial_db(cfg), directory / "initial_db.json")
    return cfg


def frame_offsets(blob):
    """Byte offset of every frame's length prefix."""
    offsets, pos = [], len(MAGIC)
    while pos < len(blob):
        offsets.append(pos)
        pos += 4 + int.from_bytes(blob[pos : pos + 4], "little")
    return offsets


def damage(path, how):
    """Damage frame 2 of a binary file (or the last line of a JSONL one);
    returns the text the error line must contain.  ``tag-late``,
    ``trailing`` and ``count`` sit in or behind the frame's last record,
    which the reader reaches only after it has yielded the runs in front."""
    blob = path.read_bytes()
    if how == "jsonl-cut":
        lines = blob.splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        return f"line {len(lines)}"
    start = frame_offsets(blob)[2]
    where = f"frame 2 at byte offset {start}"
    if how == "prefix":
        path.write_bytes(blob[: start + 2])
        return where
    if how == "payload":
        path.write_bytes(blob[: start + 4 + 40])
        return where
    size = int.from_bytes(blob[start : start + 4], "little")
    payload = bytearray(blob[start + 4 : start + 4 + size])
    if how in ("tag", "tag-late"):
        # Flip bytes until one lands on a value tag: the first flip (from
        # the front, or from the back) the decoder rejects as an unknown
        # tag is the damage.
        positions = range(len(payload))
        for pos in positions if how == "tag" else reversed(positions):
            flipped = bytearray(payload)
            flipped[pos] = 0x7F
            try:
                decode_batch(bytes(flipped))
            except CodecError as exc:
                if "unknown value tag 127" in str(exc):
                    payload = flipped
                    break
        else:
            raise AssertionError("no tag byte found")
    elif how == "utf8":
        payload[2] = 0xFF  # first byte of the first interned string
    elif how == "trailing":
        payload.append(0)
    else:
        assert how == "count"
        _, pos = read_strings(bytes(payload), 0)
        assert payload[pos] & 0x7F < 0x7F  # room in the varint's low byte
        payload[pos] += 1
    path.write_bytes(
        blob[:start]
        + len(payload).to_bytes(4, "little")
        + bytes(payload)
        + blob[start + 4 + size :]
    )
    return where


PARALLEL = [[], ["--parallel", "2", "--parallel-backend", "inline"]]


class TestDamagedCapture:
    @staticmethod
    def check(tmp_path, capsys, how, extra, frame):
        capture = tmp_path / "cap"
        write_capture(
            capture, fmt="jsonl" if how == "jsonl-cut" else "binary", frame=frame
        )
        victim = sorted(capture.glob("client-1.*"))[0]
        where = damage(victim, how)
        assert main(["verify", str(capture), *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("repro verify: ")
        assert str(victim) in err and where in err

    @pytest.mark.parametrize("extra", PARALLEL, ids=["serial", "parallel2"])
    @pytest.mark.parametrize(
        "how",
        ["prefix", "payload", "tag", "jsonl-cut", "utf8", "trailing", "count"],
    )
    def test_exit_2_and_one_located_line(self, tmp_path, capsys, how, extra):
        self.check(tmp_path, capsys, how, extra, FRAME)

    @pytest.mark.parametrize("extra", PARALLEL, ids=["serial", "parallel2"])
    @pytest.mark.parametrize("how", ["tag-late", "trailing", "count"])
    def test_damage_behind_a_frames_first_run(self, tmp_path, capsys, how, extra):
        """The reader has yielded the damaged frame's first run by the
        time it meets the damage: still exit 2, located, no report."""
        self.check(tmp_path, capsys, how, extra, LONG_FRAME)

    @pytest.mark.parametrize("extra", PARALLEL, ids=["serial", "parallel2"])
    def test_clean_capture_still_exits_0(self, tmp_path, capsys, extra):
        capture = tmp_path / "cap"
        cfg = write_capture(capture)
        assert main(["verify", str(capture), *extra]) == 0
        out, err = capsys.readouterr()
        assert f": {cfg.actual_traces}\n" in out and err == ""

    def test_missing_directory_and_empty_directory(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope")]) == 2
        assert main(["verify", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 2 and "client-*.jsonl" in err

    def test_non_monotone_client_stream(self, tmp_path, capsys):
        capture = tmp_path / "cap"
        cfg = write_capture(capture)
        stream = list(synthetic_stream(cfg, 2))
        stream[40], stream[41] = stream[41], stream[40]
        dump_traces_binary(stream, capture / "client-2.rtb", batch_size=FRAME)
        assert main(["verify", str(capture)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert str(capture) in err and "client 2 stream is not sorted" in err
        assert "trace index 41" in err

    @pytest.mark.parametrize("fmt", ["jsonl", "binary"])
    def test_nan_timestamps_are_refused(self, tmp_path, capsys, fmt):
        """``json`` reads ``NaN`` and the binary codec carries any double;
        a NaN pair sorts nowhere, so it must stop the run at decode -- not
        be staged and silently never dispatched."""
        capture = tmp_path / "cap"
        capture.mkdir()
        streams = {
            0: [Trace.write(1.0, 1.1, "t1", {"x": {"v": 1}}),
                Trace.commit(1.2, 1.3, "t1", op_index=1)],
            1: [Trace.read(2.0, 2.1, "t2", {"x": {"v": 1}}, client_id=1),
                Trace.commit(2.2, 2.3, "t2", client_id=1, op_index=1)],
            2: [with_nan_timestamps(Trace.write(3.0, 3.1, "t3", {"x": {"v": 3}}, client_id=2)),
                with_nan_timestamps(Trace.commit(3.2, 3.3, "t3", client_id=2, op_index=1))],
        }
        for client, traces in streams.items():
            suffix = "rtb" if fmt == "binary" else "jsonl"
            dump_traces(traces, capture / f"client-{client}.{suffix}")
        dump_initial_db({"x": {"v": 0}}, capture / "initial_db.json")
        victim = sorted(capture.glob("client-2.*"))[0]
        where = (
            f"frame 0 at byte offset {len(MAGIC)}" if fmt == "binary" else "line 1"
        )
        assert main(["verify", str(capture)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("repro verify: ")
        assert str(victim) in err and where in err and "nan" in err

    def test_process_backend_workers_are_reaped(self, tmp_path):
        """The forked shard workers must not outlive a run that dies on
        a truncated capture: the whole process group is gone when the CLI
        returns, well inside the timeout."""
        capture = tmp_path / "cap"
        write_capture(capture)
        where = damage(capture / "client-0.rtb", "payload")
        # A session of its own: the CLI's pid is the process group id.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "verify", str(capture), "--parallel", "2"],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 2
        assert out == ""
        assert err.count("\n") == 1 and where in err
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


# -- start-up imports -------------------------------------------------------------


def test_verify_path_imports_stay_lean(tmp_path):
    """``repro verify`` (serial) must not pay for multiprocessing, the
    simulated DBMS, the online/parallel layers, the shard router or
    OpenSSL (``hashlib`` / ``ssl``: only report fingerprints hash) --
    neither at import nor by the end of a serial verify; the lazy
    re-exports still resolve on demand."""
    capture = tmp_path / "cap"
    main(["run", "--workload", "blindw-rw", "--txns", "40", "--clients", "2",
          "--seed", "5", "--out", str(capture), "--format", "binary"])
    script = (
        "import sys, repro.__main__\n"
        "heavy = ['multiprocessing', 'repro.dbsim', 'repro.core.parallel',\n"
        "         'repro.core.online', 'repro.core.sharding',\n"
        "         'hashlib', '_hashlib', 'ssl']\n"
        "assert not [m for m in heavy if m in sys.modules], sys.modules.keys()\n"
        "assert repro.__main__.main(['verify', sys.argv[1]]) == 0\n"
        "assert not [m for m in heavy if m in sys.modules], sys.modules.keys()\n"
        "from repro.core import ParallelVerifier, OnlineVerifier, ShardRouter\n"
        "import repro, repro.core\n"
        "assert repro.ParallelVerifier is ParallelVerifier\n"
        "assert repro.ShardRouter is ShardRouter\n"
        "assert all(hasattr(repro, n) for n in repro.__all__)\n"
        "assert all(hasattr(repro.core, n) for n in repro.core.__all__)\n"
        "assert 'repro.core.parallel' in sys.modules\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script, str(capture)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr


# -- flat memory: decoded-but-undispatched traces are bounded ---------------------


#: Runs its argv as a child and prints the child's exit code and
#: ``ru_maxrss`` (KiB; the largest process of the tree it waited for).  A
#: child's ``ru_maxrss`` starts at its parent's resident size, so the
#: measured command is spawned from this small launcher, not from pytest.
RSS_LAUNCHER = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_pid, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def test_no_path_switch_is_read_from_the_environment():
    """Each layer has one production path; what varies is a CLI flag or a
    constructor argument a reviewer can see.  A ``REPRO_*`` name under
    ``src/repro`` is how an unreviewed second path used to be selected."""
    found = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in sorted(pathlib.Path(SRC, "repro").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"REPRO_[A-Z0-9_]+", line)
    ]
    assert not found, "\n".join(found)


def _core_ast(module):
    return ast.parse(pathlib.Path(SRC, "repro", "core", module).read_text())


def _method(tree, cls, name):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return item
    raise AssertionError(f"{cls}.{name} not found")


def _statements(function):
    """The body without its docstring."""
    body = function.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return body


def _calls(node):
    """Names and attribute names called anywhere under ``node``."""
    return [
        call.func.attr if isinstance(call.func, ast.Attribute) else call.func.id
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, (ast.Attribute, ast.Name))
    ]


def test_each_layer_of_the_spine_has_one_loop_body():
    """A scalar entry point is its batch form over a batch of one -- a
    body of at most three statements that goes through it -- so there is no
    second copy of a loop to keep in step; the codec reads trace records
    in one place."""
    adapters = [
        ("verifier.py", "Verifier", "process", "process_batch"),
        ("parallel.py", "ParallelVerifier", "process", "process_batch"),
        ("parallel.py", "ShardVerifier", "ingest", "ingest_batch"),
        ("online.py", "OnlineVerifier", "feed", "feed_batch"),
        ("bus.py", "DependencyBus", "publish_many", "publish"),
    ]
    for module, cls, scalar, batch in adapters:
        body = _statements(_method(_core_ast(module), cls, scalar))
        assert len(body) <= 3, f"{cls}.{scalar} grew a body of its own"
        used = {
            node.attr
            for statement in body
            for node in ast.walk(statement)
            if isinstance(node, ast.Attribute)
        }
        assert batch in used, f"{cls}.{scalar} does not go through {batch}"
    # One place refuses a trace per verifier: the one loop.  The shard
    # verifiers reach the serial loop; none calls the scalar entry point.
    for module in ("verifier.py", "parallel.py"):
        assert _calls(_core_ast(module)).count("RefusedTrace") == 1, module
    parallel = pathlib.Path(SRC, "repro", "core", "parallel.py").read_text()
    assert "self.process(" not in parallel

    # codec.py: ``read_trace`` is the one site that builds a ``Trace`` and
    # ``decode_run`` its one caller.
    codec = _core_ast("codec.py")
    assert _calls(codec).count("Trace") == 1
    callers = [
        node.name
        for node in ast.walk(codec)
        if isinstance(node, ast.FunctionDef) and "read_trace" in _calls(node)
    ]
    assert callers == ["decode_run"]


def test_the_assembly_is_written_down_not_discovered():
    """``core/verifier.py`` constructs its five mechanisms and calls their
    hooks by name: nothing is found by reflection (``getattr``, comparing
    ``type(m).on_x`` with the base class's), the dispatch loop iterates no
    hook list, and no module under ``core/`` keeps a module-level
    registry dict for mechanisms to add themselves to."""
    verifier = _core_ast("verifier.py")
    assert "getattr" not in _calls(verifier)
    reflected = [
        ast.unparse(node)
        for node in ast.walk(verifier)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("on_")
        and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func) == "type"
    ]
    assert not reflected, reflected
    loop = _method(verifier, "Verifier", "_execute")
    over_hooks = [
        ast.unparse(node.iter)
        for node in ast.walk(loop)
        if isinstance(node, ast.For) and "hook" in ast.unparse(node).split(":")[0]
    ]
    assert not over_hooks, over_hooks
    called = _calls(loop)
    for hook in ("me_on_read", "cr_on_read", "me_on_write"):
        assert called.count(hook) == 1, hook
    registries = [
        f"{path.name}: {ast.unparse(target)}"
        for path in sorted(pathlib.Path(SRC, "repro", "core").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, (ast.Dict, ast.DictComp))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if "registry" in ast.unparse(target).lower()
    ]
    assert not registries, registries


def _imports(tree):
    """``(module, name)`` for everything a module imports, at any depth
    (``import x`` is ``("x", None)``)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found += [(module, alias.name) for alias in node.names]
    return found


def test_one_serializer_and_it_stays_on_the_shard_pipes():
    """The trust boundary, written down: ``pickle`` is what the shard
    pipes speak and nothing else under ``src/`` imports it, so no byte
    read from a capture file or a socket can reach ``pickle.loads`` --
    those are decoded by ``core/codec.py``, which ``core/parallel.py``
    in turn has no use for.  The frame objects the pipes used to need are
    gone from the codec."""
    picklers = []
    for path in sorted(pathlib.Path(SRC, "repro").rglob("*.py")):
        imported = _imports(ast.parse(path.read_text()))
        modules = {module.split(".")[0] for module, _ in imported}
        if modules & {"pickle", "_pickle", "marshal", "shelve", "dill"}:
            picklers.append(path.relative_to(SRC).as_posix())
    assert picklers == ["repro/core/parallel.py"]
    parallel = _core_ast("parallel.py")
    assert not [
        (module, name) for module, name in _imports(parallel)
        if "codec" in module or name == "codec"
    ]
    # ``loads`` runs where a pipe's bytes arrive and nowhere else: in the
    # worker on a coordinator frame, in the coordinator on a worker reply.
    loaders = [
        node.name
        for node in ast.walk(parallel)
        if isinstance(node, ast.FunctionDef) and "loads" in _calls(node)
    ]
    assert sorted(loaders) == ["_handle_reply", "apply_message_frame"]
    defined = {
        node.name
        for node in ast.walk(_core_ast("codec.py"))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    assert not defined & {"PayloadEncoder", "PayloadDecoder"}


def _call_sites(tree, names, scope=()):
    """``(name, "Class.method")`` for every call to one of ``names`` under
    ``tree``, with the definitions that enclose it."""
    found = []
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = scope + (child.name,)
        elif isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                found.append((name, ".".join(scope)))
        found += _call_sites(child, names, inner)
    return found


def test_one_global_buffer_decides_the_dispatch_order():
    """Algorithm 1's stage-bound-merge is written once: the merge kernel
    is called from one place under ``src/``, ``GlobalBuffer.release``.
    The offline pipeline (pull) and the online verifier (push) drive that
    buffer and compute no watermark, bound or splice of their own -- a
    method so named is a one-line delegate to the buffer -- and
    ``core/online.py`` keeps no per-client stage class."""
    sites = sorted(
        (name, f"{path.name}:{where}")
        for path in sorted(pathlib.Path(SRC, "repro").rglob("*.py"))
        for name, where in _call_sites(
            ast.parse(path.read_text()), {"prefix_below", "merge_runs"}
        )
    )
    assert sites == [
        ("merge_runs", "pipeline.py:GlobalBuffer.release"),
        ("prefix_below", "pipeline.py:GlobalBuffer.release"),
    ]
    for module, cls in (("pipeline.py", "TwoLevelPipeline"), ("online.py", "OnlineVerifier")):
        tree = _core_ast(module)
        methods = [
            item
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == cls
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        ]
        assert methods, cls
        for method in methods:
            if not re.search("watermark|bound|splice|mark", method.name):
                continue
            body = _statements(method)
            assert len(body) == 1 and isinstance(body[0], ast.Return), method.name
            assert "self._buffer." in ast.unparse(body[0]), method.name
    online = _core_ast("online.py")
    assert [
        node.name for node in ast.walk(online) if isinstance(node, ast.ClassDef)
    ] == ["OnlineVerifier"]


def test_consistent_reads_are_checked_in_one_pass():
    """CR has one matching body: the loop over a finished transaction's
    pending entries in ``on_terminal``.  It asks ``classify`` only about
    chains longer than one version, no other method takes a pending entry,
    and the deriver's scalar hook is its batch form over a batch of one."""
    tree = _core_ast("consistent_read.py")
    methods = {
        item.name: item
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "ConsistentReadVerifier"
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    }
    touching = {
        name
        for name, method in methods.items()
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute) and node.attr == "pending_reads"
    }
    assert touching == {"on_read", "on_terminal"}
    for name, method in methods.items():
        assert not {"pending", "entry"} & {a.arg for a in method.args.args}, name
    pass_ = methods["on_terminal"]
    over_pending = [
        node for node in ast.walk(pass_)
        if isinstance(node, ast.For) and ast.unparse(node.iter) == "pending"
    ]
    assert len(over_pending) == 1
    guarded = [
        node for node in ast.walk(over_pending[0])
        if isinstance(node, ast.If) and "classify" in _calls(ast.Module(node.body, []))
    ]
    assert _calls(tree).count("classify") == 2  # the read pass, the scan check
    assert [ast.unparse(node.test) for node in guarded] == [
        "minimal and len(versions) > 1"
    ]
    # One place decides whether an observation matches an image.
    assert _calls(tree).count("reads_match") == 0
    assert sum(
        isinstance(node, ast.Compare) and "image_get(column)" in ast.unparse(node)
        for node in ast.walk(tree)
    ) == 1

    scalar = _statements(_method(_core_ast("bus.py"), "VersionOrderDeriver", "on_read_match"))
    assert len(scalar) <= 3 and "on_read_matches" in _calls(ast.Module(scalar, []))


def _assigned_attributes(function):
    return sorted(
        target.attr
        for node in ast.walk(function)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute)
    )


def test_mirrored_state_is_stored_once():
    """Each fact of the mirrored state has one home.  The lock table keeps
    its entries per owner, per open (key, owner) and, once finished, per
    key -- no per-key chain of every entry.  The dependency graph is one
    class over one node table (the Pearce-Kelly order map): no per-node
    record type, no separate topology module, and ``add_txn`` takes no
    commit interval, which is the transaction state's terminal interval.
    No field is written that nothing reads: no per-transaction operation
    count, no ``Version.committed`` beside ``Version.commit``."""
    locks = _method(_core_ast("locktable.py"), "LockTable", "__init__")
    assert _assigned_attributes(locks) == ["_by_txn", "_finished", "_open"]
    graph = _method(_core_ast("dependencies.py"), "DependencyGraph", "__init__")
    assert "_nodes" not in _assigned_attributes(graph)
    assert not pathlib.Path(SRC, "repro", "core", "topo.py").exists()
    trees = {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
        for path in sorted(pathlib.Path(SRC, "repro").rglob("*.py"))
    }
    named = [
        f"{name}: {ast.unparse(node)}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "TxnNode")
        or (isinstance(node, ast.ClassDef) and node.name == "TxnNode")
        or (isinstance(node, ast.Attribute) and node.attr == "op_count")
        or (isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == "op_count")
    ]
    assert not named, named
    topo = [
        (name, module, alias)
        for name, tree in trees.items()
        for module, alias in _imports(tree)
        if module.split(".")[-1] == "topo" or alias == "topo"
    ]
    assert not topo, topo
    version = next(
        node for node in ast.walk(trees["repro/core/versions.py"])
        if isinstance(node, ast.ClassDef) and node.name == "Version"
    )
    fields = [ast.unparse(item.target) for item in version.body if isinstance(item, ast.AnnAssign)]
    assert "commit" in fields and "committed" not in fields
    for module, cls in (
        ("repro/core/dependencies.py", "DependencyGraph"),
        ("repro/baselines/cyclesearch.py", "RawDependencyGraph"),
    ):
        add_txn = _method(trees[module], cls, "add_txn")
        assert [arg.arg for arg in add_txn.args.args] == ["self", "txn_id"], cls
    wide = [
        f"{name}: {ast.unparse(node)}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_txn"
        and (len(node.args) != 1 or node.keywords)
    ]
    assert not wide, wide


class TestFlatMemory:
    """Count traces decoded from the capture minus traces handed to the
    verifier, sampled at every dispatched batch.  What the ingest spine
    holds is at most one decoded run per client -- not one frame: the
    captures here have the writer's 512-record frames -- plus the
    pipeline's own buffers and the batch in flight, whatever the length of
    the history, and every capture file is closed when the CLI returns.
    One leg reads the real resident size of ``python -m repro verify``."""

    CLIENTS = 4
    WRITER_FRAME = 512

    def run_cli(self, monkeypatch, capture, extra):
        import builtins

        import repro.__main__ as cli
        from repro.core import codec
        from repro.core.parallel import ParallelVerifier
        from repro.core.verifier import Verifier

        seen = {"decoded": 0, "dispatched": 0, "peak": 0, "batch": 0}
        handles, pipelines = [], []
        plain_decode, plain_open = codec.decode_run, builtins.open
        plain_build = cli.pipeline_from_client_streams

        def decode_run(*args):
            run, pos = plain_decode(*args)
            seen["decoded"] += len(run)
            return run, pos

        def tracking_open(file, *args, **kwargs):
            handle = plain_open(file, *args, **kwargs)
            if str(file).startswith(str(capture)):
                handles.append(handle)
            return handle

        def build(*args, **kwargs):
            pipelines.append(plain_build(*args, **kwargs))
            return pipelines[-1]

        def sampling(plain):
            def process_batch(self, traces):
                seen["peak"] = max(seen["peak"], seen["decoded"] - seen["dispatched"])
                seen["batch"] = max(seen["batch"], len(traces))
                seen["dispatched"] += len(traces)
                return plain(self, traces)

            return process_batch

        monkeypatch.setattr(codec, "decode_run", decode_run)
        monkeypatch.setattr(builtins, "open", tracking_open)
        monkeypatch.setattr(cli, "pipeline_from_client_streams", build)
        cls = ParallelVerifier if extra else Verifier
        monkeypatch.setattr(cls, "process_batch", sampling(cls.process_batch))
        code = main(["verify", str(capture), *extra])
        monkeypatch.undo()
        assert handles and all(handle.closed for handle in handles)
        return code, seen, pipelines[0].stats.peak_buffered

    @pytest.mark.parametrize("extra", PARALLEL, ids=["serial", "parallel2"])
    def test_peak_does_not_grow_with_the_history(
        self, tmp_path, monkeypatch, capsys, extra
    ):
        peaks = {}
        for scale in (1, 4):
            capture = tmp_path / f"cap{scale}"
            cfg = write_capture(
                capture,
                traces=3000 * scale,
                clients=self.CLIENTS,
                frame=self.WRITER_FRAME,
            )
            code, seen, peak_buffered = self.run_cli(monkeypatch, capture, extra)
            assert code == 0
            assert seen["decoded"] == seen["dispatched"] == cfg.actual_traces
            bound = self.CLIENTS * RUN + peak_buffered + seen["batch"]
            assert seen["peak"] <= bound
            # The bound is a constant below even the short history -- and
            # below one frame per client -- so neither a loader that
            # materialised the capture nor one that decoded whole frames
            # could meet it.
            assert bound < cfg.actual_traces // 2
            assert bound < self.CLIENTS * self.WRITER_FRAME
            peaks[scale] = (seen["peak"], bound)
        assert abs(peaks[4][0] - peaks[1][0]) <= peaks[1][1]

    @pytest.mark.parametrize("extra", PARALLEL, ids=["serial", "parallel2"])
    def test_resident_size_does_not_grow_with_the_history(self, tmp_path, extra):
        """The CLI process runs with the interpreter's collector relaxed
        (``repro.core.runtime``): anything the spine leaked into cycles
        would now stay resident for the length of the run."""
        peak_kib = {}
        for scale in (1, 4):
            capture = tmp_path / f"cap{scale}"
            write_capture(capture, traces=2000 * scale, clients=self.CLIENTS)
            run = subprocess.run(
                [sys.executable, "-c", RSS_LAUNCHER,
                 sys.executable, "-m", "repro", "verify", str(capture), *extra],
                env=dict(os.environ, PYTHONPATH=SRC),
                capture_output=True, text=True, timeout=120,
            )
            assert run.returncode == 0, run.stderr
            code, peak_kib[scale] = map(int, run.stdout.split())
            assert code == 0
        assert peak_kib[4] <= 1.10 * peak_kib[1], peak_kib

    @pytest.mark.parametrize("extra", PARALLEL, ids=["serial", "parallel2"])
    def test_aborted_run_leaves_no_stream_open(
        self, tmp_path, monkeypatch, capsys, extra
    ):
        capture = tmp_path / "cap"
        write_capture(capture, clients=self.CLIENTS)
        damage(capture / "client-3.rtb", "payload")
        code, seen, _ = self.run_cli(monkeypatch, capture, extra)
        assert code == 2
        assert 0 < seen["dispatched"] < seen["decoded"]


def _fields(tree, cls):
    """Annotated class-level fields of ``cls``: ``{name: annotation}``."""
    node = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == cls
    )
    return {
        ast.unparse(item.target): item
        for item in node.body
        if isinstance(item, ast.AnnAssign)
    }


def test_each_measurement_has_one_home():
    """Counts stay in the objects that own them -- the report, the
    service's ``status`` document, Fig. 10's pipeline peak -- and timings
    and optional instruments go only in the metrics registry.  The report
    holds no timing (no dict of per-mechanism seconds to strip before a
    comparison), the pipeline keeps only the peak no instrument holds, the
    gateway copies none of its counters into the registry, and nothing is
    written that nothing reads."""
    sources = {
        path.relative_to(SRC).as_posix(): path.read_text()
        for path in sorted(pathlib.Path(SRC, "repro").rglob("*.py"))
    }
    for retired in ("mechanism_seconds", "mechanism.terminal.seconds"):
        named = [name for name, text in sources.items() if retired in text]
        assert not named, (retired, named)
    stats = _fields(_core_ast("report.py"), "VerificationStats")
    assert "traces_processed" in stats
    dict_valued = [
        name
        for name, item in stats.items()
        if re.search(r"dict|Dict|Mapping", ast.unparse(item.annotation))
        or (item.value is not None and "default_factory" in ast.unparse(item.value))
    ]
    assert not dict_valued, dict_valued
    assert list(_fields(_core_ast("pipeline.py"), "PipelineStats")) == ["peak_buffered"]
    gateway = ast.parse(sources["repro/service/gateway.py"])
    mirrored = [
        ast.unparse(node)
        for node in ast.walk(gateway)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and node.attr.startswith("_m_")
        )
        or (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.startswith("service.")
        )
    ]
    assert not mirrored, mirrored
    sessions = ast.parse(sources["repro/service/sessions.py"])
    assert not {"traces", "sessions"} & set(_fields(sessions, "ClientRecord"))
    assert "error" not in _fields(sessions, "Session")
    registry = _assigned_attributes(_method(sessions, "SessionRegistry", "__init__"))
    assert "closed" not in registry
    merger = _assigned_attributes(_method(_core_ast("parallel.py"), "_StreamMerger", "__init__"))
    assert "replayed" not in merger
