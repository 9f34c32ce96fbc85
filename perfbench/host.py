"""Server-side half of the wire and shard workloads.

The benchmark runs every server in its own process, as users do.  This
module is that process (``python -m perfbench.host wire|shard ...``)
and the benchmark's handle on it (:class:`Host`).  The two talk over the
child's stdin/stdout, one JSON object per line:

* the child prints ``{"port": p}`` once its data is loaded and warm;
* ``{"op": "trace", "on": true|false}`` turns span recording on or off;
* ``{"op": "report"}`` returns the recorded spans and storage figures;
* end of input stops the server (and the shard fleet) and exits.

Recording wraps public calls only: every connection's ``SqlSession``
methods and its executor through ``ArrayServer(session_setup=...)``,
the served table's ``prepare_insert``/``apply_insert``, and on the
coordinator ``ShardRouter.execute`` and ``ShardLink.recv``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

from perfbench import data
from perfbench.measure import (HostClock, median, peak_rss_mib,
                               row_payload_bytes, space_amp)
from perfbench.spans import Tracer

SESSION_METHODS = ("execute", "query", "query_prepared", "query_partial")
EXECUTOR_METHODS = ("run", "run_point", "run_index", "run_grouped")

#: Start-up budget of one server process, data load included.
START_TIMEOUT = 120.0


class Recorder:
    """Statement spans and buffer-pool reads, recorded while ``on``.

    A statement is the outermost wrapped call on a thread; its id is
    paired with ``(session, seq)``: the connection's number (equal to
    the server's hello ``session_id``) and its position among that
    connection's recorded statements.
    """

    def __init__(self):
        self.tracer = Tracer()
        self.on = False
        self.stmts: dict[int, list] = {}
        self.sessions = 0

    def statement(self, name, func, session_no, seq, pool=None):
        nested = self.tracer.wrap(name, func)

        def call(*args, **kwargs):
            if not self.on:
                return func(*args, **kwargs)
            if self.tracer.current() is not None:
                return nested(*args, **kwargs)
            stmt = self.tracer.new_stmt()
            before = pool.snapshot_thread_counters() if pool else None
            span = self.tracer.open(name, stmt)
            try:
                return func(*args, **kwargs)
            finally:
                self.tracer.close(span)
                reads = [0, 0, 0]
                if pool is not None:
                    delta = pool.snapshot_thread_counters().delta_since(
                        before)
                    reads = [delta.logical_reads, delta.physical_reads,
                             delta.sequential_reads]
                self.stmts[stmt] = [session_no, next(seq), *reads]
        return call

    def session_setup(self, session) -> None:
        """``ArrayServer`` hook: runs on the event loop, once per
        connection, in the order the server numbers them."""
        self.sessions += 1
        seq = itertools.count()
        pool = session.db.pool
        for method in SESSION_METHODS:
            setattr(session, method, self.statement(
                f"sqlfront.{method}", getattr(session, method),
                self.sessions, seq, pool))
        wrap_executor(self.tracer, session.executor)

    def report(self) -> dict:
        return {"spans": [[s.span_id, s.name, s.start, s.end, s.parent,
                           s.stmt] for s in self.tracer.spans],
                "stmts": self.stmts}


def wrap_executor(tracer: Tracer, executor) -> None:
    """Time the executor's entry points as ``executor.<name>`` spans."""
    for name in EXECUTOR_METHODS:
        setattr(executor, name,
                tracer.wrap(f"executor.{name}", getattr(executor, name)))


def history_pages(pagefile) -> int:
    """Superseded page versions still retained (not yet retired)."""
    return sum(pagefile.history_len(pid)
               for pid in range(pagefile.page_count))


# -- the wire server ----------------------------------------------------------

def serve_wire(args, recorder: Recorder):
    from table1_harness import load_tables

    from repro.server import ServerConfig, ServerThread

    db, _tscalar, tvector = load_tables(args.rows)
    data.create_cube_table(db, data.make_cubes(args.seed, args.cubes))
    for method in ("prepare_insert", "apply_insert"):
        setattr(tvector, method, recorder.tracer.wrap(
            f"table.{method}", getattr(tvector, method)))
    config = ServerConfig()
    if args.max_workers is not None:
        config.max_workers = args.max_workers
    if args.queue_limit is not None:
        config.queue_limit = args.queue_limit
    thread = ServerThread(db, config,
                          session_setup=recorder.session_setup).start()
    _warm_wire(db, args.cubes)

    def report() -> dict:
        history = history_pages(db.pagefile)
        amp = space_amp(db, {"Tvector": 5, "Tcube": args.edge ** 3},
                        history)
        return {**recorder.report(), "history_pages": history,
                "space_amp": amp, "rss_mb": peak_rss_mib()}

    return thread, report, thread.stop


def _warm_wire(db, cubes: int) -> None:
    """Touch every page the workload reads, so reads are warm."""
    from repro.engine import SqlSession
    from repro.engine.table import MaxBlobHandle

    session = SqlSession(db)
    session.query("SELECT COUNT(*) FROM Tvector", cold=False)
    for cube in range(cubes):
        session.query(data.CUBE_SQL.format(cube), cold=False,
                      finalize=lambda r: [c.read_all(db.pool) for c in r[0]
                                          if isinstance(c, MaxBlobHandle)])


# -- the shard coordinator ----------------------------------------------------

def register_page_probe(session) -> None:
    """Fleet ``session_setup`` (runs in each shard process): a UDF that
    reports the shard's allocated pages, so the coordinator can measure
    cluster storage with an ordinary routed point query."""
    pagefile = session.db.pagefile
    session.register_function(
        "Perfbench.AllocatedPages",
        lambda _key: float(pagefile.allocated_page_count),
        parallel_safe=False)


def serve_shard(args, recorder: Recorder):
    from bench_sharded import CREATE, GROUP_SQL, SCAN_SQL, make_rows

    from repro.engine.constants import PAGE_SIZE
    from repro.server import ServerConfig, ServerThread
    from repro.shard import ShardConfig, ShardLink, ShardServer, \
        start_cluster

    config = ShardConfig(shards=2, replicas=1, key_lo=0, key_hi=args.rows)
    fleet, router = start_cluster(config,
                                  session_setup=register_page_probe)
    try:
        router.execute(CREATE)
        router.insert_rows("tb", make_rows(args.rows))
        thread = ServerThread(server=ShardServer(router,
                                                 ServerConfig())).start()
    except BaseException:
        router.shutdown()
        fleet.stop()
        raise
    for sql in (SCAN_SQL, GROUP_SQL):
        router.execute(sql, cold=False)
    router.execute = recorder.statement("shard.router", router.execute,
                                        1, itertools.count())
    receive = ShardLink.recv

    def recv(link):
        reply = receive(link)
        parent = recorder.tracer.current()
        if parent is not None:
            end = time.perf_counter()
            elapsed = reply[0].get("elapsed_seconds") or 0.0
            recorder.tracer.add("shard.server",
                                max(parent.start, end - elapsed), end,
                                parent)
        return reply

    ShardLink.recv = recv

    def report() -> dict:
        partitioner = config.make_partitioner()
        owners = {}
        for key in (0, args.rows - 1):
            owners.setdefault(partitioner.shard_of(key), key)
        pages = 0.0
        for key in owners.values():
            result = router.execute(
                f"SELECT MAX(Perfbench.AllocatedPages(id)) FROM tb "
                f"WHERE id = {key}", cold=False)
            pages += result["rows"][0][0]
        row = row_payload_bytes(router.catalog.tables["tb"], 5)
        amp = pages * PAGE_SIZE / (args.rows * row)
        rss = sum(peak_rss_mib(child.pid)
                  for child in multiprocessing.active_children())
        return {**recorder.report(), "history_pages": 0,
                "space_amp": amp, "rss_mb": rss}

    def stop():
        try:
            thread.stop()
        finally:
            router.shutdown()
            fleet.stop()

    return thread, report, stop


# -- child entry point --------------------------------------------------------

def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("kind", choices=("wire", "shard"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rows", type=int, default=data.ROWS)
    parser.add_argument("--cubes", type=int, default=data.CUBES)
    parser.add_argument("--edge", type=int, default=data.CUBE_EDGE)
    parser.add_argument("--max-workers", type=int)
    parser.add_argument("--queue-limit", type=int)
    args = parser.parse_args(argv)
    # A terminated host must still stop its shard processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    recorder = Recorder()
    serve = serve_wire if args.kind == "wire" else serve_shard
    thread, report, stop = serve(args, recorder)
    try:
        print(json.dumps({"port": thread.port}), flush=True)
        for line in sys.stdin:
            command = json.loads(line)
            if command["op"] == "trace":
                recorder.on = bool(command["on"])
                reply = {"ok": True}
            elif command["op"] == "report":
                recorder.on = False  # the report's own statements
                reply = report()
            else:
                reply = {"error": f"unknown op {command['op']!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        stop()
    return 0


# -- the benchmark's side -----------------------------------------------------

def start_hosts(root: str, kind: str, seed: int, setups: int,
                clock: HostClock, **options):
    """Start the server ``setups`` times and keep the last; returns it
    with the median set-up time in reference seconds of ``clock``:
    spawn, load, warm-up, and one client connection's hello."""
    from repro.server import ArrayClient

    def start() -> Host:
        started = Host(root, kind, seed, **options)
        try:
            ArrayClient("127.0.0.1", started.port).close()
        except BaseException:
            started.stop()
            raise
        return started

    times = []
    host = None
    try:
        for _ in range(setups):
            if host is not None:
                host.stop()
                host = None
            took, host = clock.timed(start)
            times.append(took)
    except BaseException:
        if host is not None:
            host.stop()
        raise
    return host, median(times)


class Host:
    """A running server process; ``with Host(...) as host:`` stops it."""

    def __init__(self, root: str, kind: str, seed: int,
                 cpu: int | None = None, **options):
        """Start the process, on CPU ``cpu`` alone if given."""
        argv = [sys.executable, "-m", "perfbench.host", kind,
                "--seed", str(seed)]
        for name, value in options.items():
            if value is not None:
                argv += [f"--{name.replace('_', '-')}", str(value)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.join(root, part) for part in ("", "src", "benchmarks"))
        pin = None if cpu is None else \
            (lambda: os.sched_setaffinity(0, {cpu}))
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, preexec_fn=pin)
        try:
            self.port = self._read(START_TIMEOUT)["port"]
        except BaseException:
            self.stop()
            raise

    def _read(self, timeout: float) -> dict:
        import select

        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(
                f"server process gave no reply (exit code "
                f"{self.proc.poll()})")
        return json.loads(line)

    def call(self, op: str, **fields) -> dict:
        self.proc.stdin.write(json.dumps({"op": op, **fields}) + "\n")
        self.proc.stdin.flush()
        return self._read(60.0)

    def stop(self) -> None:
        """Close the control pipe and wait for the process to end."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Host":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
