"""``serve_rw``: a closed loop of reads and durable writes over HTTP.

``python -m repro.serve`` runs in its own process on a ``--data-dir``
write-ahead log with the default ``--fsync batch`` and background
checkpoints off (``--checkpoint-interval 0``), so what a run appends to
the log depends only on what it writes.  It runs one worker thread: the
closed loop has one request in flight, and with two threads the one that
happens to take a request decides which malloc arena its buffers land
in, which moved the server's peak RSS between 134 and 159 MB from run
to run.  One client process drives it
over one keep-alive connection; malformed requests go over a second,
short-lived one.

Tables: Fact(Id, G, V) with 50k rows (multiplicities 1..3) over 64
groups, Dim(G, Region) with half the groups ``EU``, and A(K, V), B(K,
V) with 1000 rows each.  A maintained view ``fact_sums`` groups Fact by
G, so every write is also an IVM apply.

One round, in this order:

``agg``        join + group-by ``SUM`` over Fact, which the last write
               touched, so it re-plans and re-encodes;
``wide``       ``A UNION B``, about 2k rows, boxed and wire-encoded;
``write``      a durable ``/update``: 20 Fact rows, one A row, one B row.

Every fourth round adds ``malformed``: a request whose
``Content-Length`` is ``abc`` or ``-5``.  It passes if the server answers
with a 4xx status.  When this benchmark was written the connection task
died on a ``ValueError`` and the client got an empty reply, so every one
of them failed: 1 op in 13, in every run.

After the last round the server is killed with SIGKILL and restarted on
the same directory; ``recovery_s`` is the time until it answers again,
and every acknowledged write must be visible.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    SETUP_REPEATS, Failure, Ops, check, emit, end_to_end, metric, passes,
    pid_peak_rss_mb, run_rounds, scratch_dir, tail_ms, timed_setups,
)

KINDS = ("agg", "wide", "write", "malformed")
AGG_KIND, WIDE_KIND = "agg", "wide"
ROUNDS_PER_S = 3.7
ROUND_MULTIPLE = 4  # one malformed request per four rounds

N_FACT = 50_000
SMOKE_FACT = 500
N_GROUPS = 64
BASE = 1000  # rows in A and in B
SMOKE_BASE = 50
FACT_PER_WRITE = 20
ROWS_PER_WRITE = FACT_PER_WRITE + 2

AGG_SQL = "SELECT G, SUM(V) FROM Fact, Dim WHERE Region = 'EU' GROUP BY G"
VIEW_SQL = "SELECT G, SUM(V) FROM Fact GROUP BY G"
UNION_SQL = "SELECT K FROM A UNION SELECT K FROM B"
BAD_LENGTHS = ("abc", "-5")

START_TIMEOUT_S = 120.0
_LISTENING = re.compile(r"listening on http://[\d.]+:(\d+)")
_RECOVERED = re.compile(r"(\d+) records replayed.* in ([\d.]+)s")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Server:
    """One ``repro.serve`` process on a data directory."""

    def __init__(self, data_dir: str, log_path: str,
                 stats_path: Optional[str] = None):
        argv = ["--port", "0", "--workers", "1", "--data-dir", data_dir,
                "--fsync", "batch", "--checkpoint-interval", "0"]
        if stats_path is None:
            cmd = [sys.executable, "-u", "-m", "repro.serve", *argv]
        else:
            cmd = [sys.executable, "-u", os.path.join(HERE, "serve_traced.py"),
                   stats_path, *argv]
        self.log_path = log_path
        self.stats_path = stats_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(cmd, stdout=self._log,
                                     stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            self.port = self._wait_listening()
        except BaseException:
            self.kill()
            raise

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited:\n{self.log()}")
            time.sleep(0.005)
        raise RuntimeError(f"server did not start:\n{self.log()}")

    def log(self) -> str:
        with open(self.log_path, "rb") as fh:
            return fh.read().decode("utf-8", "replace")

    def signal(self, signum: int) -> None:
        os.kill(self.proc.pid, signum)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


class Client:
    """The load generator's keep-alive connection."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(self, method: str, path: str, payload: Any = None) -> Any:
        body = None if payload is None else json.dumps(payload)
        self.conn.request(method, path, body)
        response = self.conn.getresponse()
        data = response.read()
        if response.status not in (200, 201):
            raise RuntimeError(f"{method} {path}: HTTP {response.status}: "
                               f"{data[:300]!r}")
        if response.getheader("Content-Type", "").startswith("text/plain"):
            return data.decode("utf-8")
        return json.loads(data)

    def query(self, sql: str) -> Dict[str, Any]:
        return self.request("POST", "/query", {"sql": sql})

    def close(self) -> None:
        self.conn.close()


def malformed(port: int, length: str) -> None:
    """A request with a bad ``Content-Length``; a 4xx reply passes."""
    head = (f"POST /query HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {length}\r\nConnection: close\r\n\r\n")
    reply = b""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head.encode("latin1"))
        try:
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        except OSError:
            pass
    if not re.match(rb"HTTP/1\.[01] 4\d\d ", reply):
        raise Failure(f"Content-Length {length!r}: reply {reply[:60]!r}")


def _rows(rows) -> List[Dict[str, Any]]:
    return [{"values": list(values), "annotation": k} for values, k in rows]


class State:
    """One set-up: a loaded, warmed server plus the client's own tally."""

    def __init__(self, seed: int, smoke: bool, workdir: str, index: int,
                 traced: bool):
        self.rng = random.Random(seed)
        self.base = SMOKE_BASE if smoke else BASE
        self.data_dir = os.path.join(workdir, f"data-{index}")
        stats = os.path.join(workdir, "layers.json") if traced else None
        self.server = Server(self.data_dir,
                             os.path.join(workdir, f"server-{index}.log"),
                             stats)
        self.client = Client(self.server.port)
        self.sums = [0] * N_GROUPS  # Σ multiplicity·V per group
        self.rows = [0] * N_GROUPS  # Fact rows per group
        self.next_id = 0
        self.writes = 0
        self.violations: List[str] = []
        self.last: Dict[str, Any] = {}
        try:
            self._load(SMOKE_FACT if smoke else N_FACT)
        except BaseException:
            self.close()
            raise

    def _load(self, n_fact: int) -> None:
        fact = [self._fact_row() for _ in range(n_fact)]
        dim = [((g, "EU" if g % 2 else "US"), 1) for g in range(N_GROUPS)]
        a = [((f"a{i}", i % 97), 1) for i in range(self.base)]
        b = [((f"b{i}", i % 89), 1) for i in range(self.base)]
        for name, columns, rows in (("Fact", ["Id", "G", "V"], fact),
                                    ("Dim", ["G", "Region"], dim),
                                    ("A", ["K", "V"], a), ("B", ["K", "V"], b)):
            self.client.request("POST", "/relations", {
                "name": name,
                "relation": {"columns": columns, "rows": _rows(rows)}})
        self.client.request("POST", "/views",
                            {"name": "fact_sums", "sql": VIEW_SQL})
        # first plans and first encodings: cold costs
        self.agg()
        self.wide()

    def _fact_row(self) -> Tuple[Tuple[int, int, int], int]:
        g = self.rng.randrange(N_GROUPS)
        v = self.rng.randrange(1000)
        k = self.rng.randrange(1, 4)
        self.sums[g] += k * v
        self.rows[g] += 1
        row = ((self.next_id, g, v), k)
        self.next_id += 1
        return row

    # -- the op kinds ------------------------------------------------------

    def agg(self) -> None:
        self.last["agg"] = self.client.query(AGG_SQL)

    def wide(self) -> None:
        payload = self.client.query(UNION_SQL)
        expected = 2 * (self.base + self.writes)
        if payload["rowcount"] != expected:
            self.violations.append(
                f"union returned {payload['rowcount']} rows after "
                f"{self.writes} writes (expected {expected})")
        self.last["wide"] = payload

    def write(self) -> None:
        i = self.writes
        fact = [self._fact_row() for _ in range(FACT_PER_WRITE)]
        self.client.request("POST", "/update", {"relations": {
            "Fact": {"rows": _rows(fact)},
            "A": {"rows": _rows([((f"a+{i}", i % 97), 1)])},
            "B": {"rows": _rows([((f"b+{i}", i % 89), 1)])},
        }})
        self.writes += 1  # acknowledged

    def malformed(self, i: int) -> None:
        malformed(self.server.port, BAD_LENGTHS[i % len(BAD_LENGTHS)])

    # -- checks against the tally -----------------------------------------

    def groups(self, payload: Dict[str, Any]) -> Dict[int, int]:
        g = payload["columns"].index("G")
        v = payload["columns"].index("V")
        return {row["values"][g]: row["values"][v] for row in payload["rows"]}

    def expected(self, only_eu: bool) -> Dict[int, int]:
        return {g: self.sums[g] for g in range(N_GROUPS)
                if self.rows[g] and (g % 2 or not only_eu)}

    def verify(self, when: str) -> None:
        check(not self.violations, f"{when}: {self.violations[:3]}")
        self.agg()
        self.wide()
        check(not self.violations, f"{when}: {self.violations[:3]}")
        check(self.groups(self.last["agg"]) == self.expected(only_eu=True),
              f"{when}: group sums differ from the client's tally")
        view = self.client.request("GET", "/views/fact_sums")
        check(self.groups(view) == self.expected(only_eu=False),
              f"{when}: maintained view differs from the client's tally")

    def close(self) -> None:
        self.client.close()
        self.server.kill()


class RemoteLayers:
    """Switches the traced server's timers; reads its counters over HTTP."""

    def __init__(self, state: State):
        self.state = state
        self.counters = dict.fromkeys(COUNTERS.values(), 0.0)
        self.writes = 0
        self.overhead: List[float] = []  # client round trip − elapsed_ms
        self.active = False
        self._before: Dict[str, float] = {}
        self._writes_before = 0

    def _toggle(self) -> None:
        self.state.server.signal(signal.SIGUSR2)
        self.state.client.request("GET", "/health")  # handler has run

    def enable(self) -> None:
        self._before = server_counters(self.state.client)
        self._writes_before = self.state.writes
        self._toggle()
        self.active = True

    def disable(self) -> None:
        self.active = False
        self._toggle()
        after = server_counters(self.state.client)
        for key in self.counters:
            self.counters[key] += after[key] - self._before[key]
        self.writes += self.state.writes - self._writes_before


#: ``GET /metrics`` series the client reads, summed over label sets
#: unless the label is part of the key.
COUNTERS = {
    "repro_wal_fsync_seconds_sum": "wal.fsync_s",
    "repro_wal_fsync_seconds_count": "wal.fsyncs",
    "repro_wal_appended_bytes_total": "wal.bytes",
    'repro_tier_executions_total{tier="parallel"}': "tier.parallel_runs",
    'repro_tier_executions_total{tier="encoded"}': "tier.encoded_runs",
    'repro_tier_executions_total{tier="object"}': "tier.object_runs",
}


def server_counters(client: Client) -> Dict[str, float]:
    """The WAL and tier counters of the server's ``GET /metrics``."""
    text = client.request("GET", "/metrics")
    out = dict.fromkeys(COUNTERS.values(), 0.0)
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        key = COUNTERS.get(series) or COUNTERS.get(series.split("{", 1)[0])
        if key is not None:
            out[key] += float(value)
    return out


def main(args, rounds: int) -> int:
    from layers import REPORTED, overhead_pct, per_layer

    workdir = scratch_dir(ROOT)
    traced = bool(args.trace)
    counter = iter(range(SETUP_REPEATS + 1))
    state: Optional[State] = None
    try:
        state, setup_s = timed_setups(
            lambda: State(args.seed, args.smoke, workdir, next(counter),
                          traced),
            lambda s: s.close(),
            1 if args.smoke else SETUP_REPEATS)
        layers = None
        if traced:
            state.server.signal(signal.SIGHUP)  # set-up ends here
            state.client.request("GET", "/health")
            layers = RemoteLayers(state)

        ops = Ops(KINDS)
        wal_before = server_counters(state.client)
        round_no = iter(range(rounds))

        def do_round() -> None:
            i = next(round_no)
            ops.run("agg", state.agg)
            ops.run("wide", state.wide)
            ops.run("write", state.write)
            if i % ROUND_MULTIPLE == ROUND_MULTIPLE - 1:
                ops.run("malformed",
                        lambda: state.malformed(i // ROUND_MULTIPLE))
            if layers is not None and layers.active:
                for kind in ("agg", "wide"):
                    rtt = ops.kinds[kind].samples[-1] * 1e3
                    layers.overhead.append(
                        rtt - state.last[kind]["elapsed_ms"])

        traced_s, untraced_s = run_rounds(ops, rounds, do_round, layers)
        wal_after = server_counters(state.client)
        correct = passes("serve_rw", lambda: state.verify("before restart"))
        peak_rss = pid_peak_rss_mb(state.server.proc.pid)
        raw = None
        if traced:
            raw = dump_layers(state)

        # crash and recover on the same directory
        state.client.close()
        state.server.kill()
        start = time.perf_counter()
        state.server = Server(state.data_dir,
                              os.path.join(workdir, "server-recovered.log"))
        state.client = Client(state.server.port)
        state.client.request("GET", "/health")
        recovery_s = time.perf_counter() - start
        replay = _RECOVERED.search(state.server.log())
        correct &= passes("serve_rw", lambda: state.verify("after restart"))

        if traced:
            counters, writes = layers.counters, max(1, layers.writes)
            extra = {
                "serve.overhead_ms": statistics.median(layers.overhead),
                "wal.fsync_ms": counters["wal.fsync_s"] * 1e3 / len(traced_s),
                "wal.fsyncs_per_write": counters["wal.fsyncs"] / writes,
                "wal.bytes_per_write": counters["wal.bytes"] / writes,
                "wal.replay_records_per_s": (
                    int(replay.group(1)) / max(float(replay.group(2)), 1e-6)
                    if replay else 0.0),
                **{tier: counters[tier] / len(traced_s) for tier in
                   ("tier.parallel_runs", "tier.encoded_runs",
                    "tier.object_runs")},
            }
            full = per_layer(raw, len(traced_s),
                             overhead_pct(traced_s, untraced_s), extra)
            metrics = {name: full[name] for name in REPORTED}
            figures = {n: m for n, m in full.items() if n not in metrics}
        else:
            metrics = end_to_end(ops, setup_s, AGG_KIND, WIDE_KIND, peak_rss)
            figures = {
                "write_p50_ms": metric(ops.p50_ms("write"), "ms"),
                "recovery_s": metric(recovery_s, "s"),
                "wal_bytes_per_row": metric(
                    (wal_after["wal.bytes"] - wal_before["wal.bytes"])
                    / (state.writes * ROWS_PER_WRITE), "B"),
            }
            for kind, name in (("agg", "agg_tail_ms"),
                               ("write", "write_tail_ms")):
                tail = tail_ms(ops.kinds[kind].samples)
                if tail is not None:
                    figures[name] = metric(tail[1], "ms")
        emit("serve_rw", ops, metrics, figures, correct)
        return 0 if correct else 1
    finally:
        if state is not None:
            state.close()
        shutil.rmtree(workdir, ignore_errors=True)


def dump_layers(state: State) -> Dict[str, float]:
    """Ask the traced server for its per-layer totals (SIGUSR1)."""
    path = state.server.stats_path
    state.server.signal(signal.SIGUSR1)
    deadline = time.monotonic() + 30
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise RuntimeError("traced server wrote no layer totals")
        time.sleep(0.01)
    with open(path) as fh:
        return json.load(fh)
