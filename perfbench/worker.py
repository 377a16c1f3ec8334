"""One workload in one process: set up, run closed-loop phases, check answers.

Started by ``run.py`` as ``worker.py <workload> <seed> <seconds> <trace>
<mode>``.  It prints ``READY <json>`` on stdout as soon as set-up (imports,
session build, server start, subscriptions, warm-up) is done; ``run.py``
times set-up from process launch to that line.  In ``setup`` mode it then
stops.  In ``run`` mode it measures and prints ``RESULT <json>``.

Untraced runs (``trace`` 0) measure one phase of ``seconds``.  Traced runs first run a
fixed number of ops with the span wrappers installed (so their counts repeat
exactly for a given seed), then an untraced phase for ``seconds`` that gives
the tracing overhead and the write latencies.

Every op is checked.  A read's answer must equal the reference answer of
its key, and each reference is compared after the timed phases, untimed, to
the paper's basic plan (Algorithm 3) as canonical JSON bytes.  write-mix
instead keeps the reads of a seeded sample of epochs and replays its delta
batches on an oracle session.  An op that raises or fails a check counts in
``failed``, and so does a read outside the population the workload's
percentiles describe (see :func:`off_population`).
"""

from __future__ import annotations

import gc
import json
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import bootstrap
import gen
import measure
import tracing
from layers import (
    CLIENT_TARGETS,
    ENGINE_TARGETS,
    count_delta,
    flatten_stats,
    layer_metrics,
    slow_op_report,
)

#: Reads a timed phase takes at least, so that ten samples lie beyond p99.
MIN_READS = 1000
#: In-process workloads read their peak RSS after this many timed ops, a
#: fixed amount of work: the benchmark's own records (kept reads, delivered
#: subscription updates) grow with every op, and a faster spell of the host
#: would otherwise show up as more memory.
RSS_AFTER_OPS = 1000
#: Ops of the traced phase per second of ``--seconds``, per workload: 0.4 to
#: 0.8 s of traced work per second on a 2-vCPU machine.
TRACED_OPS_PER_SECOND = {"remote-hot": 100, "eval-join": 100, "write-mix": 300}
#: remote-hot's load: one connection per client thread.
CONNECTIONS = 2
WRITE_MIX_H = 400


@dataclass
class Phase:
    read_latencies: list = field(default_factory=list)
    write_latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0

    @property
    def rate(self) -> float:
        return self.attempted / self.wall if self.wall else 0.0


class Limit:
    """When a phase stops: after ``ops`` ops, or at a deadline once ``min_reads`` ran."""

    def __init__(self, *, ops=None, seconds=None, min_reads=0) -> None:
        self.ops, self.seconds, self.min_reads = ops, seconds, min_reads
        self.deadline = None

    def start(self) -> float:
        now = time.perf_counter()
        if self.seconds is not None:
            self.deadline = now + self.seconds
        return now

    def done(self, phase: Phase) -> bool:
        if self.ops is not None:
            return phase.attempted >= self.ops
        return time.perf_counter() >= self.deadline and len(phase.read_latencies) >= self.min_reads


def canonical(result) -> bytes:
    """Canonical JSON bytes of a result's answers (engine or wire result)."""
    from repro.api.serialize import answer_to_json, canonical_json

    if hasattr(result, "to_json"):
        return canonical_json(result.to_json()["answers"])
    return canonical_json(
        [answer_to_json(a) for a in sorted(result, key=lambda a: a.mapping_id)]
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
class InProcess:
    """Shared loop of the single-client, in-process workloads."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.setup: dict = {}
        self.tracer = None
        self.timed_ops = 0
        self.rss_mb = None

    def stats(self) -> dict:
        return flatten_stats(self.service.stats())

    def peak_rss_mb(self) -> float:
        return self.rss_mb if self.rss_mb is not None else peak_rss_mb()

    def run(self, limit: Limit) -> Phase:
        phase = Phase()
        tracer = self.tracer
        started = limit.start()
        while not limit.done(phase):
            kind, key = self.next_op()
            phase.attempted += 1
            try:
                if tracer is None:
                    ok, latency = self.do(kind, key)
                else:
                    tag = key if kind == "read" else kind
                    with tracer.op("op.read" if kind == "read" else "op.write", tag):
                        ok, latency = self.do(kind, key)
            except Exception as error:  # noqa: BLE001 - a failed op is counted
                print(f"perfbench: {self.name} op failed: {error!r}", file=sys.stderr)
                phase.failed += 1
                continue
            (phase.read_latencies if kind == "read" else phase.write_latencies).append(latency)
            if not ok:
                phase.failed += 1
            self.timed_ops += 1
            if self.timed_ops == RSS_AFTER_OPS:
                self.rss_mb = peak_rss_mb()
        phase.wall = time.perf_counter() - started
        return phase

    def close(self) -> None:
        self.service.close()


class EvalJoin(InProcess):
    """Three join-heavy twig shapes over the seeded catalogue; no cache, one client."""

    name = "eval-join"

    def start(self) -> None:
        from repro.service import QueryService

        self.session = gen.build_catalogue(self.seed, self.setup)
        started = time.perf_counter()
        self.session.compiled
        self.setup["compile_s"] = time.perf_counter() - started
        self.service = QueryService(self.session, max_workers=1, use_cache=False)
        started = time.perf_counter()
        self.reference = {}
        for _ in range(2):
            for query in gen.JOIN_QUERIES:
                self.reference[query] = self.service.execute(query).answers
        self.setup["warm_s"] = time.perf_counter() - started
        self.shapes = gen.uniform_stream(len(gen.JOIN_QUERIES), self.seed, "shapes")

    def next_op(self):
        return "read", gen.JOIN_QUERIES[next(self.shapes)]

    def do(self, kind, query):
        started = time.perf_counter()
        result = self.service.execute(query)
        latency = time.perf_counter() - started
        return result.answers == self.reference[query], latency

    def check(self) -> tuple[int, int]:
        """Each shape's reference against the basic plan; (checked, failed)."""
        failed = 0
        for query, answers in self.reference.items():
            basic = self.session.execute(query, plan="basic", use_cache=False)
            if canonical(answers) != canonical(basic):
                print(f"perfbench: eval-join {query} differs from the basic plan", file=sys.stderr)
                failed += 1
        return len(self.reference), failed


class WriteMix(InProcess):
    """Reads over the D7 key set with a delta batch every 20 ops, 40 standing queries."""

    name = "write-mix"

    def start(self) -> None:
        from repro.engine import Dataspace
        from repro.service import QueryService, workload_queries

        started = time.perf_counter()
        self.session = Dataspace.from_dataset("D7", h=WRITE_MIX_H)
        self.setup["match_s"] = time.perf_counter() - started
        started = time.perf_counter()
        self.initial = self.session.mapping_set
        self.setup["mappings_s"] = time.perf_counter() - started
        started = time.perf_counter()
        self.session.compiled
        self.session.document
        self.setup["compile_s"] = time.perf_counter() - started
        self.service = QueryService(self.session, max_workers=1)

        started = time.perf_counter()
        self.updates: dict = {}
        query_targets = 0
        for query in gen.PAPER_QUERIES:
            query_targets |= self.session.prepare(query).required_target_mask()
            for k in gen.STANDING_KS:
                log = self.updates.setdefault((query, k), [])
                self.service.subscribe(query, k=k, callback=log.append)
        self.setup["subscribe_s"] = time.perf_counter() - started

        started = time.perf_counter()
        self.keys = gen.d7_keys(workload_queries("D7"))
        for query, k in self.keys:
            self.service.execute(query, k=k)
        self.setup["warm_s"] = time.perf_counter() - started

        self.ops = gen.write_mix_ops(self.seed)
        self.reads = gen.uniform_stream(len(self.keys), self.seed, "reads")
        self.deltas = gen.DeltaStream(self.seed, self.initial, query_targets)
        self.sampling = gen.sampled_epochs(self.seed)
        self.sampled = next(self.sampling)
        self.batches: list = []
        self.samples: dict = {}

    def next_op(self):
        kind = next(self.ops)
        if kind == "read":
            return kind, self.keys[next(self.reads)]
        return kind, self.deltas.next(kind, self.session.mapping_set)

    def do(self, kind, key):
        if kind != "read":
            started = time.perf_counter()
            self.service.apply_delta_batch(key)
            latency = time.perf_counter() - started
            self.batches.append(key)
            self.sampled = next(self.sampling)
            return True, latency
        query, k = key
        started = time.perf_counter()
        result = self.service.execute(query, k=k)
        latency = time.perf_counter() - started
        if self.sampled:
            self.samples.setdefault(len(self.batches), []).append((key, result))
        return True, latency

    def check(self) -> tuple[int, int]:
        """Replay the batches on an oracle session; (checked, failed).

        Checks every kept read of the sampled epochs and every key at the
        final state against the basic plan, and each subscription's updates,
        folded with ``apply_update``, against a from-scratch execution.
        """
        from repro.engine import Dataspace
        from repro.engine.streaming import apply_update

        oracle = Dataspace.from_dataset("D7", h=WRITE_MIX_H, cache_size=0)
        if oracle.mapping_set is not self.initial:
            raise RuntimeError("the oracle must start from the session's initial mapping set")
        checked = failed = epoch = 0
        expected: dict = {}

        def expect(query, k):
            """The basic plan's answer at the oracle's epoch, computed once per key."""
            if (epoch, query, k) not in expected:
                expected[epoch, query, k] = canonical(
                    oracle.execute(query, k=k, plan="basic", use_cache=False)
                )
            return expected[epoch, query, k]

        def verify() -> None:
            nonlocal checked, failed
            for key, result in self.samples.get(epoch, ()):
                checked += 1
                if canonical(result) != expect(*key):
                    print(f"perfbench: write-mix {key} wrong at epoch {epoch}", file=sys.stderr)
                    failed += 1

        verify()
        for batch in self.batches:
            oracle.apply_delta_batch(batch)
            epoch += 1
            verify()
        for query, k in self.keys:
            checked += 1
            if canonical(self.service.execute(query, k=k)) != expect(query, k):
                print(f"perfbench: write-mix {query} k={k} wrong at the end", file=sys.stderr)
                failed += 1
        for (query, k), log in self.updates.items():
            rows: list = []
            for update in log:
                rows = apply_update(rows, update)
            checked += 1
            if canonical(rows) != expect(query, k):
                print(f"perfbench: subscription {query} k={k} replays wrong", file=sys.stderr)
                failed += 1
        return checked, failed


class RemoteHot:
    """Two binary connections to a ReproServer in its own process; all cache hits."""

    name = "remote-hot"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.setup: dict = {}
        self.tracer = None
        self.server = None

    def command(self, line: str) -> str:
        self.server.stdin.write(line + "\n")
        self.server.stdin.flush()
        reply = self.server.stdout.readline()
        if not reply:
            raise RuntimeError("the server process ended")
        return reply.strip()

    def start(self) -> None:
        import repro

        started = time.perf_counter()
        self.server = subprocess.Popen(
            [sys.executable, str(bootstrap.ROOT / "perfbench" / "server.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=bootstrap.child_env(),
            cwd=str(bootstrap.ROOT),
        )
        line = self.server.stdout.readline()
        if not line.startswith("READY "):
            raise RuntimeError(f"the server did not start: {line!r}")
        ready = json.loads(line[len("READY "):])
        self.setup.update(ready["timings"])
        self.setup["server_process_s"] = time.perf_counter() - started
        self.clients = [
            repro.connect("127.0.0.1", ready["port"], timeout=30.0) for _ in range(CONNECTIONS)
        ]
        self.keys = gen.d7_keys(ready["queries"])
        started = time.perf_counter()
        self.reference = {}
        for client in self.clients:
            for query, k in self.keys:
                self.reference.setdefault((query, k), client.query(query, k=k))
        self.setup["warm_s"] = time.perf_counter() - started
        self.streams = [
            gen.zipf_stream(len(self.keys), self.seed, f"conn{i}") for i in range(CONNECTIONS)
        ]
        # Freeze this load process's own heap (imports, reference answers):
        # its collections then scan only what the client allocates per
        # request, and the pauses left in the read tail are the server's.
        gc.collect()
        gc.freeze()

    def stats(self) -> dict:
        return flatten_stats(self.clients[0].stats())

    def run(self, limit: Limit) -> Phase:
        per_thread = [Phase() for _ in self.clients]
        def share(count: int) -> int:
            """Each connection's equal share of the phase's op or read count."""
            return -(-count // len(self.clients))

        if limit.ops is not None:
            limits = [Limit(ops=share(limit.ops)) for _ in self.clients]
        else:
            limits = [
                Limit(seconds=limit.seconds, min_reads=share(limit.min_reads))
                for _ in self.clients
            ]
        barrier = threading.Barrier(len(self.clients) + 1)
        ends = [0.0] * len(self.clients)

        def load(index: int) -> None:
            client, stream, phase = self.clients[index], self.streams[index], per_thread[index]
            tracer = self.tracer
            barrier.wait()
            while not limits[index].done(phase):
                key = self.keys[next(stream)]
                phase.attempted += 1
                try:
                    started = time.perf_counter()
                    if tracer is None:
                        result = client.query(key[0], k=key[1])
                    else:
                        with tracer.op("op.read", key):
                            result = client.query(key[0], k=key[1])
                    phase.read_latencies.append(time.perf_counter() - started)
                except Exception as error:  # noqa: BLE001 - a failed op is counted
                    print(f"perfbench: remote-hot op failed: {error!r}", file=sys.stderr)
                    phase.failed += 1
                    continue
                if result != self.reference[key]:
                    phase.failed += 1
            ends[index] = time.perf_counter()

        threads = [threading.Thread(target=load, args=(i,)) for i in range(len(self.clients))]
        for thread in threads:
            thread.start()
        started = limit.start()
        for each in limits:
            each.start()
        barrier.wait()
        for thread in threads:
            thread.join()
        merged = Phase(wall=max(ends) - started)
        for phase in per_thread:
            merged.read_latencies += phase.read_latencies
            merged.attempted += phase.attempted
            merged.failed += phase.failed
        return merged

    def check(self) -> tuple[int, int]:
        failed = 0
        for (query, k), answer in self.reference.items():
            basic = self.clients[0].query(query, k=k, plan="basic", use_cache=False)
            if canonical(answer) != canonical(basic):
                print(f"perfbench: remote-hot {query} k={k} differs from basic", file=sys.stderr)
                failed += 1
        return len(self.reference), failed

    def peak_rss_mb(self) -> float:
        return int(self.command("rss")) / 1024.0

    def close(self) -> None:
        for client in getattr(self, "clients", ()):
            client.close()
        if self.server is not None:
            try:
                self.server.stdin.close()  # end of input: the server drains and stops
                self.server.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.server.kill()
                self.server.wait()


WORKLOADS = {"remote-hot": RemoteHot, "eval-join": EvalJoin, "write-mix": WriteMix}


# ---------------------------------------------------------------------- #
# Runs
# ---------------------------------------------------------------------- #
#: write-mix's reads must be mostly misses, so that its read percentiles lie
#: among misses; a served share above this breaks that (NOTES.md, rule 2).
WRITE_MIX_MAX_SERVED = 0.35


def off_population(name: str, counts: dict) -> int:
    """Reads of a timed phase that fell outside the population its percentiles describe.

    remote-hot measures cache hits: each result-cache miss is one such read.
    write-mix measures misses: if the served share (hits plus retained
    entries) of its reads rises above WRITE_MIX_MAX_SERVED, every read is.
    They count as failed ops.
    """
    if name == "remote-hot":
        return counts["result.misses"]
    if name == "write-mix":
        lookups = counts["result.hits"] + counts["result.misses"]
        served = counts["result.hits"] + counts["result.retained"]
        if lookups and served / lookups > WRITE_MIX_MAX_SERVED:
            print(f"perfbench: write-mix served {served} of {lookups} reads", file=sys.stderr)
            return lookups
    return 0


def untraced_run(workload, seconds: float) -> dict:
    """One timed phase of ``seconds`` that takes at least MIN_READS reads."""
    before = workload.stats()
    phase = workload.run(Limit(seconds=seconds, min_reads=MIN_READS))
    counts = count_delta(before, workload.stats())
    rss = workload.peak_rss_mb()
    started = time.perf_counter()
    checked, check_failed = workload.check()
    check_s = time.perf_counter() - started
    reads = phase.read_latencies
    writes = phase.write_latencies
    return {
        "attempted": phase.attempted + checked,
        "failed": phase.failed + check_failed + off_population(workload.name, counts),
        "metrics": {
            "ops_per_s": phase.rate,
            "read_p50_ms": measure.percentile(reads, 50.0) * 1000.0,
            "read_p99_ms": measure.percentile(reads, 99.0) * 1000.0,
            "peak_rss_mb": rss,
        },
        "detail": {
            "reads": len(reads),
            "writes": len(writes),
            "read_tail_pct": measure.supported_percentile(len(reads)),
            "write_p50_ms": measure.percentile(writes, 50.0) * 1000.0 if writes else None,
            "write_p95_ms": measure.percentile(writes, 95.0) * 1000.0 if writes else None,
            "write_tail_pct": measure.supported_percentile(len(writes)) if writes else None,
            "counts": counts,
            "setup": workload.setup,
            "check_s": check_s,
        },
    }


def traced_run(workload, seconds: float) -> dict:
    ops = max(1, round(TRACED_OPS_PER_SECOND[workload.name] * seconds))
    tracer = tracing.Tracer()
    remote = isinstance(workload, RemoteHot)
    spans_path = bootstrap.OUT / f"spans-{workload.name}-server.json"
    bootstrap.OUT.mkdir(exist_ok=True)
    # Stats are read outside the traced window, so the server records no
    # stats requests among its ops.
    before = workload.stats()
    if remote:
        workload.command("trace")
    tracer.install(CLIENT_TARGETS if remote else ENGINE_TARGETS)
    if not remote:
        tracer.watch_gc()
    workload.tracer = tracer
    try:
        traced = workload.run(Limit(ops=ops))
    finally:
        workload.tracer = None
        tracer.uninstall()
    server_spans = None
    if remote:
        workload.command(f"untrace {spans_path}")
        server_spans = tracing.load_spans(str(spans_path))
    counts = count_delta(before, workload.stats())

    untraced = workload.run(Limit(seconds=seconds, min_reads=MIN_READS))
    checked, check_failed = workload.check()
    failed = traced.failed + untraced.failed + check_failed + off_population(workload.name, counts)
    attempted = traced.attempted + untraced.attempted + checked
    metrics = layer_metrics(
        spans=tracer.spans,
        server_spans=server_spans,
        counts=counts,
        reads=len(traced.read_latencies),
        writes=len(traced.write_latencies),
        write_latencies=untraced.write_latencies,
        failed=failed,
        attempted=attempted,
        setup=workload.setup,
        traced_rate=traced.rate,
        untraced_rate=untraced.rate,
    )
    tracer.dump(str(bootstrap.OUT / f"spans-{workload.name}-load.json"))
    detail = {"traced_ops": traced.attempted, "counts": counts, "setup": workload.setup}
    if remote:
        detail["slow_ops"] = slow_op_report(tracer.spans, server_spans)
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "detail": detail}


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, mode = argv
    bootstrap.use_checkout_source()
    bootstrap.exit_on_sigterm()
    workload = WORKLOADS[name](int(seed))
    try:
        workload.start()
        print("READY " + json.dumps(workload.setup), flush=True)
        if mode == "setup":
            return 0
        run = traced_run if trace == "1" else untraced_run
        result = run(workload, float(seconds))
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
