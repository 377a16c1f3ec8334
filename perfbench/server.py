"""remote-hot's server process: ReproServer over QueryService(max_workers=2).

Started by the remote-hot workload with pipes on stdin and stdout.  Once
listening it prints one line ``READY <json>`` (port, the D7 query list and
its set-up step timings), then obeys one command per stdin line and answers
each with one stdout line:

``trace``          install the server-side span wrappers and watch full collections
``untrace <path>`` remove them and write the recorded spans to ``path``
``rss``            peak resident memory of this process, in KiB

At the end of stdin it drains and stops.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import asyncio  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

from bootstrap import exit_on_sigterm, use_checkout_source  # noqa: E402

H = 100
WORKERS = 2


def main() -> int:
    use_checkout_source()
    exit_on_sigterm()
    from repro.engine import Dataspace
    from repro.net import ReproServer
    from repro.service import QueryService, workload_queries

    import tracing
    from layers import SERVER_TARGETS

    timings = {"imports_s": time.perf_counter() - STARTED}
    started = time.perf_counter()
    session = Dataspace.from_dataset("D7", h=H)
    timings["match_s"] = time.perf_counter() - started
    started = time.perf_counter()
    session.mapping_set
    timings["mappings_s"] = time.perf_counter() - started
    started = time.perf_counter()
    session.compiled
    session.document
    timings["compile_s"] = time.perf_counter() - started
    queries = workload_queries("D7")

    started = time.perf_counter()
    service = QueryService(session, max_workers=WORKERS)
    server = ReproServer(service, max_inflight=WORKERS, request_timeout=30.0)
    loop = asyncio.new_event_loop()
    loop.run_until_complete(server.start())
    timings["server_start_s"] = time.perf_counter() - started
    stop = asyncio.Event()
    tracer = tracing.Tracer()

    def reply(line: str) -> None:
        sys.stdout.write(line + "\n")
        sys.stdout.flush()

    def control() -> None:
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "trace":
                tracer.install(SERVER_TARGETS)
                tracer.watch_gc()
                reply("OK")
            elif command == "untrace":
                tracer.uninstall()
                tracer.dump(argument)
                reply("OK")
            elif command == "rss":
                reply(str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
        loop.call_soon_threadsafe(stop.set)

    reply("READY " + json.dumps({"port": server.port, "queries": queries, "timings": timings}))
    threading.Thread(target=control, daemon=True).start()
    try:
        loop.run_until_complete(stop.wait())
    finally:
        loop.run_until_complete(server.stop())
        service.close()
        loop.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
