"""The repository's end-to-end benchmark (see BENCHMARK.json and NOTES.md).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {remote-hot,write-mix,eval-join} \\
        --seed N --seconds S --trace {0,1}

Each workload runs in a fresh worker process (``worker.py``); remote-hot's
worker starts its own server process (``server.py``).  With ``--trace 0`` it
prints the end-to-end metrics of one timed phase, and setup_s, the median
of SETUPS fresh-process set-ups.  With ``--trace 1`` it
prints the per-layer metrics of one traced run.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bootstrap  # noqa: E402
import measure  # noqa: E402
from layers import PER_LAYER  # noqa: E402

#: The workloads BENCHMARK.json gates on, and eval-join, which it does not:
#: its single-threaded matcher loop follows the host's speed spells too
#: closely for an absolute bound (NOTES.md).  It stays runnable for paired
#: parent/change comparisons of the matcher.
GATED = ("remote-hot", "write-mix")
WORKLOADS = GATED + ("eval-join",)
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
#: Fresh-process set-ups per untraced run, the measuring worker's included;
#: setup_s is their median.  The others run after the timed phase.
SETUPS = 3
#: Longest a worker process may take, set-up and checks included.
WORKER_TIMEOUT = 150.0


class WorkerError(RuntimeError):
    pass


def launch(workload: str, seed: int, seconds: int, trace: int, mode: str):
    """Run one worker; returns (seconds from launch to READY, RESULT or None)."""
    command = [
        sys.executable,
        str(bootstrap.ROOT / "perfbench" / "worker.py"),
        workload, str(seed), str(seconds), str(trace), mode,
    ]
    started = time.perf_counter()
    process = subprocess.Popen(
        command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        env=bootstrap.child_env(), cwd=str(bootstrap.ROOT),
    )
    watchdog = threading.Timer(WORKER_TIMEOUT, process.kill)
    watchdog.start()
    try:
        line = process.stdout.readline()
        setup_s = time.perf_counter() - started
        if not line.startswith("READY "):
            raise WorkerError(f"{workload} worker did not get ready")
        result = None
        for line in process.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            # SIGTERM lets the worker stop its own server process first.
            process.terminate()
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
    if code != 0:
        raise WorkerError(f"{workload} worker exited with code {code}")
    if mode == "run" and result is None:
        raise WorkerError(f"{workload} worker printed no result")
    return setup_s, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap.use_checkout_source()
    bootstrap.exit_on_sigterm()

    try:
        if args.trace:
            _, result = launch(args.workload, args.seed, args.seconds, 1, "run")
            units = dict(PER_LAYER)
            values = result["metrics"]
        else:
            setup_s, result = launch(args.workload, args.seed, args.seconds, 0, "run")
            setups = [setup_s] + [
                launch(args.workload, args.seed, args.seconds, 0, "setup")[0]
                for _ in range(SETUPS - 1)
            ]
            units = dict(END_TO_END)
            values = dict(result["metrics"], setup_s=measure.median(setups))
            result["detail"]["setup_samples_s"] = setups
    except WorkerError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("detail " + json.dumps(result["detail"], sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
