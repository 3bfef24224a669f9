"""CLI entry point: ``python -m repro.service --store sqlite:runs.sqlite``.

Runs the sweep service in the foreground until SIGINT/SIGTERM, then
drains gracefully: the HTTP listener stops accepting, the running job
finishes (its completed runs are already checkpointed either way),
queued jobs are cancelled, and the worker pool and store close. Exit
status 0 on a clean drain — the service equivalent of the sweep CLI's
exit ladder, which lives instead in each job's ``exit_code`` field.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.experiments.runner import default_jobs
from repro.service.app import ServiceApp
from repro.service.http import serve
from repro.service.jobs import SweepService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="long-running sweep service: HTTP study submission, "
        "a job queue, shared-store results",
    )
    parser.add_argument(
        "--store",
        required=True,
        metavar="URL",
        help="shared result store all jobs checkpoint into: "
        "sqlite:runs.sqlite | dir:results/ (the sweep CLI's --store urls)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=8008, help="bind port (default 8008; 0 = ephemeral)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes each study fans out over (0 = all cores)",
    )
    parser.add_argument(
        "--on-error",
        default="fail",
        metavar="MODE",
        help="default failure policy for jobs that set none: "
        "fail | continue | retry:N (default fail)",
    )
    parser.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-run wall-clock budget for jobs that set none",
    )
    parser.add_argument(
        "--mp-context",
        default="spawn",
        choices=("spawn", "fork", "forkserver"),
        help="worker start method (default spawn: forking from a "
        "threaded server is hazardous)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-request logging"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    jobs = default_jobs() if args.jobs == 0 else args.jobs
    service = SweepService(
        args.store,
        jobs=jobs,
        default_on_error=args.on_error,
        default_run_timeout=args.run_timeout,
        mp_context=args.mp_context,
    ).start()
    server = serve(ServiceApp(service), args.host, args.port, quiet=args.quiet)
    host, port = server.server_address[:2]
    print(
        f"repro sweep service on http://{host}:{port} "
        f"(store {args.store}, {jobs} worker(s)); Ctrl-C to drain",
        flush=True,
    )

    stop = threading.Event()
    # An explicit SIGINT handler (not just KeyboardInterrupt): processes
    # started with `&` from a non-interactive shell — the CI smoke job —
    # inherit SIGINT ignored, and only installing a handler undoes that.
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
    serve_thread.start()
    try:
        while not stop.is_set():
            stop.wait(0.2)
    except KeyboardInterrupt:
        pass
    print("draining: finishing the running job, cancelling the queue", flush=True)
    server.shutdown()
    serve_thread.join()
    server.server_close()
    service.shutdown()
    print("drained; store closed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
