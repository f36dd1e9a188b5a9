"""Run one benchmark workload and print its result as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload single_fresh --seed 1 \\
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The full result (provenance, measured shares, report-only metrics,
per-layer self times) is written to ``perfbench/out/``; a ``--smoke``
run is shrunk for tests and writes under ``perfbench/out/smoke/`` only.

Exit codes: 0 on success; 1 when the correctness gate fails (nothing
is printed on standard output); 2 when the program cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("single_fresh", "single_hot", "cluster_routed", "stream_window")


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload; write only under out/smoke")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.out = OUT / "smoke" if args.smoke else OUT
    return args


def stop_children() -> None:
    """Stop and reap every process this run started.

    The cluster workload's worker processes are joined when its stack
    closes; this also catches any a failed set-up left behind, and stops
    the ``multiprocessing`` resource tracker, which would otherwise
    outlive this process and be left for an init that may never reap it.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        try:
            tracker._stop()
        except ChildProcessError:  # already reaped
            pass
    try:
        while os.waitpid(-1, os.WNOHANG)[0] > 0:
            pass
    except ChildProcessError:  # no children left
        pass


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import harness
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        result = harness.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.smoke, ROOT, args.out)
    except harness.GateFailure as failure:
        for problem in failure.problems:
            print(f"correctness gate: {problem}", file=sys.stderr)
        return 1
    finally:
        stop_children()
    path = args.out / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']} {metric['unit']}")
    for name, metric in result.get("report_only", {}).items():
        print(f"{args.workload} {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
