"""Run every workload over several seeds and print every metric by name.

Usage, from the root of a checkout::

    python3 perfbench/report.py                      # every workload, seed 1
    python3 perfbench/report.py --seeds 1-10         # spread over ten seeds
    python3 perfbench/report.py --seeds 1-10 --record  # also write results/
    python3 perfbench/report.py --smoke --seconds 2  # quick look, out/smoke only

Each run is its own ``perfbench/run.py`` process, so ``peak_rss_mb`` is
the peak of a process that ran only that workload.  For every workload
and end-to-end metric the report prints the median, the quartiles, and
their distance as a share of the median next to the metric's bound from
``BENCHMARK.json``.  The exit code is non-zero when any run fails its
correctness gate.  ``--record`` writes ``perfbench/results/end_to_end.json``
(``per_layer.json`` with ``--trace 1``); it is refused for smoke runs,
which write only under ``perfbench/out/smoke``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The seed results are recorded with, and one kept back for later claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def seeds_of(text: str) -> List[int]:
    """``"3"``, ``"1,4,9"`` or ``"1-10"`` as a list of seeds."""
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def run_one(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool) -> Dict[str, Any]:
    """One ``run.py`` process; returns its full result, or the failure."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        return {"error": done.stderr.strip() or f"exit {done.returncode}"}
    out_dir = HERE / "out" / ("smoke" if smoke else "")
    path = out_dir / f"{workload}-s{seed}-t{trace}.json"
    return json.loads(path.read_text())


def summarize(values: List[float]) -> Dict[str, float]:
    row = {"median": statistics.median(values), "runs": len(values)}
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        row.update(q1=q1, q3=q3, spread=stats.quartile_spread(values))
    return row


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default=str(DEFAULT_SEED))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.record and args.smoke:
        parser.error("a smoke run is never recorded in perfbench/results")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    failures = 0
    summary: Dict[str, Any] = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds_of(args.seeds):
            result = run_one(workload, seed, args.seconds, args.trace,
                             args.smoke)
            if "error" in result:
                failures += 1
                print(f"{workload} seed {seed}: FAILED\n{result['error']}")
                continue
            results.append(result)
        if not results:
            continue
        metrics: Dict[str, Dict[str, Any]] = {}
        names = (list(results[0]["metrics"])
                 + list(results[0].get("report_only", {})))
        for name in names:
            source = "metrics" if name in results[0]["metrics"] else "report_only"
            values = [r[source].get(name, {}).get("value") for r in results]
            values = [v for v in values if v is not None]
            if not values:
                continue
            row = summarize(values)
            row["unit"] = results[0][source][name]["unit"]
            metrics[name] = row
            bound = bounds.get(name, {}).get("bound")
            spread = row.get("spread")
            verdict = ""
            if bound is not None and spread is not None:
                verdict = (f"  spread {spread:.3f} / bound {bound}"
                           + ("" if spread < bound / 3 else "  WIDE"))
            quartiles = (f" [{row['q1']:.6g}, {row['q3']:.6g}]"
                         if "q1" in row else "")
            print(f"{workload:15s} {name:28s} {row['median']:.6g}"
                  f"{quartiles} {row['unit']}{verdict}")
        shares = {
            key: statistics.median(r["shares"][key] for r in results)
            for key, value in results[0].get("shares", {}).items()
            if isinstance(value, (int, float))
        }
        unmeasured: Dict[str, str] = {}
        for r in results:
            unmeasured.update(r.get("unmeasured", {}))
        summary[workload] = {
            "why": whys.get(workload, ""),
            "seeds": [r["provenance"]["seed"] for r in results],
            "metrics": metrics,
            "shares": shares,
            "unmeasured": unmeasured,
        }
        if "layer_self_time" in results[0]:
            summary[workload]["layer_self_time_s"] = {
                layer: statistics.median(
                    r["layer_self_time"].get(layer, 0.0) for r in results)
                for layer in results[0]["layer_self_time"]
            }
    if args.record and failures == 0 and summary:
        provenance = dict(results[0]["provenance"])
        for key in ("workload", "seed", "params"):
            provenance.pop(key, None)
        kind = "per_layer" if args.trace else "end_to_end"
        out = HERE / "results" / f"{kind}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({
            "provenance": provenance,
            "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED,
            "trace": args.trace,
            "workloads": summary,
        }, indent=1) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
