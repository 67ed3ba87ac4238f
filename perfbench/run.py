"""chemid benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload ks-invert --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout; it imports chemid from ``src/`` and
exits with code 2 when that is missing.  The process makes closed-loop
calls at concurrency 1 and starts no threads or processes of its own
(BLAS keeps its default thread count); ``harness.measure`` describes the
timing.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Human-readable lines come first; the last line of
standard output is the JSON result.  Scratch files live in ``.bench_out/``
at the checkout root, where traced runs also leave their spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_record() -> dict:
    """Where and on what the numbers were taken; information only."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset (library default)"),
        "git_commit": _git_commit(),
        "src_chemid_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "chemid").glob("*.py"))
        ),
    }


def _append_record(path: Path, entry: dict) -> None:
    doc = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {"results": []}
    doc["results"].append(entry)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="ks-invert, rate-study, stiff-forward or fine-io")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="also append the full result to this JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "chemid" / "__init__.py").is_file():
        print(f"error: no chemid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import chemid

    import_s = time.perf_counter() - t0
    if Path(chemid.__file__).resolve().parent != SRC / "chemid":
        print(f"error: imported chemid from {chemid.__file__}", file=sys.stderr)
        return 2
    from harness import REPORT_UNITS, measure
    from layers import write_spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        result = measure(workload, args.seconds, bool(args.trace), import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result.tracers:
        write_spans(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl", result.tracers)

    record = run_record()
    final = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }
    print(f"# {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"{result.ops} timed operation(s)")
    for name, value in result.report.items():
        print(f"{args.workload}  {name:<18} {value:.6g} {REPORT_UNITS[name]}")
    if args.trace:
        for name, m in result.metrics.items():
            print(f"{args.workload}  {name:<32} {m['value']:.6g} {m['unit']}")
    print("run_record " + json.dumps(record))
    if args.record:
        _append_record(args.record, {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "timed_operations": result.ops,
            "report": result.report, "run_record": record, "result": final,
        })
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
