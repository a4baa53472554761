"""The semivar benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports semivar from ./src and
writes scratch files under ./.perfbench_tmp/, which it removes.

Workloads (see perfbench/README.md for why each was chosen):

* check-o4    semivar check --orders 4 --claims all --out FILE
* enum-iso4   semivar enumerate --order 4 --dedup
* recheck-o4  Report.loads + claims.recheck_result on every FAILS record

The corpora are exhaustive, so --seed is recorded but changes no input.
Every measured operation runs in a fresh worker process; operations are
started back to back while the next is expected to end within --seconds,
at least one.  --trace 0 prints the end-to-end metrics, --trace 1 times
one untraced and one traced operation and prints the per-layer metrics.  The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("check-o4", "enum-iso4", "recheck-o4")
#: interpreter start + import semivar, timed this many times per run:
#: half before the measured operations and half after, so that the
#: median spans the run rather than one moment of it
IMPORT_SAMPLES = 10
#: a run must end within this many seconds of its start
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


class Children:
    """Child processes of one run, all confined to the checkout."""

    def __init__(self, root: Path, tmp: Path) -> None:
        self.root = root
        self.tmp = tmp
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before starting a child process")
        try:
            return subprocess.run(
                argv, cwd=self.root, env=self.env, capture_output=True,
                text=True, timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {' '.join(argv)}") from None

    def import_seconds(self, samples: int) -> list[float]:
        """Wall time of `samples` fresh interpreters that import semivar."""
        times = []
        for _ in range(samples):
            t0 = time.perf_counter()
            proc = self._run([sys.executable, "-c", "import semivar"])
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise BenchError(f"import semivar failed:\n{proc.stderr}")
        return times

    def worker(self, task: str, *extra: str) -> dict:
        proc = self._run([sys.executable, str(HERE / "worker.py"), task,
                          "--tmp", str(self.tmp), *extra])
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker {task} exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def build_input(children: Children, workload: str, tally: dict) -> tuple[float, list[str]]:
    """(seconds, worker arguments) of building the workload's input, if
    it has one.  It is built once: it is a check over order 4, so
    repeating it would not fit a run."""
    if workload != "recheck-o4":
        return 0.0, []
    report = children.tmp / "recheck-input.jsonl"
    built = children.worker("build-recheck-input", "--input", str(report))
    _add(tally, built)
    return built["build_s"], ["--input", str(report)]


def _add(tally: dict, part: dict) -> None:
    tally["attempted"] += part["attempted"]
    tally["failed"] += part["failed"]
    tally["problems"] += part["problems"]


def measure(children: Children, workload: str, seconds: float, extra) -> list[dict]:
    """One operation per fresh worker, started back to back while the
    next one, taking as long as the last, would end within `seconds`.
    The first always runs."""
    runs = []
    t0 = time.perf_counter()
    last = 0.0
    while not runs or time.perf_counter() - t0 + last <= seconds:
        started = time.perf_counter()
        runs.append(children.worker(workload, *extra))
        last = time.perf_counter() - started
    return runs


def end_to_end(setup_s, runs) -> dict:
    ops = [run["op"] for run in runs]
    return {
        "wall_s": (statistics.median(op["wall_s"] for op in ops), "s"),
        "tables_per_s": (statistics.median(op["tables"] / op["wall_s"] for op in ops), "1/s"),
        "results_per_s": (statistics.median(op["results"] / op["wall_s"] for op in ops), "1/s"),
        "peak_rss_mb": (statistics.median(run["peak_rss_mb"] for run in runs), "MB"),
        "setup_s": (setup_s, "s"),
    }


def traced(children: Children, workload: str, extra, tally, expected) -> dict:
    plain = children.worker(workload, *extra)
    run = children.worker(workload, "--trace", *extra)
    _add(tally, plain["op"])
    _add(tally, run["op"])
    values = run["per_layer"]
    values["trace.overhead_ratio"] = run["op"]["wall_s"] / plain["op"]["wall_s"]
    return {name: (values.get(name, 0), unit)
            for name, unit, _ in layers.per_layer_spec(expected)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="semivar benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "semivar" / "__init__.py").is_file():
        print("error: run from a semivar checkout: ./src/semivar is missing",
              file=sys.stderr)
        return 2
    expected = checks.load_expected()
    tmp = root / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tally = {"attempted": 0, "failed": 0, "problems": []}
    try:
        children = Children(root, tmp)
        children.import_seconds(1)  # writes the bytecode caches, not timed
        if args.trace:
            _, extra = build_input(children, args.workload, tally)
            metrics = traced(children, args.workload, extra, tally, expected)
            detail = "one untraced and one traced operation"
        else:
            imports = children.import_seconds(IMPORT_SAMPLES // 2)
            build_s, extra = build_input(children, args.workload, tally)
            runs = measure(children, args.workload, args.seconds, extra)
            for run in runs:
                _add(tally, run["op"])
            imports += children.import_seconds(IMPORT_SAMPLES - len(imports))
            metrics = end_to_end(statistics.median(imports) + build_s, runs)
            detail = (f"timings are medians of {len(runs)} operation(s), each in "
                      f"a fresh process; setup_s takes the median of "
                      f"{IMPORT_SAMPLES} imports")
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    for problem in tally["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} (inputs are exhaustive "
          f"and do not depend on it) trace={args.trace}: {detail}")
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
