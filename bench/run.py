"""Run the benchmark: each workload in fresh processes, every metric by name.

    python bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace [0|1]] [--out PATH]

For each workload (default: both, see ``BENCHMARK.json``) this
spawns ``bench/worker.py`` three times with ``REPRO_*`` variables
cleared.  Each spawn's time to ``READY`` is one set-up sample; the
first two stop there, the third measures.  Without ``--trace`` the
end-to-end metrics are printed; with it the run repeats under the
per-layer wrappers of ``tracer.py`` and prints the per-layer metrics,
checks each op's self-time ledger, and writes the first op's spans to
``bench/out/<workload>.trace.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (metric names are prefixed
``<workload>/`` when more than one workload runs).  Every result also
goes to ``--out`` (default ``bench/out/result.json``) for
``bench/compare.py``.  Exit status: 0 when every output checked out,
1 when some did not, 2 when no result could be produced.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
DEFAULT_SEED = 20150421
#: spawns per workload; the median of their set-up times is ``setup_s``
SETUPS = 3
#: a workload run (set-ups included) is killed after this long
HARD_DEADLINE_S = 175.0


class BenchError(RuntimeError):
    """A worker failed to produce a result."""


class Worker:
    """One ``worker.py`` process in its own process group."""

    def __init__(self, args: list[str], env: dict, deadline: float) -> None:
        self.deadline = deadline
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), *args],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env,
            cwd=REPO_ROOT, start_new_session=True,
        )
        self._buf = b""

    def readline(self) -> str:
        """The next stdout line, or BenchError at EOF or the deadline."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = self.deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchError("worker passed its deadline")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise BenchError(f"worker exited early (status {self.proc.wait()})")
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def finish(self) -> None:
        """Wait for a clean exit; kill the whole group on any other end."""
        try:
            status = self.proc.wait(timeout=max(self.deadline - time.perf_counter(), 0.1))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("worker did not exit before its deadline") from None
        if status != 0:
            raise BenchError(f"worker exited with status {status}")
        self.proc.stdout.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        # The group may hold a daemon the worker started.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.stdout.close()


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [str(REPO_ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up SETUPS times, measure on the last; the worker's result
    plus ``setup_s``."""
    deadline = time.perf_counter() + HARD_DEADLINE_S
    env = worker_env()
    setups = []
    for i in range(SETUPS):
        setup_only = i < SETUPS - 1
        worker = Worker([name, str(seed), str(seconds), str(int(trace)), str(int(setup_only))],
                        env, deadline)
        try:
            line = worker.readline()
            if line != "READY":
                raise BenchError(f"expected READY, worker said {line!r}")
            setups.append(time.perf_counter() - worker.spawned)
            if not setup_only:
                line = worker.readline()
                if not line.startswith("RESULT "):
                    raise BenchError(f"expected RESULT, worker said {line!r}")
                result = json.loads(line[len("RESULT "):])
            worker.finish()
        except BaseException:
            worker.kill()
            raise
    result["setup_samples_s"] = setups
    if not trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            **result["metrics"],
        }
    return result


def print_report(name: str, result: dict, seed: int, trace: bool) -> None:
    n = result["attempted"]
    print(f"== {name}: seed {seed}, {result['passes']} passes of identical inputs, "
          f"{n} ops, {result['failed']} failed")
    if trace:
        # Traced walls are inflated; a traced result holds only the layers.
        for metric, m in result["layers"].items():
            print(f"  {metric:<28} {m['value']:>14.6f} {m['unit']}")
        worst = max((abs(led["residual"]) for led in result["ledgers"]), default=0.0)
        print(f"  ledger: {len(result['ledgers'])} op(s) conserved, "
              f"worst residual {100 * worst:.4f}% of wall")
    else:
        notes = {
            "setup_s": f"median of {len(result['setup_samples_s'])} set-ups",
            "latency_p50_ms": f"median of {result['passes']} passes, n={result['latency_samples']}",
            "latency_p90_ms": f"median of {result['passes']} passes, n={result['latency_samples']}",
        }
        for metric, m in result["metrics"].items():
            print(f"  {metric:<16} {m['value']:>14.4f} {m['unit']:<8} {notes.get(metric, '')}")
    print(f"  {'error_rate':<16} {result['failed'] / n if n else 0.0:>14.4f} fraction "
          f"({result['failed']}/{n})")
    print(f"  outputs_digest   {result['outputs_digest']}")
    print("  model            " + " ".join(f"{k}={v}" for k, v in result["model"].items()))
    for error in result["errors"]:
        print(f"  ERROR {error}")


def main(argv: list[str] | None = None) -> int:
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"bench: no program source under {REPO_ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out" / "result.json")
    args = parser.parse_args(argv)

    results = {}
    for name in args.workload:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 2
        print_report(name, results[name], args.seed, bool(args.trace))

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "workloads": results},
        indent=1,
    ))
    key = "layers" if args.trace else "metrics"
    single = len(results) == 1
    metrics = {
        (m if single else f"{name}/{m}"): value
        for name, result in results.items() for m, value in result[key].items()
    }
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
