"""quasikit benchmark: CLI wall time, memory and correctness per workload.

Run from the root of a quasikit checkout:

    python3 perfbench/run.py --workload seq-horizon --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads in turn.  The load is a closed
loop with one client: each command starts after the previous one exits.

``--trace 0`` measures the end-to-end metrics.  For about ``--seconds`` the
run cycles through the workload's commands: each runs as a fresh
``python -m quasikit.cli`` process timed from spawn to exit, then through
``quasikit.cli.dispatch`` in one long-lived interpreter (worker.py).  wall_s
and warm_s are the mean time of one pass over the run (see mean_pass);
peak_rss_mb is the largest per-command median child max-RSS;
setup_s is the median of fresh ``quasikit --version`` processes spread over
the run.

``--trace 1`` measures the per-layer metrics instead: rounds of an untraced
and a traced warm pass (tracing.py).  The fastest traced pass gives the
breakdown, and its excess over the fastest untraced pass is the tracing
overhead.  cli.import_s is the median ``import quasikit.cli`` time in fresh
processes.

Either way every command's report is checked independently (checks.py), and
every later execution must reproduce the checked bytes.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.  A run
record with the per-pass samples and the platform stamp goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

import numpy as np

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench"
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
MIN_CYCLES = 2
WARM_SHARE = 0.5  # warm executions of a command fill this share of its fresh execution's time
MAX_WARM_REPEATS = 8

IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import quasikit.cli\n"
    "sys.stdout.write(repr(time.perf_counter() - start))\n"
)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


class Runner:
    """Runs one workload's commands in fresh processes and in a warm worker,
    and keeps the accounting of attempts, failures and output digests."""

    def __init__(self, workload: str, src: Path, workdir: Path, cmds: list[workloads.Command]):
        self.workload = workload
        self.src = src
        self.workdir = workdir
        self.cmds = cmds
        self.env = {k: v for k, v in os.environ.items() if k != "QUASIKIT_LOG"}
        self.env["PYTHONPATH"] = str(src)
        self.attempts = [0] * len(cmds)
        self.failures = [0] * len(cmds)
        self.reference: list[str | None] = [None] * len(cmds)
        self.worker: subprocess.Popen | None = None
        self.worker_log = None

    # -- fresh processes ------------------------------------------------------

    def spawn(self, argv: list[str], stderr_name: str) -> tuple[int, float, float]:
        """Exit code, spawn-to-exit seconds and max RSS (MB) of one CLI process."""
        with open(self.workdir / stderr_name, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "quasikit.cli", *argv],
                cwd=self.workdir, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, elapsed, usage.ru_maxrss / 1024.0

    def setup_sample(self) -> float:
        code, elapsed, _ = self.spawn(["--version"], "version.stderr")
        if code != 0:
            raise RuntimeError(f"quasikit --version exited {code}")
        return elapsed

    def import_sample(self) -> float:
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=self.workdir, env=self.env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        return float(out.stdout)

    def clear_outputs(self, indices) -> None:
        for i in indices:
            for name in (self.cmds[i].out, self.cmds[i].csv):
                if name is not None:
                    (self.workdir / name).unlink(missing_ok=True)

    def fresh(self, i: int) -> tuple[float, float]:
        """Run command ``i`` in a fresh process: (seconds, max RSS in MB)."""
        cmd = self.cmds[i]
        self.clear_outputs([i])
        code, elapsed, peak = self.spawn(cmd.argv, f"{cmd.name}.stderr")
        self._account(i, code)
        return elapsed, peak

    # -- warm worker ----------------------------------------------------------

    def start_worker(self) -> None:
        self.worker_log = open(self.workdir / "worker.stderr", "wb")
        self.worker = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(self.src)],
            cwd=self.workdir, env=self.env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.worker_log,
        )

    def stop_worker(self) -> None:
        if self.worker is None:
            return
        try:
            self.worker.stdin.write(json.dumps({"op": "quit"}) + "\n")
            self.worker.stdin.close()
        except OSError:
            pass
        try:
            self.worker.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.worker.kill()
            self.worker.wait()
        self.worker.stdout.close()
        self.worker_log.close()
        self.worker = None

    def _request(self, cwd: Path, argvs: list[list[str]], trace=False, dump=None) -> dict:
        request = {"op": "pass", "cwd": str(cwd), "argvs": argvs, "trace": trace, "dump": dump}
        self.worker.stdin.write(json.dumps(request) + "\n")
        self.worker.stdin.flush()
        line = self.worker.stdout.readline()
        if not line:
            raise RuntimeError("the warm worker exited; see worker.stderr")
        return json.loads(line)

    def warm(self, indices, trace=False, dump=None) -> dict:
        """Run the listed commands in the warm worker, in order."""
        self.clear_outputs(indices)
        reply = self._request(self.workdir, [self.cmds[i].argv for i in indices], trace, dump)
        for i, code in zip(indices, reply["codes"]):
            self._account(i, code)
        return reply

    def warm_up(self, seed: int) -> None:
        """One worker pass over the same commands on tiny inputs, so imports
        and lazy set-up finish before any timed warm execution."""
        tiny_dir = self.workdir / "warmup"
        tiny = workloads.generate(self.workload, seed, tiny_dir, scale="tiny")
        self._request(tiny_dir, [c.argv for c in tiny])

    # -- accounting -----------------------------------------------------------

    def _digest(self, cmd) -> str | None:
        h = hashlib.sha256()
        for name in (cmd.out, cmd.csv):
            if name is None:
                continue
            try:
                h.update((self.workdir / name).read_bytes())
            except OSError:
                return None
        return h.hexdigest()

    def _account(self, i: int, code: int) -> None:
        """Count one execution of command ``i``; it fails on a nonzero exit
        or output bytes that differ from the command's first execution."""
        self.attempts[i] += 1
        digest = self._digest(self.cmds[i]) if code == 0 else None
        if self.attempts[i] == 1:
            self.reference[i] = digest
        if digest is None or digest != self.reference[i]:
            self.failures[i] += 1

    def check_outputs(self) -> dict[str, list[str]]:
        """Independent checks of each command's (byte-stable) output; a
        command that fails them fails on every execution."""
        problems = {}
        for i, cmd in enumerate(self.cmds):
            found = checks.check_command(cmd, self.workdir)
            if found:
                problems[cmd.name] = found
                self.failures[i] = self.attempts[i]
        return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, src: Path, root: Path,
                 scale: str = "full") -> dict:
    """One measured run of a workload; ``scale="tiny"`` is for the self-test."""
    workdir = root / OUT_DIR / "work" / f"{name}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    cmds = workloads.generate(name, seed, workdir, scale=scale)
    runner = Runner(name, src, workdir, cmds)
    record: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                    "environment": environment(), "commands": [c.name for c in cmds]}
    try:
        if trace:
            metrics = _trace_run(runner, seed, seconds, record)
        else:
            metrics = _timed_run(runner, seed, seconds, record)
    finally:
        runner.stop_worker()
    problems = runner.check_outputs()
    attempted, failed = sum(runner.attempts), sum(runner.failures)
    record.update({"problems": problems, "attempted": attempted, "failed": failed,
                   "fail_ratio": failed / attempted if attempted else 1.0,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})
    results = root / OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def mean_pass(samples: list[list[float]]) -> float:
    """Mean time of one pass: the sum over commands of each command's mean
    execution time in the run.

    On the shared 2-core host this was sized on, single executions vary by
    up to 1.6x.  Over nine sets of ten runs, the spread of this estimator
    across seeds was at most 0.17 of its median, where the sum of
    per-command fastest executions reached 0.32 and per-command medians
    0.23 (README.md, "Steadiness").
    """
    return sum(mean(column) for column in samples)


def _timed_run(runner: Runner, seed: int, seconds: float, record: dict) -> dict:
    """Cycle through the commands until ``seconds`` have passed (at least
    MIN_CYCLES cycles): each command runs once in a fresh process, then in the
    warm worker until the warm executions have taken WARM_SHARE of the fresh
    one's time, so both estimators draw on executions spread over the run."""
    runner.start_worker()
    runner.warm_up(seed)
    n = len(runner.cmds)
    fresh: list[list[float]] = [[] for _ in range(n)]
    warm: list[list[float]] = [[] for _ in range(n)]
    rss: list[list[float]] = [[] for _ in range(n)]
    setup: list[float] = []
    deadline = time.perf_counter() + seconds
    cycle = 0
    while cycle < MIN_CYCLES or time.perf_counter() < deadline:
        # set-up samples are spread over the run, so one slow stretch on a
        # shared host cannot hold all of them
        setup.append(runner.setup_sample())
        for i in range(n):
            if cycle >= MIN_CYCLES and time.perf_counter() >= deadline:
                break
            elapsed, peak = runner.fresh(i)
            fresh[i].append(elapsed)
            rss[i].append(peak)
            spent = 0.0
            for _ in range(MAX_WARM_REPEATS):
                took = runner.warm([i])["seconds"][0]
                warm[i].append(took)
                spent += took
                if spent >= WARM_SHARE * elapsed:
                    break
        cycle += 1
    while len(setup) < SETUP_SAMPLES:
        setup.append(runner.setup_sample())
    record.update({"setup_samples": setup, "fresh_seconds": fresh, "warm_seconds": warm, "rss_mb": rss})
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (mean_pass(fresh), "s"),
        "warm_s": (mean_pass(warm), "s"),
        "peak_rss_mb": (max(median(r) for r in rss), "MB"),
    }


def _trace_run(runner: Runner, seed: int, seconds: float, record: dict) -> dict:
    """Rounds of an untraced and a traced warm pass for about ``seconds``
    (at least MIN_CYCLES)."""
    imports = [runner.import_sample() for _ in range(IMPORT_SAMPLES)]
    runner.start_worker()
    runner.warm_up(seed)
    every = range(len(runner.cmds))
    dump = str(runner.workdir / "spans.jsonl")
    warm, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_CYCLES or time.perf_counter() < deadline:
        warm.append(runner.warm(every))
        traced.append(runner.warm(every, trace=True, dump=dump))
    # the fastest traced pass gives a breakdown whose self times sum to it;
    # the overhead compares it with the fastest untraced pass
    warm_s = min(w["pass_s"] for w in warm)
    fastest = min(traced, key=lambda t: t["pass_s"])
    metrics = tracing.layer_metrics(fastest["trace"])
    metrics["cli.import_s"] = (median(imports), "s")
    metrics["trace.warm_s"] = (warm_s, "s")
    metrics["trace.traced_s"] = (fastest["pass_s"], "s")
    metrics["trace.overhead_s"] = (fastest["pass_s"] - warm_s, "s")
    metrics["trace.self_sum_s"] = (fastest["trace"]["outer_s"], "s")
    record.update({"import_samples": imports,
                   "warm_passes": [{"pass_s": w["pass_s"], "seconds": w["seconds"]} for w in warm],
                   "traced_passes": [{"pass_s": t["pass_s"], "seconds": t["seconds"]} for t in traced],
                   "trace_summaries": [t["trace"] for t in traced]})
    return metrics


def _print_record(record: dict) -> None:
    print(f"# workload {record['workload']} seed {record['seed']} trace {record['trace']}")
    print(f"# environment {json.dumps(record['environment'])}")
    for name, m in record["metrics"].items():
        print(f"{record['workload']:>13}  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"{record['workload']:>13}  {'fail_ratio':<48} {record['fail_ratio']:>14.6g} "
          f"failed/attempted ({record['failed']}/{record['attempted']})")
    for cmd, found in record["problems"].items():
        for problem in found:
            print(f"# check failed: {cmd}: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "quasikit" / "cli.py").is_file():
        print(f"perfbench: no quasikit source under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), src, root)
        _print_record(record)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
