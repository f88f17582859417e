#!/usr/bin/env python3
"""Benchmark of the longmem CLI, end to end and layer by layer.

    python3 bench/run.py --workload <name|all> --seed <n> [--seconds <s>] [--trace 0|1]

Run from the root of a source checkout.  With ``--trace 0`` every operation
is a fresh ``python -m longmem.cli`` process, run one at a time; its wall
time, CPU time and peak RSS come from its own ``os.wait4`` rusage.  With
``--trace 1`` one unit of the workload runs inside this process, first
untraced and then with spans around every public function of the package
(see ``spans.py``), and the per-layer metrics come from those spans.

Every operation's outputs are checked by a route other than the one being
timed (see ``checks.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, whose names
and units are those declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = SRC / "longmem" / "configs"
WORK = ROOT / ".bench_work"

# one BLAS thread per child, so shard threads x BLAS threads <= nproc
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0
SETUP_CODE = ("import sys, longmem, longmem.cli\n"
              "for path in sys.argv[1:]:\n"
              "    if not longmem.validate(longmem.load_spec(path)).ok:\n"
              "        sys.exit(2)\n")


@dataclass(frozen=True)
class Workload:
    command: str                # CLI subcommand
    configs: tuple[str, ...]    # bundled configs, one operation each, in turn
    work_unit: str
    warmup: str                 # small bundled config, run once before a traced run
    replications: int | None = None   # N written into the config (verify-clt)
    threads: int | None = None        # --threads; None keeps the CLI default


# why each workload was chosen: README.md.  BENCHMARK.json declares only
# analyze-fig and clt-boundary; the other two run by name and under "all".
WORKLOADS = {
    "analyze-fig": Workload(
        "analyze", ("fig1a.json", "fig1b.json"), "covariance entries (q^2 lags)",
        "clt_long_reference.json"),
    "simulate-long": Workload(
        "simulate", ("clt_long_reference.json",), "path values (n q)",
        "clt_boundary_reference.json"),
    "clt-long": Workload(
        "verify-clt", ("clt_long_reference.json",), "replications",
        "clt_boundary_reference.json",
        # each shard thread holds a 263,273-row innovation block; the cap
        # bounds memory on large hosts
        replications=500, threads=min(NPROC, 4)),
    "clt-boundary": Workload(
        "verify-clt", ("clt_boundary_reference.json",), "replications",
        "clt_boundary_reference.json", replications=50_000, threads=1),
}


@dataclass(frozen=True)
class Operation:
    index: int
    seed: int
    config: Path
    out: Path
    argv: tuple[str, ...]       # CLI arguments after "longmem"


@dataclass(frozen=True)
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def operation_seed(workload: str, seed: int, index: int) -> int:
    return random.Random(f"{workload}:{seed}:{index}").randrange(1, 2 ** 31)


def prepare(name: str, seed: int, index: int, work: Path, tag: str = "op") -> Operation:
    """Write the config of operation ``index``: a bundled config with its seed
    (and, for verify-clt, N) replaced.  A "confirm" operation reruns operation
    ``index`` at a seed of its own."""
    wl = WORKLOADS[name]
    base = wl.configs[index % len(wl.configs)]
    cfg = json.loads((CONFIGS / base).read_text())
    cfg["seed"] = operation_seed(f"{name}:confirm" if tag == "confirm" else name,
                                 seed, index)
    if wl.replications is not None:
        cfg["N"] = wl.replications
    out = work / f"{tag}{index}"
    out.mkdir(parents=True)
    path = out / base
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    argv = [wl.command, "--config", str(path), "--out", str(out / "result")]
    if wl.threads is not None:
        argv += ["--threads", str(wl.threads)]
    return Operation(index, cfg["seed"], path, out / "result", tuple(argv))


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("LONGMEM_")}
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict, log: Path) -> Child:
    """Run one process to completion; CPU and RSS from its own rusage."""
    with log.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


class Verifier:
    """Checks each operation's outputs and counts the outcomes."""

    def __init__(self, name: str, rerun):
        sys.path.insert(0, str(SRC))
        import longmem
        import checks
        self.longmem, self.checks = longmem, checks
        self.workload = WORKLOADS[name]
        self.name = name
        self.references: dict = {}
        self.rerun = rerun          # op -> (its "confirm" Operation, exit code)
        self.attempted = self.failed = self.rejected = 0

    def __call__(self, op: Operation, returncode: int) -> int | None:
        """Verified work units of the operation, or None when it failed.

        A verify-clt run whose outputs pass every check but whose own 4-sigma
        verdict fails (exit 1) is a rejection, which a correct sampler gives
        about 1% of the time at N=500.  It is counted on its own line and
        confirmed by an untimed rerun at another seed: the operation fails if
        that run is rejected too, or fails a check.
        """
        self.attempted += 1
        units, reason = self._check(op, returncode)
        if reason == "rejected":
            self.rejected += 1
            again, rc = self.rerun(op)
            units, reason = self._check(again, rc)
            if reason == "rejected":
                reason = f"verdict rejected again at seed {again.seed}"
            elif reason:
                op, reason = again, f"confirming rerun: {reason}"
        if not reason:
            return units
        self.failed += 1
        log = op.out.parent / "stderr.log"
        tail = log.read_text(errors="replace")[-2000:] if log.exists() else ""
        print(f"FAILED {self.name} operation {op.index} (seed {op.seed}): {reason}\n{tail}",
              file=sys.stderr)
        return None

    def _check(self, op: Operation, returncode: int) -> tuple[int | None, str]:
        """(work units, "") when the outputs pass, else (None, reason)."""
        wl, checks = self.workload, self.checks
        if returncode not in ((0, 1) if wl.command == "verify-clt" else (0,)):
            return None, f"exit code {returncode}"
        try:
            spec = self.longmem.load_spec(op.config)
            if wl.command == "analyze":
                return checks.check_analyze(spec, op.out, self.references), ""
            if wl.command == "simulate":
                return checks.check_simulate(self.longmem, spec, spec.horizon,
                                             op.seed, op.out), ""
            if checks.check_clt(spec, wl.replications, returncode, op.out):
                return wl.replications, ""
            return None, "rejected"
        except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
            return None, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, work: Path) -> tuple[dict, Verifier]:
    """End-to-end run: set-up processes, then CLI processes for ``seconds``."""
    wl = WORKLOADS[name]
    env = child_env()
    first = [prepare(name, seed, i, work, "setup") for i in range(len(wl.configs))]
    setup = []
    for r in range(SETUP_REPEATS):
        child = run_child([sys.executable, "-c", SETUP_CODE] + [str(o.config) for o in first],
                          env, work / f"setup{r}.log")
        if child.returncode != 0:
            raise RuntimeError(f"set-up process exited {child.returncode}: "
                               + (work / f"setup{r}.log").read_text()[-2000:])
        setup.append(child.wall_s)

    # whole units (analyze runs both figures); another unit starts only if at
    # least half of it, at the mean unit time so far, fits in ``seconds``, so
    # a run overshoots by at most half a unit
    runs: list[tuple[Operation, Child]] = []
    start = time.perf_counter()
    while True:
        for _ in wl.configs:
            op = prepare(name, seed, len(runs), work)
            runs.append((op, run_child([sys.executable, "-m", "longmem.cli", *op.argv],
                                       env, op.out.parent / "stderr.log")))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / (len(runs) // len(wl.configs)) / 2 > seconds:
            break

    def rerun(op: Operation) -> tuple[Operation, int]:
        again = prepare(name, seed, op.index, op.out.parent, "confirm")
        child = run_child([sys.executable, "-m", "longmem.cli", *again.argv],
                          env, again.out.parent / "stderr.log")
        return again, child.returncode

    verify = Verifier(name, rerun)
    good = [(child, units) for op, child in runs
            if (units := verify(op, child.returncode)) is not None]
    measured = good or [(child, 0) for _, child in runs]
    metrics = {
        "wall_s": statistics.median(c.wall_s for c, _ in measured),
        "cpu_s": statistics.median(c.cpu_s for c, _ in measured),
        "work_per_s": statistics.median(u / c.wall_s for c, u in measured),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c, _ in measured),
        "setup_s": statistics.median(setup),
    }
    print(f"# {name}: {len(runs)} operations in {elapsed:.1f} s, {SETUP_REPEATS} set-up "
          f"processes; work unit: {wl.work_unit}; operation wall s: "
          + " ".join(f"{c.wall_s:.2f}" for _, c in runs))
    return metrics, verify


def traced(name: str, seed: int, work: Path) -> tuple[dict, Verifier]:
    """Per-layer run: one unit in this process, untraced and then traced.

    An untimed warm-up first runs the same subcommand on a small bundled
    config (its own seed and N), so one-time costs such as lazy imports land
    in neither timed pass.
    """
    for key in [k for k in os.environ if k.startswith("LONGMEM_")]:
        del os.environ[key]

    def rerun(op: Operation) -> tuple[Operation, int]:
        again = prepare(name, seed, op.index, op.out.parent, "confirm")
        return again, longmem.cli.main(list(again.argv))

    verify = Verifier(name, rerun)
    import longmem.cli
    import spans

    tracer = spans.Tracer(verify.longmem)
    wl = WORKLOADS[name]
    warm = [wl.command, "--config", str(CONFIGS / wl.warmup), "--out", str(work / "warmup")]
    if wl.threads is not None:
        warm += ["--threads", str(wl.threads)]
    if longmem.cli.main(warm) not in (0, 1):
        raise RuntimeError(f"warm-up run {warm} failed")
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    per_op = []
    for tag in walls:
        for i in range(len(wl.configs)):
            op = prepare(name, seed, i, work, tag)
            start = time.perf_counter()
            if tag == "traced":
                rc, recorded = tracer.run(lambda: longmem.cli.main(list(op.argv)))
            else:
                rc = longmem.cli.main(list(op.argv))
            walls[tag].append(time.perf_counter() - start)
            if tag == "traced":
                per_op.append(spans.layer_metrics(recorded))
            verify(op, rc)
    metrics = {key: statistics.fmean(m[key] for m in per_op) for key in per_op[0]}
    metrics["trace.overhead_s"] = statistics.fmean(
        t - u for t, u in zip(walls["traced"], walls["untraced"]))
    print(f"# {name}: traced {len(per_op)} operation(s) in one process; "
          f"untraced wall {statistics.fmean(walls['untraced']):.3f} s per operation")
    return metrics, verify


# ---------------------------------------------------------------------------
# environment block and output
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return None
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "longmem").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(name: str, seed: int, trace: bool) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": THREAD_PINS,
        "seed": seed,
        "trace": trace,
        "workload": name,
        "command": WORKLOADS[name].command,
        "configs": list(WORKLOADS[name].configs),
        "N": WORKLOADS[name].replications,
        "threads": WORKLOADS[name].threads,
        # --threads changes the reduction order of the Monte Carlo shards, so
        # outputs are never compared across thread counts
        "thread_invariance_checked": False,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_all(args) -> int:
    """Each workload in its own benchmark process, so no child is spawned from
    a process that has grown (see ``main``); prints one combined result."""
    results, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        attempted, failed = attempted + result["attempted"], failed + result["failed"]
        results.update({f"{name}/{k}": m for k, m in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "longmem" / "cli.py").is_file():
        print(f"error: no longmem sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)   # before numpy loads in this process
    if args.workload == "all":
        return run_all(args)
    name, units = args.workload, declared_metrics(bool(args.trace))

    work = WORK / f"run-{os.getpid()}"
    (work / name).mkdir(parents=True)
    try:
        if args.trace:
            metrics, verify = traced(name, args.seed, work / name)
        else:
            metrics, verify = measure(name, args.seed, args.seconds, work / name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"disagree with BENCHMARK.json")
    # numpy and scipy load only now: Linux starts a child's peak RSS at its
    # parent's peak, so the children must be spawned while this process is small
    print("env " + json.dumps(environment(name, args.seed, bool(args.trace)), sort_keys=True))
    for key, value in metrics.items():
        print(f"{name:14s} {key:48s} {value:>16.6f} {units[key]}")
    print(f"{name:14s} {'error_rate':48s} {verify.failed / verify.attempted:>16.6f} "
          f"failed/attempted ({verify.failed}/{verify.attempted})")
    if WORKLOADS[name].command == "verify-clt":
        print(f"{name:14s} {'verdict_rejections':48s} {verify.rejected:>16d} "
              f"of {verify.attempted} (exit 1, outputs pass every check; each confirmed by a rerun)")
    print(json.dumps({"correct": verify.failed == 0, "attempted": verify.attempted,
                      "failed": verify.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
