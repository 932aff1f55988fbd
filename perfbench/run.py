"""convnorm benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  convnorm is imported from ``src/``; the
benchmark refuses to run without it.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones.  Details (environment, per-job times, stdout hashes, failures, and the
spans of a traced run) go to ``.perfbench/results/``.

A run:

1. times the set-up ``PROBES`` times, each in a fresh process (import,
   kernel generation, KTEN write and read, reference loading), and reports
   the median as ``setup_s``;
2. sets up once more in this process and runs whole passes over the
   workload's fixed job list, at least one, until the next would end after
   ``--seconds``; every job is timed on its own and nothing else is;
3. with ``--trace 1``, runs one more pass with the span wrappers installed,
   then removes them;
4. loads or computes the references (see ``refs.py``), checks every
   output, and prints the metrics.

``--store-refs`` recomputes this seed's references and stores them in
``perfbench/refs/<workload>.json`` with the command that made them.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
PROBES = 9
WORKLOAD_NAMES = ("ladder", "train", "verify")
# Environment a workload runs in unless the caller set it.  `convnorm table`
# runs its rows on one pool worker per core; on 2 cores its time flipped
# between modes from run to run (8.7-10.3 s or 12.2-13.8 s; with
# single-threaded BLAS, 4.5-8.3 s), so `verify` runs the pool with one worker.
WORKLOAD_ENV = {"verify": {"CONVNORM_THREADS": "1"}}
CHILD_TIMEOUT = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "attainment": "ratio",
}
# Per-layer metrics that come from the run and its checks rather than spans.
RUN_PER_LAYER_UNITS = {
    "quality.converged_frac": "ratio",
    "quality.sigma_shortfall": "ratio",
    "quality.oracle_shortfall": "ratio",
    "quality.check_fail_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def _import_paths() -> None:
    if not (ROOT / "src" / "convnorm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no convnorm sources under {ROOT / 'src'}; "
                         "run from a checkout of the repository")
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    return {
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CONVNORM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
    }


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def store_path(workload: str) -> Path:
    return HERE / "refs" / f"{workload}.json"


def set_up(name: str, seed: int, workdir: Path):
    """Everything a fresh process does before its first job."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workdir.mkdir(parents=True, exist_ok=True)
    workload.setup(workdir)
    stored = load_json(store_path(name)).get(str(seed), {}).get("refs", {})
    return workload, stored


def probe(args) -> int:
    workdir = OUT / f"work-{os.getpid()}"
    try:
        set_up(args.workload, args.seed, workdir)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def probe_setup(args) -> list[float]:
    """Set-up time of ``PROBES`` fresh processes, each timed from its start."""
    times = []
    for _ in range(PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------------------
# passes


def run_pass(workload, records: list, times: list, tracer=None) -> float:
    """One pass over the job list; each job timed on its own."""
    wall = 0.0
    for name, job in workload.jobs():
        if tracer is not None:
            tracer.job = len(records)
        start = time.perf_counter()
        try:
            rec = job()
        except Exception as exc:  # a failed job is counted, never fatal
            rec = {"error": f"{name}: {exc!r}"}
        elapsed = time.perf_counter() - start
        wall += elapsed
        times.append((name, elapsed))
        records.append(workload.digest(rec))
    return wall


def run_passes(workload, seconds: float, records: list, times: list) -> tuple[list[float], float]:
    """Whole passes until the next one would end after ``seconds``.

    Returns the pass times and the peak RSS (MB) at the end of the first
    pass, so that memory is measured on a fixed amount of work."""
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(run_pass(workload, records, times))
        if len(walls) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            return walls, peak_rss_mb


# ---------------------------------------------------------------------------
# references


def resolve_refs(name: str, seed: int, needs: list[dict], stored: dict, force: bool) -> dict:
    """Reference entries for every need: stored, cached, or computed now."""
    cache_path = OUT / "refs-cache.json"
    cache = load_json(cache_path)
    found = {} if force else {**cache, **stored}
    missing = {spec["key"]: spec for spec in needs if spec["key"] not in found}
    if missing:
        import numpy as np

        OUT.mkdir(exist_ok=True)
        request = OUT / f"refs-request-{os.getpid()}.npz"
        answer = OUT / f"refs-answer-{os.getpid()}.json"
        try:
            specs = [{k: v for k, v in s.items() if k != "kernel"} for s in missing.values()]
            np.savez(request, specs=json.dumps(specs),
                     **{key: s["kernel"] for key, s in missing.items()})
            subprocess.run([sys.executable, str(HERE / "refs.py"), str(request), str(answer)],
                           cwd=ROOT, timeout=CHILD_TIMEOUT, check=True)
            computed = json.loads(answer.read_text())
        finally:
            request.unlink(missing_ok=True)
            answer.unlink(missing_ok=True)
        found.update(computed)
        cache.update(computed)
        cache_path.write_text(json.dumps(cache, indent=1, sort_keys=True))
    entries = {spec["key"]: found[spec["key"]] for spec in needs}
    if force:
        store = load_json(store_path(name))
        store[str(seed)] = {
            "command": f"python3 perfbench/run.py --workload {name} --seed {seed} --store-refs",
            "refs": entries,
        }
        store_path(name).write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    return entries


# ---------------------------------------------------------------------------
# metrics


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


def end_to_end(workload, setup_times, walls, times, peak_rss_mb, checks) -> dict:
    if workload.STEPS_ARE_JOBS:
        # One value per step of the fixed list (its median over passes), so
        # the percentiles mean the same whatever the number of passes.
        per_job: dict[str, list[float]] = {}
        for name, t in times:
            per_job.setdefault(name, []).append(t)
        steps = [statistics.median(ts) for name, ts in per_job.items() if name != "init"]
    else:
        steps = walls
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "step_p50_ms": statistics.median(steps) * 1e3,
        "step_p90_ms": quantile(steps, 0.9) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        # nothing compared (every job failed) counts as the worst attainment
        "attainment": statistics.fmean(checks.sigma_ratios + checks.oracle_ratios or [0.0]),
    }


def quality(checks, attempted: int) -> dict:
    return {
        "quality.converged_frac": (sum(checks.converged) / len(checks.converged)
                                   if checks.converged else 0.0),
        "quality.sigma_shortfall": max([1 - r for r in checks.sigma_ratios], default=0.0),
        "quality.oracle_shortfall": max([1 - r for r in checks.oracle_ratios], default=0.0),
        "quality.check_fail_frac": len(checks.failed_jobs) / attempted,
    }


def stdout_stability(times, records) -> dict:
    """Per job name: the distinct stdout hashes seen across passes (evidence only)."""
    seen: dict[str, list[str]] = {}
    for (name, _), rec in zip(times, records):
        if "sha256" in rec:
            hashes = seen.setdefault(name, [])
            if rec["sha256"] not in hashes:
                hashes.append(rec["sha256"])
    return seen


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--store-refs", action="store_true",
                        help="recompute this seed's references and store them")
    args = parser.parse_args(argv)
    _import_paths()
    for var, value in WORKLOAD_ENV.get(args.workload, {}).items():
        os.environ.setdefault(var, value)
    if args.setup_probe:
        return probe(args)
    if args.workload == "all":
        return run_all(args)

    load_start = loadavg()
    setup_times = probe_setup(args)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload, stored = set_up(args.workload, args.seed, workdir)
        env = environment()
        records: list[dict] = []
        times: list[tuple[str, float]] = []
        walls, peak_rss_mb = run_passes(workload, args.seconds, records, times)
        spans = []
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            with tracer:
                traced_wall = run_pass(workload, records, times, tracer)
            spans = tracer.spans
        refs = resolve_refs(args.workload, args.seed, workload.needs(records), stored,
                            args.store_refs)
        checks = workload.check(records, {k: v["value"] for k, v in refs.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    failed = len(checks.failed_jobs)
    if args.trace:
        from spans import PER_LAYER_UNITS, layer_metrics

        metrics = layer_metrics(spans)
        metrics["trace.overhead_frac"] = traced_wall / statistics.median(walls) - 1.0
        metrics.update(quality(checks, attempted))
        units = {**PER_LAYER_UNITS, **RUN_PER_LAYER_UNITS}
    else:
        metrics = end_to_end(workload, setup_times, walls, times, peak_rss_mb, checks)
        units = END_TO_END_UNITS

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "loadavg": {"start": load_start, "end": loadavg()},
        "setup_times_s": setup_times, "pass_walls_s": walls,
        "jobs": [{"name": n, "seconds": t} for n, t in times],
        "stdout_sha256": stdout_stability(times, records),
        "failures": checks.failures, "metrics": metrics,
        "references": {k: {f: v[f] for f in ("kind", "shape", "value", "method")}
                       for k, v in refs.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if spans:
        with open(results / f"{stem}-spans.jsonl", "w") as handle:
            for s in spans:
                handle.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.job,
                                         s.thread, s.info]) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(walls)}  "
          f"jobs {attempted}  failed {failed}")
    print("environment " + json.dumps({**env, "loadavg": detail["loadavg"]}))
    for failure in checks.failures:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
