"""End-to-end benchmark of dustpipe: three closed-loop workloads through the
public API, with output checks, and a separate traced run for per-layer
metrics.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the repository root.  The program is imported from ``src/``;
thread settings (``DUSTPIPE_THREADS``, BLAS) are left as the caller has
them and recorded.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Any
failed output check makes the exit code 1.  See ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
THREAD_VARS = ("DUSTPIPE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("train-desk", "scene-infer", "data-prep")

END_TO_END_UNITS = {"setup_s": "s", "primary_per_s": "1/s", "secondary_per_s": "1/s",
                    "peak_rss_mb": "MB"}
# per-layer values the workloads add to what the spans give; 0 where a
# workload does not produce them
EXTRA_LAYER_METRICS = ("trace.overhead_share", "training.test_wmse",
                       "patch_index.naive_batch_ms", "patch_index.indexed_batch_ms",
                       "patch_index.sampling_speedup", "patch_index.sampling_triplets")


def layer_unit(name: str) -> str:
    for suffix, unit in (("_us_per_sample", "us"), ("_ms", "ms"), ("_s", "s"),
                         ("_share", "ratio"), ("gflops", "GFLOP/s"), ("gflop", "GFLOP"),
                         ("bytes", "bytes"), ("_pct", "%"), ("speedup", "x"),
                         ("test_wmse", "wmse")):
        if name.endswith(suffix):
            return unit
    return "count"


def import_program() -> None:
    """Import dustpipe from this checkout's ``src``, or exit 2."""
    src = ROOT / "src"
    if not (src / "dustpipe" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no dustpipe sources under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import dustpipe

    if Path(dustpipe.__file__).resolve().parent != (src / "dustpipe").resolve():
        sys.stderr.write(f"perfbench: imported dustpipe from {dustpipe.__file__}, "
                         f"not from {src}\n")
        sys.exit(2)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        from dustpipe.inference import worker_count
        workers = worker_count()
    except (ImportError, ValueError):
        workers = None
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "inference_workers": workers,
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer, layer_metrics, top_self_times
    from workloads import WORKLOADS, Outcome

    work = OUT / f"work-{name}-{os.getpid()}"
    wl = WORKLOADS[name](work, seed)
    out = Outcome()
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    tracer = Tracer() if trace else None
    setup_times, passes, done = [], [], {}
    try:
        for _ in range(1 if trace else wl.setup_repeats):
            t0 = time.perf_counter()
            if tracer:
                with tracer:
                    wl.setup()
            else:
                wl.setup()
            setup_times.append(time.perf_counter() - t0)
        wl.after_setup()

        if trace:
            # a traced pass between two untraced ones, all of identical work,
            # so that warm-up in the first pass does not read as overhead
            passes.append(wl.run_pass(0, out))
            with tracer:
                passes.append(wl.run_pass(0, out))
            passes.append(wl.run_pass(0, out))
            out.check(len({repr(p["fingerprint"]) for p in passes}) == 1,
                      "passes with one seed gave different outputs")
        else:
            # whole passes while the next is expected to end within the budget
            t_start = time.perf_counter()
            while not passes or (time.perf_counter() - t_start) * (len(passes) + 1) \
                    <= seconds * len(passes):
                passes.append(wl.run_pass(len(passes), out))
        done = wl.finish(out)
    except Exception:  # the run must still report; the traceback goes to stderr
        traceback.print_exc()
        out.check(False, "workload raised an exception")
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    failed = len(out.failures)
    attempted = max(out.attempted, failed, 1)
    result.update(attempted=attempted, failed=failed, checks_failed=out.failures,
                  setup_times=setup_times,
                  passes=[{k: v for k, v in p.items() if k != "fingerprint"} for p in passes])
    timed = passes[0::2] if trace else passes  # untraced passes only

    def median_rate(key):
        rates = [r for p in timed for r in p[key]]
        return statistics.median(rates) if rates else 0.0

    named = {
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,
        wl.primary[0]: median_rate("primary"),
        wl.secondary[0]: median_rate("secondary"),
        "peak_rss_mb": peak_rss_mb(),
        "failed_share": failed / attempted,
    }
    if passes and "test_wmse" in passes[0]:
        named["test_wmse"] = passes[0]["test_wmse"]
    result["named"] = named

    if trace:
        metrics = layer_metrics(tracer.spans) if passes else {}
        metrics.update(done.get("layers", {}))
        metrics["training.test_wmse"] = named.get("test_wmse", 0.0)
        if len(passes) == 3:
            untraced = (passes[0]["wall"] + passes[2]["wall"]) / 2.0
            metrics["trace.overhead_share"] = passes[1]["wall"] / untraced - 1.0
        for extra in EXTRA_LAYER_METRICS:
            metrics.setdefault(extra, 0.0)
        result["metrics"] = {k: {"value": v, "unit": layer_unit(k)}
                             for k, v in sorted(metrics.items())}
        result["top_self_s"] = top_self_times(tracer.spans)
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"spans-{name}-seed{seed}.jsonl")
    else:
        values = {"setup_s": named["setup_s"], "primary_per_s": named[wl.primary[0]],
                  "secondary_per_s": named[wl.secondary[0]], "peak_rss_mb": named["peak_rss_mb"]}
        result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                             for k, v in values.items()}
    result["units"] = {"setup_s": "s", wl.primary[0]: wl.primary[1],
                       wl.secondary[0]: wl.secondary[1], "peak_rss_mb": "MB",
                       "failed_share": "ratio", "test_wmse": "wmse"}
    return result


def print_report(result: dict) -> None:
    name = result["workload"]
    for key, value in result["named"].items():
        print(f"{name:12s} {key:22s} {value:14.6g} {result['units'][key]}")
    if result["trace"]:
        print(f"{name:12s} largest self times in the traced run (s):")
        for span, secs in result["top_self_s"]:
            print(f"{'':12s}   {span:48s} {secs:10.4f}")
    for failure in result["checks_failed"]:
        print(f"{name:12s} CHECK FAILED: {failure}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            last = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= bool(last["correct"]) and proc.returncode == 0
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, metric in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_program()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    env = environment()
    print("environment " + json.dumps(env))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(result)
    result["environment"] = env
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
