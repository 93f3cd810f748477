"""Benchmark of relcount: four seeded workloads, every answer checked against
an oracle, end-to-end metrics untraced and per-layer metrics traced.

    python3 bench/run.py --workload count-exact --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --self-test

Run from the repository root.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it,
"facts {...}", records the machine and code measured.  The metric names and
units are those of BENCHMARK.json; bench/README.md says what each workload
and metric is.

A run sets up its workload (setup_s is the median of the workload's setup
repeats), then runs the workload's operations in passes until --seconds of
timed work are done (at least one pass); wall_s is the median pass.  With
--trace 1 it then runs one more pass with span-recording wrappers around the
calls into each relcount module, checks that its answers equal the untraced
pass's, and reports the per-layer metrics instead.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
FAILED = ("wrong", "no_answer", "error", "hard_stop")


class HardStop(BaseException):
    """Raised by SIGALRM in an operation that overran its timeout.  Not an
    Exception, so no handler inside relcount can swallow it."""


def _alarm(signum, frame):
    raise HardStop()


def hard_stop_after(timeout):
    return timeout + max(0.1, 0.05 * timeout)


def run_op(op, tracer):
    """Runs one operation; returns (status, answer, seconds, detail)."""
    if tracer is not None:
        tracer.op = op.name
    raw, status, detail = None, None, None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, hard_stop_after(op.timeout))
        try:
            raw = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except HardStop:
        status, detail = "hard_stop", "stopped %.1f s past the timeout" % (
            hard_stop_after(op.timeout) - op.timeout)
    except (RecursionError, MemoryError) as exc:
        status, detail = "error", type(exc).__name__
    except Exception as exc:  # any other failure of one operation is counted
        status, detail = "error", traceback.format_exc()
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.close_open()
    if status is not None:
        return status, None, elapsed, detail
    answer = op.answer(raw)
    if answer is None:
        return "no_answer", None, elapsed, "returned no answer"
    verdict = op.check(answer)
    status = "wrong" if verdict.startswith("wrong") else verdict
    return status, answer, elapsed, verdict


def run_pass(ops, tracer=None):
    results = [(op.name,) + run_op(op, tracer) for op in ops]
    for name, status, _, elapsed, detail in results:
        if status != "ok":
            print("  %s: %s after %.2f s (%s)" % (name, status, elapsed, detail),
                  file=sys.stderr)
    return results


def read_facts():
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.exists():
                commit = ref_file.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                for line in packed.read_text().splitlines() if packed.exists() else ():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
        else:
            commit = ref
    import numpy
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_relcount_lines": sum(
            len(p.read_bytes().splitlines())
            for p in sorted((ROOT / "src" / "relcount").glob("*.py"))),
    }


def import_relcount():
    """The relcount modules by short name.  (`relcount.cnf` is the package's
    cnf() function, so modules come from sys.modules.)"""
    src = ROOT / "src"
    if not (src / "relcount" / "__init__.py").is_file():
        sys.exit("error: %s/relcount not found; run from a relcount checkout"
                 % src)
    sys.path.insert(0, str(src))
    names = ("cli", "cnf", "counter", "dataset", "dtree", "metrics", "props",
             "sat", "tree2cnf")
    for name in names:
        importlib.import_module("relcount." + name)
    return types.SimpleNamespace(
        **{name: sys.modules["relcount." + name] for name in names})


def measure(args):
    rc = import_relcount()
    import spans
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    facts = read_facts()
    out_dir = OUT / ("tiny" if args.tiny else "full")
    workload = WORKLOADS[args.workload](rc, args.seed, args.tiny, str(out_dir))
    tracer = spans.Tracer() if args.trace else None
    signal.signal(signal.SIGALRM, _alarm)

    try:
        # setup: program inputs (traced in a traced run), oracles, op list
        setups = []
        for _ in range(1 if tracer else workload.setup_repeats):
            t0 = time.perf_counter()
            if tracer:
                with tracer:
                    inputs = workload.prepare()
            else:
                inputs = workload.prepare()
            ops = workload.ops(inputs, workload.oracle(inputs))
            setups.append(time.perf_counter() - t0)

        passes, timed = [], 0.0
        while not passes or timed < args.seconds:
            passes.append(run_pass(ops))
            timed += sum(r[3] for r in passes[-1])
        wall = statistics.median(sum(r[3] for r in p) for p in passes)
        results = [r for p in passes for r in p]
        correct = all(r[1] != "wrong" for r in results)
        attempted = len(results)
        failed = sum(r[1] in FAILED for r in results)

        if tracer:
            with tracer:
                traced = run_pass(ops, tracer)
            if [r[:3] for r in traced] != [r[:3] for r in passes[0]]:
                print("error: the traced pass's answers differ from the "
                      "untraced pass's", file=sys.stderr)
                correct = False
            values = tracer.summary()
            for stage, seconds in workload.stage_times.items():
                values["cli.experiment.%s_s" % stage] = seconds
            values["trace.overhead_ratio"] = sum(r[3] for r in traced) / wall
            wanted = spec["per_layer"]
        else:
            finished = [r for r in results if r[2] is not None]
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": wall,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ops_attempted": attempted,
                "ok_ratio": (attempted - failed) / attempted,
                "in_bound_ratio": (sum(r[1] == "ok" for r in finished)
                                   / len(finished) if finished else 0.0),
            }
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(out_dir / "tmp", ignore_errors=True)

    names = {m["name"] for m in wanted}
    unlisted = sorted(set(values) - names)
    if unlisted and not args.tiny:
        sys.exit("error: metrics missing from BENCHMARK.json: %s"
                 % ", ".join(unlisted))
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    record = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
              "trace": args.trace, "facts": facts, "metrics": metrics,
              "passes": [[r[:2] + r[3:] for r in p] for p in passes],
              "experiment_stages": workload.stage_times}
    if tracer:
        record["spans"] = tracer.dump()
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / ("%s-seed%d-trace%d.json"
                         % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh)

    print("facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def self_test():
    """Runs every workload at tiny size, untraced and traced, in fresh
    processes, and checks each result line."""
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in WORKLOADS:
        for trace_flag in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", "1", "--seconds", "0", "--trace", str(trace_flag),
                   "--tiny"]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=300)
            except subprocess.TimeoutExpired as exc:
                proc = subprocess.CompletedProcess(cmd, None, "", str(exc))
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else {}
            wanted = spec["per_layer" if trace_flag else "end_to_end"]
            good = (result.get("correct") is True
                    and result.get("failed") == 0
                    and set(result.get("metrics", ())) == {m["name"] for m in wanted})
            ok &= good
            print("%-13s trace=%d  %s  %.1f s  attempted=%s"
                  % (name, trace_flag, "ok  " if good else "FAIL",
                     time.perf_counter() - t0, result.get("attempted")))
            if not good:
                print(proc.stderr[-2000:])
    return 0 if ok else 1


def main():
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="timed work per run; passes repeat until it is done")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs: checks the benchmark, measures nothing")
    p.add_argument("--self-test", action="store_true",
                   help="run every workload tiny, untraced and traced")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
