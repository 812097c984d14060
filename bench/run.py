"""okkit's benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs fresh single-threaded passes of one workload (see passes.py) until
S seconds have gone by, one after another: a closed loop with one client.
Pass p draws its inputs from the seed and p, so a seed always gives the
same inputs.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  A wrong answer
sets correct to false and the exit code to 1.

    python3 bench/run.py --all [--seed N] [--seconds S]

runs every workload untraced and traced and prints every metric by name
with its unit.  --out FILE writes the full record of a run (environment,
input sizes, per-operation outputs, spans) and

    python3 bench/run.py --compare A.json B.json

reports how far two such records differ: max |dF|, per-sample step
counts, bracket values and exact outputs.  README.md has the rationale.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_SCRIPT = HERE / "passes.py"
DEADLINE_S = 170.0  # a run must end within 180 s
COVERAGE_MIN = 0.95  # criterion 07
COVERAGE_SAMPLES = 40  # fewer samples need not reach the ends of [0, 3]

# Input sizes of one pass.  "smoke" is the tiny size of test_smoke.py.
SIZES = {
    "elliptic-coverage": {"full": {"samples": 40}, "smoke": {"samples": 3}},
    "flag-brackets": {"full": {"points": 2}, "smoke": {"points": 1}},
    "flag-exact": {
        "full": {"level": 2, "hilbert_k": 20, "products": 60},
        "smoke": {"level": 2, "hilbert_k": 5, "products": 3},
    },
}

# What one operation is on each workload, and the workload's own figure:
# its ops_per_cpu_s under the name of what it counts, or for flag-exact
# the median CPU time of a pass.
OPERATION = {
    "elliptic-coverage": ("integrable-system evaluations", "samples_per_s"),
    "flag-brackets": ("Poisson brackets", "brackets_per_s"),
    "flag-exact": ("exact checks", "exact_pass_s"),
}

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {"setup_s": "s", "ops_per_cpu_s": "1/s", "ok_fraction": "ratio"}
PER_LAYER = {
    "catalog.load_ms": "ms",
    "degeneration.family_ms": "ms",
    "embedding.basis_ms": "ms",
    "embedding.embed_ms": "ms",
    "embedding.moment_us": "us",
    "embedding.moment_calls": "count",
    "flow.eval_ms.p50": "ms",
    "flow.eval_ms.p90": "ms",
    "flow.steps": "count",
    "flow.step_us": "us",
    "flow.field_ms": "ms",
    "flow.frame_ms": "ms",
    "flow.bracket_ms": "ms",
    "flow.failed": "count",
    "cli.render_ms": "ms",
    "cli.csv_bytes": "bytes",
    "okounkov.hull_ms": "ms",
    "okounkov.hull_points": "count",
    "okounkov.hilbert_ms": "ms",
    "okounkov.hilbert_total": "count",
    "okounkov.subduct_ms": "ms",
    "okounkov.subduct_chain": "count",
    "okounkov.slice_ms": "ms",
    "algebra.product_ms": "ms",
    "trace.overhead_s": "s",
}


class PassError(RuntimeError):
    pass


def child_environment():
    """The caller's environment, pinned to one thread and this checkout."""
    env = dict(os.environ)
    env.pop("OKKIT_THREADS", None)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload, seed, index, traced, sizes, deadline):
    command = [
        sys.executable, str(PASS_SCRIPT), "--workload", workload,
        "--seed", str(seed), "--pass-index", str(index),
        "--trace", str(int(traced)), "--sizes", json.dumps(sizes),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError("no time left for pass %d" % index)
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_environment(), capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError("pass %d did not end in time" % index) from exc
    if done.returncode != 0:
        raise PassError("pass %d exited with %d:\n%s"
                        % (index, done.returncode, done.stderr[-3000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, size):
    """Passes until `seconds` have gone by; with trace, untraced and
    traced passes alternate on the same inputs."""
    sizes = SIZES[workload][size]
    started = time.monotonic()
    deadline = started + DEADLINE_S
    plain, traced = [], []
    while not plain or time.monotonic() - started < seconds:
        lap = time.monotonic()
        index = len(plain)
        plain.append(run_pass(workload, seed, index, False, sizes, deadline))
        if trace:
            traced.append(run_pass(workload, seed, index, True, sizes, deadline))
        if time.monotonic() + (time.monotonic() - lap) > deadline:
            break
    return plain, traced


def environment(plain):
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": plain[0]["numpy"],
        "platform": platform.platform(),
    }


def coverage(workload, passes):
    """Criterion 07 on every F of the run, once there are enough."""
    if workload != "elliptic-coverage":
        return None
    values = [r["F"][0] for p in passes for r in p["records"] if r["ok"]]
    if len(values) < COVERAGE_SAMPLES:
        return None
    return (max(values) - min(values)) / 3.0


def end_to_end(passes):
    """Times are CPU seconds of the single-threaded pass processes."""
    done = sum(p["attempted"] - p["failed"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    return {
        "setup_s": statistics.median(p["setup_cpu_s"] for p in passes),
        "ops_per_cpu_s": done / sum(p["pass_cpu_s"] for p in passes),
        "ok_fraction": done / attempted,
    }


def _quantile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(plain, traced):
    """Per-layer metrics from the spans of the traced passes.

    Times are medians per call (pooled over passes) or medians over passes
    of a per-pass total; counts are those of the first pass, whose inputs
    depend on the seed alone; a layer a workload never calls reads 0.
    """
    calls = defaultdict(list)
    totals = defaultdict(list)
    steps = step_time = 0.0
    for p in traced:
        per_pass = Counter()
        for span in p["spans"]:
            calls[span["name"]].append(span["self"])
            per_pass[span["name"]] += span["self"]
            if span["name"] == "flow.flow_to":
                steps += span["steps"]
                step_time += span["self"]
        for name, seconds in per_pass.items():
            totals[name].append(seconds)

    def per_call(name, scale=1e3):
        return statistics.median(calls[name]) * scale if calls[name] else 0.0

    def per_pass(name):
        return statistics.median(totals[name]) * 1e3 if totals[name] else 0.0

    first = traced[0]["counts"]
    evals = [s * 1e3 for s in calls["flow.eval"]]
    values = {
        "catalog.load_ms": per_call("catalog.load"),
        "degeneration.family_ms": per_call("degeneration.family"),
        "embedding.basis_ms": per_call("embedding.basis"),
        "embedding.embed_ms": per_call("embedding.embed"),
        "embedding.moment_us": per_call("embedding.moment", 1e6),
        "embedding.moment_calls": first.get("embedding.moment_calls", 0),
        "flow.eval_ms.p50": _quantile(evals, 0.5),
        "flow.eval_ms.p90": _quantile(evals, 0.9),
        "flow.steps": first.get("flow.steps", 0),
        "flow.step_us": step_time / steps * 1e6 if steps else 0.0,
        "flow.field_ms": per_call("flow.field"),
        "flow.frame_ms": per_call("flow.frame"),
        "flow.bracket_ms": per_call("flow.bracket"),
        "flow.failed": sum(p["counts"].get("flow.failed", 0) for p in traced),
        "cli.render_ms": per_call("cli.render"),
        "cli.csv_bytes": first.get("cli.csv_bytes", 0),
        "okounkov.hull_ms": per_pass("okounkov.hull"),
        "okounkov.hull_points": first.get("okounkov.hull_points", 0),
        "okounkov.hilbert_ms": per_pass("okounkov.hilbert"),
        "okounkov.hilbert_total": first.get("okounkov.hilbert_total", 0),
        "okounkov.subduct_ms": per_call("okounkov.subduct"),
        "okounkov.subduct_chain": first.get("okounkov.subduct_chain", 0),
        "okounkov.slice_ms": per_call("okounkov.slice"),
        "algebra.product_ms": per_call("algebra.product"),
        "trace.overhead_s": statistics.median(
            t["pass_wall_s"] - u["pass_wall_s"] for u, t in zip(plain, traced)
        ),
    }
    return values


def run_workload(workload, seed, seconds, trace, size):
    """One run: the result line plus the full record of every pass."""
    plain, traced = measure(workload, seed, seconds, trace, size)
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    covered = coverage(workload, plain)
    problems = [x for p in passes for x in p["problems"]]
    if covered is not None and covered < COVERAGE_MIN:
        problems.append("coverage %.3f is below %.2f" % (covered, COVERAGE_MIN))
    if trace:
        values, units = per_layer(plain, traced), PER_LAYER
    else:
        values, units = end_to_end(plain), END_TO_END
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "sizes": SIZES[workload][size],
        "environment": environment(plain),
        "coverage": covered,
        "problems": problems,
        "failures": dict(Counter(x for p in passes for x in p["failures"])),
        "flow_failures": dict(sum((Counter(p["flow_failures"]) for p in passes), Counter())),
        "result": result,
        "passes": passes,
    }
    return result, record


def headline(workload, plain):
    """The workload's own figure: (name, value, unit)."""
    name = OPERATION[workload][1]
    if name == "exact_pass_s":
        return name, statistics.median(p["pass_cpu_s"] for p in plain), "s"
    return name, end_to_end(plain)["ops_per_cpu_s"], "1/s"


def summary(record):
    """The run's environment, sizes and own figure, for one line."""
    plain = [p for p in record["passes"] if not p["traced"]]
    name, value, _ = headline(record["workload"], plain)
    keys = ("workload", "seed", "sizes", "environment", "coverage", "problems")
    return dict({k: record[k] for k in keys}, passes=len(plain),
                operations=OPERATION[record["workload"]][0], **{name: value})


def compare(path_a, path_b):
    """Differences between two --out records, per workload and seed."""
    runs_a, runs_b = (
        {(r["workload"], r["seed"]): r for r in json.loads(Path(p).read_text())["runs"]}
        for p in (path_a, path_b)
    )
    report = []
    for key in sorted(runs_a.keys() & runs_b.keys()):
        passes_b = {(p["index"], p["traced"]): p for p in runs_b[key]["passes"]}
        max_df = max_dbracket = 0.0
        step_diffs, output_diffs, compared = [], [], 0
        for pa in runs_a[key]["passes"]:
            pb = passes_b.get((pa["index"], pa["traced"]))
            if pb is None or pa["inputs_sha256"] != pb["inputs_sha256"]:
                continue
            compared += 1
            for ra, rb in zip(pa["records"], pb["records"]):
                if ra.get("F") and rb.get("F"):
                    max_df = max(max_df, *(abs(x - y) for x, y in zip(ra["F"], rb["F"])))
                if "steps" in ra and ra["steps"] != rb["steps"]:
                    step_diffs.append({"pass": pa["index"], "id": ra["id"],
                                       "a": ra["steps"], "b": rb["steps"]})
                if ra.get("value") is not None and rb.get("value") is not None:
                    max_dbracket = max(max_dbracket, abs(ra["value"] - rb["value"]))
                if "expression_sha256" in ra and ra != rb:
                    output_diffs.append({"pass": pa["index"], "a": ra, "b": rb})
            if pa["outputs"] != pb["outputs"]:
                output_diffs.append({"pass": pa["index"], "a": pa["outputs"],
                                     "b": pb["outputs"]})
        report.append({
            "workload": key[0], "seed": key[1], "passes_compared": compared,
            "max_abs_dF": max_df, "step_count_differences": step_diffs,
            "max_abs_dbracket": max_dbracket, "exact_output_differences": output_diffs,
        })
    return report


def main():
    parser = argparse.ArgumentParser(
        description="okkit benchmark", epilog="Modes: one workload, --all, --compare."
    )
    parser.add_argument("--workload", choices=sorted(SIZES))
    parser.add_argument("--all", action="store_true", help="every workload, both kinds of run")
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="write the full record of the run(s) here")
    args = parser.parse_args()

    if args.compare:
        print(json.dumps(compare(*args.compare), indent=1))
        return 0
    if args.all:
        jobs = [(w, t) for w in SIZES for t in (0, 1)]
    elif args.workload:
        jobs = [(args.workload, args.trace)]
    else:
        parser.error("give --workload, --all or --compare")

    records, correct = [], True
    for workload, trace in jobs:
        try:
            result, record = run_workload(workload, args.seed, args.seconds, trace, args.size)
        except PassError as exc:
            print("%s: %s" % (workload, exc), file=sys.stderr)
            return 1
        records.append(record)
        correct = correct and result["correct"]
        if args.all:
            rows = [(m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
            if not trace:
                plain = [p for p in record["passes"] if not p["traced"]]
                rows.insert(0, headline(workload, plain))
            for name, value, unit in rows:
                print("%-18s %-24s %.6g %s" % (workload, name, value, unit))
        else:
            print(json.dumps({"run": summary(record)}))
            print(json.dumps(result))
        for problem in record["problems"] + list(record["failures"]):
            print("%s: %s" % (workload, problem), file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": records}) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
