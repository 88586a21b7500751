"""Benchmark of the macdunkl verifier, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
src/).  A run repeats rounds, each in a fresh interpreter (round.py),
while another round still fits in S seconds (at least two rounds), then
starts more interpreters that only import and plan, to sample set-up
time.  Round k of an untraced run hands the program the seed
1000 * N + k, so that a run's medians are taken over several draws of the
seeded inputs and the same N always gives the same inputs.  Every round
of a traced run uses 1000 * N, so that its rounds repeat the same work
and its untraced rounds are a fair base for the overhead.

It prints a summary and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones, with times given at the reference host speed (see
round.py).  With --trace 1 rounds alternate between untraced and traced
by the per-layer tracer, starting untraced; the untraced ones give the
base for the tracer's overhead.  Results and trace files go to
perfbench/results/.  Exit code 0 on a finished run, 1 when a round
fails, 2 on bad arguments or a checkout without src/.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 2
SETUP_PROBES = 16
# A run must end within 180 s; no round starts that could end past this.
HARD_LIMIT_S = 165.0

END_TO_END = (
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("warm_verify_s", "s"),
    ("peak_rss_mb", "MB"),
)


class RoundFailed(Exception):
    pass


def _spawn(args, deadline):
    """Run round.py in a fresh interpreter and return its parsed result."""
    cmd = [sys.executable, str(HERE / "round.py"), *args]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RoundFailed(f"round {' '.join(args)} did not finish in time")
    if proc.returncode != 0:
        raise RoundFailed(f"round {' '.join(args)} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RoundFailed(f"round {' '.join(args)} printed no result")
    result = json.loads(lines[-1])
    result["start_s"] = result["start_mark"] - started
    result["wall_s"] = time.monotonic() - started
    return result


def _run_rounds(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    rounds = []
    while True:
        round_seed = 1000 * seed + (0 if trace else len(rounds))
        args = ["--workload", workload, "--seed", str(round_seed)]
        if not rounds:
            args.append("--check")
        elif trace and len(rounds) % 2:
            path = RESULTS / f"trace-{workload}-seed{seed}-round{len(rounds)}.json"
            args += ["--trace-out", str(path)]
        rounds.append(_spawn(args, deadline))
        elapsed = time.monotonic() - start
        next_round = statistics.median(r["wall_s"] for r in rounds)
        if elapsed + next_round > HARD_LIMIT_S:
            break
        if len(rounds) >= MIN_ROUNDS and elapsed + next_round > seconds:
            break
    probes = [
        _spawn(["--workload", workload, "--seed", str(1000 * seed), "--setup-only"], deadline)
        for _ in range(SETUP_PROBES)
    ]
    return rounds, probes


def _layer_metrics(rounds):
    traced = [r for r in rounds if "layers" in r]
    untraced = [r for r in rounds if "layers" not in r]
    first = traced[0]["layers"]
    for later in traced[1:]:
        moved = [k for k in first if tracing.is_count(k) and later["layers"][k] != first[k]]
        if moved:
            print(f"warning: counts differ between traced rounds: {moved}", file=sys.stderr)
    values = {}
    for name in first:
        if tracing.is_count(name):
            values[name] = first[name]
        else:
            values[name] = statistics.median(r["layers"][name] for r in traced)
    traced_verify = _pass_seconds(r["verify_scaled"] for r in traced)
    values["trace.traced_verify_s"] = traced_verify
    untraced_verify = _pass_seconds(r["verify_scaled"] for r in untraced)
    values["trace.overhead_pct"] = 100.0 * (traced_verify / untraced_verify - 1.0)
    return {name: {"value": values[name], "unit": unit} for name, unit in tracing.metric_specs()}


def _pass_seconds(passes):
    """A pass's time: the sum over its steps (each check, then the report)
    of the step's median over the passes.  A burst of host load that slows
    one step of one pass drops out of this, where it would stay in a
    median of whole passes."""
    return sum(statistics.median(step) for step in zip(*passes))


def _end_to_end_metrics(rounds, probes):
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds + probes),
        "verify_s": _pass_seconds(r["verify_scaled"] for r in rounds),
        "warm_verify_s": _pass_seconds(w for r in rounds for w in r["warm_scaled"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "macdunkl" / "__init__.py").is_file():
        print(f"error: no macdunkl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Byte-compile once, outside every measurement, so that the first run in
    # a fresh checkout does not charge compilation to set-up time.
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("error: the macdunkl sources do not compile", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)

    try:
        rounds, probes = _run_rounds(args.workload, args.seed, args.seconds, args.trace)
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = [p for r in rounds for p in r["problems"]]
    checked = sum(r["independent_checks"] for r in rounds)
    if not checked:
        problems.append("no independent check ran")
    metrics = _layer_metrics(rounds) if args.trace else _end_to_end_metrics(rounds, probes)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{len(rounds) + len(probes)} set-up samples, {checked} objects checked independently")
    print(f"checks attempted {result['attempted']}, failed {result['failed']}")
    for failure in sorted({f for r in rounds for f in r["failures"]}):
        print(f"  FAIL {failure}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"Python start-up (not in setup_s) {statistics.median(r['start_s'] for r in rounds + probes):.4g} s; "
          "as measured, before scaling to the reference speed: "
          f"cold pass {statistics.median(r['verify_s'] for r in rounds):.4g} s, "
          f"warm pass {statistics.median(r['warm_verify_s'] for r in rounds):.4g} s (medians)")
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(dict(result, rounds=rounds, setup_probes=probes), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
