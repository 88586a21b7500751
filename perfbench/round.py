"""One round of a workload in a fresh interpreter.

    python3 perfbench/round.py --workload NAME --seed N [--setup-only]
                               [--trace-out PATH] [--check]

A round imports macdunkl, builds the workload's plan (set-up), verifies
the plan once with empty caches (the cold pass) and then again in the
same process with the caches full (the warm passes), each time rendering
the JSON report as the CLI does.  It prints one JSON object on its last
line of output.  Set-up is timed from START_MARK, the first statement
the new interpreter runs, until the plan is built.

With --trace-out the passes run under the per-layer tracer and the spans
are written to that path when the round ends.  With --check the round
afterwards compares the program's output with independent reference
values (checks.py); that work is not timed.
"""

import time

START_MARK = time.monotonic()  # the interpreter has started

import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from macdunkl.cli import emit_report  # noqa: E402
from macdunkl.verify.identities import verify_identity  # noqa: E402


# The host's speed changes by up to a factor of two from one second to the
# next, as other machines' jobs come and go.  A fixed piece of Fraction
# arithmetic that does not touch macdunkl is therefore timed at the start
# and end of each pass and every CAL_EVERY_S in between, from a SIGALRM
# handler, so also inside a long check.  The handler's time is taken out of
# the check's time.  Each check's time is also given at the reference
# speed, at which that piece takes CAL_REF_S: it is scaled by CAL_REF_S over
# the mean of the calibrations from the last one before the check to the
# first one after it.
CAL_TERMS = 2000
CAL_EVERY_S = 0.25
CAL_REF_S = 0.0055

# A warm pass of a small plan takes well under a second, so untraced rounds
# repeat it until the warm passes have taken this long together.  Traced
# rounds make exactly one, so that their counts repeat.
WARM_MIN_S = 2.0


def calibrate() -> float:
    """Seconds that the fixed calibration piece takes now."""
    t = time.perf_counter()
    total = Fraction(0)
    for i in range(1, CAL_TERMS):
        total += Fraction(i, i % 97 + 1)
    return time.perf_counter() - t


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


class _Calibrations:
    """Calibration samples taken from a timer while a pass runs."""

    def __init__(self):
        self.samples = [calibrate()]
        self.spent = 0.0  # seconds spent taking the samples

    def take(self, *_):
        t = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.take()


def _verify(plan, tracer):
    """One pass over the plan, report included.

    Returns (step seconds, scaled step seconds, report): the time of each
    check followed by that of rendering the report, as measured and at
    the reference speed."""
    call = verify_identity
    steps, verdicts = [], []  # steps: (seconds, first and last sample index)

    with _Calibrations() as cal:

        def step(fn, *args, **kwargs):
            first, spent = len(cal.samples) - 1, cal.spent
            t = time.perf_counter()
            result = fn(*args, **kwargs)
            sec = time.perf_counter() - t - (cal.spent - spent)
            steps.append((sec, first, len(cal.samples)))
            return result

        for idx, (name, params) in enumerate(plan):
            if tracer is not None:
                tracer.check = idx
                call = tracer.wrap(f"verify.identities.{name}", verify_identity)
            verdicts.append(step(call, name, **params))
        if tracer is None:
            report = step(emit_report, verdicts, "json")
        else:
            tracer.check = None
            report = step(tracer.span, "cli.emit_report", emit_report, verdicts, "json")

    scaled = [
        sec * CAL_REF_S / statistics.fmean(cal.samples[first : last + 1])
        for sec, first, last in steps
    ]
    return [sec for sec, _, _ in steps], scaled, report


def main(argv) -> int:
    workload = _arg(argv, "--workload")
    seed = int(_arg(argv, "--seed", "0"))
    plan = workloads.plan(workload, seed)
    setup_mark = time.monotonic()

    import json
    import resource

    # Set-up is import plus planning, given at the reference speed read
    # right after it.  Python's own start-up before START_MARK is the same
    # for every version of macdunkl; run.py only prints it.
    speed = CAL_REF_S / statistics.median(calibrate() for _ in range(3))
    setup_s = (setup_mark - START_MARK) * speed
    if "--setup-only" in argv:
        print(json.dumps({"start_mark": START_MARK, "setup_s": setup_s}))
        return 0

    trace_out = _arg(argv, "--trace-out")
    tracer = None
    if trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    verify_steps, verify_scaled, report = _verify(plan, tracer)
    warm = []  # (step seconds, scaled step seconds, report) of each warm pass
    warm_started = time.perf_counter()
    while not warm or (tracer is None and time.perf_counter() - warm_started < WARM_MIN_S):
        warm.append(_verify(plan, tracer))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    attempted = failed = 0
    for label, text in [("cold", report)] + [("warm", w[2]) for w in warm]:
        rows = json.loads(text)
        if len(rows) != len(plan):
            problems.append(f"{label} report has {len(rows)} verdicts for {len(plan)} checks")
        for (name, _), row in zip(plan, rows):
            if row["identity"] != name:
                problems.append(f"{label} report names {row['identity']} where {name} was run")
        attempted += len(rows)
        failed += sum(1 for row in rows if row["status"] != "pass")
    if any(w[2] != report for w in warm):
        problems.append("a warm report differs from the cold report")

    out = {
        "start_mark": START_MARK,
        "setup_s": setup_s,
        "verify_s": sum(verify_steps),
        "warm_verify_s": statistics.median(sum(w[0]) for w in warm),
        "verify_scaled": verify_scaled,
        "warm_scaled": [w[1] for w in warm],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": [
            f"{row['identity']} {row['params']}"
            for row in json.loads(report)
            if row["status"] != "pass"
        ],
        "problems": problems,
        "independent_checks": 0,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(len(report.encode()))
        tracer.dump(trace_out, {"workload": workload, "seed": seed, "plan": plan})
    if "--check" in argv:
        from independent import run_checks

        count, found = run_checks(workload, plan, seed, json.loads(report))
        out["independent_checks"] = count
        problems.extend(found)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
