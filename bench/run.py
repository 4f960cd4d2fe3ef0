"""rooplpp benchmark: command-line wall time per workload, or a traced pass.

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the benchmark runs the real command line, one fresh
process at a time in a closed loop with a single caller, and reports the
end-to-end metrics.  Each pass runs, for every source of the workload,

    rooplpp check  SRC                                     -> setup_s
    rooplpp run    --json --save-state F FLAGS SRC         -> run_s
    rooplpp run    --resume F --reverse --save-state G ... -> rewind_s
    rooplpp invert SRC                                     -> invert_s

and checks every output: the main fields against the workload's model,
the rewound image against a fresh one, and the printed inverse against
the original.  Each metric is the median over passes of the per-pass sum
over sources.  ``--trace 1`` instead runs the same sources in process and
reports the per-layer metrics of ``traced.py``.

Every metric is printed as ``name value unit (n=samples)``; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A result file with the same numbers plus metadata goes to
``.bench_results/``.  The exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from collections import defaultdict

from proc import ROOT, SRC, SpeedScale, cli_argv, invoke, pin_to_one_cpu

SHORT_CALLS = 3
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "rewind_s": "s",
                    "invert_s": "s", "peak_rss_mb": "MB"}


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {what}: {reason}", file=sys.stderr)


def _call_reason(call, check):
    if call.timed_out:
        return "timed out"
    if call.code != 0:
        return f"exit {call.code}: {call.stderr.strip()[-200:]}"
    try:
        return check(call)
    except Exception as exc:  # output the check cannot even read is wrong
        return f"unreadable output: {exc!r}"


def cli_pass(workload, paths, work, tally, steps_seen, scale) -> dict:
    """One pass of check/run/rewind/invert over every source.

    Returns per-pass sums over sources: speed-scaled seconds under the
    metric names and raw wall seconds under ``raw.<name>``.  The short
    check and invert calls repeat until a pass holds SHORT_CALLS of each,
    and each source counts with its median.
    """
    import checks
    sums = defaultdict(float)
    repeat = -(-SHORT_CALLS // len(workload.sources))

    def timed(metric, what, argv, check, times=1):
        scaled, raw = [], []
        for _ in range(times):
            call = invoke(argv, work)
            scaled.append(scale(call.wall_s))
            raw.append(call.wall_s)
            tally.record(what, _call_reason(call, check))
        sums[metric] += statistics.median(scaled)
        sums["raw." + metric] += statistics.median(raw)
        return call

    rss_kb = 0
    for src in workload.sources:
        path = paths[src.name]
        fwd, back = work / f"{src.name}.fwd.state", work / f"{src.name}.back.state"

        def forward_ok(call):
            bad = checks.check_forward(src, call.stdout, fwd)
            if bad is None:
                steps = json.loads(call.stdout)["steps"]
                if steps_seen.setdefault(src.name, steps) != steps:
                    bad = f"{steps} steps, an earlier pass took {steps_seen[src.name]}"
            return bad

        timed("setup_s", f"check {src.name}", cli_argv("check", path),
              lambda call: checks.check_ok(call.stdout), repeat)
        run = timed("run_s", f"run {src.name}",
                    cli_argv("run", "--json", "--save-state", fwd,
                             *workload.flags, path), forward_ok)
        rew = timed("rewind_s", f"rewind {src.name}",
                    cli_argv("run", "--resume", fwd, "--reverse", "--json",
                             "--save-state", back, *workload.flags, path),
                    lambda call: checks.check_rewound(workload, call.stdout,
                                                      fwd, back))
        timed("invert_s", f"invert {src.name}", cli_argv("invert", path),
              lambda call: checks.check_inverted(src.text, call.stdout),
              repeat)
        rss_kb = max(rss_kb, run.maxrss_kb, rew.maxrss_kb)
    sums["peak_rss_mb"] = rss_kb / 1024
    return sums


def measure(seconds, one_pass) -> dict:
    """Repeat one_pass until `seconds` have passed; samples per metric."""
    samples = {}
    deadline = time.perf_counter() + seconds
    while True:
        for name, value in one_pass().items():
            samples.setdefault(name, []).append(value)
        if time.perf_counter() >= deadline:
            return samples


def run_cli(workload, paths, work, seconds, tally, meta):
    import checks
    steps_seen = {}
    scale = SpeedScale(work)

    def one_pass():
        return cli_pass(workload, paths, work, tally, steps_seen, scale)

    # warm-up, untimed: fills the bytecode and page caches
    first = workload.sources[0].name
    tally.record(f"warm-up check {first}", _call_reason(
        invoke(cli_argv("check", paths[first]), work),
        lambda call: checks.check_ok(call.stdout)))
    samples = measure(seconds, one_pass)
    meta["steps"] = steps_seen
    meta["raw_wall_s"] = {name: statistics.median(samples["raw." + name])
                          for name in END_TO_END_UNITS if name != "peak_rss_mb"}
    return samples, END_TO_END_UNITS


def run_traced(workload, paths, work, seconds, tally, meta):
    import traced
    units = traced.per_layer_units()
    imp = traced.import_ms(work)
    sweep = traced.heap_sweep()

    def one_pass():
        values, failures = traced.traced_pass(workload, work)
        for src in workload.sources:
            tally.record(f"traced {src.name}", failures.get(src.name))
        return values

    samples = measure(seconds, one_pass)
    samples["cli.import_ms"] = [imp]
    for name, value in sweep.items():
        samples[name] = [value]
    meta["steps"] = {"total": samples["machine.steps"][0]}
    missing = set(units) - set(samples)
    if missing:
        raise RuntimeError(f"traced pass did not produce {sorted(missing)}")
    return samples, units


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("corpus", "arith_loop", "tree_uncall", "heap_churn"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rooplpp" / "cli.py").is_file():
        print(f"error: no rooplpp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    try:
        workload = workloads.GENERATORS[args.workload](args.seed, ROOT)
    except OSError as exc:
        print(f"error: cannot build workload {args.workload}: {exc}",
              file=sys.stderr)
        return 2

    pin_to_one_cpu()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = {}
        for src in workload.sources:
            paths[src.name] = work / f"{src.name}.rplpp"
            paths[src.name].write_text(src.text, encoding="utf-8")
        meta = {"workload": args.workload, "seed": args.seed,
                "trace": args.trace, "flags": workload.flags,
                "load": "closed loop, one caller, one process at a time",
                "src_lines": src_line_count(),
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "sources": {s.name: {"bytes": len(s.text.encode()),
                                     "lines": len(s.text.splitlines())}
                            for s in workload.sources}}
        tally = Tally()
        runner = run_traced if args.trace else run_cli
        samples, units = runner(workload, paths, work, args.seconds, tally, meta)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in units.items()}
    failed_ratio = tally.failed / max(tally.attempted, 1)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']} (n={len(samples[name])})")
    print(f"failed_ratio {failed_ratio:.6g} ratio "
          f"(failed {tally.failed} of {tally.attempted})")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}

    meta["samples"] = {name: len(samples[name]) for name in units}
    meta["failed_ratio"] = failed_ratio
    out = (ROOT / ".bench_results" /
           f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({**result, "meta": meta}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
