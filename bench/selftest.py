"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs the Fibonacci corpus program through the command line once, then
feeds the checks a wrong reference value, a corrupted rewound state and
a wrong inverse, and requires each to be reported as a failure.  A pass
with a wrong reference must also count as failed in the benchmark's
tally.  Exits 1 if any check passes something it should reject.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys

from proc import ROOT, SRC, cli_argv, invoke

sys.path.insert(0, str(SRC))

import checks  # noqa: E402  (needs SRC on the path)
import run  # noqa: E402
import workloads  # noqa: E402
from rooplpp.statefile import load_state, save_state  # noqa: E402


def main() -> int:
    workload = workloads.corpus(0, ROOT)
    src = next(s for s in workload.sources if s.name == "Fibonacci")
    workload.sources = [src]
    work = ROOT / ".bench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    problems = []

    def expect(what, reason, should_fail):
        if (reason is not None) != should_fail:
            problems.append(f"{what}: got {reason!r}")

    try:
        path = work / "Fibonacci.rplpp"
        path.write_text(src.text)
        fwd, back = work / "fwd.state", work / "back.state"
        run_call = invoke(cli_argv("run", "--json", "--save-state", fwd, path), work)
        rew_call = invoke(cli_argv("run", "--resume", fwd, "--reverse", "--json",
                                   "--save-state", back, path), work)
        inv_call = invoke(cli_argv("invert", path), work)

        expect("honest forward", checks.check_forward(src, run_call.stdout, fwd), False)
        expect("honest rewind", checks.check_rewound(
            workload, rew_call.stdout, fwd, back), False)
        expect("honest inverse", checks.check_inverted(src.text, inv_call.stdout), False)

        wrong = dataclasses.replace(src, expected={**src.expected, "x2": 9})
        expect("wrong reference", checks.check_forward(wrong, run_call.stdout, fwd), True)

        state = load_state(str(back))
        state.memory.words[state.memory.hp + 3] ^= 1
        corrupt = work / "corrupt.state"
        save_state(str(corrupt), state)
        expect("corrupted rewound state", checks.check_rewound(
            workload, rew_call.stdout, fwd, corrupt), True)

        expect("wrong inverse", checks.check_inverted(src.text, src.text), True)

        tally = run.Tally()
        bad_workload = dataclasses.replace(workload, sources=[wrong])
        run.cli_pass(bad_workload, {"Fibonacci": path}, work, tally, {},
                     lambda wall_s: wall_s)
        if tally.failed != 1:
            problems.append(f"pass with a wrong reference: {tally.failed} of "
                            f"{tally.attempted} reported failed, expected 1")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"SELFTEST FAILED {p}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
