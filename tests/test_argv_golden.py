"""The command line's parse, replayed: what `cli.main(argv)` makes of each
recorded argv line.

`fixtures/argv_golden.json` maps each line, as a JSON list, to one of:

- the options the subcommand receives: `vars(args)` without `func`, when
  the line reaches `cmd_check`, `cmd_run` or `cmd_invert` (replaced here
  by a recorder, so no program is read);
- otherwise `{"exit": code, "stderr_lines": n, "usage": bool, "names":
  [...]}`: the exit code, the number of stderr lines, whether stdout
  starts with `usage: rooplpp`, and the `--flags` the error message names.

A line that exits 4 must also print nothing on stdout and one stderr line
that starts with `error: `; the wording after it is not recorded.

Rewrite the fixture only for an intended behaviour change:

    PYTHONPATH=src python tests/test_argv_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from rooplpp import cli

GOLDEN = Path(__file__).parent / "fixtures" / "argv_golden.json"

_RUN_VALUES = [("--freelists", "12"), ("--word-bits", "16"),
               ("--stack-words", "64"), ("--step-limit", "500"),
               ("--trace", "t.jsonl"), ("--resume", "s.state"),
               ("--save-state", "o.state")]

LINES = [
    ["run", "P"],
    ["check", "P"],
    ["invert", "P"],
    *(["run", flag, value, "P"] for flag, value in _RUN_VALUES),
    *(["run", f"{flag}={value}", "P"] for flag, value in _RUN_VALUES),
    ["run", "--heap-grow", "--reverse", "--json", "--dump-heap", "P"],
    # flags after PATH, repeated flags, unique prefixes, `--`
    ["run", "P", "--json", "--freelists", "4"],
    ["run", "--json", "P", "--reverse", "--word-bits=64"],
    ["run", "--freelists", "4", "--freelists=6", "P", "--freelists", "5"],
    ["run", "--rev", "P"],
    ["run", "--free", "12", "P"],
    ["run", "--free=12", "--sta=7", "P"],
    ["run", "--", "P"],
    ["run", "--json", "--", "-P"],
    ["check", "--", "P"],
    ["run", "P", "--json", "--"],
    ["run", "--json", "P", "--"],
    ["run", "--trace", "-", "P"],
    ["run", "--trace=", "P"],
    ["run", "--stack-words", "-3", "P"],
    ["run", "--step-limit", "1_000", "--freelists", " 7", "P"],
    # rejected lines
    ["run", "--s", "5", "P"],
    ["run", "--st=7", "P"],
    ["run", "P", "--trace"],
    ["run", "--trace", "--json", "P"],
    ["run", "--freelists", "abc", "P"],
    ["run", "--freelists=", "P"],
    ["run", "--word-bits", "8", "P"],
    ["run", "--step-limit", "-1", "P"],
    ["run", "--step-limit", "many", "P"],
    ["run", "--json=1", "P"],
    ["run", "--bogus", "x"],
    ["check", "--json", "P"],
    ["--json", "run", "P"],
    ["check", "P", "extra"],
    ["run", "P", "Q"],
    ["frob", "P"],
    [],
    ["run"],
    # help
    ["-h"],
    ["--help"],
    ["run", "-h"],
    ["run", "--help"],
    ["run", "P", "-h"],
    ["check", "-h"],
    ["check", "--help"],
    ["invert", "--help"],
]


def outcome(argv):
    """What `cli.main(argv)` ends in, as recorded in the golden file."""
    received = []

    def recorder(args):
        received.append({k: v for k, v in vars(args).items() if k != "func"})
        return cli.OK

    out, err = io.StringIO(), io.StringIO()
    saved = cli.cmd_check, cli.cmd_run, cli.cmd_invert
    cli.cmd_check = cli.cmd_run = cli.cmd_invert = recorder
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        cli.cmd_check, cli.cmd_run, cli.cmd_invert = saved
    if received:
        assert code == cli.OK
        return received[0]
    stdout, stderr = out.getvalue(), err.getvalue()
    if code == cli.EXIT_IO:
        assert stdout == ""
        assert stderr.startswith("error: ")
    return {"exit": code, "stderr_lines": len(stderr.splitlines()),
            "usage": stdout.startswith("usage: rooplpp"),
            "names": sorted(set(re.findall(r"--[a-z][a-z-]*", stderr)))}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_line(golden):
    assert sorted(golden) == sorted(json.dumps(argv) for argv in LINES)


@pytest.mark.parametrize("argv", LINES, ids=" ".join)
def test_argv_matches_golden(golden, argv):
    assert outcome(argv) == golden[json.dumps(argv)]


if __name__ == "__main__":
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(json.dumps(argv))}: {json.dumps(outcome(argv))}"
        for argv in LINES) + "\n}\n")
    print(f"wrote {GOLDEN}")
