"""The README's library and CLI examples run, and their commented results hold."""

import json
import re
import shlex
from pathlib import Path

from thetasums.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(after: str, lang: str) -> str:
    """The first ```lang block after the text given."""
    match = re.search(rf"{re.escape(after)}\n\n```{lang}\n(.*?)```", README.read_text(), re.S)
    assert match, f"README has no {lang} block after {after!r}"
    return match.group(1)


def test_readme_library_example_runs_as_documented():
    # A line "expression  # value ..." must evaluate to something whose repr
    # begins the comment; every other line just has to run.
    namespace: dict = {}
    checked = 0
    for line in _block("## Library example", "python").splitlines():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        if not code:
            continue
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(expression, namespace)
        if comment:
            assert comment.startswith(repr(value)), (code, value, comment)
            checked += 1
    assert checked >= 3



def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_readme_cli_examples_hold(capsys):
    # A command followed by a line that is only a comment prints that line;
    # a reproduce command whose comment holds a number selects that many
    # rows, which pass at a small order and bound.
    lines = _block("## CLI", "sh").splitlines()
    printed = counted = 0
    for line, after in zip(lines, lines[1:] + [""]):
        command, _, comment = line.partition("#")
        if not command.startswith("thetasums "):
            continue
        argv = shlex.split(command)[1:]
        if after.startswith("# "):
            assert _run(capsys, argv) == (0, after[2:] + "\n"), line
            printed += 1
        elif argv[0] == "reproduce" and (number := re.search(r"\d+", comment)):
            small = ["--order", "200", "--bound", "2000", "--format", "report"]
            code, out = _run(capsys, argv + small)
            assert code == 0 and len(json.loads(out)["rows"]) == int(number[0]), line
            counted += 1
    assert (printed, counted) == (1, 3)


def test_readme_report_example_holds(capsys):
    # The JSON example's schema, config and summary are those of
    # 'reproduce all' at that config, and its one row is the first.
    example = json.loads(_block("so results are self-describing:", "json"))
    config = example["config"]
    argv = ["reproduce", "all", "--order", str(config["order"]), "--bound", str(config["bound"])]
    code, out = _run(capsys, argv + ["--format", "report"])
    report = json.loads(out)
    assert code == 0
    for field in ("schema", "config", "summary"):
        assert report[field] == example[field], field
    [row] = example["rows"]
    assert {**report["rows"][0], "detail": "..."} == row
