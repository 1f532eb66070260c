"""The README's library example runs, and its commented results hold."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text()
    match = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S)
    assert match, "README has no library example block"
    return match.group(1)


def test_readme_library_example_runs_as_documented():
    # A line "expression  # value ..." must evaluate to something whose repr
    # begins the comment; every other line just has to run.
    namespace: dict = {}
    checked = 0
    for line in _library_example().splitlines():
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
