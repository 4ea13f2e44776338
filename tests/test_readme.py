"""The README's code examples run as written against the current API."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def test_library_example_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library)", "exec"), {})
    assert capsys.readouterr().out == "[0, 1, 0]\nsatisfied\nNone\n"
