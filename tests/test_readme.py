"""The README against the code: its Library example runs as written, its
command lines parse, and it names no option the CLI no longer has.
"""

import re
import shlex
from pathlib import Path

import fkmorse
from fkmorse.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
REMOVED_OPTIONS = ("--seed", "--face-quantifier", "--coface-quantifier")


def test_readme_library_example_and_command_lines_match_the_code():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(snippet, "README.md", "exec"), {})

    # the package root re-exports the example's names and the error classes
    imported = {name.strip() for names in
                re.findall(r"^from fkmorse\.\w+ import (.+)$", snippet, re.M)
                for name in names.split(",")}
    errors = {"TruncationError", "StabilizationError", "SelfCheckError"}
    assert set(fkmorse.__all__) == imported | errors
    assert len(fkmorse.__all__) == len(imported | errors)

    commands = [line[len("$ fkmorse"):] for line in text.splitlines()
                if line.startswith("$ fkmorse ")]
    assert commands
    parser = build_parser()
    for command in commands:
        # everything after a pipe or a redirection belongs to the shell
        argv = shlex.split(re.split(r"[|>]", command, maxsplit=1)[0])
        parser.parse_args(argv)

    for option in REMOVED_OPTIONS:
        assert option not in text
