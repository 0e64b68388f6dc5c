"""The README against the code: its Library example runs as written, its
command lines parse, it names no option the CLI no longer has, and every
`module.name` it names is in the package.
"""

import importlib
import re
import shlex
from pathlib import Path

import fkmorse
from fkmorse.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
REMOVED_OPTIONS = ("--seed", "--face-quantifier", "--coface-quantifier")
MODULES = ("pairing", "chains", "simplicial", "flow", "homology", "cli",
           "errors")


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


def test_readme_names_only_what_the_modules_hold():
    # a backticked `module.name` or `fkmorse.module.name`, dotted further
    # for a method, must still resolve: names drift as code moves
    text = README.read_text(encoding="utf-8")
    refs = re.findall(rf"`(?:fkmorse\.)?({'|'.join(MODULES)})\.([\w.]+)`",
                      text)
    assert refs
    for module, name in refs:
        target = importlib.import_module(f"fkmorse.{module}")
        for part in name.split("."):
            assert hasattr(target, part), f"README names {module}.{name}"
            target = getattr(target, part)
