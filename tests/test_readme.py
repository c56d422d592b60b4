"""The README's library quick start runs, every value its comments claim
is the value the code returns, and every command of its CLI block parses."""
import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from digitdrift import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def _claim(comment: str, namespace: dict):
    """The value that `# VALUE` or `# VALUE: note` claims, as a 1-tuple;
    None for a comment that is prose or elides part of the value."""
    text = comment.lstrip("#").split(":")[0].strip()
    if "..." in text:
        return None
    try:
        return (eval(text, namespace),)
    except (SyntaxError, NameError):
        return None


def test_readme_quick_start_runs_and_its_values_hold():
    src = _quick_start()
    comments = {
        tok.start[0]: tok.string
        for tok in tokenize.generate_tokens(io.StringIO(src).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(src).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        claim = _claim(comments.get(stmt.end_lineno, ""), namespace)
        if claim is not None:
            line = ast.get_source_segment(src, stmt)
            assert value == claim[0], f"{line} gives {value!r}, README says {claim[0]!r}"
            checked.append(line)
    # drift, carry_count, atom_mass, variance_exact, all_bounds_hold
    assert len(checked) == 5, checked


def _cli_commands() -> list[str]:
    """Each `digitdrift ...` command of the README's CLI block, with its
    backslash continuations joined."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?^```\n(.*?)^```", text, re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("digitdrift ")]


def test_readme_cli_block_has_every_verb():
    verbs = {shlex.split(cmd)[1] for cmd in _cli_commands()}
    assert verbs == {"dist", "blocks", "verify", "simulate", "clt", "phi"}


@pytest.mark.parametrize("command", _cli_commands())
def test_readme_cli_command_parses(command):
    # parse only: a removed or misspelled option exits the parser with 2
    try:
        cli.build_parser().parse_args(shlex.split(command)[1:])
    except SystemExit as exc:
        pytest.fail(f"{command!r} does not parse (exit {exc.code})")
