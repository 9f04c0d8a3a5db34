"""The README's examples, run: every `$ entkit ...` block through the CLI
and every python block as a script, so README and code stay in step."""
import os
import re
import shlex

import pytest

from entkit.builders import epr_pair
from entkit.cli import main
from entkit.states import save_state

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_blocks(lang: str) -> list[str]:
    """The bodies of the README's fenced blocks tagged `lang` ("" for none)."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return [m.group(2) for m in re.finditer(r"^```(\w*)\n(.*?)^```$", text, re.M | re.S) if m.group(1) == lang]


CLI_BLOCKS = [block for block in readme_blocks("") if block.startswith("$ entkit ")]
PYTHON_BLOCKS = readme_blocks("python")


def normalized(text: str) -> str:
    return " ".join(text.split())


def test_readme_has_examples():
    assert len(CLI_BLOCKS) >= 5 and len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("block", CLI_BLOCKS, ids=lambda b: b.splitlines()[0][2:])
def test_readme_cli_example(capsys, block):
    command, expected = block.split("\n", 1)
    code = main(shlex.split(command.removeprefix("$ entkit ")))
    out = normalized(capsys.readouterr().out)
    assert code == 0
    # a trailing "..." marks an example cut short
    if expected.rstrip().endswith("..."):
        assert out.startswith(normalized(expected.rstrip()[:-3]))
    else:
        assert out == normalized(expected)


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=lambda b: b.splitlines()[0])
def test_readme_python_example(capsys, block):
    exec(compile(block, README, "exec"), {})
    assert capsys.readouterr().out


def test_readme_state_file_is_what_save_state_writes(tmp_path):
    # the first json block is the state file example
    block = readme_blocks("json")[0]
    assert '"terms"' in block
    path = tmp_path / "epr.json"
    save_state(epr_pair(), str(path))
    assert path.read_text(encoding="utf-8") == block
