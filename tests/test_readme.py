"""The Python examples of README.md run as written."""

from __future__ import annotations

import re
from pathlib import Path

import symsearch as ss

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)


def test_readme_examples_run_in_order():
    """Each Python block runs after the ones before it, in one namespace
    that supplies the names the README leaves to the reader: a reward for a
    child, for a program's choices and for a flow, and an algorithm."""
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 4
    namespace = {
        "evaluate": lambda child: float(len(repr(child))),
        "train_and_score": lambda *choices: float(len(repr(choices))),
        "reward": lambda child, dna: float(len(repr(dna))),
        "algorithm": ss.RandomSearch(seed=0),
    }
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), namespace)
    assert len(namespace["times"]) == 50  # the timed joint search
    assert namespace["report"].oracle_calls == 2 * 10  # the factorized eager search
