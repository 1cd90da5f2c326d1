"""The README's library example runs as written, and its subcommand list
matches the parser."""

import argparse
import re
from pathlib import Path

from romanenum.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1, "expected one python block, under 'Library'"
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["completions"]  # the 2-set {0} of the path has completions
    assert len(namespace["first_two"]) == 2


def test_subcommand_list_matches_the_parser():
    sentence = re.search(r"^All subcommands: (.*?)\.", README.read_text(encoding="utf-8"), re.M | re.S)
    assert sentence, "README names no 'All subcommands:' list"
    listed = re.findall(r"`([^`]+)`", sentence.group(1))
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(listed) == sorted(sub.choices)
