"""The README states what the code accepts: the case example names exactly the keys the case reader
reads, the command-line synopsis lists exactly the flags each subcommand declares, and the --perturb form
names exactly the keys its parser takes."""

import argparse
import json
import re
from pathlib import Path

from gridlink import case, cli

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(section: str, language: str) -> str:
    """The first ```language block after the README heading `## section`."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def test_case_example_names_every_key_the_reader_reads():
    example = json.loads(fenced_block("Case files", "json"))
    tables = case._FIELDS
    assert list(example) == list(tables[case.PowerCase])
    for key, (_, record, _) in tables[case.PowerCase].items():
        if record in tables:
            [entry] = example[key]
            assert list(entry) == list(tables[record]), key


def test_command_line_synopsis_lists_every_declared_flag():
    synopsis = {}
    for line in fenced_block("Command line", "sh").splitlines():
        _, subcommand, *words = line.split()
        synopsis[subcommand] = sorted(set(re.findall(r"--[a-z-]+", " ".join(words))))
    [subparsers] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {
        name: sorted(flag for action in parser._actions for flag in action.option_strings if flag.startswith("--"))
        for name, parser in subparsers.choices.items()
    }
    assert synopsis == {name: [flag for flag in flags if flag != "--help"] for name, flags in declared.items()}


def test_perturb_form_names_exactly_the_parser_keys():
    [form] = re.findall(r'`--perturb "([^"]*)"`', README)
    assert re.findall(r"(\w+)=", form) == ["gen", *cli.PERTURB_KEYS]
    [subparsers] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    [perturb] = [a for a in subparsers.choices["simulate"]._actions if "--perturb" in a.option_strings]
    assert perturb.help.startswith(f"'{form}'")
