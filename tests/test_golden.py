"""Every CLI output pinned: tests/golden.sha256 holds the records that
tests/golden.py writes for each command of its table."""

import argparse
from pathlib import Path

import golden
from superlocal import cli

PINS = Path(__file__).with_name("golden.sha256")


def by_command(lines):
    """The record lines grouped by command, in table order."""
    out = {}
    for line in lines:
        command, _, stream = line.rstrip("\n").partition(" | ")
        out.setdefault(command, []).append(stream)
    return out


def test_every_record_matches_its_pin():
    pinned = by_command(PINS.read_text(encoding="ascii").splitlines())
    records = by_command(golden.records())
    differ = [c for c in {**pinned, **records} if pinned.get(c) != records.get(c)]
    assert not differ, "records differ from their pins:\n" + "\n".join(differ)


def test_every_subcommand_and_format_has_an_answer_pinned():
    # a new subcommand or --format choice fails here until a row that
    # exits 0 pins its output
    parser = cli._parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    wanted = {
        (name, fmt)
        for name, p in sub.choices.items()
        for fmt in next(
            (a.choices for a in p._actions if a.dest == "format"), (p.get_default("format"),)
        )
    }
    answered = {
        (args.command, args.format)
        for command, streams in by_command(PINS.read_text(encoding="ascii").splitlines()).items()
        if streams[0] == "exit 0"
        for args in [parser.parse_args(command.split())]
    }
    assert wanted - answered == set()
