"""README's examples hold: each command line in its shell blocks parses with
the program's real argument parser, and its table of daemon settings lists
`DaemonConfig.DEFAULTS`."""

import os
import re
import shlex

import pytest

from routee import cli
from routee.daemon import DaemonConfig

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
ENTRIES = {"routee": cli.main, "routee-hubd": cli.hubd_main, "routee-simchain": cli.simchain_main}


def _readme() -> str:
    with open(README) as fh:
        return fh.read()


def readme_commands() -> list[list[str]]:
    """Each `routee`, `routee-hubd` and `routee-simchain` line of README's
    shell blocks as argv: continuation lines joined, every `<…>` and `$(…)`
    placeholder filled with 20 bytes of hex, comments and `&` dropped."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", _readme(), re.S):
        block = re.sub(r"<[^>]*>|\$\([^)]*\)", "00" * 20, block.replace("\\\n", " "))
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[-1] == "&":
                argv.pop()
            if argv and argv[0] in ENTRIES:
                commands.append(argv)
    return commands


def test_readme_commands_parse(monkeypatch, capsys):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(ENTRIES)
    parsed = []
    # the parsed arguments are kept and no command runs, so nothing connects
    monkeypatch.setattr(cli, "_run", lambda args, fn: parsed.append(args) or 0)
    for argv in commands:
        try:
            assert ENTRIES[argv[0]](argv[1:]) == 0
        except SystemExit:
            pytest.fail(f"README: {shlex.join(argv)}\n{capsys.readouterr().err}")
        if argv[0] == "routee-hubd":
            # an unknown key or a malformed value raises ConfigError naming it
            DaemonConfig(dict(item.partition("=")[::2] for item in parsed[-1].set))
    assert len(parsed) == len(commands)


def test_readme_lists_every_daemon_setting_with_its_default():
    rows = re.findall(r"^\| `(\w+)` \| (`[^`]*`|none) \|", _readme(), re.M)
    listed = {key: "" if default == "none" else default.strip("`") for key, default in rows}
    assert listed == {key: default for key, (default, _) in DaemonConfig.DEFAULTS.items()}
