"""The README's config document and library example run as written."""

import contextlib
import csv
import io
import re
from pathlib import Path

from cavityclock.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced(language, after):
    """The first ```language block that follows the heading `after`."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(after):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_config_document_runs_as_twin_and_sweep(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(fenced("json", "### Config document"), encoding="utf-8")
    for command in ("twin", "sweep"):
        out = tmp_path / command
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", str(config),
                         "--out", str(out)]) == EXIT_OK
        with open(out / "twin_results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == (1 if command == "twin" else 3)


def test_library_example_runs():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(fenced("python", "## Library example"), {})
    assert len(printed.getvalue().split()) == 3
