"""Every public function that wsn3d exports has a reader outside the tests'
own oracles: the CLI, a demo, an acceptance criterion or a benchmark hook."""

import inspect
import re
from pathlib import Path

import wsn3d

REPO = Path(__file__).resolve().parents[1]
READERS = [
    REPO / "src" / "wsn3d" / "cli.py",
    *sorted((REPO / "demos").glob("*.py")),
    REPO / "tests" / "test_acceptance.py",
    REPO / "perfbench" / "layers.py",
]


def test_every_exported_function_is_read():
    text = "\n".join(p.read_text(encoding="utf-8") for p in READERS)
    exported = [name for name, obj in vars(wsn3d).items() if not name.startswith("_") and inspect.isfunction(obj)]
    unread = [name for name in exported if not re.search(rf"\b{name}\b", text)]
    assert exported
    assert unread == []
