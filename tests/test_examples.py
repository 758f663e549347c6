"""The runnable examples and the package docstring's quickstart run to
the end, so a renamed API cannot rot them unnoticed."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["quickstart.py",
                                    "spare_capacity_monitor.py",
                                    "handover_monitor.py"])
def test_example_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, str(ROOT / "examples" / script)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_docstring_quickstart_runs(capsys):
    doc = repro.__doc__
    block = doc[doc.index("Quickstart::") + len("Quickstart::"):]
    exec(compile(textwrap.dedent(block), "<repro quickstart>", "exec"), {})
    assert "Mbps" in capsys.readouterr().out
