"""Smoke test: every demo script runs to completion against src/, and
writes nothing outside its TMPDIR."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))

# Runs the demo named by argv[1] under an audit hook that fails every file
# write, rename or mkdir outside TMPDIR, and exits 3 if the demo caught one.
GUARD = """
import os, runpy, sys
root = os.path.realpath(os.environ["TMPDIR"])
WRITE = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_APPEND | os.O_TRUNC
outside = []

def guard(event, args):
    if event == "open":
        paths = [args[0]] if args[2] & WRITE else []
    elif event == "os.rename":
        paths = [args[1]]
    elif event == "os.mkdir":
        paths = [args[0]]
    else:
        return
    for p in paths:
        if isinstance(p, int):
            continue
        p = os.path.realpath(os.fsdecode(p))
        if os.path.commonpath([root, p]) != root:
            outside.append(p)
            raise PermissionError(f"write outside TMPDIR: {p}")

sys.addaudithook(guard)
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
if outside:
    sys.exit(f"wrote outside TMPDIR: {outside}")
"""


def run_guarded(script, tmp_path):
    # TMPDIR keeps every tempfile directory under tmp_path
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               TMPDIR=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", GUARD, str(script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    # the guard also fails the demo if it writes outside tmp_path
    proc = run_guarded(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_the_guard_fails_a_write_outside_tmpdir(tmp_path):
    inside, outside = tmp_path / "in", tmp_path / "out"
    inside.mkdir()
    outside.mkdir()
    script = inside / "writes.py"
    script.write_text(f"open({str(outside / 'x.txt')!r}, 'w').close()\n")
    proc = run_guarded(script, inside)
    assert proc.returncode != 0 and "outside TMPDIR" in proc.stderr
    assert not (outside / "x.txt").exists()
    script.write_text(f"open({str(inside / 'x.txt')!r}, 'w').close()\n")
    assert run_guarded(script, inside).returncode == 0
