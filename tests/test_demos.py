"""Every narrative script under demos/ runs to the end against the library,
and prints exactly the text pinned in `golden/demos/<stem>.txt`.

After a deliberate change of a demo's output, regenerate the files from the
repository root with

    PYTHONPATH=src:tests python -c "import test_demos as t; t.regenerate()"

and review the diff before committing it.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent
DEMOS = sorted((ROOT.parent / "demos").glob("*.py"))
GOLDEN = ROOT / "golden" / "demos"


def _stdout(path: Path) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(path), run_name="__main__")
    return buf.getvalue()


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for path in DEMOS:
        (GOLDEN / f"{path.stem}.txt").write_text(_stdout(path))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    out = _stdout(path)
    assert out.strip()
    assert "Traceback" not in out
    assert out == (GOLDEN / f"{path.stem}.txt").read_text()
