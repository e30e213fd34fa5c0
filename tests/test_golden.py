"""Golden outputs of `count FILE -n N -v --dump gb --dump algebra`.

Every presentation in `algebras/` is counted at n = 1 and n = 2, and the
exit code, stdout and stderr are compared as strings with the files under
`tests/golden/`: verdicts, counts, witnesses, minimal polynomials, locus
bases, trace-algebra bases and Gram matrices.  The `stage` timing lines and
the `engine` counter lines are dropped, so a change that only makes the
pipeline faster, or does its work in another way, leaves every golden file
as it is.

`python tests/test_golden.py` rewrites the golden files with the repcount
on the path.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from repcount.cli import main

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"
GOLDEN = Path(__file__).resolve().parent / "golden"
DIMENSIONS = (1, 2)


def render(path: Path, n: int) -> str:
    """The exit code and both streams of one count, without the lines
    that carry timings or engine counters."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["count", str(path), "-n", str(n), "-v", "--dump", "gb",
                     "--dump", "algebra"])
    kept = [line for line in out.getvalue().splitlines()
            if not line.startswith(("stage", "engine"))]
    return "exit %d\n--- stdout\n%s--- stderr\n%s" % (
        code, "".join(line + "\n" for line in kept), err.getvalue())


def cases() -> list:
    return [(path, n) for path in sorted(ALGEBRAS.glob("*.alg")) for n in DIMENSIONS]


def golden_path(path: Path, n: int) -> Path:
    return GOLDEN / ("%s-n%d.txt" % (path.stem, n))


@pytest.mark.parametrize("path,n", [pytest.param(path, n, id="%s-n%d" % (path.stem, n))
                                    for path, n in cases()])
def test_count_output_matches_the_golden_file(path, n):
    assert render(path, n) == golden_path(path, n).read_text()


def test_every_golden_file_has_a_case():
    assert sorted(GOLDEN.glob("*.txt")) == sorted(golden_path(path, n) for path, n in cases())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for path, n in cases():
        golden_path(path, n).write_text(render(path, n))
        print("wrote", golden_path(path, n), file=sys.stderr)
