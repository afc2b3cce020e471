"""Byte-for-byte CLI output against committed golden files.

`tests/golden/run.ini` is the README configuration; the golden files are
the output of `chsh`, `sweep`, `optimize` and `mc` at it, and the four
`fig2` panels.  `validate` is left out: its smallest gaps (about 1e-13)
depend on the summation order of the BLAS build.  After a change that is
meant to move printed digits, regenerate the files with
`PYTHONPATH=src python tests/test_golden.py`, which prints each line it
rewrites as "file:line: old -> new", and list the moved digits.
"""

import itertools
from pathlib import Path

import pytest

from cvbell import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

#: golden file -> the command that writes it, with "{out}" for its path
COMMANDS = {
    **{f"{name}.csv": [name, "--config", str(GOLDEN / "run.ini"),
                       "--out", "{out}"]
       for name in ("chsh", "sweep", "optimize", "mc")},
    **{f"fig2{panel}.csv": ["fig2", "--config", str(GOLDEN / "run.ini"),
                            "--out", "{dir}"] for panel in "abcd"},
}


def write_outputs(out_dir: Path, names=tuple(COMMANDS)) -> None:
    """Run the command of each named golden file, writing into out_dir."""
    for name in names:
        argv = [arg.format(out=out_dir / name, dir=out_dir)
                for arg in COMMANDS[name]]
        assert cli.main(argv) == cli.EXIT_OK


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(tmp_path, name):
    write_outputs(tmp_path, [name])
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def rewrite_golden() -> None:
    """Regenerate every golden file and print each line that changed."""
    before = {name: (GOLDEN / name).read_text().splitlines()
              for name in COMMANDS}
    write_outputs(GOLDEN)
    for name, old_lines in before.items():
        new_lines = (GOLDEN / name).read_text().splitlines()
        for number, (old, new) in enumerate(
                itertools.zip_longest(old_lines, new_lines), start=1):
            if old != new:
                print(f"{name}:{number}: {old} -> {new}")


if __name__ == "__main__":
    rewrite_golden()
