"""The package's public surface: the README example and the import cost."""

import os
import re
import subprocess
import sys
from pathlib import Path

from cvbell import cli

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library use")[1].split("```")[1][len("python"):]
    exec(compile(code, "README.md", "exec"), {})
    printed = [float(v) for v in capsys.readouterr().out.split()]
    quoted = re.findall(r"\d+(?:\.\d+)?(?:e-\d+)?",
                        " ".join(re.findall(r"# (.*)", code)))
    assert quoted == ["2.011", "2.61e-4", "1830", "0.573", "2.046"]
    # each printed value holds the digits of its comment, to one unit
    for value, text in zip(printed, quoted, strict=True):
        mantissa, _, exponent = text.partition("e")
        unit = 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))
        assert abs(value - float(text)) < unit


def test_readme_config_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    config = tmp_path / "run.ini"
    config.write_text(readme.split("```ini")[1].split("```")[0],
                      encoding="utf-8")
    out = tmp_path / "chsh.csv"
    assert cli.main(["chsh", "--config", str(config), "--out", str(out)]) == 0
    header = out.read_text(encoding="utf-8").splitlines()[0].split(",")
    assert {"S", "P"} <= set(header)


def test_import_does_not_load_scipy():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    probe = ("import sys, cvbell, cvbell.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.partition('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
