import importlib
import json
import sys
from pathlib import Path

if sys.version_info >= (3, 11):
    import tomllib
else:  # the test extra installs tomli on Python 3.10
    import tomli as tomllib

from chernlab import cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_verify_prints_json_and_every_verdict_holds(capsys):
    assert cli.main(["verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    checks = report["checks"]
    assert report["verdict"] and len(checks) == 17
    assert checks[-1]["name"] == "cs_exact/inversion_homotopy_even(random_unitary_map)"
    assert set(checks[-1]["diagnostics"]["residuals"]) == {"1", "3"}
    for check in checks:
        assert set(check) == {"name", "residual", "bound", "verdict", "diagnostics", "seconds"}
        assert check["verdict"] and check["residual"] < check["bound"]


def test_declared_entry_points_resolve():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert scripts
    for target in scripts.values():
        module, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module), attr))
