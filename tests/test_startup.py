"""Start-up: what importing homyb loads, and a closed stdout exits cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import homyb
from homyb.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(*args, env=None, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports homyb from this checkout."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=env, stderr=subprocess.PIPE,
                          text=True, timeout=120, **kwargs)


@pytest.fixture(scope="module")
def algebra_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "ex2.3.json"
    assert main(["catalog", "export", "ex2.3", "--out", str(path)]) == 0
    return str(path)


def test_importing_the_cli_does_not_load_the_catalog():
    proc = _python("-c", "import sys, homyb, homyb.cli; print('homyb.catalog' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_importing_homyb_loads_neither_dataclasses_nor_inspect():
    # nor, after a whole catalog pass, any of the test-only packages
    code = ("import sys, homyb, homyb.cli, homyb.catalog; "
            "homyb.catalog.verify_all(); "
            "print(sorted({'dataclasses', 'inspect', 'numpy', 'sympy', 'hypothesis'}"
            " & set(sys.modules)))")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_does_not_load_the_catalog(algebra_file):
    args = ["verify", algebra_file, "--construction", "thm5.2", "--check", "system"]
    code = (
        "import sys, homyb.cli; "
        f"code = homyb.cli.main({args!r}); "
        "print(code, 'homyb.catalog' in sys.modules)"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_catalog_list_runs_as_a_module():
    proc = _python("-m", "homyb.cli", "catalog", "list")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 6


def test_every_public_name_resolves_and_is_listed():
    for name in homyb.__all__:
        getattr(homyb, name)
    assert set(homyb.__all__) <= set(dir(homyb))


def test_catalog_names_are_looked_up_not_stored():
    assert homyb.verify_all is homyb.catalog.verify_all
    assert "verify_all" not in vars(homyb)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        homyb.no_such_name  # noqa: B018


@pytest.mark.parametrize("unbuffered", ["1", None])
@pytest.mark.parametrize(
    "command",
    [["catalog", "list"], ["catalog", "verify-all"], ["build", "{file}", "--construction", "thm2.1"]],
    ids=["catalog-list", "verify-all", "build"],
)
def test_closed_stdout_exits_two_without_a_traceback(command, unbuffered, algebra_file):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read, write = os.pipe()
    os.close(read)  # nobody reads: the child's first write fails
    try:
        args = [a.format(file=algebra_file) for a in command]
        proc = _python("-m", "homyb.cli", *args, env=env, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
