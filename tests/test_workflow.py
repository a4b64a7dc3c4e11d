"""The CI workflow's red-by-design test id names a test that exists and that README documents."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_workflow_names_the_documented_red_test():
    # CI requires exactly this test to fail; a renamed test shows here, not only as pytest's exit 4 in CI
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    (test_id,) = re.findall(r"^\s+CRITERION_5: (\S+)$", workflow, re.M)
    path, name = test_id.split("::")
    assert (ROOT / path).is_file()
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### A deliberately red acceptance check\n", 1)[1].split("\n#", 1)[0]
    assert f"`{test_id}`" in section


def test_every_source_file_parses_as_python_3_10():
    # the workflow's 3.10 job is the oldest that pyproject.toml allows; this catches
    # newer syntax (except*, for one) on any interpreter, before that job runs
    files = [path for folder in ("src/homyb", "perfbench", "tests")
             for path in sorted((ROOT / folder).glob("*.py"))]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
