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
