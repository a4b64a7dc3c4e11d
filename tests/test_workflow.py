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


def _annotation_names(node):
    """The names an annotation reads, those inside string annotations too."""
    names = set()
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            names.add(part.id)
        elif isinstance(part, ast.Constant) and isinstance(part.value, str):
            names |= _annotation_names(ast.parse(part.value, mode="eval"))
    return names


def test_no_source_module_imports_a_name_it_does_not_use():
    # a refactor that empties an import's last use leaves it behind; `# noqa: F401`
    # marks a deliberate re-export, and so does a name listed in `__all__`
    unused = []
    for path in sorted((ROOT / "src" / "homyb").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree, lines = ast.parse(text), text.splitlines()
        imported = {
            (alias.asname or alias.name).split(".")[0]: alias.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
            for alias in node.names
            if "# noqa: F401" not in lines[alias.lineno - 1]
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
                used |= _annotation_names(node.annotation)
            elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns is not None:
                used |= _annotation_names(node.returns)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in node.targets):
                used |= {item.value for item in node.value.elts}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused
