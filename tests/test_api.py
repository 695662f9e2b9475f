"""The public namespace is the documented one."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import asnkit

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def documented_api() -> dict[str, list[str]]:
    """Module -> names, in order, from README's "Public API" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    modules: dict[str, list[str]] = {}
    for line in section.splitlines():
        heading = re.fullmatch(r"### `([\w.]+)`", line)
        if heading:
            names = modules.setdefault(heading.group(1), [])
        elif line.startswith("- "):
            names.append(re.match(r"- `(\w+)`: \S", line).group(1))
    return modules


def test_readme_lists_every_public_name_under_its_module():
    modules = documented_api()
    assert [name for names in modules.values() for name in names] == asnkit.__all__
    for module, names in modules.items():
        if module != "asnkit":  # the package adds its own names last
            assert names == importlib.import_module(module).__all__, module


def test_the_readme_python_examples_run(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:  # one namespace: the second block reads `slices`
        exec(block.replace('"corpus.tb"', repr(asnkit.demo_corpus_path())), namespace)
    assert "entered the top 10 at century" in capsys.readouterr().out


def test_the_package_holds_only_the_pipeline():
    assert {m.name for m in pkgutil.iter_modules(asnkit.__path__)} == {
        "cli", "corpus", "diachrony", "hierarchy", "network", "powerlaw", "stats"}
    assert Path(asnkit.demo_corpus_path()).is_file()


def test_the_cli_imports_only_public_names():
    tree = ast.parse((ROOT / "src" / "asnkit" / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "asnkit")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []
