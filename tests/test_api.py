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


#: Scopes whose names shadow the module's: functions, lambdas, comprehensions.
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SCOPES = (ast.FunctionDef, ast.Lambda, *_COMPREHENSIONS)


def _own_nodes(scope: ast.AST):
    """The nodes inside ``scope``, and each nested scope, but not its inside."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _own_nodes(child)


def _bound(scope: ast.AST) -> set[str]:
    """The names a function, lambda or comprehension binds for itself."""
    names = set()
    if not isinstance(scope, _COMPREHENSIONS):
        args = scope.args
        names |= {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a}
    for node in _own_nodes(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _module_reads(tree: ast.Module) -> set[str]:
    """The names read in ``tree`` where they resolve to a module-level
    binding: not a parameter or local of an enclosing scope, not a type
    annotation, and not inside the module-level definition of that name."""
    reads: set[str] = set()

    def visit(node: ast.AST, local: frozenset, owner: str | None) -> None:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local and node.id != owner:
                reads.add(node.id)
        if isinstance(node, _SCOPES):
            local = local | _bound(node)
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, local, owner)

    for statement in tree.body:
        visit(statement, frozenset(), getattr(statement, "name", None))
    return reads


def test_every_public_name_is_read_by_the_pipeline():
    """A public name that no pipeline module reads is one only tests use."""
    read = set()
    for path in sorted((ROOT / "src" / "asnkit").glob("*.py")):
        module = importlib.import_module(
            "asnkit" if path.stem == "__init__" else f"asnkit.{path.stem}")
        read |= {name for name in _module_reads(ast.parse(path.read_text(encoding="utf-8")))
                 if name in asnkit.__all__
                 and getattr(module, name, None) is getattr(asnkit, name)}
    unread = [name for name in asnkit.__all__
              if name not in read and name != "demo_corpus_path"]
    assert unread == []
