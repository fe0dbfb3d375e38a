"""The runtime needs numpy alone: importing the package loads no scipy."""
import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import rtangle

PACKAGE = Path(rtangle.__file__).resolve().parent


def _is_scipy(name) -> bool:
    return isinstance(name, str) and (name == "scipy" or name.startswith("scipy."))


def test_import_loads_no_scipy():
    """A fresh interpreter that imports the package and its CLI has no
    scipy module loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent),
                                                      env.get("PYTHONPATH"))))
    code = ("import sys, rtangle, rtangle.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_sources_import_no_scipy():
    """No module of the package imports scipy, at module level or inside a
    function, by statement or by ``__import__``/``importlib.import_module``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.level == 0 else []
            elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                names = [node.args[0].value] if called in ("__import__", "import_module") else []
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if _is_scipy(name)]
    assert not found


def test_code_lines_counts_tokens_outside_docstrings_and_comments(tmp_path):
    """The code-line rule of ``tools/code_lines.py``: a line counts when it
    holds a token other than a comment outside the module, class and
    function docstrings; a multi-line string that is not a docstring counts
    every line it spans."""
    spec = importlib.util.spec_from_file_location(
        "code_lines", PACKAGE.parents[1] / "tools" / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = tmp_path / "sample.py"
    source.write_text('"""Module\n\ndocstring."""\n# a comment\nimport os  # counted\n\n\n'
                      'class A:\n    """One line."""\n\n    def f(self):\n'
                      '        """Two\n        lines."""\n        return """a\nb"""\n')
    assert tool.code_lines(source) == 5


def _package_imports(path) -> set:
    """The modules of the package that the source ``path`` imports, by
    relative or absolute import statement, at module level or inside a
    function."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rtangle"):
            parts = node.module.split(".")
            found.update(parts[1:2] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("rtangle."))
    return found


def test_program_and_search_stand_apart_from_roof():
    """The linear program (``lp.py``) and the search (``search.py``) import
    nothing from ``roof``, so either can be replaced or deleted as one
    module, and only ``roof.py`` imports the search."""
    imports = {path.stem: _package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert "roof" not in imports["lp"] | imports["search"]
    assert {name for name, found in imports.items() if "search" in found} == {"roof"}
