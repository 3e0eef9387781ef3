"""Every public name and public class member is used by the program, not
only by its tests.

It also holds two import rules: only ``cli.py`` and ``__init__.py`` import
``oracle``, so the independent check stays a leaf that no closed form
depends on; and no module imports a name it never uses.

A public name is one in a module's ``__all__`` or one that
``floquet_lab/__init__.py`` re-exports; a public class member is a ``def``
(a property included) in the body of a public class whose name has no
leading underscore.  Either counts as used when code in
``src/``, ``bench/`` or ``scripts/`` refers to it, as a ``Name`` or an
``Attribute`` node, outside its own definition, or when ``bench/tracing.py``
names it in ``LAYERS``, whose entries the tracer wraps by string.  The files
are read with ``ast``; nothing is imported.

Against knob creep, every defaulted parameter of a public function or
public class member is set, by keyword or by position, by some call in
``src/``, ``bench/`` or ``scripts/`` outside its own definition.  Calls
match by the callee's name, like the rules above.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "floquet_lab"
PROGRAM_DIRS = (ROOT / "src", ROOT / "bench", ROOT / "scripts")

# public names and class members that only tests use, each kept for a reason
ALLOWED_UNUSED = {
    "KamResult.propagator": "the converged-only entry to reconstruct_propagator, which raises NotConvergedError",
    "level_hamiltonian": "independent reference that tests compare the KAM reconstruction against",
    "problem_to_json_dict": "writes the problem format that load_problem reads",
}

# defaulted parameters that no program call sets, each kept for a reason
ALLOWED_UNSET = {
    "propagate_generic.scheme": "selects the midpoint scheme, which goes with the next change to the benchmark",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_names() -> dict[str, str]:
    """name -> where it is made public."""
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                for elt in node.value.elts:
                    names[elt.value] = f"{path.stem}.__all__"
            if path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    names[alias.asname or alias.name] = "floquet_lab/__init__.py"
    return names


def _public_members() -> dict[str, str]:
    """Each public member of a public class, as "Class.member" -> member name."""
    public = _public_names()
    members = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef) and node.name in public:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        members[f"{node.name}.{item.name}"] = item.name
    return members


class _References(ast.NodeVisitor):
    """Names and attributes used, each outside the definition of that name."""

    def __init__(self):
        self.found: set[str] = set()
        self._inside: list[str] = []

    def _definition(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name: str):
        if name not in self._inside:
            self.found.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def _traced_names() -> set[str]:
    """Every dotted part of the function names in bench/tracing.py LAYERS.
    The keys, module names, are not names the program uses."""
    for node in _parse(ROOT / "bench" / "tracing.py").body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return {
                part
                for value in node.value.values
                for const in ast.walk(value)
                if isinstance(const, ast.Constant) and isinstance(const.value, str)
                for part in const.value.split(".")
            }
    raise AssertionError("bench/tracing.py defines no LAYERS")


def _program_references() -> set[str]:
    refs = _References()
    for top in PROGRAM_DIRS:
        for path in sorted(top.rglob("*.py")):
            refs.visit(_parse(path))
    return refs.found | _traced_names()


def test_every_public_name_is_used_by_the_program():
    used = _program_references()
    unused = sorted(
        f"{name} ({where})"
        for name, where in _public_names().items()
        if name not in used and name not in ALLOWED_UNUSED
    )
    assert not unused, "public but used only by tests: " + ", ".join(unused)


def test_every_public_class_member_is_used_by_the_program():
    """The rule matches by member name, not by class: a member counts as used
    when the program names that spelling anywhere, whichever class it means."""
    used = _program_references()
    unused = sorted(
        member
        for member, name in _public_members().items()
        if name not in used and member not in ALLOWED_UNUSED
    )
    assert not unused, "public class members used only by tests: " + ", ".join(unused)


def _defaulted(func: ast.FunctionDef, label: str, bound: bool) -> dict[str, tuple[str, str, int | None]]:
    """Each defaulted parameter of func, as label.param -> (function name,
    parameter, index among a call's positional arguments, None for a
    keyword-only one).  A bound method's first parameter is not among a
    call's arguments."""
    args = func.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0 :]
    first = len(positional) - len(args.defaults)
    out = {f"{label}.{a.arg}": (func.name, a.arg, i) for i, a in enumerate(positional) if i >= first}
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            out[f"{label}.{a.arg}"] = (func.name, a.arg, None)
    return out


def _defaulted_parameters() -> dict[str, tuple[str, str, int | None]]:
    """Each defaulted parameter of a public function, as "function.param",
    or of a public class member, as "Class.member.param"."""
    public = _public_names()
    params = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and node.name in public:
                params |= _defaulted(node, node.name, bound=False)
            if isinstance(node, ast.ClassDef) and node.name in public:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                        params |= _defaulted(item, f"{node.name}.{item.name}", bound=not static)
    return params


class _Calls(_References):
    """Per callee name, the keywords and the most positional arguments of
    its calls, each outside the callee's definition.  A *args or **kwargs
    counts as setting every parameter it could reach."""

    def __init__(self):
        super().__init__()
        self.keywords: dict[str, set] = {}
        self.positions: dict[str, float] = {}

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is not None and name not in self._inside:
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            reach = math.inf if starred else len(node.args)
            self.positions[name] = max(self.positions.get(name, 0), reach)
            self.keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
        self.generic_visit(node)


def _unset_parameters() -> list[str]:
    calls = _Calls()
    for top in PROGRAM_DIRS:
        for path in sorted(top.rglob("*.py")):
            calls.visit(_parse(path))
    unset = []
    for label, (func, param, index) in _defaulted_parameters().items():
        keywords = calls.keywords.get(func, set())
        by_position = index is not None and calls.positions.get(func, 0) > index
        if not (by_position or param in keywords or None in keywords):
            unset.append(label)
    return sorted(unset)


def test_every_defaulted_parameter_is_set_by_the_program():
    """A default that no program call overrides is a constant: an option
    only tests set doubles what the tests must cover for no caller."""
    unset = [label for label in _unset_parameters() if label not in ALLOWED_UNSET]
    assert not unset, "defaulted parameters no program call sets: " + ", ".join(unset)


def test_allowlist_is_current():
    """Each allowed entry is still public and still unused by the program,
    and each allowed parameter is still defaulted and still unset."""
    spelled = {name: name for name in _public_names()} | _public_members()
    used = _program_references()
    stale = sorted(
        entry for entry in ALLOWED_UNUSED if entry not in spelled or spelled[entry] in used
    )
    stale += sorted(set(ALLOWED_UNSET) - set(_unset_parameters()))
    assert not stale, "allowlist entries to drop: " + ", ".join(stale)


# the modules that may import the oracle: the CLI runs it, the package re-exports it
ORACLE_IMPORTERS = {"cli.py", "__init__.py"}


def _imports_oracle(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level == 1 and node.module is None or node.module == "floquet_lab"
            if node.module == "oracle" and node.level == 1 or node.module == "floquet_lab.oracle":
                return True
            if package and any(alias.name == "oracle" for alias in node.names):
                return True
        if isinstance(node, ast.Import) and any(alias.name == "floquet_lab.oracle" for alias in node.names):
            return True
    return False


def test_only_the_cli_and_the_package_import_the_oracle():
    importers = {path.name for path in PACKAGE.glob("*.py") if _imports_oracle(_parse(path))}
    assert importers <= ORACLE_IMPORTERS, "oracle imported by " + ", ".join(sorted(importers - ORACLE_IMPORTERS))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports, anywhere in it, and never names again; a
    string in __all__ counts as a use."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    """__init__.py is exempt: its imports are the package's re-exports."""
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(_parse(path)))
    }
    assert not unused, f"imported but never used: {unused}"
