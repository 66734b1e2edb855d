"""Scope gates.

Every ``graphrag_rs_ray`` module is reached from a non-test entry point,
with no exemptions.  Reach is the static import closure, by ``ast``, of
the driver contract (``__ray_entry__.py``), ``bench.py``,
``scripts/*.py`` and ``perfbench/*.py``; imports inside functions count.
A module that only tests import fails the test until it is deleted.

Every top-level function and class of the package and the driver is
referenced somewhere in the repo's Python, tests included, so a cut
cannot leave its helpers behind, and every import of the package, the
driver, ``bench.py`` and ``scripts/*.py`` is read: a module-level one
in its module or by another file, a function-local one in its
function.  Every file these gates parse compiles without a syntax or
deprecation warning, no package module calls ``print``, and no package
``.repartition`` takes a literal block count."""

import ast
import glob
import os
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = "graphrag_rs_ray"


def _module_name(path: str) -> str:
    parts = os.path.relpath(path, ROOT)[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _package_modules() -> dict[str, str]:
    return {_module_name(path): path
            for path in glob.glob(os.path.join(ROOT, PKG, "**", "*.py"),
                                  recursive=True)}


def _bindings(nodes, path: str):
    """``(bound name, module, imported name)`` for every import among
    ``nodes``: ``module`` is absolute (relative imports resolved) and
    ``imported name`` is None for ``import a.b`` (which binds ``a``)."""
    pkg = _module_name(path).split(".")
    if not path.endswith("__init__.py"):
        pkg = pkg[:-1]
    out = []
    for node in nodes:
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.split(".")[0], a.name, None)
                    for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            mod = node.module
            if node.level:
                mod = ".".join(pkg[:len(pkg) - node.level + 1]
                               + ([mod] if mod else []))
            out += [(a.asname or a.name, mod, a.name)
                    for a in node.names if a.name != "*"]
    return out


def _imports(path: str, mods: dict[str, str]) -> set[str]:
    """Package modules that ``path`` imports, with their parent
    packages."""
    found = set()
    for _, mod, name in _bindings(ast.walk(_parse(path)), path):
        found.add(mod)
        if name:
            found.add(f"{mod}.{name}")
    out = set()
    for mod in found:
        parts = mod.split(".")
        out.update(p for p in (".".join(parts[:i])
                               for i in range(1, len(parts) + 1))
                   if p in mods)
    return out


def _unreached() -> set[str]:
    mods = _package_modules()
    entries = ([os.path.join(ROOT, "__ray_entry__.py"),
                os.path.join(ROOT, "bench.py")]
               + glob.glob(os.path.join(ROOT, "scripts", "*.py"))
               + glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    todo = set()
    for path in entries:
        todo |= _imports(path, mods)
    seen = set()
    while todo:
        mod = todo.pop()
        if mod not in seen:
            seen.add(mod)
            todo |= _imports(mods[mod], mods)
    return set(mods) - seen


def test_every_package_module_is_reached():
    assert _unreached() == set()


def _py_files(*dirs: str) -> list[str]:
    return [p for d in dirs
            for p in glob.glob(os.path.join(ROOT, d, "**", "*.py"),
                               recursive=True)]


def _parse(path: str) -> ast.Module:
    with open(path) as f:
        return ast.parse(f.read())


def test_every_top_level_name_is_referenced():
    """A reference is a ``Name``, an ``Attribute``, an import alias or a
    string constant equal to the name; the ``def``/``class`` statement
    itself is none of these."""
    driver = os.path.join(ROOT, "__ray_entry__.py")
    defined = {}
    for path in _py_files(PKG) + [driver]:
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined[node.name] = os.path.relpath(path, ROOT)
    refs = set()
    for path in (_py_files(PKG, "scripts", "perfbench", "tests")
                 + [driver, os.path.join(ROOT, "bench.py")]):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                refs.add(node.value)
    assert {n: defined[n] for n in set(defined) - refs} == {}


def _top_level(tree: ast.Module) -> list:
    """Statements outside functions and classes."""
    todo, out = list(tree.body), []
    while todo:
        node = todo.pop()
        out.append(node)
        if isinstance(node, (ast.If, ast.Try)):
            todo += node.body + node.orelse
            todo += getattr(node, "finalbody", [])
            todo += [s for h in getattr(node, "handlers", []) for s in h.body]
    return out


def test_every_module_level_import_is_read():
    """Each name a module binds by a module-level import is read in
    that module (a load of the name, or a string in its ``__all__``),
    or read from it by another file: ``from <module> import name`` or
    ``<module>.name``.  Package ``__init__`` re-exports are exempt."""
    driver = os.path.join(ROOT, "__ray_entry__.py")
    bench = os.path.join(ROOT, "bench.py")
    checked = ([p for p in _py_files(PKG)
                if os.path.basename(p) != "__init__.py"]
               + [driver, bench]
               + glob.glob(os.path.join(ROOT, "scripts", "*.py")))
    external = set()            # (module, name) read by some file
    trees = {}
    for path in (_py_files(PKG, "scripts", "perfbench", "tests")
                 + [driver, bench]):
        tree = trees[path] = _parse(path)
        imports = _bindings(ast.walk(tree), path)
        external.update((m, n) for _, m, n in imports if n)
        aliases = {}
        for b, m, n in imports:
            # ``import a.b`` binds ``a``; ``import a.b as x`` binds ``a.b``
            aliases[b] = f"{m}.{n}" if n else (
                b if m.split(".")[0] == b else m)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                chain, v = [], node.value
                while isinstance(v, ast.Attribute):
                    chain.insert(0, v.attr)
                    v = v.value
                if isinstance(v, ast.Name) and v.id in aliases:
                    external.add((".".join([aliases[v.id]] + chain),
                                  node.attr))
    unread = []
    for path in checked:
        tree = trees[path]
        loads = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                loads |= {c.value for c in ast.walk(node.value)
                          if isinstance(c, ast.Constant)}
        mod = _module_name(path)
        unread += [f"{os.path.relpath(path, ROOT)}: {b}"
                   for b, m, n in _bindings(_top_level(tree), path)
                   if m != "__future__" and b not in loads
                   and (mod, b) not in external]
    assert sorted(unread) == []


def _own_nodes(fn) -> list:
    """Nodes of ``fn``'s body outside its nested functions."""
    todo, out = list(fn.body), []
    while todo:
        node = todo.pop()
        out.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            todo += ast.iter_child_nodes(node)
    return out


def test_every_function_local_import_is_read():
    """Each name a function binds by an import in its own body is
    loaded in that function or in a function nested in it."""
    unread = []
    for path in (_py_files(PKG) + glob.glob(os.path.join(ROOT, "scripts",
                                                         "*.py"))
                 + [os.path.join(ROOT, "__ray_entry__.py"),
                    os.path.join(ROOT, "bench.py")]):
        for fn in ast.walk(_parse(path)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            loads = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Load)}
            unread += [f"{os.path.relpath(path, ROOT)}:{fn.lineno} "
                       f"{fn.name}: {b}"
                       for b, _, _ in _bindings(_own_nodes(fn), path)
                       if b not in loads]
    assert sorted(unread) == []


def test_every_file_compiles_without_warnings():
    """``SyntaxWarning`` and ``DeprecationWarning`` raised as errors
    (an invalid escape sequence in a non-raw string is either one,
    depending on the Python version) make ``compile`` fail."""
    failed = {}
    for path in (_py_files(PKG, "scripts", "perfbench", "tests")
                 + [os.path.join(ROOT, "__ray_entry__.py"),
                    os.path.join(ROOT, "bench.py")]):
        with open(path) as f:
            src = f.read()
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)
            warnings.simplefilter("error", DeprecationWarning)
            try:
                compile(src, path, "exec")
            except SyntaxError as ex:
                failed[os.path.relpath(path, ROOT)] = str(ex)
    assert failed == {}


def test_package_has_no_print_calls():
    """Package diagnostics go through ``logging``, never ``print``."""
    calls = [f"{os.path.relpath(path, ROOT)}:{node.lineno}"
             for path in _py_files(PKG)
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "print"]
    assert calls == []


def test_package_repartitions_have_no_literal_block_count():
    """A fixed block count goes through ``stages/hashagg.exchange_blocks``
    as its cap, so the count follows the input's size and the cluster's
    CPUs: ``ds.repartition(exchange_blocks(ds, 64))``, never
    ``ds.repartition(64)``."""
    calls = [f"{os.path.relpath(path, ROOT)}:{node.lineno}"
             for path in _py_files(PKG)
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "repartition"
             and any(isinstance(arg, ast.Constant)
                     and isinstance(arg.value, int)
                     for arg in [*node.args[:1],
                                 *(k.value for k in node.keywords
                                   if k.arg == "num_blocks")])]
    assert calls == []
