"""Scope gates.

Reach is one ``ast`` walk from the entry points: the driver contract's
``entry``, ``queries`` and ``oracle_sql`` (``__ray_entry__.py``), and
every statement and def of ``bench.py``, ``scripts/*.py`` and
``perfbench/*.py``.  A reached def or module reaches what its code
imports and the defs it names, through relative imports and
``__init__`` re-exports; string constants, ``__all__`` lists and tests
are no reference.  Every ``graphrag_rs_ray`` module and every top-level
function and class of the package and the driver is reached, so a cut
cannot leave its helpers behind.  The exemptions are the ``ORACLES``: a
def no entry point reaches that a named test compares a live path
against.

Every import of the package, the driver, ``bench.py`` and
``scripts/*.py`` is read: a module-level one in its module or by another
file, a function-local one in its function.  Every file these gates
parse compiles without a syntax or deprecation warning, no package
module calls ``print``, and no package ``.repartition`` takes a literal
block count.  A broadcast key set is matched only inside
``stages/hashagg.semi_filter``, and every script that starts Ray turns
off Ray Data's per-operator resource reservation."""

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


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Defs no entry point reaches that a test compares a live path against,
# each with that test.  The test must reach its def.
ORACLES = {
    f"{PKG}.functions.similarity.select_canonical_name":
        "tests/test_entities_paths.py::"
        "test_entity_bucket_merge_equals_python_fold",
    f"{PKG}.functions.entities.is_likely_person_name":
        "tests/test_property_extraction.py::"
        "test_two_word_flag_is_person_name_test",
    f"{PKG}.functions.entities.is_capitalized":
        "tests/test_property_extraction.py::"
        "test_two_word_flag_is_person_name_test",
    f"{PKG}.functions.entity_linker.string_similarity":
        "tests/test_oracle_replay_properties.py::"
        "test_banded_similarity_decisions_exact",
}


def _bound(bindings) -> dict:
    """Bound name -> ``(module, name)`` it resolves to; ``import a.b``
    binds the module ``a``."""
    return {b: ((b, None) if n is None and m.split(".")[0] == b else (m, n))
            for b, m, n in bindings}


class _Code:
    """Every module of the package, the driver, ``bench.py``,
    ``scripts/*.py``, ``perfbench/*.py`` and ``tests/*.py``, parsed, with
    its top-level defs and its module-level imports."""

    def __init__(self):
        paths = (_py_files(PKG) + glob.glob(os.path.join(ROOT, "scripts",
                                                           "*.py"))
                 + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
                 + glob.glob(os.path.join(ROOT, "tests", "*.py"))
                 + [os.path.join(ROOT, "__ray_entry__.py"),
                    os.path.join(ROOT, "bench.py")])
        self.paths = {_module_name(p): p for p in paths}
        self.trees = {m: _parse(p) for m, p in self.paths.items()}
        self.defs = {m: {n.name: n for n in t.body if isinstance(n, DEFS)}
                     for m, t in self.trees.items()}
        self.binds = {m: _bound(_bindings(_top_level(t), self.paths[m]))
                      for m, t in self.trees.items()}

    def resolve(self, mod: str, name: str | None):
        """What ``from mod import name`` binds: ``(module, None)`` for a
        module, ``(module, def)`` for a top-level def, following
        re-exports; None for anything else."""
        if name is None or f"{mod}.{name}" in self.trees:
            full = mod if name is None else f"{mod}.{name}"
            return (full, None) if full in self.trees else None
        if name in self.defs.get(mod, {}):
            return mod, name
        if name in self.binds.get(mod, {}):
            return self.resolve(*self.binds[mod][name])
        return None

    def reach(self, roots, opaque=()) -> tuple[set, set]:
        """The modules and ``(module, def)`` pairs that ``roots`` reach.
        A root or target is ``(module, None)`` for a module's top-level
        code or ``(module, def)``.  A reached unit reaches, by its code,
        each module it imports and the name it imports, the target of
        each ``Name`` it loads and of each ``alias.attr`` on an imported
        module; a reached def reaches its module, and a module its
        parent packages.  String constants, ``__all__`` included, are
        not references.  The top-level code of ``opaque`` modules reaches
        nothing."""
        mods, defs = set(), set()
        todo = list(roots)
        while todo:
            mod, name = todo.pop()
            if (mod, name) in defs or (name is None and mod in mods):
                continue
            if name is None:
                mods.add(mod)
                parts = mod.split(".")
                todo += [(".".join(parts[:i]), None)
                         for i in range(1, len(parts))
                         if ".".join(parts[:i]) in self.trees]
                nodes = []
                for stmt in [] if mod in opaque else self.trees[mod].body:
                    if isinstance(stmt, DEFS):
                        nodes += stmt.decorator_list
                        nodes += getattr(stmt, "bases", [])
                    else:
                        nodes.append(stmt)
                nodes = [n for s in nodes for n in ast.walk(s)]
            else:
                defs.add((mod, name))
                todo.append((mod, None))
                nodes = list(ast.walk(self.defs[mod][name]))
            todo += self._targets(mod, nodes)
        return mods, defs

    def _targets(self, mod: str, nodes: list) -> list:
        imports = _bindings(nodes, self.paths[mod])
        local = _bound(imports)
        out = [(m, None) for _, m, _ in imports if m in self.trees]
        out += [self.resolve(m, n) for _, m, n in imports]

        def lookup(name):
            if name in local:
                return self.resolve(*local[name])
            if name in self.defs[mod]:
                return mod, name
            if name in self.binds[mod]:
                return self.resolve(*self.binds[mod][name])
            return None

        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.append(lookup(node.id))
            elif isinstance(node, ast.Attribute):
                chain, v = [node.attr], node.value
                while isinstance(v, ast.Attribute):
                    chain.insert(0, v.attr)
                    v = v.value
                target = lookup(v.id) if isinstance(v, ast.Name) else None
                for attr in chain:
                    if target is None or target[1] is not None:
                        break
                    target = self.resolve(target[0], attr)
                out.append(target)
        return [t for t in out if t is not None]


def _entry_points(code: _Code) -> list:
    """The driver's ``entry``/``queries``/``oracle_sql``, and every
    statement and def of ``bench.py``, ``scripts/*.py`` and
    ``perfbench/*.py``."""
    roots = [("__ray_entry__", n) for n in ("entry", "queries",
                                             "oracle_sql")]
    for mod in code.trees:
        if mod == "bench" or mod.split(".")[0] in ("scripts", "perfbench"):
            roots += [(mod, None)] + [(mod, n) for n in code.defs[mod]]
    return roots


def _unreached(code: _Code) -> tuple[set, set]:
    """Package modules, and package and driver defs, that no entry
    point reaches."""
    mods, defs = code.reach(_entry_points(code))
    owned = [m for m in code.trees
             if m == "__ray_entry__" or m.split(".")[0] == PKG]
    return ({m for m in owned if m != "__ray_entry__"} - mods,
            {f"{m}.{n}" for m in owned for n in code.defs[m]
             if (m, n) not in defs})


def test_every_package_module_is_reached():
    assert _unreached(_Code())[0] == set()


def test_every_top_level_def_is_reached():
    """Reach follows imports and the bodies of reached defs from the
    entry points; the only defs outside it are the ``ORACLES``, each
    reached by the body of the test named for it (and the test file's
    defs it calls), not by the test file's imports alone."""
    code = _Code()
    assert sorted(_unreached(code)[1]) == sorted(ORACLES)
    for full, test in ORACLES.items():
        path, fn = test.split("::")
        mod = _module_name(os.path.join(ROOT, path))
        assert fn in code.defs[mod], test
        _, defs = code.reach([(mod, fn)], opaque={mod})
        assert tuple(full.rsplit(".", 1)) in defs, (full, test)


def _py_files(*dirs: str) -> list[str]:
    return [p for d in dirs
            for p in glob.glob(os.path.join(ROOT, d, "**", "*.py"),
                               recursive=True)]


def _parse(path: str) -> ast.Module:
    with open(path) as f:
        return ast.parse(f.read())


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
    that module (a load of the name), or read from it by another file: ``from <module> import name`` or
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


def _is_ray_call(node, attr: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "ray")


def test_key_set_broadcasts_go_through_semi_filter():
    """A key set put once and matched with ``pc.is_in(..., value_set=
    ray.get(ref))`` is the broadcast half of a semi/anti filter; it is
    written only in ``stages/hashagg.semi_filter``, which bounds the
    driver collect and shards above the bound.  A value set read from a
    name the same top-level def binds to ``ray.get(...)`` counts too."""
    sites = []
    for path in _py_files(PKG, "scripts"):
        if os.path.relpath(path, ROOT) == os.path.join(PKG, "stages",
                                                       "hashagg.py"):
            continue
        for top in _parse(path).body:
            if not isinstance(top, DEFS):
                continue
            nodes = list(ast.walk(top))
            got = {t.id for n in nodes if isinstance(n, ast.Assign)
                   and _is_ray_call(n.value, "get")
                   for t in n.targets if isinstance(t, ast.Name)}
            if any(isinstance(n, ast.Call)
                   and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "is_in"
                   and any(_is_ray_call(v, "get")
                           or (isinstance(v, ast.Name) and v.id in got)
                           for v in [*n.args[1:2], *(k.value for k in n.keywords
                                                     if k.arg == "value_set")])
                   for n in nodes):
                sites.append(f"{os.path.relpath(path, ROOT)}:{top.name}")
    assert sorted(sites) == []


def test_scripts_that_start_ray_turn_off_op_reservation():
    """Ray Data's per-operator resource reservation starves long
    map/exchange chains on a few CPUs (see ``tests/conftest.py``); every
    ``scripts/*.py`` that calls ``ray.init`` sets
    ``op_resource_reservation_enabled = False``."""
    missing = []
    for path in glob.glob(os.path.join(ROOT, "scripts", "*.py")):
        nodes = list(ast.walk(_parse(path)))
        if any(_is_ray_call(n, "init") for n in nodes) and not any(
                isinstance(n, ast.Assign)
                and isinstance(n.value, ast.Constant) and n.value.value is False
                and any(isinstance(t, ast.Attribute)
                        and t.attr == "op_resource_reservation_enabled"
                        for t in n.targets)
                for n in nodes):
            missing.append(os.path.relpath(path, ROOT))
    assert sorted(missing) == []
