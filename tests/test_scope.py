"""Scope gates.

Every ``graphrag_rs_ray`` module is reached from a non-test entry point,
except the modules listed in ``UNREACHED``.  Reach is the static import
closure, by ``ast``, of the driver contract (``__ray_entry__.py``),
``bench.py``, ``scripts/*.py`` and ``perfbench/*.py``; imports inside
functions count.  A module that drops out of the closure fails the test
until it is deleted or listed here, and a listed module that becomes
reachable (or is deleted) fails it too, so the list can only shrink.

Every top-level function and class of the package and the driver is
referenced somewhere in the repo's Python, tests included, so a cut
cannot leave its helpers behind."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = "graphrag_rs_ray"

# Modules outside the indexing entry points, each covered by tests only.
UNREACHED = {
    "graphrag_rs_ray.api",                     # GraphRAG build facade
    "graphrag_rs_ray.config_ext",              # config loader/schema ports
    "graphrag_rs_ray.setconfig",               # TOML config system
    "graphrag_rs_ray.functions.llm_extract",   # LLM response parsing
    "graphrag_rs_ray.functions.multilingual",  # language detect/normalize
    "graphrag_rs_ray.functions.paths",         # driver-side path kernels
    "graphrag_rs_ray.functions.syntax",        # rule-based POS/NP
    "graphrag_rs_ray.stages.rate_limit",       # API rate limiting
    "graphrag_rs_ray.state.cache",             # LLM-response cache
    "graphrag_rs_ray.state.incremental",       # standalone update manager
    "graphrag_rs_ray.state.invalidation",      # cache invalidation planner
    "graphrag_rs_ray.state.parquet_store",     # reference-schema persistence
    "graphrag_rs_ray.state.workspace",         # named output directories
}


def _package_modules() -> dict[str, str]:
    mods = {}
    for path in glob.glob(os.path.join(ROOT, PKG, "**", "*.py"),
                          recursive=True):
        parts = os.path.relpath(path, ROOT)[:-3].split(os.sep)
        if parts[-1] == "__init__":
            parts.pop()
        mods[".".join(parts)] = path
    return mods


def _imports(path: str, name: str, mods: dict[str, str]) -> set[str]:
    """Package modules that ``path`` (module ``name``) imports, with
    their parent packages."""
    with open(path) as f:
        tree = ast.parse(f.read())
    pkg = name.split(".")
    if not path.endswith("__init__.py"):
        pkg = pkg[:-1]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = pkg[:len(pkg) - node.level + 1]
                mod = ".".join(base + ([node.module] if node.module else []))
            else:
                mod = node.module
            found.add(mod)
            found.update(f"{mod}.{a.name}" for a in node.names)
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
        todo |= _imports(path, os.path.basename(path)[:-3], mods)
    seen = set()
    while todo:
        mod = todo.pop()
        if mod not in seen:
            seen.add(mod)
            todo |= _imports(mods[mod], mod, mods)
    return set(mods) - seen


def test_unreached_modules_are_exactly_the_listed_ones():
    assert _unreached() == UNREACHED


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
