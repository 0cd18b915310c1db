import ast
import functools
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weakhyp"

#: names kept without a production caller, and why
ALLOWED = {
    "lower_matrix": "ROADMAP item 5",
    "transformed_data": "ROADMAP item 5",
    "full_principal": "ROADMAP item 5",
}

#: defaulted parameters and dataclass fields kept although no production
#: call sets them, and why
ALLOWED_OPTIONS = {
    "adaptive_panel.n_max": "tests lower it to reach QuadratureError",
    "oscillatory_panel.n_max": "tests lower it to reach QuadratureError",
    "convolve_profile.derivative": "ROADMAP item 5",
    "constant_roots.dimension": "tests build 2-D constant families",
    "adaptive_panel.tol": "tests tighten it: the integral oracle in "
                          "test_profiles and the quadrature tests",
    "FirstOrderSystem.data": "ROADMAP item 5",
}

#: dataclass fields and properties kept although production code never
#: reads them, and why
_BATCHING_ORACLE = ("tests compare it across batchings, or against the "
                    "per-tuple oracle, to catch batching faults")
ALLOWED_FIELDS = {
    "IntegrationResult.final_state": _BATCHING_ORACLE,
    "QuadraticBoundsReport.min_form": _BATCHING_ORACLE,
    "QuadraticBoundsReport.max_form": _BATCHING_ORACLE,
    "QuadraticBoundsReport.det_floor": _BATCHING_ORACLE,
}


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _callers():
    """The package modules (not ``__init__``) and the benchmark scripts."""
    return _modules() + sorted((ROOT / "perfbench").glob("*.py"))


def _definitions(tree):
    """Top-level functions and classes, and the non-dunder methods of the
    classes, as (name, first line, last line)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not re.fullmatch(r"__\w+__", item.name):
                    yield item.name, item.lineno, item.end_lineno


def _name_tokens(path):
    """(name, line) of every NAME token: code only, not strings or
    comments."""
    source = path.read_text(encoding="utf-8")
    return [(tok.string, tok.start[0])
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.NAME]


def _uses(path):
    """(name, line) of the name tokens of ``path``, less the names that
    ``def`` and ``class`` statements define: another definition of the same
    spelling is not a use."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {(node.name, node.lineno) for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))}
    return [token for token in _name_tokens(path) if token not in defined]


# the scans read sources that no test changes, so each runs once per
# session and the guards and the allowlist check share its result
@functools.cache
def _uncalled():
    """(module file name, name) of the definitions of :func:`_definitions`
    whose name occurs as a name token nowhere in the package or the
    benchmark outside the definition itself."""
    tokens = {path: _uses(path) for path in _callers()}
    unused = []
    for module in _modules():
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for name, first, last in _definitions(tree):
            used = any(word == name
                       and not (path == module and first <= line <= last)
                       for path, found in tokens.items()
                       for word, line in found)
            if not used:
                unused.append((module.name, name))
    return unused


def test_every_src_name_has_a_production_caller():
    """Each name defined in a package module occurs as a name token in the
    package or the benchmark outside its own definition; the exports in
    ``__init__`` do not count, and neither do the tests, docstrings,
    comments or the ``def`` and ``class`` lines of other definitions.  A
    name used under the same spelling as another still counts as used.
    """
    unused = [f"{module}: {name}" for module, name in _uncalled()
              if name not in ALLOWED]
    assert not unused, "no production caller: " + ", ".join(unused)


def _options(tree):
    """Defaulted parameters of the top-level functions and of the methods of
    top-level classes, and the defaulted fields of top-level dataclasses, as
    (call name, qualified name, definition, parameter name, position in a
    call or None for keyword-only).  Calls name ``__init__`` and a
    dataclass by its class; nested functions are skipped, whose defaults
    bind loop values.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from _defaulted(node.name, node.name, node, 0)
        elif isinstance(node, ast.ClassDef):
            yield from _defaulted_fields(node)
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    call = node.name if item.name == "__init__" else item.name
                    yield from _defaulted(call, f"{node.name}.{item.name}",
                                          item, 0 if static else 1)


def _defaulted(call, qualified, fn, skipped):
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield call, f"{qualified}.{arg.arg}", fn, arg.arg, index - skipped
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield call, f"{qualified}.{arg.arg}", fn, arg.arg, None


def _defaulted_fields(cls):
    """The defaulted fields of a dataclass that ``__init__`` takes, less the
    private ones, which hold state such as caches."""
    if not _is_dataclass(cls):
        return
    position = 0
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if isinstance(value, ast.Call) and _call_name(value) == "field" \
                and any(k.arg == "init" for k in value.keywords):
            continue
        name = item.target.id
        if value is not None and not name.startswith("_"):
            yield cls.name, f"{cls.name}.{name}", cls, name, position
        position += 1


def _call_name(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _sets(call, call_name, definition, name, position):
    """Whether ``call`` passes ``name`` to ``call_name``, by keyword or by
    position; a dataclass field is also set by a keyword of ``replace``."""
    keyword = any(k.arg == name for k in call.keywords)
    if _call_name(call) == "replace" and isinstance(definition, ast.ClassDef):
        return keyword
    if _call_name(call) != call_name:
        return False
    plain = [a for a in call.args if not isinstance(a, ast.Starred)]
    return keyword or position is not None and len(plain) > position


@functools.cache
def _unset():
    """``{qualified name: module file name}`` of the options of
    :func:`_options` that no call outside the definition's own body
    passes."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in _callers()}
    calls = [(path, node) for path, tree in trees.items()
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unset = {}
    for module in _modules():
        for call_name, qualified, fn, name, position in _options(
                trees[module]):
            passed = any(
                _sets(call, call_name, fn, name, position)
                and not (path == module
                         and fn.lineno <= call.lineno <= fn.end_lineno)
                for path, call in calls)
            if not passed:
                unset[qualified] = module.name
    return unset


def test_every_option_has_a_caller_that_sets_it():
    """Each defaulted parameter of a package function or method, and each
    defaulted field of a package dataclass, is passed, by keyword or by
    position, by some call in the package or the benchmark outside the
    definition's own body.  Calls are matched by name: a method by its own
    name, ``__init__`` and a dataclass by its class name, and a field also
    by a keyword of ``replace``.  An option that every caller leaves at its
    default is a constant in disguise.
    """
    unset = [f"{module}: {qualified}"
             for qualified, module in _unset().items()
             if qualified not in ALLOWED_OPTIONS]
    assert not unset, "no caller sets: " + ", ".join(unset)


def _is_dataclass(cls):
    return any(ast.unparse(d).startswith("dataclass")
               for d in cls.decorator_list)


def _fields(tree):
    """The fields of the top-level dataclasses, and the properties and
    cached properties of the top-level classes, as (qualified name, name,
    first line, last line)."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if _is_dataclass(cls) and isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                name = item.target.id
            elif isinstance(item, ast.FunctionDef) and any(
                    ast.unparse(d) in ("property", "cached_property")
                    for d in item.decorator_list):
                name = item.name
            else:
                continue
            yield f"{cls.name}.{name}", name, item.lineno, item.end_lineno


@functools.cache
def _unread():
    """``{qualified name: module file name}`` of the fields of
    :func:`_fields` whose name is loaded as an attribute nowhere in the
    package or the benchmark outside the field's own definition."""
    loads = [(path, node.attr, node.lineno) for path in _callers()
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)]
    unread = {}
    for module in _modules():
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for qualified, name, first, last in _fields(tree):
            read = any(attr == name
                       and not (path == module and first <= line <= last)
                       for path, attr, line in loads)
            if not read:
                unread[qualified] = module.name
    return unread


def test_every_field_has_a_production_reader():
    """Each field of a package dataclass, and each property or cached
    property of a package class, is loaded as an attribute somewhere in the
    package or the benchmark; the tests, and reads under ``getattr``, do
    not count.  Attributes are matched by spelling, as the name guard
    matches names: a field read under the same spelling as another still
    counts as read.  A figure that every run computes and nothing reads is
    work without an output.
    """
    unread = [f"{module}: {qualified}"
              for qualified, module in _unread().items()
              if qualified not in ALLOWED_FIELDS]
    assert not unread, "no production reader: " + ", ".join(unread)


def test_allowlists_name_live_exceptions():
    """Each allowlist entry still names a definition, option or field that
    exists and still has no production caller, setter or reader: an entry
    whose name is gone, or is now used, is stale and goes."""
    uncalled = {name for _, name in _uncalled()}
    stale = [f"ALLOWED: {name}" for name in ALLOWED if name not in uncalled]
    stale += [f"ALLOWED_OPTIONS: {name}" for name in ALLOWED_OPTIONS
              if name not in _unset()]
    stale += [f"ALLOWED_FIELDS: {name}" for name in ALLOWED_FIELDS
              if name not in _unread()]
    assert not stale, "stale allowlist entries: " + ", ".join(stale)


def test_every_tracer_patch_target_resolves():
    """Each ``patch(owner, attr, ...)`` call in ``perfbench/tracer.py``'s
    ``install``, and each attribute it reads off a weakhyp module, names
    something that exists: a renamed or moved name would otherwise fail
    only the traced benchmark pass."""
    import importlib

    source = (ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8")
    install = next(node for node in ast.parse(source).body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "install")
    modules = {alias.asname or alias.name:
               importlib.import_module(f"weakhyp.{alias.name}")
               for node in ast.walk(install)
               if isinstance(node, ast.ImportFrom) and node.module == "weakhyp"
               for alias in node.names}
    assert modules, "install imports no weakhyp module"

    def resolve(node):
        if isinstance(node, ast.Name):
            return modules[node.id]
        return getattr(resolve(node.value), node.attr)

    def rooted(node):
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name) and node.id in modules

    patched = []
    for node in ast.walk(install):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "patch":
            owner, attr = node.args[0], node.args[1].value
            assert hasattr(resolve(owner), attr), \
                f"{ast.unparse(owner)}.{attr} does not exist"
            patched.append(f"{ast.unparse(owner)}.{attr}")
        elif isinstance(node, ast.Attribute) and rooted(node):
            resolve(node)  # raises AttributeError on a missing name
    for target in ("experiments.build_symmetriser",
                   "experiments.verify_quadratic_bounds",
                   "solver.build_symmetriser"):
        assert target in patched


def test_config_raw_is_read_only_by_the_config_readers():
    """``.raw``, the config document as parsed, is read only in
    ``config.py`` and in ``experiments.build_problem``, the one reader of
    the problem sections; every other driver reads a section through the
    typed accessors, whose defaults and checks then hold for every run."""
    stray = []
    for module in _modules():
        if module.name == "config.py":
            continue
        tree = ast.parse(module.read_text(encoding="utf-8"))
        allowed = [(node.lineno, node.end_lineno) for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and module.name == "experiments.py"
                   and node.name == "build_problem"]
        stray += [f"{module.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "raw"
                  and not any(lo <= node.lineno <= hi for lo, hi in allowed)]
    assert not stray, "reads of .raw outside the config readers: " \
        + ", ".join(stray)


def _package_imports(path):
    """(imported package module, import statement) for each import of a
    weakhyp module in ``path``; the package itself is ``__init__``."""
    def target(name):
        return name if (PACKAGE / f"{name}.py").is_file() else "__init__"

    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if not (node.module == "weakhyp"
                        or node.module.startswith("weakhyp.")):
                    continue
                module = node.module.partition(".")[2] or None
            else:
                module = node.module
            if module:
                yield target(module.split(".")[0]), node
            else:
                for alias in node.names:
                    yield target(alias.name), node
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "weakhyp" \
                        or alias.name.startswith("weakhyp."):
                    yield target(alias.name.partition(".")[2]), node


def test_package_imports_are_at_module_level():
    """Every import of a weakhyp module inside the package is a statement of
    its module's body: an import inside a function hides a dependency from
    the reader, and is the usual way round an import cycle."""
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        top = {(node.lineno, node.col_offset) for node in body}
        nested += [f"{path.name}:{node.lineno}"
                   for _, node in _package_imports(path)
                   if (node.lineno, node.col_offset) not in top]
    assert not nested, "imports below module level: " + ", ".join(nested)


def test_package_import_graph_has_no_cycle():
    """The modules of the package, ``__init__`` included, import one another
    without a cycle, counting imports at every level."""
    graph = {path.stem: sorted({name for name, _ in _package_imports(path)}
                               - {path.stem})
             for path in sorted(PACKAGE.glob("*.py"))}
    done: set[str] = set()

    def visit(module, path):
        if module in path:
            cycle = path[path.index(module):] + [module]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if module in done:
            return
        for imported in graph[module]:
            visit(imported, path + [module])
        done.add(module)

    for module in graph:
        visit(module, [])
