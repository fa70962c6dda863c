"""Rules the source tree keeps, checked by parsing it."""

import ast
import inspect
from pathlib import Path

import equisquares

SRC = Path(__file__).resolve().parent.parent / "src"
DEMOS = SRC.parent / "demos"


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements, so invariants must be explicit raises.
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _names_used(tree, skip) -> set[str]:
    """Every identifier that tree reads, attributes and imports included, outside skip."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _src_trees() -> dict:
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(SRC.rglob("*.py"))}


def test_no_unreferenced_private_helpers_in_src():
    # A module-level private function or class that nothing else in src/
    # names is dead code; tests alone do not keep it alive.
    trees = _src_trees()
    assert trees
    dead = [
        f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and not any(node.name in _names_used(other, node) for other in trees.values())
    ]
    assert dead == []


def test_no_unreferenced_private_methods_in_src():
    # The same rule for the single-underscore methods and properties of
    # classes in src/: a method that nothing else in src/ names is dead code.
    trees = _src_trees()
    methods = [
        (path, member)
        for path, tree in trees.items()
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for member in node.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and member.name.startswith("_") and not member.name.startswith("__")
    ]
    assert methods
    dead = [
        f"{path.relative_to(SRC)}:{member.lineno} {member.name}"
        for path, member in methods
        if not any(member.name in _names_used(other, member) for other in trees.values())
    ]
    assert dead == []


def _caller_trees() -> list:
    """The trees of src/, less __init__.py's re-exports, and of demos/."""
    trees = [tree for path, tree in _src_trees().items() if path.name != "__init__.py"]
    return trees + [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
                     for path in sorted(DEMOS.glob("*.py"))]


def test_every_exported_name_has_a_caller():
    # A function or class the package exports that nothing in src/ or demos/
    # names, past its own definition and the re-export in __init__.py, is
    # kept alive by tests alone.
    exported = [name for name in equisquares.__all__
                if inspect.isfunction(obj := getattr(equisquares, name)) or inspect.isclass(obj)]
    assert exported
    trees = _caller_trees()
    definitions = {node.name: node for tree in trees for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    unused = [name for name in exported
              if not any(name in _names_used(tree, definitions.get(name)) for tree in trees)]
    assert unused == []


def test_every_public_method_of_an_exported_class_has_a_caller():
    # The same rule for the public methods and properties of the classes the
    # package exports: one that nothing in src/ or demos/ names, past its own
    # definition, is kept alive by tests alone.
    exported = {name for name in equisquares.__all__ if inspect.isclass(getattr(equisquares, name))}
    trees = _caller_trees()
    members = [
        (node.name, member)
        for tree in trees for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in exported
        for member in node.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("_")
    ]
    assert members
    unused = [f"{cls}.{member.name}" for cls, member in members
              if not any(member.name in _names_used(tree, member) for tree in trees)]
    assert unused == []


def _operator_index_uses(tree) -> list[str]:
    """The enclosing function of every use of operator.index in tree: a
    reference to `operator.index`, or an import of `index` from operator."""
    uses = []
    stack = [(tree, "<module>")]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "index"
                and isinstance(node.value, ast.Name) and node.value.id == "operator"
                or isinstance(node, ast.ImportFrom) and node.module == "operator"
                and any(alias.name == "index" for alias in node.names)):
            uses.append(func)
        stack.extend((child, func) for child in ast.iter_child_nodes(node))
    return uses


def test_operator_index_is_used_only_by_the_index_helper():
    # squares._index is the one definition of an integer index.  It refuses
    # bools, which operator.index reads as 0 and 1, so a use anywhere else
    # would let a bool pass as a cell, vertex, label or block size.
    uses = [f"{path.relative_to(SRC).as_posix()}:{func}"
            for path, tree in _src_trees().items() for func in _operator_index_uses(tree)]
    assert uses == ["equisquares/squares.py:_index"]


def _int64_array_builds(tree) -> list[str]:
    """The enclosing function of every np.array or np.asarray call in tree
    whose dtype, by keyword or second argument, is np.int64 or object."""
    builds = []
    stack = [(tree, "<module>")]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("array", "asarray")):
            dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"] + node.args[1:2]
            if any(ast.unparse(dtype) in ("np.int64", "numpy.int64", "object") for dtype in dtypes):
                builds.append(func)
        stack.extend((child, func) for child in ast.iter_child_nodes(node))
    return builds


def test_int64_arrays_are_built_only_by_the_integer_array_gate():
    # squares._int_array is the one gate for integer arrays from caller
    # input: it refuses bools, floats and ints past int64, which a cast to
    # int64 reads as integers or truncates.
    builds = {f"{path.relative_to(SRC).as_posix()}:{func}"
              for path, tree in _src_trees().items() for func in _int64_array_builds(tree)}
    assert builds == {"equisquares/squares.py:_int_array"}


def _writeable_reads(tree) -> list[str]:
    """The enclosing function of every read of `.flags.writeable` in tree."""
    reads = []
    stack = [(tree, "<module>")]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "writeable"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "flags"):
            reads.append(func)
        stack.extend((child, func) for child in ast.iter_child_nodes(node))
    return reads


def test_array_writeability_is_read_only_by_the_integer_array_gate():
    # squares._int_array decides whether a caller's array is copied or kept:
    # a writable one is copied, a read-only one kept.  A caller that reads
    # the flag itself makes that decision a second time.
    reads = [f"{path.relative_to(SRC).as_posix()}:{func}"
             for path, tree in _src_trees().items() for func in _writeable_reads(tree)]
    assert reads == ["equisquares/squares.py:_int_array"]


def _bare_unique_calls(tree) -> list[str]:
    """The enclosing function of every np.unique call in tree that passes
    no return_* keyword."""
    calls = []
    stack = [(tree, "<module>")]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and not any((kw.arg or "").startswith("return_") for kw in node.keywords)):
            calls.append(func)
        stack.extend((child, func) for child in ast.iter_child_nodes(node))
    return calls


def test_every_unique_call_passes_a_return_keyword():
    # On numpy 2.4 a bare np.unique of 16 384 int64 keys takes a hashing path
    # about 17 times slower than np.sort, and return_counts=True about 1.5
    # times.  A dedupe uses np.sort and a neighbour mask; np.unique is kept
    # for what it returns beside the values.
    calls = [f"{path.relative_to(SRC).as_posix()}:{func}"
             for path, tree in _src_trees().items() for func in _bare_unique_calls(tree)]
    assert calls == []
