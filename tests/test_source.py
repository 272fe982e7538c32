"""Static checks on the package source, parsed with `ast`: no module imports
a name it never uses, no function imports a package module, no
module-level private function or class is left that nothing refers to,
the circuit builders and the CLI name no qubit by number, routing
walks the |0> flags in one place, no CLI code branches on a command's
name, and the JSON file layout is stated once."""
import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dlab"


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in sorted(SRC.glob("*.py"))}


def _references(node) -> collections.Counter:
    """Every name `node` reads, as a bare name, an attribute or an imported name."""
    names = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":  # re-exports its imports
            continue
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{name}: {bound}")
    assert not unused


def test_no_dead_private_definitions():
    modules = _modules()
    everywhere = sum((_references(tree) for tree in modules.values()), collections.Counter())
    dead = []
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                # references inside its own definition (recursion, decorators) do not count
                if everywhere[node.name] == _references(node)[node.name]:
                    dead.append(f"{name}: {node.name}")
    assert not dead


def test_no_function_level_package_imports():
    # package modules import each other at module level: no import cycle
    # needs a deferred one (standard-library imports may stay lazy)
    inner = []
    for name, tree in _modules().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(fn):
                    if isinstance(sub, ast.ImportFrom) and sub.level > 0:
                        inner.append(f"{name}: {fn.name} imports {'.' * sub.level}{sub.module or ''}")
    assert not inner


def test_layout_is_read_from_scm_params():
    # the register layout is stated once, in `ScmParams`: a call argument
    # such as `(0,)` or `(0, unit[-1])` would state it a second time
    literal = []
    for name in ("circuit.py", "cli.py"):
        for call in ast.walk(_modules()[name]):
            if isinstance(call, ast.Call):
                for arg in call.args + [kw.value for kw in call.keywords]:
                    if isinstance(arg, ast.Tuple) and any(
                        isinstance(e, ast.Constant) and type(e.value) is int for e in arg.elts
                    ):
                        literal.append(f"{name}:{arg.lineno}: {ast.unparse(arg)}")
    assert not literal


def test_zero_flags_are_walked_once():
    # the placement score and the zero-SWAP peephole read one |0>-flag walk,
    # `_zero_walk`; `_choose_path` only prices the SWAPs of a candidate path
    allowed = {"_note_zero": {"_zero_walk"}, "_swap_exec_cost": {"_zero_walk", "_choose_path"}}
    stray = []
    for fn in ast.walk(_modules()["routing.py"]):
        if isinstance(fn, ast.FunctionDef):
            for call in ast.walk(fn):
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
                    if fn.name not in allowed.get(call.func.id, {fn.name}):
                        stray.append(f"{fn.name} calls {call.func.id}")
    assert not stray


def test_cli_names_no_command():
    # each command checks what it runs itself: no shared step compares a
    # string against a command name to learn what the command will do
    tree = _modules()["cli.py"]
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_COMMANDS" for t in node.targets)
    )
    names = {key.value for key in table.keys}
    named = []
    for cmp in ast.walk(tree):
        if isinstance(cmp, ast.Compare):
            operands = []
            for operand in [cmp.left, *cmp.comparators]:
                operands += operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
            if any(isinstance(o, ast.Constant) and o.value in names for o in operands):
                named.append(f"cli.py:{cmp.lineno}: {ast.unparse(cmp)}")
    assert names and not named


def test_json_layout_is_stated_once():
    # every JSON file is written through one helper, so one call sets the
    # layout: sorted keys, indent and the final newline
    layouts = []
    for name, tree in _modules().items():
        for call in ast.walk(tree):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("dump", "dumps")
                and getattr(call.func.value, "id", None) == "json"
                and any(kw.arg == "indent" for kw in call.keywords)
            ):
                layouts.append(f"{name}:{call.lineno}")
    assert len(layouts) == 1, layouts
