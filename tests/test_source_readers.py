"""Every module, public function, class, method, UPPER_CASE module
constant and private top-level function in src/hbn has a reader outside
tests.

A module is read when src/hbn, scripts/ or perfbench/ imports it, by
`import hbn.x`, `from hbn.x import ...` or `from hbn import x`; the
`__init__.py` files are exempt.

A read is a Name, an Attribute, an imported name, or a string constant
equal to the name, anywhere in src/hbn, scripts/ or perfbench/; reads
inside the definition's own body do not count.  Methods are the public
ones of public top-level classes.  A private top-level function must be
read too: one left behind when its last caller went is dead code that
no test of the public names sees.  The check matches on the bare name,
not on the object it is read from, so a method whose name other objects
also carry (`add` of a set, `diagonal` of a numpy array) counts as read
wherever that name is read, and an unread one goes uncaught.  Code that
only tests call belongs in tests/oracles.py or nowhere.  The few names
that no code reads but that stay on purpose are listed in ALLOWED with
the reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "hbn"
READERS = (SOURCE, ROOT / "scripts", ROOT / "perfbench")

ALLOWED = {
    "cmd_enumerate": "cli.main dispatches through globals()['cmd_' + command]",
    "cmd_dominance": "cli.main dispatches through globals()['cmd_' + command]",
    "cmd_section5": "cli.main dispatches through globals()['cmd_' + command]",
    "pair_from_json_dict": "decoder of the pair documents the CLI writes",
    "curve_from_json_dict": "decoder of the curve documents the CLI writes",
    "plane_curve_dim": "the paper's plane-curve dimension formula; criterion 2 checks it",
    "reducibility_witness": "the forced factorization, exact; criterion 6 checks it",
    "subsample": "criterion 6 draws its 120 violating strata with it",
    "product_rule_rank": "the product-rule lemma; criterion 8 checks it",
    "structure_sheaf_type": "the paper's type of the pushforward of O_C; criterion 10 checks it",
    "witness_f": "the paper's companion type proving non-emptiness; criterion 10 checks it",
    "odelta_type": "the paper's type of the pushforward of O_C(Delta), input of the scrollar bounds",
}


def _modules(root: Path) -> list[Path]:
    return sorted(root.rglob("*.py"))


def _reads(node: ast.AST) -> Counter:
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out[sub.value] += 1
    return out


def _public_defs() -> dict[str, list[ast.AST]]:
    defs: dict[str, list[ast.AST]] = {}
    for path in _modules(SOURCE):
        for node in ast.parse(path.read_text()).body:
            for target in node.targets if isinstance(node, ast.Assign) else ():
                if isinstance(target, ast.Name) and target.id.isupper() and target.id[0] != "_":
                    defs.setdefault(target.id, []).append(node)  # a module constant
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs.setdefault(node.name, []).append(node)
                for method in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        defs.setdefault(method.name, []).append(method)
    return defs


def _private_functions() -> dict[str, list[ast.AST]]:
    defs: dict[str, list[ast.AST]] = {}
    for path in _modules(SOURCE):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                defs.setdefault(node.name, []).append(node)
    return defs


def _unread(defs: dict[str, list[ast.AST]]) -> set[str]:
    reads: Counter = Counter()
    for root in READERS:
        for path in _modules(root):
            reads += _reads(ast.parse(path.read_text()))
    unread = set()
    for name, nodes in defs.items():
        own = sum(_reads(node)[name] for node in nodes)
        if reads[name] - own <= 0:
            unread.add(name)
    return unread


def unread_public_names() -> set[str]:
    return _unread(_public_defs())


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SOURCE.parent).with_suffix("").parts)


def imported_modules() -> set[str]:
    out = set()
    for root in READERS:
        for path in _modules(root):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    out.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                    out.add(node.module)
                    out.update(f"{node.module}.{alias.name}" for alias in node.names)
    return out


def test_every_module_in_src_is_imported():
    modules = {_module_name(path) for path in _modules(SOURCE) if path.name != "__init__.py"}
    unread = modules - imported_modules()
    assert not unread, f"imported by no code in src/hbn, scripts/ or perfbench/: {sorted(unread)}"


def test_every_public_name_in_src_has_a_reader():
    unread = unread_public_names() - set(ALLOWED)
    assert not unread, f"read by no code in src/hbn, scripts/ or perfbench/: {sorted(unread)}"


def test_every_private_function_in_src_has_a_reader():
    defs = _private_functions()
    assert len(defs) > 40  # the walk finds them
    unread = _unread(defs)
    assert not unread, f"private functions read by no code in src/hbn, scripts/ or perfbench/: {sorted(unread)}"


def test_allowed_names_are_defined_and_still_unread():
    defined = set(_public_defs())
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
    stale = set(ALLOWED) - unread_public_names()
    assert not stale, f"these now have readers; drop them from ALLOWED: {sorted(stale)}"
