"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "invsys"
MODULES = sorted(p.name for p in SOURCE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(p.name for p in SOURCE.glob("*.py"))
# The echelon engine's row format: pivot rows as dicts, the holders index,
# the row-level insert and reduce and the modulus of the ints mod p that
# prime-field rows hold.  Only linalg.py may touch them, so a change of row
# representation stays inside that module.
ECHELON_INTERNALS = {"pivots", "holders", "insert_row", "reduce_row", "modulus"}
# Over Q the echelon engine holds primitive int rows; Fractions are made
# only where rows leave it, in these functions of linalg.py.
LINALG_FRACTION_BOUNDARY = {"monic_row", "reduce", "_free_column_kernel", "solve_affine"}
# Elsewhere only the ring's RingContext, which hands out Q scalars, makes them.
FRACTION_MAKERS = {"ring.py": {"RingContext"}}
# The field's term rule (ints mod p over Fp(p), Fractions over Q) lives in
# RingContext; elsewhere only these top-level definitions read ``.char``.
CHAR_READERS = {"ring.py": {"RingContext", "check_side"}, "groebner.py": {"_reduce"}}
# A polynomial keeps its integer form in this slot once it is known; only
# ring.py reads or writes it, so a kept form cannot drift from the terms.
FORM_SLOT = "_form"
# Side and context are checked in one place, ``ring.check_side``: no module
# tests an operand against a polynomial class by hand, and only these
# top-level definitions of ring.py build the refusal messages; a field
# mismatch is also refused where field scalars meet.
SIDE_CLASSES = {"Polynomial", "DPPolynomial"}
MISMATCH_BUILDERS = {
    "mixed sides": {"check_side"},
    "mixed ring contexts": {"check_side"},
    "mixed fields": {"check_side", "RingContext", "PrimeFieldElement"},
}


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _echelon_reads(tree):
    """(line, attribute) of every use of an echelon internal by attribute access."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ECHELON_INTERNALS
    )


def _field_scalar_constructions(tree):
    """Line numbers of the calls ``PrimeFieldElement(...)``, by name or attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "PrimeFieldElement" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


def _fraction_constructions(tree):
    """(line, enclosing function or None) of the calls ``Fraction(...)``, by name or attribute."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and "Fraction" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            found.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return sorted(found)


def _top_level_names(tree, lines):
    """Names of the top-level definitions holding the given lines, None for other statements."""
    return {getattr(top, "name", None) for top in tree.body for line in lines if top.lineno <= line <= top.end_lineno}


def _char_reads(tree):
    """(line, enclosing top-level function or class or None) of every read of ``.char``."""
    return sorted(
        (node.lineno, getattr(top, "name", None))
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "char"
    )


def _attribute_uses(tree, name):
    """Line numbers of every read or write of the attribute ``name``."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == name)


def _side_type_tests(tree):
    """Line numbers of the calls ``isinstance(_, C)`` where C, or a member of a tuple C, is a polynomial class."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(k, "id", getattr(k, "attr", None)) in SIDE_CLASSES for k in kinds):
                found.append(node.lineno)
    return sorted(found)


def _message_builders(tree, phrase):
    """Names of the top-level definitions holding a string literal that contains ``phrase``, None for other statements."""
    return {
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and phrase in node.value
    }


def _function_imports(tree):
    """Line numbers of the imports that sit inside a function body."""
    return sorted(
        {
            node.lineno
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    # __init__.py imports to re-export, so it is the one module left out
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def test_unused_import_check_sees_leftovers():
    tree = ast.parse("import itertools\nfrom .ring import drl_key, exp_sub\nexp_sub(1, 2)\n")
    assert _unused_imports(tree) == [(1, "itertools"), (2, "drl_key")]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_module_imports_only_at_top_level(module):
    # an import cycle between modules is solved by placing the shared code
    # in the lower module, not by deferring the import into a function
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    assert _function_imports(tree) == []


def test_function_import_check_sees_deferred_imports():
    tree = ast.parse(
        "import math\n"
        "def f():\n"
        "    from .groebner import buchberger\n"
        "    def g():\n"
        "        import itertools\n"
        "class C:\n"
        "    async def h(self):\n"
        "        import os\n"
    )
    assert _function_imports(tree) == [3, 5, 8]


@pytest.mark.parametrize("module", [m for m in ALL_MODULES if m != "linalg.py"])
def test_module_keeps_out_of_echelon_rows(module):
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    assert _echelon_reads(tree) == []


def test_echelon_read_check_sees_row_access():
    tree = ast.parse(
        "span = SpanBuilder()\n"
        "for row in span.pivots.values():\n"
        "    span.insert_row(row)\n"
        "rows = span.basis()\n"
        "holders = span.holders\n"
    )
    assert _echelon_reads(tree) == [(2, "pivots"), (3, "insert_row"), (5, "holders")]


@pytest.mark.parametrize("module", [m for m in ALL_MODULES if m != "ring.py"])
def test_only_the_ring_module_makes_field_scalars(module):
    # polynomial terms and echelon rows hold ints mod p; field scalars are
    # made only where the ring hands them out, so no conversion creeps back
    # into linalg or another layer
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    assert _field_scalar_constructions(tree) == []


def test_field_scalar_check_sees_constructions():
    tree = ast.parse(
        "a = PrimeFieldElement(3, 7)\n"
        "b = ring.PrimeFieldElement(1, p)\n"
        "isinstance(b, PrimeFieldElement)\n"
        "c = [PrimeFieldElement(v, p) for v in row]\n"
    )
    assert _field_scalar_constructions(tree) == [1, 2, 4]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_module_makes_fractions_only_at_the_engine_boundary_or_the_ring_context(module):
    # Q rows stay primitive int rows inside the engine and every other Q
    # scalar comes from the ring's context, so no Fraction loop creeps back
    # into the elimination, the border walk or the socle
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    found = _fraction_constructions(tree)
    if module == "linalg.py":
        owners = {owner for _, owner in found}
        assert owners and owners <= LINALG_FRACTION_BOUNDARY
    else:
        assert _top_level_names(tree, [line for line, _ in found]) == FRACTION_MAKERS.get(module, set())


def test_top_level_name_check_sees_the_enclosing_definition():
    tree = ast.parse(
        "half = Fraction(1, 2)\n"
        "class RingContext:\n"
        "    def scalar(self, a, b):\n"
        "        return Fraction(a, b)\n"
        "def contract(h, F):\n"
        "    return h\n"
    )
    assert _top_level_names(tree, [line for line, _ in _fraction_constructions(tree)]) == {None, "RingContext"}


def test_fraction_construction_check_sees_the_enclosing_function():
    tree = ast.parse(
        "half = Fraction(1, 2)\n"
        "def monic_row(row, lc):\n"
        "    return {c: fractions.Fraction(v, lc) for c, v in row.items()}\n"
        "def insert_row(row):\n"
        "    isinstance(row, Fraction)\n"
        "    return [Fraction(v) for v in row]\n"
    )
    assert _fraction_constructions(tree) == [(1, None), (3, "monic_row"), (6, "insert_row")]


@pytest.mark.parametrize("module", sorted(CHAR_READERS))
def test_only_the_ring_context_holds_the_term_rule(module):
    # every ring operation is one loop for both fields, so no characteristic
    # test creeps back into an operator, contract or the border walk
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    owners = {owner for _, owner in _char_reads(tree)}
    assert owners and owners <= CHAR_READERS[module]


def test_char_read_check_sees_the_enclosing_definition():
    tree = ast.parse(
        "p = ctx.char\n"
        "class RingContext:\n"
        "    def scalar(self):\n"
        "        return self.char\n"
        "def contract(h, F):\n"
        "    def inner():\n"
        "        return F.context.char\n"
        "    return inner, char\n"
    )
    assert _char_reads(tree) == [(1, None), (4, "RingContext"), (7, "contract")]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_only_the_ring_module_touches_the_kept_integer_form(module):
    # elsewhere a form is read through ``integer_form()`` and made through
    # ``_of_sums``, whose terms come from the same sums
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    uses = _attribute_uses(tree, FORM_SLOT)
    assert bool(uses) if module == "ring.py" else uses == []


def test_form_slot_check_sees_reads_and_writes():
    tree = ast.parse(
        "p._form = None\n"
        "ints, d = poly._form\n"
        "q.integer_form()\n"
    )
    assert _attribute_uses(tree, FORM_SLOT) == [1, 2]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_only_check_side_refuses_mixed_operands(module):
    # each refusal of a site that checked side or context by hand was found
    # one site at a time, so no hand-written check creeps back
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    assert _side_type_tests(tree) == []
    for phrase, builders in MISMATCH_BUILDERS.items():
        assert _message_builders(tree, phrase) == (builders if module == "ring.py" else set())


def test_mixed_operand_checks_see_hand_written_tests_and_messages():
    tree = ast.parse(
        "def contract(h, F):\n"
        "    if not isinstance(h, Polynomial) or not isinstance(F, ring.DPPolynomial):\n"
        "        raise ContextMismatchError(f'mixed sides: {h}')\n"
        "class SpanBuilder:\n"
        "    def _adopt(self, poly):\n"
        "        isinstance(poly, (int, DPPolynomial))\n"
        "        isinstance(poly, SpanBuilder)\n"
        "        kind = 'mixed fields' if a else 'mixed ring contexts'\n"
        "note = 'mixed fields'\n"
    )
    assert _side_type_tests(tree) == [2, 2, 6]
    assert _message_builders(tree, "mixed sides") == {"contract"}
    assert _message_builders(tree, "mixed ring contexts") == {"SpanBuilder"}
    assert _message_builders(tree, "mixed fields") == {"SpanBuilder", None}
