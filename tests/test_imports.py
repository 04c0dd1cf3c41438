"""Import hygiene of the package, read from the source with ast: no module
imports a name it never uses, the package root defines no names, only cli
knows the report format, only Record writes a repr or sets a field, one
function of cli decides what each action spec means, no module function
reads a private field, no module keeps a functools cache, no function of
renorm checks a generator's type, and one function of groupact asks whether
a map has its own pair form.  The compactified lift's kernel calls none
of the integer steps it fuses, no module but cover and plmaps imports their
geometry's integer steps, and the renorm command evaluates no generator at
the marked point, and some module reads each record field by name.
The signatures are pinned against knobs that were folded away, and the
constructors and reference code only tests call stay out of the package."""

import ast
import inspect
import os

import pytest

import helpers
import nonsmooth
from nonsmooth import cover, errors, groupact, obstruction, plmaps, projline, renorm

PACKAGE = os.path.dirname(nonsmooth.__file__)
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def parse(filename):
    with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename)


def imported_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def imported_modules(tree):
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module.split(".")[0])
    return modules


def params(f):
    return list(inspect.signature(f).parameters)


@pytest.mark.parametrize("filename", MODULES)
def test_every_import_is_used(filename):
    tree = parse(filename)
    unused = imported_names(tree) - used_names(tree) - exported_names(tree)
    assert not unused, "%s imports unused names %s" % (filename, sorted(unused))


def test_package_root_defines_no_names():
    # each name has one import path: the module that defines it
    tree = parse("__init__.py")
    assert not imported_names(tree) and not exported_names(tree)
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))]


@pytest.mark.parametrize("filename", MODULES)
def test_no_class_serializes_itself(filename):
    tree = parse(filename)
    owners = sorted(node.name for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef)
                    and any(isinstance(item, ast.FunctionDef)
                            and item.name == "to_obj" for item in node.body))
    assert not owners, "%s: %s define to_obj; the report format lives in cli" % (
        filename, owners)


@pytest.mark.parametrize("filename", MODULES)
def test_only_record_writes_a_repr(filename):
    owners = sorted(node.name for node in ast.walk(parse(filename))
                    if isinstance(node, ast.ClassDef) and node.name != "Record"
                    and any(isinstance(item, ast.FunctionDef)
                            and item.name == "__repr__" for item in node.body))
    assert not owners, "%s: %s define __repr__; Record writes it" % (
        filename, owners)


@pytest.mark.parametrize("filename", [f for f in MODULES if f != "record.py"])
def test_only_record_sets_fields(filename):
    # a normalizing record ends its __init__ with Record.__init__, so
    # immutability is defined in one place
    calls = sorted("line %d" % node.lineno
                   for node in ast.walk(parse(filename))
                   if isinstance(node, ast.Attribute)
                   and node.attr == "__setattr__"
                   and isinstance(node.value, ast.Name)
                   and node.value.id == "object")
    assert not calls, "%s calls object.__setattr__ at %s" % (filename, calls)


@pytest.mark.parametrize("filename", [f for f in MODULES if f != "cli.py"])
def test_only_cli_imports_json(filename):
    modules = imported_modules(parse(filename))
    assert "json" not in modules, "%s imports json" % filename


@pytest.mark.parametrize("filename", [f for f in MODULES if f != "cli.py"])
def test_only_cli_imports_rational(filename):
    # the report format, fmt_rat included, lives in cli
    modules = imported_modules(parse(filename))
    assert "rational" not in modules, "%s imports rational" % filename


def test_only_parse_action_spec_builds_named_actions():
    # the action, its start point and its advancing word come from one
    # table, so no command builds a named action of its own
    builders = {"punctured_torus_action", "zz_letter_action", "germ_action"}
    users = {getattr(top, "name", None)
             for top in parse("cli.py").body
             if not isinstance(top, (ast.Import, ast.ImportFrom))
             for node in ast.walk(top)
             if isinstance(node, ast.Name) and node.id in builders}
    assert users == {"parse_action_spec"}, users


@pytest.mark.parametrize("filename", MODULES)
def test_module_functions_read_no_private_attribute(filename):
    # a method may read its own record's private helpers; a module-level
    # function goes through the public fields
    reads = sorted("%s.%s" % (top.name, node.attr)
                   for top in parse(filename).body
                   if isinstance(top, ast.FunctionDef)
                   for node in ast.walk(top)
                   if isinstance(node, ast.Attribute)
                   and node.attr.startswith("_")
                   and not node.attr.startswith("__"))
    assert not reads, "%s: %s" % (filename, reads)


@pytest.mark.parametrize("filename", MODULES)
def test_no_module_keeps_a_hidden_cache(filename):
    # a memo that outlives one call would hide layers from the per-run call
    # counts and break "no cache kept between runs"; a memo lives in a dict
    # its caller owns
    caches = {"lru_cache", "cache"}
    uses = sorted(
        "line %d" % node.lineno for node in ast.walk(parse(filename))
        if (isinstance(node, ast.ImportFrom) and node.module == "functools"
            and any(a.name in caches for a in node.names))
        or (isinstance(node, ast.Attribute) and node.attr in caches
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"))
    assert not uses, "%s uses functools caching at %s" % (filename, uses)


def test_renorm_checks_no_generator_type():
    # every generator goes through apply, or apply_pair when it has one, so
    # no function of renorm asks what type a map is
    calls = sorted("%s calls %s" % (top.name, node.func.id)
                   for top in ast.walk(parse("renorm.py"))
                   if isinstance(top, ast.FunctionDef)
                   for node in ast.walk(top)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id in ("isinstance", "issubclass", "type"))
    assert not calls, calls


def functions(tree):
    """Each module function and method of the tree, as (name, node)."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    yield "%s.%s" % (top.name, node.name), node


def test_one_pair_form_dispatcher():
    # whether a map has its own integer pair form is asked in one place;
    # renorm imports pair_form, the Fraction fallback built on it, so the
    # orbit and the renorm grid dispatch alike
    askers = sorted("%s:%s" % (filename[:-3], name)
                    for filename in MODULES
                    for name, func in functions(parse(filename))
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr")
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value == "apply_pair")
    assert askers == ["groupact:own_pair_form"], askers
    assert "pair_form" in {alias.name for node in parse("renorm.py").body
                           if isinstance(node, ast.ImportFrom)
                           and node.module == "groupact"
                           for alias in node.names}


def test_one_closed_form_dispatcher():
    # whether a map has a closed form along a grid, in one piece or in
    # pieces, is asked in one place, which both renorm statistics call
    for method in ("pieces_along",):
        askers = sorted("%s:%s" % (filename[:-3], name)
                        for filename in MODULES
                        for name, func in functions(parse(filename))
                        for node in ast.walk(func)
                        if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in ("getattr", "hasattr")
                        and len(node.args) >= 2
                        and isinstance(node.args[1], ast.Constant)
                        and node.args[1].value == method)
        assert askers == ["renorm:_closed_form"], (method, askers)
    for stat in ("generator_deviation", "fixed_point_in_window"):
        assert "_closed_form" in called_names(parse("renorm.py"), None, stat)


def called_names(tree, owner, name):
    """The names that the function `name`, a method of class `owner` or a
    module function when owner is None, calls: a plain name or the last
    attribute of a dotted one."""
    scope = tree if owner is None else next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == owner)
    func = next(node for node in scope.body
                if isinstance(node, ast.FunctionDef) and node.name == name)
    return {node.func.id if isinstance(node.func, ast.Name)
            else node.func.attr
            for node in ast.walk(func) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_compactified_lift_kernel_is_one_frame():
    # the hot path of renorm-torus stays one frame per grid point; the
    # chain of steps is the oracle in tests/helpers.py
    steps = called_names(parse("cover.py"), "CompactifiedLift",
                         "apply_pair") & {
        "uncompactify_triple", "apply_triple", "apply_pair",
        "traversal_cmp_pair", "compactify_triple"}
    assert not steps, sorted(steps)


# each geometry's integer steps, by the one module that defines them
GEOMETRY_STEPS = {
    "cover": {"uncompactify", "uncompactify_triple", "compactify_triple"},
    "plmaps": {"at_anchor", "chart_index_pair", "cell_shift", "to_chart"},
}


def test_each_geometry_module_owns_its_steps():
    # the maps built from the compactification or the chart's cells live
    # beside those steps, so no other module calls them
    leaks = sorted("%s:%s.%s" % (filename[:-3], node.module, alias.name)
                   for filename in MODULES
                   for node in ast.walk(parse(filename))
                   if isinstance(node, ast.ImportFrom)
                   and node.module in GEOMETRY_STEPS
                   and node.module != filename[:-3]
                   for alias in node.names
                   if alias.name in GEOMETRY_STEPS[node.module])
    assert not leaks, leaks
    assert groupact.CompactifiedLift.__module__ == "nonsmooth.cover"
    assert groupact.zz_base_link.__module__ == "nonsmooth.plmaps"


def test_renorm_command_evaluates_no_generator_at_the_marked_point():
    # the displacement_at_0 column reads the displacements that the unit
    # check of RescaledSystem computed, not a second evaluation
    evaluations = called_names(parse("cli.py"), None, "cmd_renorm") & {
        "displacement_at_0", "apply"}
    assert not evaluations, sorted(evaluations)


def test_renorm_has_one_grid_and_one_enlargement():
    assert params(renorm.build_windows) == ["act", "p_seq"]
    assert params(renorm.generator_deviation) == ["rs", "name", "radius"]
    assert params(helpers.translation_deviation) == ["rs", "radius"]
    assert not hasattr(renorm, "rescale")


@pytest.mark.parametrize("f, names", [
    (obstruction.zz_witness, ["truncation"]),
    (renorm.germ_action, []),
    (cover.lift_through, ["m"]),
    (obstruction.certify_interleaving, ["act", "base"]),
    (groupact.MarkedAction.bound_map, ["self", "index", "exp"]),
    # the cell lemma makes the midpoint slope a function of the power alone
    (groupact.zz_slope_mid, ["k"]),
], ids=("zz_witness", "germ_action", "lift_through", "certify_interleaving",
        "bound_map", "zz_slope_mid"))
def test_one_value_settings_are_folded(f, names):
    # a setting only one value reaches is a constant, not a parameter
    assert params(f) == names
    assert all(p.default is inspect.Parameter.empty
               for p in inspect.signature(f).parameters.values())


@pytest.mark.parametrize("f, names", [
    (plmaps.anchor_pair, ["i"]),
    (plmaps.chart_index_pair, ["n", "m"]),
    (plmaps.midpoint_pair, ["i"]),
    (plmaps.ZZAction.apply_pair, ["self", "n", "m"]),
], ids=("anchor_pair", "chart_index_pair", "midpoint_pair", "apply_pair"))
def test_zz_pair_forms_take_integers(f, names):
    # the zz witness and its render pass plain integers, never a Fraction
    assert params(f) == names


@pytest.mark.parametrize("owner, name", [
    (groupact.Word, "identity"),
    (groupact.Word, "generator"),
    (groupact.Word, "__len__"),
    (plmaps.PLMap, "identity"),
    (helpers.IntervalMapExpr, "identity"),
    (cover, "identity_lift"),
    (renorm, "halving_germ"),
    (renorm, "_window_grid"),
    (renorm, "_grid"),
    (renorm, "_over_one_denominator"),
    (cover, "compactify_pair"),
    (cover, "uncompactify_pair"),
    (projline.ProjPoint, "coordinate"),
    # the reference code in tests/helpers.py
    (obstruction, "slope_character"),
    (obstruction, "SlopeCharacter"),
    (errors, "NotFixed"),
    (plmaps, "germ_slope"),
    (plmaps, "_atom_germ_slope"),
    (plmaps, "as_expr"),
    (plmaps, "pow2"),
    (plmaps, "IntervalMapExpr"),
    (plmaps, "MAX_EXPR_FACTORS"),
    (plmaps.PLMap, "compose"),
    (cover, "displacement_growth_check"),
    (plmaps, "chart_shift_slope"),
    (obstruction.DeckRows, "__len__"),
    (obstruction.DeckRows, "__iter__"),
    (obstruction.DeckRows, "__getitem__"),
    (obstruction.DeckRows, "_row"),
    (renorm, "translation_deviation"),
    (renorm, "hull_displacement"),
    (renorm, "_displacements"),
    (plmaps.ZZAction, "apply"),
    (plmaps.ZZAction, "inverse"),
    (plmaps.ZZAction, "compose"),
    (renorm.RescaledSystem, "displacement_at_0"),
    (groupact.Word, "max_index"),
    # the zz witness states one entry; the per-cell record is in helpers
    (obstruction, "ZZWitnessEntry"),
    (plmaps, "cell_midpoint"),
    # one piece stream for both renorm statistics: a map without a closed
    # form is read as one-point pieces, and the germ gives its pieces
    (renorm, "_scan_stop"),
    (renorm, "_displacement"),
    (renorm.MoebiusGermMap, "displacement_along"),
    # the rescaled domain is tests/helpers.rescaled_domain
    (renorm.RescaledSystem, "domain"),
    # a window holds integers only; its values as Fractions are
    # tests/helpers.window_values
    (renorm.Window, "point"),
    (renorm.Window, "enlarged"),
    (renorm.Window, "length"),
    (renorm.Window, "unit"),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_test_only_constructors_are_gone(owner, name):
    assert not hasattr(owner, name)


def test_window_takes_numerators_over_a_denominator():
    # a window built from values is tests/helpers.window_from_values
    over = inspect.signature(renorm.Window.__init__).parameters["over"]
    assert over.default is inspect.Parameter.empty


# Record fields no module of the package reads, each with the reason it stays.
UNREAD_FIELDS = {
    "renorm.Window.hull":
        "tests assert every window's hull, and tests/helpers.py's "
        "hull_displacement divides by its length",
}


def slot_fields():
    """Each __slots__ name of a class in the package, as module.Class.name."""
    for filename in MODULES:
        for node in ast.walk(parse(filename)):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in item.targets):
                    for elt in item.value.elts:
                        yield "%s.%s.%s" % (filename[:-3], node.name,
                                            elt.value)


def test_every_record_field_is_read():
    # a field is read where some module loads an attribute of its name;
    # Record's getattr over __slots__ (repr, equality, pickling) reads
    # every field alike, so it reads none.  An entry of UNREAD_FIELDS whose
    # field went or is now read is stale.
    loaded = {node.attr for filename in MODULES
              for node in ast.walk(parse(filename))
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    unread = sorted(name for name in slot_fields()
                    if name.rpartition(".")[2] not in loaded)
    assert unread == sorted(UNREAD_FIELDS), unread


def test_zz_witness_states_one_entry():
    # the cell lemma gives every cell one power and two slopes, so the
    # witness holds them once; tests/helpers.py expands it cell by cell
    assert obstruction.ZZWitness.__slots__ == (
        "truncation", "cap", "power", "slope", "rejected_slope",
        "anchors_checked", "anchors_fixed")


def test_zz_action_is_a_pure_record():
    # the witness builds its product from a normalized table; the
    # normalizing constructor of the zz group law is ZZGroupAction in
    # tests/helpers.py
    assert "__init__" not in vars(plmaps.ZZAction)
    assert [name for name in vars(plmaps.ZZAction)
            if callable(vars(plmaps.ZZAction)[name])] == ["apply_pair"]
