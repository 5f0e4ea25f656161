import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "toricnets"


def test_no_assert_statements_in_package():
    # ``python -O`` strips asserts, so no check in the package may be one
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py"))
    assert found == []


def test_no_float_outside_render():
    # the pipeline is exact; only the SVG writer turns coordinates into
    # decimals, so no other module may call (or pass around) ``float``
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "render.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "float"]
    assert (SRC / "render.py").is_file()
    assert found == []


def test_every_public_definition_is_used_in_the_package():
    # src/ holds what the pipeline and the CLI need: a public top-level
    # function or class that nothing in the package names is test-only
    # code, and belongs under tests/
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [f"{name}:{node.name}" for name, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert trees
    assert unused == []


def test_no_import_inside_a_function():
    # the package imports at module top: no import guards a cycle, so a
    # function-local one only hides a dependency
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert sorted(SRC.glob("*.py"))
    assert sorted(found) == []


def test_no_module_imports_dataclasses():
    # records are NamedTuples and objects with cached facts plain classes,
    # so importing the package generates no class code
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.partition(".")[0] == "dataclasses"]
    assert sorted(SRC.glob("*.py"))
    assert found == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S: no site hook loads either module, so only the package could
    code = ("import sys, toricnets.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         env={"PYTHONPATH": str(SRC.parent)},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def _called_name(node):
    return getattr(node.func, "attr", getattr(node.func, "id", None))


def test_only_grid_points_locates_points():
    # point location runs on the integer grid, in cover.GridPoints only:
    # it alone reads the polygon's edges (``_edges``, stored once), from
    # interior and region, and geom keeps no point-location function, so
    # no module locates a point in Fraction arithmetic or by a second test
    from toricnets import geom
    readers, found = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        grid = {}
        if path.name == "cover.py":
            cls = _enclosing(tree, ast.ClassDef, "GridPoints")
            grid = {id(node): fn.name for fn in cls.body
                    if isinstance(fn, ast.FunctionDef)
                    for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_edges":
                if id(node) in grid:
                    readers.append(grid[id(node)])
                else:
                    found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Call) and \
                    "point_in" in (_called_name(node) or ""):
                found.append(f"{path.name}:{node.lineno}")
    assert sorted(set(readers)) == ["__init__", "interior", "region"]
    assert found == []
    assert not [name for name in vars(geom) if "point_in" in name]


def test_only_geom_tests_segment_contact():
    # geom.contacts is the only code that picks the segment pairs to test:
    # no other module computes a box or tests a segment pair itself, and
    # it runs in two places only, the cover's sweep of its cuts against
    # the spokes and the network's of its walls against cuts and spokes.
    # The pairwise query and the polylines that stored boxes for it are gone
    from toricnets import geom
    contact = {"box", "segments_cross"}
    found, sweeps = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = {id(node): f"{path.name}:{part.name}" for part in tree.body
                  if isinstance(part, (ast.FunctionDef, ast.ClassDef))
                  for node in ast.walk(part)}
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                owners.update({id(node): f"{path.name}:{cls.name}.{fn.name}"
                               for fn in cls.body
                               if isinstance(fn, ast.FunctionDef)
                               for node in ast.walk(fn)})
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if _called_name(node) in contact and path.name != "geom.py":
                    found.append(f"{path.name}:{node.lineno}")
                if _called_name(node) == "contacts":
                    sweeps.append(owners.get(id(node)))
    assert (SRC / "geom.py").is_file()
    assert found == []
    assert sorted(sweeps) == ["cover.py:build_cover",
                              "network.py:SpectralNetwork.contacts"]
    for gone in ("touching_segments", "boxes_meet", "Polyline"):
        assert not hasattr(geom, gone)
        assert [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                for line in _names(path.name, gone)] == []


def _names(module, *idents):
    """Line numbers where a package module names one of ``idents``."""
    path = SRC / module
    tree = ast.parse(path.read_text(), filename=str(path))
    return [getattr(node, "lineno", 0) for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id in idents)
            or (isinstance(node, ast.Attribute) and node.attr in idents)
            or (isinstance(node, ast.alias) and node.name in idents)]


def test_network_names_no_fraction():
    # every boundary landing is read on the integer grid
    # (GridPoints.edge_position and GridPoints.half_edge), so the network
    # module neither imports nor names Fraction
    assert _names("network.py", "Fraction") == []


def test_render_names_no_fraction():
    # the figure is drawn from the integer grid (GridPoints): every screen
    # coordinate is one int true division, so the render module neither
    # imports nor names Fraction
    assert _names("render.py", "Fraction") == []
    assert _names("render.py", "grid")


def test_builder_and_geom_name_no_fraction():
    # the builder places every point as ints on its scale D, with int
    # ratios for edge parameters and depths, and hands the ints and D to
    # the layout; geom's predicates run on those grid points
    assert _names("builder.py", "Fraction") == []
    assert _names("geom.py", "Fraction") == []


def test_no_wall_is_asked_for_its_branch_point_after_the_parse():
    # schema reads every wall's branch as an integer, so no later layer
    # compares ``start_branch`` with None, and no error is kept for a
    # path through a wall without a branch point
    compared, with_none = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(getattr(o, "attr", None) == "start_branch"
                   for o in operands):
                compared.append(f"{path.name}:{node.lineno}")
                if any(isinstance(o, ast.Constant) and o.value is None
                       for o in operands):
                    with_none.append(compared[-1])
    assert compared
    assert with_none == []
    assert _names("errors.py", "PathHitsJointRegion") == []


def _enclosing(tree, node_type, name):
    """The top-level definition ``name`` of ``tree``."""
    return next(node for node in tree.body
                if isinstance(node, node_type) and node.name == name)


def test_rational_points_are_made_only_in_schema_and_grid_rational():
    # after parsing, every cut and wall point is an int pair on its
    # layout's grid: a rational point is made again only for a message or
    # a witness, by cover.GridPoints.rational; schema's emitters write
    # num/den from the grid ints.  Besides schema's reader and the disk model
    # (fans), Fraction is named only for coefficients: laurent, cli's
    # holonomies and cover's local systems
    naming = sorted(path.name for path in SRC.glob("*.py")
                    if _names(path.name, "Fraction"))
    assert naming == ["cli.py", "cover.py", "fans.py", "laurent.py",
                      "schema.py"]
    tree = ast.parse((SRC / "cover.py").read_text())
    grid = _enclosing(tree, ast.ClassDef, "GridPoints")
    rational = _enclosing(grid, ast.FunctionDef, "rational")
    inside = {id(node) for node in ast.walk(rational)}
    geometry = [_enclosing(tree, ast.ClassDef, name)
                for name in ("Cut", "BranchCutLayout", "GridPoints")] + \
        [_enclosing(tree, ast.FunctionDef, name)
         for name in ("_validate_cut_geometry", "build_cover")]
    found = [(node.lineno, id(node) in inside) for part in geometry
             for node in ast.walk(part)
             if isinstance(node, ast.Name) and node.id == "Fraction"]
    assert found and all(ok for _, ok in found)
    tree = ast.parse((SRC / "schema.py").read_text())
    for name in ("emit_layout", "emit_network", "_points_out"):
        emit = _enclosing(tree, ast.FunctionDef, name)
        assert not any(isinstance(node, ast.Name) and node.id == "Fraction"
                       for node in ast.walk(emit)), name
    # the emitter writes num/den from one gcd with the scale: it neither
    # makes a Fraction nor asks the grid for its rational point
    calls = {_called_name(node) for node in
             ast.walk(_enclosing(tree, ast.FunctionDef, "_points_out"))
             if isinstance(node, ast.Call)}
    assert "gcd" in calls and not calls & {"Fraction", "rational"}


def test_contact_kernels_are_straight_line():
    # each orientation is computed inline on unpacked ints: the kernels
    # call no helper (orient, sub, cross) but the box test and min/max.
    # These are geom's only predicates on points; it locates none
    tree = ast.parse((SRC / "geom.py").read_text())
    for name in ("orient", "on_segment", "proper_crossing", "segments_cross"):
        fn = _enclosing(tree, ast.FunctionDef, name)
        calls = {_called_name(node) for node in ast.walk(fn)
                 if isinstance(node, ast.Call)}
        assert calls <= {"_in_box", "min", "max"}, (name, calls)


def test_only_make_local_system_constructs_a_local_system():
    # make_local_system is the one checked maker of a local system: no
    # other package code calls RankOneLocalSystem, and no module makes an
    # object of a class that defines __init__ through C.__new__(C), which
    # would skip its constructor.  laurent._tpoly makes a TPoly that way:
    # TPoly defines no __init__
    constructs, bypass, made = [], [], []
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    with_init = {cls.name for tree in trees.values()
                 for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 and any(isinstance(fn, ast.FunctionDef)
                         and fn.name == "__init__" for fn in cls.body)}
    for name, tree in trees.items():
        owners = {id(node): f"{name}:{fn.name}" for fn in tree.body
                  if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if _called_name(node) == "RankOneLocalSystem":
                constructs.append(owners.get(id(node), f"{name}:module"))
            if _called_name(node) == "__new__" and node.args:
                cls = getattr(node.args[0], "id", None)
                made.append(f"{owners.get(id(node))}:{cls}")
                if cls in with_init:
                    bypass.append(f"{name}:{node.lineno}")
    assert "RankOneLocalSystem" in with_init and "TPoly" not in with_init
    assert constructs == ["cover.py:make_local_system"]
    assert made == ["laurent.py:_tpoly:TPoly"]
    assert bypass == []


def test_nonabelian_names_no_fraction():
    # every numeric constant is an integer matrix over one denominator
    # (laurent.Constant): numeric coefficients enter only through laurent,
    # so the nonabelian module neither imports nor names Fraction
    assert _names("nonabelian.py", "Fraction") == []
    assert _names("laurent.py", "Fraction")


def test_no_module_names_a_laurent_matrix():
    # a transition matrix is written once, as its cocycle.json term list
    # (KaneyamaCocycle.written), and verify_bundle certifies those lists:
    # the Laurent form in z lives in tests/support.py only
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _names(path.name, "LaurentMatrix", "LaurentPoly")]
    assert sorted(SRC.glob("*.py"))
    assert found == []


def test_nonabelian_multiplies_constants_only_in_product():
    # every product of two constants in nonabelian is _product, which
    # skips the identity; it reads mat_mul from the module namespace at
    # each call, so rebinding nonabelian.mat_mul (as a tracer does) sees
    # every product
    from toricnets import laurent, nonabelian
    tree = ast.parse((SRC / "nonabelian.py").read_text())
    product = _enclosing(tree, ast.FunctionDef, "_product")
    inside = {id(node) for node in ast.walk(product)}
    named = [(node.lineno, id(node) in inside, type(node.ctx).__name__)
             for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "mat_mul"]
    calls = [node for node in ast.walk(product) if isinstance(node, ast.Call)
             and _called_name(node) == "mat_mul"]
    assert len(calls) == 1
    assert named and all(ok and ctx == "Load" for _, ok, ctx in named)
    assert any(isinstance(node, ast.ImportFrom) and node.module == "laurent"
               and "mat_mul" in [a.name for a in node.names]
               for node in tree.body)
    assert _enclosing(ast.parse((SRC / "laurent.py").read_text()),
                      ast.FunctionDef, "mat_mul")
    assert vars(nonabelian)["mat_mul"] is laurent.mat_mul


def _is_cache(node):
    """True iff ``node`` names functools.cache or functools.lru_cache."""
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "attr", getattr(node, "id", None)) in (
        "cache", "lru_cache")


def test_no_product_table_outlives_its_call():
    # a product table is made per call (compose_steps, verify_bundle) and
    # dropped with it, or per local system (the factor table's, made in
    # Factors.__init__) and dropped with its Factors, so none grows with
    # the constants a process has seen: the one module-level cache is
    # laurent.identity, keyed on the matrix size
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.Lambda))]
        local = {id(node) for fn in functions for node in ast.walk(fn)
                 if node is not fn}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and \
                    any(map(_is_cache, node.decorator_list)):
                found.append(f"{path.name}:{node.name}")
            elif isinstance(node, ast.Call) and _is_cache(node.func) and \
                    id(node) not in local:
                found.append(f"{path.name}:{node.lineno}")
    assert found == ["laurent.py:identity"]
    tree = ast.parse((SRC / "nonabelian.py").read_text())
    functions = [(fn.name, fn) for fn in tree.body
                 if isinstance(fn, ast.FunctionDef)]
    functions += [(f"{cls.name}.{fn.name}", fn) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for fn in cls.body
                  if isinstance(fn, ast.FunctionDef)]
    tables = [name for name, fn in functions for node in ast.walk(fn)
              if isinstance(node, ast.Call) and _is_cache(node.func)]
    assert sorted(tables) == ["Factors.__init__", "compose_steps",
                              "verify_bundle"]


def test_cli_records_a_stage_only_in_the_stage_recorder():
    # every stage, passing or failing, raised or returned, holonomies,
    # render and error included, is recorded by cli._stage: no other
    # code in the CLI writes a stage dict
    tree = ast.parse((SRC / "cli.py").read_text())
    recorder = {id(node) for node in
                ast.walk(_enclosing(tree, ast.FunctionDef, "_stage"))}
    found = [(node.lineno, id(node) in recorder) for node in ast.walk(tree)
             if isinstance(node, ast.Dict)
             and any(isinstance(k, ast.Constant) and k.value == "status"
                     for k in node.keys)]
    assert len(found) == 1 and found[0][1], found


def test_realizability_is_decided_only_on_the_multisection():
    # parity, N >= 3 and b1 are decided once per multi-section, by its
    # cached realizability; the builder and the CLI read that
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = {}
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef):
                        owners.update({id(node): f"{cls.name}.{fn.name}"
                                       for node in ast.walk(fn)})
        calls += [f"{path.name}:{owners.get(id(node))}"
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and _called_name(node) == "parity_and_realizability"]
    assert calls == ["multisection.py:TropicalMultiSection.realizability"]


def test_parity_violation_is_raised_only_by_the_builders_gate():
    # the parity gate is one check with one message, the builder's; the
    # CLI's parity stage calls that gate
    raised = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in tree.body:
            raised += [f"{path.name}:{getattr(fn, 'name', None)}"
                       for node in ast.walk(fn) if isinstance(node, ast.Call)
                       and _called_name(node) == "ParityViolation"]
    assert raised == ["builder.py:checked_realizability"]


# Default-valued parameters that no package call sets, with the reason.
_UNSET_OPTIONS = {
    "cli.py:main(argv)": "the entry point: the console script calls main()",
    "cli.py:cmd_verify(count)": "perfbench's holonomy-sweep calls it with "
                                "four arguments",
}


def _options():
    """(name, call name, position, parameter, default) of every
    default-valued parameter of a package function.  A method's position
    does not count ``self``, and ``__init__`` is called by its class's
    name; a keyword-only parameter has no position."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(fn): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for fn in cls.body
                   if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            owner = methods.get(id(fn))
            call = owner if fn.name == "__init__" else fn.name
            name = path.name + ":" + (call if owner in (None, call)
                                      else f"{owner}.{call}")
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in fn.decorator_list)
            skip = 0 if owner is None or static else 1
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            for pos, (arg, default) in enumerate(
                    zip(args[first:], fn.args.defaults), first):
                yield f"{name}({arg.arg})", call, pos - skip, arg.arg, default
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield f"{name}({arg.arg})", call, None, arg.arg, default


def _sets(call, pos, arg, default):
    """True iff ``call`` may pass ``arg`` a value other than ``default``."""
    if any(isinstance(a, ast.Starred) for a in call.args) or \
            any(k.arg is None for k in call.keywords):
        return True
    given = [k.value for k in call.keywords if k.arg == arg]
    if pos is not None and pos < len(call.args):
        given.append(call.args[pos])
    return any(ast.dump(v) != ast.dump(default) for v in given)


def test_every_option_is_set_by_some_package_call():
    # an option no package call sets is a code path only tests reach:
    # every default-valued parameter must be given another value by some
    # call in src/, but for the listed exceptions
    calls = [node for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]
    options = list(_options())
    unset = [name for name, callee, pos, arg, default in options
             if not any(_called_name(c) == callee and _sets(c, pos, arg, default)
                        for c in calls)]
    assert len(options) > len(_UNSET_OPTIONS)
    assert sorted(unset) == sorted(_UNSET_OPTIONS)


def test_the_rank_is_said_once():
    # a cover has one or two sheets: the Laurent kernels are closed 1 x 1
    # and 2 x 2 forms, with no minor and no cofactor recursion, and the
    # sheet orbits are read off the cuts, with no union-find.  No package
    # code indexes a table by its own entry (parent[parent[x]])
    assert [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
            for line in _names(path.name, "_minor")] == []
    tree = ast.parse((SRC / "laurent.py").read_text())
    recursive = [fn.name for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef)
                 and any(isinstance(node, ast.Call)
                         and _called_name(node) == fn.name
                         for node in ast.walk(fn))]
    assert recursive == []
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript)
                  and isinstance(node.value, ast.Name)
                  and isinstance(node.slice, ast.Subscript)
                  and isinstance(node.slice.value, ast.Name)
                  and node.slice.value.id == node.value.id]
    assert found == []


def test_an_optimized_run_reports_the_same():
    # no check of the package is an assert, so ``python -O`` strips none:
    # verify on fan5_n5 prints the same report either way
    fixture = SRC.parent.parent / "fixtures" / "fan5_n5.json"
    runs = [subprocess.run([sys.executable, *flags, "-m", "toricnets.cli",
                            "verify", "--input", str(fixture),
                            "--report", "json"],
                           env={"PYTHONPATH": str(SRC.parent)},
                           capture_output=True, text=True)
            for flags in ([], ["-O"])]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert '"name": "kaneyama"' in runs[0].stdout
