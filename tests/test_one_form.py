"""Each operation has one form in `src/`: nothing public that only tests reach.

The callers are the modules of `src/cylpano`, the acceptance tests and the
benchmark's scripts in `bench/`. Five scans hold `src/` to them:

- a public module-level function or class must be referenced (loaded, called
  or imported) by a caller, or wrapped by the benchmark's span recorder;
- a public method, classmethod or property of a public class must be loaded
  as an attribute by a caller;
- an optional parameter of a public function or method must be passed, by
  position or by keyword, by some call of that name in a caller;
- every default of a public function or method must be left out by some
  call of that name in a caller. A call with `*args` or `**kwargs` may leave
  any parameter out, so it never makes a default look unused;
- every field of a public dataclass must be loaded as an attribute by a
  caller. A class whose own methods read its fields through
  `dataclasses.fields(self)` reads them all.

A one-item wrapper of a batched path, a second copy of a rule, an option
that selects a branch no caller takes, or a default that only tests take
fails these checks; its tests belong on the form that stays. A value whose
default the config sections hold reaches a stage function from its caller,
so the function repeats no default of its own. Each allow-list entry says
why it stays, and names a definition, method, parameter or field that still
exists, so that no stale entry covers a future name.

A sixth scan holds the tests to `src/`: a `monkeypatch.setattr` on a
`cylpano` module must replace a name that module's own code loads, or the
patch reaches no caller and the test around it checks nothing.

A seventh holds `formats.py` to one write path: only its hashing write frame
opens a file for writing, so no codec writes a byte whose digest the memo
has not taken. An eighth holds it to one read path: only its recording read
frame, and the hash of a file no codec reads, open a file for reading, so a
manifest lists every file a stage read.

A ninth holds `cli.py` and `metrics.py` to the codecs: outside an allow-list
by function, none of their calls opens, reads or writes a file, so every
artifact a stage reads or writes is in its manifest.

A tenth holds `src/` to one form of per-process state: no `global`
statement, and outside an allow-list by name, no function changes a
module-level container, by a mutating method or by item or attribute
assignment. A memo is a `functools` cache on the function that computes it.

An eleventh holds `src/` to one (cell, rank) sort: outside `grid.sort_pairs`,
a stable or key sort (a stable `argsort`, `np.lexsort`, `np.sort` or a
`.sort()`) appears only at an allow-listed call, each with its reason.
"""

import ast
from pathlib import Path

from test_bench_hooks import spans  # the benchmark's span table, loaded from bench/spans.py

ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "cylpano").glob("*.py"))
           if p.stem != "__init__"}
CALLERS = [*MODULES.values(), ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()),
           *(ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py")))]

ALLOWED = {
    "write_spe_params": "the writing half of the SPEW codec, for tools that ship trained weights",
}
ALLOWED_METHODS = {
    "VoxelFeatures.for_grid": "where learned per-voxel features enter the fuse stage",
}
ALLOWED_PARAMS: dict[str, str] = {}
_RENDER_BUFFER = "an exact render buffer: five synth tests and one query test check images and masks against it"
ALLOWED_FIELDS = {
    "SynthSample.depth_maps": _RENDER_BUFFER,
    "SynthSample.instance_maps": _RENDER_BUFFER,
}


def _loaded_names(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def _loaded_attributes(tree) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _public_defs():
    """(class name or None, def node) for every public function and every public method of a public class."""
    for tree in MODULES.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield None, node
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield node.name, item


def _calls_by_name() -> dict[str, list[ast.Call]]:
    """Every call in a caller, by the name it calls (a function's name or a method's attribute)."""
    calls = {}
    for tree in CALLERS:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                calls.setdefault(callee, []).append(node)
    return calls


def _optional_params(owner: str | None, node: ast.FunctionDef):
    """(name, positional index or None for keyword-only) of each parameter with a default.

    The index counts from the first argument a call writes: a call through an
    instance or a class binds self or cls, a staticmethod binds nothing.
    """
    args = node.args
    bound = owner is not None and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    positional = [*args.posonlyargs, *args.args][int(bound):]
    first = len(positional) - len(args.defaults)
    for i, a in enumerate(positional[first:], first):
        yield a.arg, i
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        if d is not None:  # a keyword-only parameter without a default has None here
            yield a.arg, None


def _unpacks(call: ast.Call) -> bool:
    """Whether a call spreads `*args` or `**kwargs`, so it may pass or leave out any parameter."""
    return any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords)


def _passed(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether a call may pass the parameter `name` at positional index `position` (None: keyword-only)."""
    if _unpacks(call):
        return True
    return (position is not None and len(call.args) > position) or any(k.arg == name for k in call.keywords)


def _may_leave_out(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether a call may leave the parameter `name` out."""
    return _unpacks(call) or not _passed(call, name, position)


def _module_bindings(scope) -> dict[str, str]:
    """Names a scope binds to `cylpano` modules, by import or as `sys.modules["cylpano.<mod>"]`."""
    bound = {}
    for node in ast.walk(scope):
        if isinstance(node, ast.ImportFrom) and node.module == "cylpano":
            bound.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.Import):
            bound.update({a.asname: a.name[len("cylpano."):] for a in node.names
                          if a.asname and a.name.startswith("cylpano.")})
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript)
              and ast.unparse(node.value.value) == "sys.modules" and isinstance(node.value.slice, ast.Constant)
              and str(node.value.slice.value).startswith("cylpano.")):
            bound.update({t.id: node.value.slice.value[len("cylpano."):] for t in node.targets
                          if isinstance(t, ast.Name)})
    return bound


def _module_patches(tree):
    """(test, module, name) of each `monkeypatch.setattr(target, "name", ...)` whose target is a `cylpano` module."""
    top = _module_bindings(ast.Module([n for n in tree.body if not isinstance(n, (ast.FunctionDef, ast.ClassDef))], []))
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        bound = {**top, **_module_bindings(fn)}
        for call in ast.walk(fn):
            if not (isinstance(call, ast.Call) and ast.unparse(call.func) == "monkeypatch.setattr"
                    and len(call.args) >= 2 and isinstance(call.args[1], ast.Constant)):
                continue
            target = call.args[0]
            if isinstance(target, ast.Attribute) and ast.unparse(target.value) == "cylpano":
                yield fn.name, target.attr, call.args[1].value
            elif isinstance(target, ast.Name) and target.id in bound:
                yield fn.name, bound[target.id], call.args[1].value


def test_every_module_patch_replaces_a_name_the_module_loads():
    loads = {mod: {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
             for mod, tree in MODULES.items()}
    missed = sorted({
        f"{path.name}::{test} patches cylpano.{mod}.{name}"
        for path in sorted((ROOT / "tests").glob("*.py"))
        for test, mod, name in _module_patches(ast.parse(path.read_text()))
        if name not in loads.get(mod, ())
    })
    assert missed == []


def test_every_public_definition_has_a_caller_outside_tests():
    used = set().union(*map(_loaded_names, CALLERS))
    used |= {fn for fns in spans.LAYERS.values() for fn in fns}
    unused = [
        f"{name}.{node.name}"
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used.union(ALLOWED)
    ]
    assert unused == []


def test_every_public_method_is_loaded_outside_tests():
    used = set().union(*map(_loaded_attributes, CALLERS))
    unused = [f"{owner}.{node.name}" for owner, node in _public_defs()
              if owner and node.name not in used and f"{owner}.{node.name}" not in ALLOWED_METHODS]
    assert unused == []


def test_every_optional_parameter_is_passed_outside_tests():
    calls = _calls_by_name()
    never = []
    for owner, node in _public_defs():
        for param, position in _optional_params(owner, node):
            qual = f"{owner}.{node.name}({param})" if owner else f"{node.name}({param})"
            if qual not in ALLOWED_PARAMS and not any(_passed(c, param, position) for c in calls.get(node.name, [])):
                never.append(qual)
    assert never == []


def test_every_default_is_left_out_outside_tests():
    """A default that every caller overrides is a second copy of a value the caller owns."""
    calls = _calls_by_name()
    always = [
        f"{owner}.{node.name}({param})" if owner else f"{node.name}({param})"
        for owner, node in _public_defs()
        for param, position in _optional_params(owner, node)
        if not any(_may_leave_out(c, param, position) for c in calls.get(node.name, []))
    ]
    assert always == []


def _dataclass_fields():
    """(class name, field name, whether the class reads all its fields through `fields(self)`) per public dataclass."""
    for tree in MODULES.values():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                    and any(ast.unparse(d).split("(")[0] == "dataclass" for d in node.decorator_list)):
                continue
            generic = any(isinstance(n, ast.Call) and ast.unparse(n) == "fields(self)" for n in ast.walk(node))
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id, generic


def test_every_dataclass_field_is_read_outside_tests():
    """A field no caller reads is stored for tests alone, or for nobody."""
    used = set().union(*map(_loaded_attributes, CALLERS))
    found = {f"{owner}.{name}": generic or name in used for owner, name, generic in _dataclass_fields()}
    assert set(ALLOWED_FIELDS) <= set(found)  # no entry outlives its field
    assert [qual for qual, read in found.items() if not read and qual not in ALLOWED_FIELDS] == []


def test_no_allow_list_entry_outlives_its_target():
    """An exemption whose function, method or parameter is gone would cover a future one of that name."""
    defs = {node.name for tree in MODULES.values() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    methods = {f"{owner}.{node.name}" for owner, node in _public_defs() if owner}
    params = {f"{owner}.{node.name}({param})" if owner else f"{node.name}({param})"
              for owner, node in _public_defs() for param, _ in _optional_params(owner, node)}
    assert sorted(set(ALLOWED) - defs) == []
    assert sorted(set(ALLOWED_METHODS) - methods) == []
    assert sorted(set(ALLOWED_PARAMS) - params) == []


def test_package_namespace_binds_only_the_version():
    """`cylpano/__init__.py` re-exports nothing: names are imported from their modules."""
    tree = ast.parse((ROOT / "src" / "cylpano" / "__init__.py").read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            bound.add(node.asname or node.name.split(".")[0])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
    assert sorted(name for name in bound if not name.startswith("_")) == []
    assert "__version__" in bound


def _writes_a_file(call: ast.Call) -> bool:
    """Whether a call may create or change a file: an `open` in a mode that is not read-only, or a writing helper."""
    name = call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
    if name in ("write_text", "write_bytes", "tofile", "save", "savez", "savez_compressed", "savetxt"):
        return True
    if name != "open":
        return False
    # `Path.open(mode)` or `open(path, mode)`; `os.open(path, flags)` always counts, its path being no mode
    at = 0 if isinstance(call.func, ast.Attribute) else 1
    mode = call.args[at] if len(call.args) > at else next((k.value for k in call.keywords if k.arg == "mode"), None)
    return mode is not None and not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))


def test_formats_writes_files_only_through_its_hashing_frame():
    tree = MODULES["formats"]
    writers = sorted({fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                      for call in ast.walk(fn) if isinstance(call, ast.Call) and _writes_a_file(call)})
    assert writers == ["_writing"]
    frame = next(fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_writing")
    assert "update" in _loaded_attributes(frame)  # the frame's bytes pass through its sha256


def _call_name(call: ast.Call):
    return call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)


def _parsers(fn) -> set[str]:
    """Names a function binds to a new `configparser` parser, whose `read(path)` opens the file it is given."""
    return {t.id for node in ast.walk(fn) if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and _call_name(node.value) in ("ConfigParser", "RawConfigParser") for t in node.targets
            if isinstance(t, ast.Name)}


def _reads_a_file(call: ast.Call, parsers: set[str]) -> bool:
    """Whether a call may open a file to read it: an `open` in a mode that reads, or a reading helper."""
    name = _call_name(call)
    if name in ("read_text", "read_bytes", "fromfile", "load", "loadtxt", "genfromtxt", "memmap"):
        return True
    if name == "read":  # on a parser it opens its argument; on an open file it reads on
        return isinstance(call.func, ast.Attribute) and getattr(call.func.value, "id", None) in parsers
    if name != "open":
        return False
    at = 0 if isinstance(call.func, ast.Attribute) else 1
    mode = call.args[at] if len(call.args) > at else next((k.value for k in call.keywords if k.arg == "mode"), None)
    return not (isinstance(mode, ast.Constant) and not set(mode.value) & set("r+"))


def test_formats_opens_files_to_read_only_through_its_recording_frame():
    readers = sorted({fn.name for fn in ast.walk(MODULES["formats"]) if isinstance(fn, ast.FunctionDef)
                      for call in ast.walk(fn) if isinstance(call, ast.Call) and _reads_a_file(call, _parsers(fn))})
    assert readers == ["_hash_file", "_open"]


# the names a call has when it opens, reads or writes a file itself, not through a codec
FILE_CALLS = {"open", "read", "readinto", "read_text", "read_bytes", "write", "write_text", "write_bytes", "tofile",
              "fromfile", "save", "savez", "savez_compressed", "savetxt", "load", "loadtxt", "genfromtxt", "memmap"}
ALLOWED_FILE_CALLS = {
    "cli._write_manifest": "the manifest, and the config bytes its hash and snapshot come from",
    "cli.cmd_replay": "the manifest it replays, and the rerun's",
    "cli.cmd_batch": "the file, or stdin, of command lines",
}


def test_cli_and_metrics_touch_files_only_through_the_codecs():
    touching = {
        f"{module}.{getattr(node, 'name', '<module>')}"
        for module in ("cli", "metrics")
        for node in MODULES[module].body
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and _call_name(call) in FILE_CALLS
    }
    assert touching == set(ALLOWED_FILE_CALLS)


# the module-level containers a function may change, by module and name
ALLOWED_MODULE_STATE = {
    "formats._RUNS": "a stack of the stages running, pushed and popped by `recording`",
    "formats._DIGESTS": "file digests checked against each file's stat and sealed by the next manifest",
}
MUTATORS = {"clear", "update", "pop", "popitem", "append", "extend", "insert", "remove", "add", "discard", "setdefault"}


def _root(node):
    """The name a chain of subscripts and attributes starts from, or None."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _module_state_changes() -> set[str]:
    """Each `global` statement in a function, and each module-level name a function changes, as `module.name`."""
    found = set()
    for module, tree in MODULES.items():
        top = {n.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
               for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
            local |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    found.update(f"{module}: global {name}" for name in node.names)
                    continue
                if isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(node.ctx, (ast.Store, ast.Del)):
                    changed = _root(node)
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
                    changed = _root(node.func.value)
                else:
                    continue
                if changed in top and changed not in local:
                    found.add(f"{module}.{changed}")
    return found


def test_module_state_changes_only_through_the_allow_list():
    """A hand-written memo or a `global` is a second form of the `functools` cache."""
    found = _module_state_changes()
    assert sorted(found - set(ALLOWED_MODULE_STATE)) == []
    assert sorted(set(ALLOWED_MODULE_STATE) - found) == []  # no entry outlives the state it exempts


# the stable and key sorts outside `grid.sort_pairs`, by function and call
ALLOWED_SORTS = {
    "synth.rasterize: np.argsort(depth[idx], kind='stable')":
        "ranks the visible points by float depth, which no int64 key holds; `sort_pairs` then takes the ranks",
    "tokens._image_means: np.argsort(-lengths, kind='stable')":
        "the jagged order of rows by falling cell count: a permutation of rows, not a grouping by cell",
    "queries.build_bev_heatmap: np.argsort(inst[labeled], kind='stable')":
        "numpy radix-sorts the uint16 instance ids, about 3x faster than a key sort",
    "augment.apply_mix: np.argsort(voxel_ids, kind='stable')":
        "timsort merges the two sorted runs of voxel ids in linear time",
    "queries.nms_peaks: np.lexsort((cand, -flat[cand]))":
        "orders by descending float confidence, which no int64 key holds",
}


def _sorts() -> set[str]:
    """`module.function: call` of each stable or key sort in `src/`, under the innermost function that makes it."""
    owner = {}
    for module, tree in MODULES.items():
        for fn in ast.walk(tree):  # outer functions first, so an inner one takes its own calls
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update({call: f"{module}.{fn.name}" for call in ast.walk(fn) if isinstance(call, ast.Call)})
    return {f"{name}: {ast.unparse(call)}" for call, name in owner.items()
            if _call_name(call) in ("lexsort", "sort")
            or _call_name(call) == "argsort" and any(k.arg == "kind" and isinstance(k.value, ast.Constant)
                                                     and k.value.value in ("stable", "mergesort")
                                                     for k in call.keywords)}


def test_stable_and_key_sorts_only_in_sort_pairs_and_the_allow_list():
    """A hand-written (cell, rank) key sort is a second copy of `grid.sort_pairs`."""
    found = _sorts()
    pair_sort = {site for site in found if site.startswith("grid.sort_pairs: ")}
    assert sorted(found - pair_sort - set(ALLOWED_SORTS)) == []
    assert sorted(set(ALLOWED_SORTS) - found) == []  # no entry outlives its sort
    assert pair_sort  # nor does the exemption of `sort_pairs`
