"""Documentation-coverage meta test.

Every public module, class and function in the package must carry a
docstring — deliverable (e) of the reproduction is "doc comments on every
public item", and this test keeps that true as the library grows.

The parallel/sparse hot modules get a stricter contract: *every*
function, method and class — private helpers included — must be
documented (they carry the subtle process/shared-memory/pattern
invariants).  CI additionally runs ``ruff check --select D1`` over the
same modules (see ``.github/workflows/ci.yml``); this test keeps the
rule enforceable without ruff installed locally.
"""

import importlib
import inspect
import pkgutil

import repro

#: Modules under the strict everything-documented rule (the least-obvious
#: hot modules: the netlist elements and container with the frozen-stamp
#: and DC-edge contracts, the device model, MNA assembly, the DC
#: continuation ladder and the batched Newton loop with their bitwise
#: contracts, the transient step loop, the column-wise stack fill,
#: process plumbing, the sparse backend and the engine selection that
#: routes to it, the measurement pipeline every topology's specs now flow
#: through, and the PEX corner stack with its per-corner trajectory
#: seeds).
STRICT_MODULES = (
    "repro.circuits.elements",
    "repro.circuits.mosfet",
    "repro.circuits.netlist",
    "repro.sim.batch",
    "repro.sim.condense",
    "repro.sim.dc",
    "repro.sim.engine",
    "repro.sim.faults",
    "repro.sim.parallel",
    "repro.sim.sparse",
    "repro.sim.stamp",
    "repro.sim.system",
    "repro.sim.transient",
    "repro.rl.parallel",
    "repro.rl.nn",
    "repro.rl.distributions",
    "repro.measure.pipeline",
    "repro.pex.extraction",
    "repro.topologies.base",
    "repro.zoo.schema",
    "repro.zoo.loader",
)


def _public_items():
    for modinfo in pkgutil.walk_packages(repro.__path__, "repro."):
        if modinfo.name.endswith("__main__"):
            continue
        mod = importlib.import_module(modinfo.name)
        yield modinfo.name, "<module>", mod
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != modinfo.name:
                continue  # re-export; documented at its home module
            if inspect.isclass(obj) or inspect.isfunction(obj):
                yield modinfo.name, name, obj


def test_every_public_item_documented():
    missing = [f"{mod}.{name}" for mod, name, obj in _public_items()
               if not inspect.getdoc(obj)]
    assert not missing, f"undocumented public items: {missing}"


def test_every_public_class_method_documented():
    missing = []
    for mod, name, obj in _public_items():
        if not inspect.isclass(obj):
            continue
        for meth_name, meth in vars(obj).items():
            if meth_name.startswith("_") or not inspect.isfunction(meth):
                continue
            if not inspect.getdoc(meth):
                missing.append(f"{mod}.{name}.{meth_name}")
    assert not missing, f"undocumented public methods: {missing}"


def _strict_items(modname):
    """Every function, class and method defined in ``modname`` — private
    helpers and dunders-with-bodies excluded only for ``__weakrefs``-style
    auto-generated attributes."""
    mod = importlib.import_module(modname)
    skip = {"__init__", "__repr__", "__len__", "__enter__", "__exit__",
            "__del__"}
    for name, obj in vars(mod).items():
        if getattr(obj, "__module__", None) != modname:
            continue
        if inspect.isfunction(obj):
            yield f"{modname}.{name}", obj
        elif inspect.isclass(obj):
            yield f"{modname}.{name}", obj
            for meth_name, meth in vars(obj).items():
                if not inspect.isfunction(meth) or meth_name in skip:
                    continue
                yield f"{modname}.{name}.{meth_name}", meth


def test_hot_modules_fully_documented():
    """Strict D1-style rule for the process/sparse hot modules: every
    def — including private helpers — carries a docstring."""
    missing = []
    for modname in STRICT_MODULES:
        mod = importlib.import_module(modname)
        if not inspect.getdoc(mod):
            missing.append(modname)
        for qualname, obj in _strict_items(modname):
            if not inspect.getdoc(obj):
                missing.append(qualname)
    assert not missing, f"undocumented items in strict modules: {missing}"
