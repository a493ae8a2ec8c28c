"""Compile step of the scenario zoo: declarations onto ``Topology``.

The loader turns the structurally validated
:class:`~repro.zoo.schema.Declaration` records into
:class:`CompiledScenario` objects — picklable recipes that build a fully
configured :class:`~repro.topologies.base.Topology` instance on demand,
with **zero changes to the engine layers**: a compiled scenario is just
a zero-argument topology factory (plus the ``(technology, corner,
temperature)`` keyword form the PVT-corner machinery uses), so
everything downstream — :class:`~repro.topologies.base.SchematicSimulator`,
:class:`~repro.pex.extraction.PexSimulator`, the RL environment —
consumes it exactly like a module class.

Pipeline, per :func:`registry` load:

1. every ``*.yml`` / ``*.yaml`` / ``*.json`` file in the builtin
   directory plus the ``REPRO_ZOO_DIR`` directories parses into a
   :class:`~repro.zoo.schema.Declaration`;
2. declarations carrying a ``variants`` generator expand into seeded
   child declarations (chain-length sweeps, load/corner grids,
   randomized families) — the generator itself registers nothing and
   serves only as an inheritance base;
3. each declaration's ``base`` chain resolves (child fields over parent
   fields, cycle detection) down to a registered
   :data:`BASE_TOPOLOGIES` class;
4. the resolved overrides are *semantically* validated against a probe
   instance of that class — unknown ctor/attr/grid/spec names,
   grid overrides escaping the topology's allowed range, spec-space
   mismatches all raise :class:`~repro.errors.TopologyError` naming the
   file and key path — and frozen into a :class:`CompiledScenario`.

The registry is cached on the content signature of the scenario
directories (paths + mtimes + the env knob), so editing a file or
flipping ``REPRO_ZOO_DIR`` invalidates it automatically.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import pathlib

import numpy as np

from repro.circuits.technology import Corner, Technology, finfet16, ptm45
from repro.core.specs import SpecSpace
from repro.errors import TopologyError
from repro.topologies import (FiveTransistorOta, FoldedCascodeOta, NegGmOta,
                              OtaChain, PowerGridOta, Topology,
                              TransimpedanceAmplifier, TwoStageOpAmp)
from repro.topologies.params import ParameterSpace
from repro.zoo.schema import (Declaration, GridOverride, PexSettings,
                              SpecOverride, VariantSpec, load_structured_file,
                              parse_declaration)

#: Environment knob: ``os.pathsep``-separated user scenario directories
#: searched after the builtin declarations.
ZOO_DIR_ENV = "REPRO_ZOO_DIR"

#: Module-defined topology classes a ``base`` chain may terminate at,
#: keyed by their registered ``name``.
BASE_TOPOLOGIES: dict[str, type[Topology]] = {
    cls.name: cls for cls in (
        TransimpedanceAmplifier, TwoStageOpAmp, NegGmOta, FiveTransistorOta,
        FoldedCascodeOta, OtaChain, PowerGridOta)}

#: Technology cards a declaration's ``technology`` field may name.
TECHNOLOGIES = {"ptm45": ptm45, "finfet16": finfet16}

#: Ctor keys reserved for the environment plumbing (set via the
#: top-level ``corner`` / ``temperature`` / ``technology`` fields).
_RESERVED_CTOR = frozenset(("self", "technology", "corner", "temperature"))

#: File suffixes the registry scans for.
_SUFFIXES = (".yml", ".yaml", ".json")


def _fail(source: str, path: str, message: str) -> None:
    """Raise the zoo's uniform validation error: source, key path, why."""
    raise TopologyError(f"{source}: {path}: {message}")


def builtin_dir() -> pathlib.Path:
    """Directory of the declarations shipped with the package."""
    return pathlib.Path(__file__).resolve().parent / "builtin"


def zoo_dirs() -> list[pathlib.Path]:
    """Scenario directories in search order: builtin, then each
    ``REPRO_ZOO_DIR`` entry (``os.pathsep``-separated)."""
    dirs = [builtin_dir()]
    for entry in os.environ.get(ZOO_DIR_ENV, "").split(os.pathsep):
        if entry.strip():
            dirs.append(pathlib.Path(entry.strip()))
    return dirs


def _scenario_files() -> list[pathlib.Path]:
    """All declaration files, in deterministic (dir, name) order.

    A missing user directory is an error — a typoed ``REPRO_ZOO_DIR``
    silently loading zero scenarios would be far worse.
    """
    files: list[pathlib.Path] = []
    for directory in zoo_dirs():
        if not directory.is_dir():
            raise TopologyError(
                f"{ZOO_DIR_ENV} directory {directory} does not exist")
        files.extend(sorted(p for p in directory.iterdir()
                            if p.suffix in _SUFFIXES and p.is_file()))
    return files


@dataclasses.dataclass(frozen=True)
class CompiledScenario:
    """One compiled, validated scenario: a picklable topology recipe.

    Calling the scenario (optionally with the ``(technology, corner,
    temperature)`` keywords every :class:`~repro.topologies.base.Topology`
    constructor takes) builds a configured topology instance, so a
    scenario drops in anywhere a topology class is accepted: simulator
    constructors, :meth:`~repro.pex.corners.CornerSpec.apply`, the CLI
    registry.
    """

    #: Everything the PVT machinery needs to rebuild an equivalent
    #: topology is in the dataclass fields, so the recipe pickles.
    name: str
    base_cls: type[Topology]
    source: str
    description: str = ""
    base_chain: tuple[str, ...] = ()
    corner: Corner | None = None
    temperature: float | None = None
    technology_key: str | None = None
    ctor: tuple[tuple[str, object], ...] = ()
    attrs: tuple[tuple[str, float], ...] = ()
    #: Resolved ``(start, stop, step)`` per overridden grid parameter.
    grid: tuple[tuple[str, tuple[float, float, float]], ...] = ()
    #: Resolved ``(low, high)`` per overridden spec range.
    specs: tuple[tuple[str, tuple[float, float]], ...] = ()
    pex: PexSettings | None = None

    def create(self, technology: Technology | None = None,
               corner: Corner | None = None,
               temperature: float | None = None) -> Topology:
        """Build the configured topology instance.

        Explicit keyword arguments (the PVT-corner path) take precedence
        over the declaration's environment fields.  The instance is
        renamed to the scenario (``topology.name``), which names it in
        reports.
        """
        kwargs: dict = dict(self.ctor)
        if technology is None and self.technology_key is not None:
            technology = TECHNOLOGIES[self.technology_key]()
        if technology is not None:
            kwargs["technology"] = technology
        corner = corner if corner is not None else self.corner
        if corner is not None:
            kwargs["corner"] = corner
        temperature = (temperature if temperature is not None
                       else self.temperature)
        if temperature is not None:
            kwargs["temperature"] = temperature
        topology = self.base_cls(**kwargs)
        for attr, value in self.attrs:
            setattr(topology, attr, value)
        if self.grid:
            overrides = dict(self.grid)
            topology.parameter_space = ParameterSpace([
                dataclasses.replace(p, start=overrides[p.name][0],
                                    stop=overrides[p.name][1],
                                    step=overrides[p.name][2])
                if p.name in overrides else p
                for p in topology.parameter_space.params])
        if self.specs:
            ranges = dict(self.specs)
            topology.spec_space = SpecSpace([
                dataclasses.replace(s, low=ranges[s.name][0],
                                    high=ranges[s.name][1])
                if s.name in ranges else s
                for s in topology.spec_space.specs])
        topology.name = self.name
        return topology

    def __call__(self, technology: Technology | None = None,
                 corner: Corner | None = None,
                 temperature: float | None = None) -> Topology:
        """Alias of :meth:`create` — scenarios *are* topology factories."""
        return self.create(technology=technology, corner=corner,
                           temperature=temperature)

    def create_simulator(self, cache: bool = True):
        """The simulator this scenario declares.

        A plain :class:`~repro.topologies.base.SchematicSimulator` —
        or, when the declaration carries a ``pex`` section, a
        :class:`~repro.pex.extraction.PexSimulator` over the declared
        extraction rules and signoff corners.
        """
        from repro.pex.corners import signoff_corners
        from repro.pex.extraction import ExtractionRules, PexSimulator
        from repro.topologies.base import SchematicSimulator

        if self.pex is None:
            return SchematicSimulator(self.create(), cache=cache)
        rules = None
        if self.pex.rules:
            rules = ExtractionRules(**{
                key: int(value) if key == "mesh_segments" else value
                for key, value in self.pex.rules})
        corners = None
        if self.pex.corners:
            by_name = {c.name: c for c in signoff_corners()}
            corners = [by_name[name] for name in self.pex.corners]
        return PexSimulator(self, corners=corners, rules=rules, cache=cache)

    def describe(self) -> dict:
        """Human-facing summary dict (the ``repro zoo show`` payload)."""
        topology = self.create()
        return {
            "name": self.name,
            "base": " -> ".join(self.base_chain),
            "class": self.base_cls.__name__,
            "source": self.source,
            "description": self.description,
            "corner": topology.corner.value,
            "temperature": topology.temperature,
            "technology": self.technology_key or "(base default)",
            "ctor": dict(self.ctor),
            "attrs": dict(self.attrs),
            "pex": self.pex.to_dict() if self.pex is not None else None,
            "parameters": {p.name: [p.start, p.stop, p.step]
                           for p in topology.parameter_space.params},
            "cardinality": topology.parameter_space.cardinality,
            "specs": {s.name: [s.low, s.high]
                      for s in topology.spec_space.specs},
        }


@dataclasses.dataclass
class _Resolved:
    """A declaration with its full inheritance chain merged in."""

    decl: Declaration
    base_cls: type[Topology]
    base_chain: tuple[str, ...]
    corner: Corner | None
    temperature: float | None
    technology: str | None
    ctor: dict
    attrs: dict[str, float]
    grid: dict[str, GridOverride]
    specs: dict[str, SpecOverride]
    pex: PexSettings | None
    description: str


def _resolve(decl: Declaration,
             by_name: dict[str, Declaration]) -> _Resolved:
    """Walk ``decl``'s base chain down to a module class, merging fields.

    Child fields win over parent fields (grid/spec overrides merge per
    sub-key).  A ``base`` naming the declaration itself skips straight
    to the class lookup — that is how a mirror declaration (``name:
    tia`` / ``base: tia``) re-exports a module topology.  Cycles and
    unknown bases raise with the offending file and the ``base`` key.
    """
    chain = [decl.name]
    corner, temperature, technology = (decl.corner, decl.temperature,
                                       decl.technology)
    ctor, attrs = dict(decl.ctor), dict(decl.attrs)
    grid, specs = dict(decl.grid), dict(decl.specs)
    pex, description = decl.pex, decl.description
    current = decl
    while True:
        base = current.base
        if base in by_name and base != current.name:
            if base in chain:
                _fail(decl.source, "base", "inheritance cycle: "
                      + " -> ".join(chain + [base]))
            chain.append(base)
            parent = by_name[base]
            corner = corner if corner is not None else parent.corner
            temperature = (temperature if temperature is not None
                           else parent.temperature)
            technology = (technology if technology is not None
                          else parent.technology)
            ctor = {**parent.ctor, **ctor}
            attrs = {**parent.attrs, **attrs}
            grid = {**parent.grid,
                    **{name: (ov.merged_over(parent.grid[name])
                              if name in parent.grid else ov)
                       for name, ov in grid.items()}}
            specs = {**parent.specs,
                     **{name: (ov.merged_over(parent.specs[name])
                               if name in parent.specs else ov)
                        for name, ov in specs.items()}}
            pex = pex if pex is not None else parent.pex
            description = description or parent.description
            current = parent
            continue
        if base in BASE_TOPOLOGIES:
            chain.append(base)
            return _Resolved(decl=decl, base_cls=BASE_TOPOLOGIES[base],
                             base_chain=tuple(chain), corner=corner,
                             temperature=temperature, technology=technology,
                             ctor=ctor, attrs=attrs, grid=grid, specs=specs,
                             pex=pex, description=description)
        _fail(current.source, "base",
              f"unknown base {base!r}; known topology classes: "
              f"{sorted(BASE_TOPOLOGIES)}, known declarations: "
              f"{sorted(n for n in by_name if n != current.name)}")


def _compile(resolved: _Resolved) -> CompiledScenario:
    """Semantic validation of a resolved declaration, then freeze it.

    A probe instance of the base class (built with the declared ctor
    overrides, nominal environment) supplies the ground truth the
    overrides must respect: real constructor keywords, existing numeric
    attributes, grid overrides *inside* the topology's allowed
    parameter ranges, spec overrides naming specs the topology actually
    measures.
    """
    from repro.pex.corners import signoff_corners

    decl, source = resolved.decl, resolved.decl.source
    if resolved.technology is not None \
            and resolved.technology not in TECHNOLOGIES:
        _fail(source, "technology",
              f"unknown technology {resolved.technology!r}; choose from "
              f"{sorted(TECHNOLOGIES)}")
    signature = inspect.signature(resolved.base_cls.__init__)
    has_var_kw = any(p.kind is inspect.Parameter.VAR_KEYWORD
                     for p in signature.parameters.values())
    for key in resolved.ctor:
        if key in _RESERVED_CTOR:
            _fail(source, f"ctor.{key}", "reserved keyword; set the "
                  "top-level corner/temperature/technology fields instead")
        if not has_var_kw and key not in signature.parameters:
            accepted = sorted(set(signature.parameters) - _RESERVED_CTOR)
            _fail(source, f"ctor.{key}",
                  f"{resolved.base_cls.__name__} takes no such argument; "
                  f"accepted: {accepted}")
    try:
        probe = resolved.base_cls(**resolved.ctor)
    except TopologyError:
        raise
    except Exception as exc:
        _fail(source, "ctor", f"base {resolved.base_cls.__name__} "
              f"rejected the constructor overrides: {exc}")
    for attr, _ in resolved.attrs.items():
        current = getattr(probe, attr, None)
        if isinstance(current, bool) or not isinstance(current,
                                                       (int, float)):
            _fail(source, f"attrs.{attr}",
                  f"{resolved.base_cls.__name__} has no numeric "
                  f"attribute {attr!r}")
    grid: list[tuple[str, tuple[float, float, float]]] = []
    for pname, ov in resolved.grid.items():
        if pname not in probe.parameter_space.names:
            _fail(source, f"grid.{pname}", "unknown parameter; "
                  f"{resolved.base_cls.__name__} defines "
                  f"{sorted(probe.parameter_space.names)}")
        base = probe.parameter_space[pname]
        start = ov.start if ov.start is not None else base.start
        stop = ov.stop if ov.stop is not None else base.stop
        step = ov.step if ov.step is not None else base.step
        if start < base.start:
            _fail(source, f"grid.{pname}.start",
                  f"{start:g} below the allowed minimum {base.start:g}")
        if stop > base.stop:
            _fail(source, f"grid.{pname}.stop",
                  f"{stop:g} above the allowed maximum {base.stop:g}")
        if stop < start:
            _fail(source, f"grid.{pname}.stop",
                  f"stop {stop:g} below start {start:g}")
        grid.append((pname, (start, stop, step)))
    specs: list[tuple[str, tuple[float, float]]] = []
    for sname, sov in resolved.specs.items():
        if sname not in probe.spec_space.names:
            _fail(source, f"specs.{sname}", "spec-space mismatch: "
                  f"{resolved.base_cls.__name__} measures "
                  f"{sorted(probe.spec_space.names)}")
        base_spec = probe.spec_space[sname]
        low = sov.low if sov.low is not None else base_spec.low
        high = sov.high if sov.high is not None else base_spec.high
        if low >= high:
            _fail(source, f"specs.{sname}",
                  f"low {low:g} must be below high {high:g}")
        if base_spec.log_scale and low <= 0:
            _fail(source, f"specs.{sname}.low",
                  f"{sname} is log-scale; bounds must be positive")
        specs.append((sname, (low, high)))
    if resolved.pex is not None:
        known = {c.name for c in signoff_corners()}
        for cname in resolved.pex.corners:
            if cname not in known:
                _fail(source, "pex.corners",
                      f"unknown signoff corner {cname!r}; choose from "
                      f"{sorted(known)}")
        for key, value in resolved.pex.rules:
            if key == "mesh_segments" and (value < 0
                                           or value != int(value)):
                _fail(source, "pex.mesh_segments",
                      f"expected a non-negative integer, got {value!r}")
    return CompiledScenario(
        name=decl.name, base_cls=resolved.base_cls, source=source,
        description=resolved.description, base_chain=resolved.base_chain,
        corner=resolved.corner, temperature=resolved.temperature,
        technology_key=resolved.technology,
        ctor=tuple(sorted(resolved.ctor.items())),
        attrs=tuple(sorted(resolved.attrs.items())),
        grid=tuple(grid), specs=tuple(specs), pex=resolved.pex)


def _slug(value) -> str:
    """Filename-safe fragment of an axis value for variant names."""
    if isinstance(value, str):
        return value
    return f"{value:g}".replace(".", "p").replace("+", "").replace("-", "m")


def _axis_override(child: dict, path: str, value) -> None:
    """Apply one variant axis (``corner`` / ``ctor.x`` / ...) to a raw
    child declaration mapping."""
    if path == "corner":
        child["corner"] = value
    elif path == "temperature":
        child["temperature"] = value
    else:
        section, _, key = path.partition(".")
        child.setdefault(section, {})[key] = value


def _expand_random(decl: Declaration, spec: VariantSpec,
                   by_name: dict[str, Declaration]) -> list[dict]:
    """Children of a ``random`` generator: seeded grid sub-ranges.

    Each child narrows every randomised parameter to a contiguous
    sub-range covering a ``span`` fraction of the (inheritance-resolved)
    grid, placed uniformly at random — a reproducible family of
    related-but-distinct scenarios for RL generalisation studies.
    """
    resolved = _resolve(decl, by_name)
    probe = _compile(resolved).create()
    names = spec.params or probe.parameter_space.names
    for pname in names:
        if pname not in probe.parameter_space.names:
            _fail(decl.source, "variants.params", "unknown parameter "
                  f"{pname!r}; the base defines "
                  f"{sorted(probe.parameter_space.names)}")
    rng = np.random.default_rng(spec.seed)
    children = []
    for i in range(spec.count):
        child: dict = {"name": f"{decl.name}_r{i}", "base": decl.name}
        for pname in names:
            param = probe.parameter_space[pname]
            count = param.count
            width = min(count, max(2, round(count * spec.span)))
            lo = int(rng.integers(0, count - width + 1))
            child.setdefault("grid", {})[pname] = {
                "start": param.start + lo * param.step,
                "stop": param.start + (lo + width - 1) * param.step}
        children.append(child)
    return children


def _expand_variants(decl: Declaration,
                     by_name: dict[str, Declaration]) -> list[Declaration]:
    """Expand one generator declaration into its child declarations.

    The children inherit from the generator by name (``base:
    <generator>``), so every other declared override flows to them
    through the normal resolution path; they then re-enter
    :func:`~repro.zoo.schema.parse_declaration` so malformed generated
    values fail with the same file-and-key-path errors as hand-written
    files.
    """
    spec = decl.variants
    raw_children: list[dict] = []
    if spec.kind == "sweep":
        for value in spec.values:
            child = {"name": f"{decl.name}_{spec.tag}{_slug(value)}",
                     "base": decl.name}
            _axis_override(child, spec.path, value)
            raw_children.append(child)
    elif spec.kind == "grid":
        combos: list[tuple[dict, list[str]]] = [({}, [])]
        for path, values in spec.axes:
            combos = [(_applied(child, path, value),
                       slugs + [_slug(value)])
                      for child, slugs in combos for value in values]
        for child, slugs in combos:
            child.update(name=f"{decl.name}_{'_'.join(slugs)}",
                         base=decl.name)
            raw_children.append(child)
    else:
        raw_children = _expand_random(decl, spec, by_name)
    return [parse_declaration(child, source=f"{decl.source}#{child['name']}")
            for child in raw_children]


def _applied(child: dict, path: str, value) -> dict:
    """Copy of a raw child mapping with one more axis override applied
    (sections deep-copied so grid combos never share mutable state)."""
    out = {key: dict(v) if isinstance(v, dict) else v
           for key, v in child.items()}
    _axis_override(out, path, value)
    return out


def compile_declarations(decls: list[Declaration]
                         ) -> dict[str, CompiledScenario]:
    """Compile a set of declarations into the scenario registry.

    Runs steps 2–4 of the module pipeline (variant expansion, base
    resolution, semantic validation) on already-parsed declarations —
    the file-free entry the property tests drive directly.  Generator
    declarations expand but do not register; duplicate names (including
    generated ones) are errors naming both sources.
    """
    by_name: dict[str, Declaration] = {}
    for decl in decls:
        if decl.name in by_name:
            _fail(decl.source, "name", f"duplicate scenario {decl.name!r} "
                  f"(also declared by {by_name[decl.name].source})")
        by_name[decl.name] = decl
    leaves: list[Declaration] = []
    for decl in decls:
        if decl.variants is None:
            leaves.append(decl)
            continue
        for child in _expand_variants(decl, by_name):
            if child.name in by_name:
                _fail(child.source, "name", f"duplicate scenario "
                      f"{child.name!r} (also declared by "
                      f"{by_name[child.name].source})")
            by_name[child.name] = child
            leaves.append(child)
    return {decl.name: _compile(_resolve(decl, by_name))
            for decl in leaves}


_cache: tuple[tuple, dict[str, CompiledScenario]] | None = None


def _signature() -> tuple:
    """Cache key of the current zoo contents: the env knob plus every
    scenario file's (path, mtime, size)."""
    return (os.environ.get(ZOO_DIR_ENV, ""),
            tuple((str(p), p.stat().st_mtime_ns, p.stat().st_size)
                  for p in _scenario_files()))


def registry() -> dict[str, CompiledScenario]:
    """All registered scenarios, name → :class:`CompiledScenario`.

    Loads builtin + ``REPRO_ZOO_DIR`` declarations through the full
    pipeline; cached on the directory content signature, so file edits
    and env changes take effect without any manual invalidation.
    """
    global _cache
    key = _signature()
    if _cache is not None and _cache[0] == key:
        return _cache[1]
    decls = []
    for path in _scenario_files():
        decls.append(parse_declaration(load_structured_file(path),
                                       name=path.stem, source=str(path)))
    compiled = compile_declarations(decls)
    _cache = (key, compiled)
    return compiled


def scenario(name: str) -> CompiledScenario:
    """Look one scenario up by name; unknown names raise with the
    available choices."""
    scenarios = registry()
    try:
        return scenarios[name]
    except KeyError:
        raise TopologyError(
            f"unknown scenario {name!r}; registered: "
            f"{', '.join(sorted(scenarios))}") from None


def scenario_names(strict: bool = True) -> list[str]:
    """Sorted registered scenario names.

    With ``strict=False`` a broken zoo (bad user file, missing
    directory) degrades to the builtin set — or to nothing — instead of
    raising; the CLI uses this to keep ``--topology`` choices and
    ``repro zoo validate`` working while a user file is broken.
    """
    if strict:
        return sorted(registry())
    try:
        return sorted(registry())
    except TopologyError:
        pass
    try:
        decls = [parse_declaration(load_structured_file(path),
                                   name=path.stem, source=str(path))
                 for path in sorted(builtin_dir().iterdir())
                 if path.suffix in _SUFFIXES]
        return sorted(compile_declarations(decls))
    except TopologyError:
        return []
