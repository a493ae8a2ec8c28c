"""Compile step of the scenario zoo (:mod:`repro.zoo.loader`).

Covers the registry (builtin families, ``REPRO_ZOO_DIR`` discovery,
content-signature caching), inheritance resolution, semantic validation
against the base topology, variant expansion and the
:class:`~repro.zoo.loader.CompiledScenario` factory contract the
simulator/PVT machinery relies on.
"""

from __future__ import annotations

import pickle

import pytest

from repro.circuits.technology import Corner
from repro.errors import TopologyError
from repro.pex.corners import signoff_corners
from repro.pex.extraction import PexSimulator
from repro.topologies import (FiveTransistorOta, OtaChain, SchematicSimulator,
                              TransimpedanceAmplifier)
from repro.zoo import (ZOO_DIR_ENV, compile_declarations, parse_declaration,
                       registry, scenario, scenario_names)

#: Scenario names shipped in ``repro/zoo/builtin`` (generators expand,
#: but do not register themselves).
BUILTIN_NAMES = {
    "tia", "two_stage_opamp", "ngm_ota", "five_t_ota", "folded_cascode",
    "ota_chain_small", "chain_sweep_n3", "chain_sweep_n4",
    "folded_pvt_tt_1em12", "folded_pvt_tt_2em12",
    "folded_pvt_ss_1em12", "folded_pvt_ss_2em12",
    "ota5_random_r0", "ota5_random_r1", "ota5_random_r2",
    "power_grid_ota", "power_grid_sweep_g7", "power_grid_sweep_g9",
}


def _decl(mapping, source="mem.yml"):
    return parse_declaration(mapping, source=source)


def _compile(*mappings):
    return compile_declarations([m if not isinstance(m, dict) else _decl(m)
                                 for m in mappings])


def _rejects(*mappings, fragments=()):
    with pytest.raises(TopologyError) as err:
        _compile(*mappings)
    for fragment in fragments:
        assert fragment in str(err.value), (fragment, str(err.value))


class TestRegistry:
    def test_builtin_families(self):
        assert BUILTIN_NAMES <= set(registry())

    def test_generators_do_not_register(self):
        assert "chain_sweep" not in registry()
        assert "folded_pvt" not in registry()
        assert "ota5_random" not in registry()

    def test_mirror_reexports_module_class(self):
        sc = scenario("tia")
        topology = sc.create()
        assert isinstance(topology, TransimpedanceAmplifier)
        assert topology.name == "tia"

    def test_ctor_overrides(self):
        topology = scenario("ota_chain_small")()
        assert isinstance(topology, OtaChain)
        assert topology.n_stages == 2 and topology.segments == 4

    def test_sweep_children_inherit_through_declaration(self):
        # chain_sweep inherits ota_chain_small's segments=4, sweeps
        # n_stages; the child must carry both.
        topology = scenario("chain_sweep_n3")()
        assert topology.n_stages == 3 and topology.segments == 4

    def test_grid_variant_overrides(self):
        topology = scenario("folded_pvt_ss_2em12")()
        assert topology.corner is Corner.SS
        assert topology.C_LOAD == pytest.approx(2.0e-12)
        assert topology.spec_space["gain"].low == pytest.approx(120.0)

    def test_random_family_within_base_range(self):
        base_space = FiveTransistorOta().parameter_space
        for i in range(3):
            sc = scenario(f"ota5_random_r{i}")
            overrides = dict(sc.grid)
            assert set(overrides) == set(base_space.names)
            for pname, (start, stop, _step) in overrides.items():
                base = base_space[pname]
                assert base.start <= start <= stop <= base.stop
                # span 0.5 of a 100-point grid -> 50-point sub-ranges.
                assert stop - start == pytest.approx(49 * base.step)

    def test_random_family_deterministic(self):
        decls = [_decl({"name": "fam", "base": "five_t_ota",
                        "variants": {"kind": "random", "count": 2,
                                     "seed": 99, "span": 0.5}})]
        first = compile_declarations(decls)
        second = compile_declarations(decls)
        assert first == second
        assert set(first) == {"fam_r0", "fam_r1"}

    def test_cached_until_contents_change(self):
        assert registry() is registry()

    def test_scenario_unknown_name(self):
        with pytest.raises(TopologyError, match="unknown scenario 'nope'"):
            scenario("nope")


class TestDiscovery:
    def test_user_dir_scenarios_register(self, tmp_path, monkeypatch):
        (tmp_path / "user_ota.yml").write_text(
            "base: five_t_ota\ngrid:\n  w_in:\n    stop: 50.0\n")
        monkeypatch.setenv(ZOO_DIR_ENV, str(tmp_path))
        assert "user_ota" in registry()
        assert dict(scenario("user_ota").grid)["w_in"] == (1.0, 50.0, 1.0)

    def test_edit_invalidates_cache(self, tmp_path, monkeypatch):
        path = tmp_path / "user_ota.yml"
        path.write_text("base: five_t_ota\ngrid:\n  w_in:\n    stop: 50.0\n")
        monkeypatch.setenv(ZOO_DIR_ENV, str(tmp_path))
        assert dict(scenario("user_ota").grid)["w_in"][1] == 50.0
        path.write_text(
            "base: five_t_ota\ngrid:\n  w_in:\n    stop: 60.0\n  # edited\n")
        assert dict(scenario("user_ota").grid)["w_in"][1] == 60.0

    def test_missing_user_dir_is_an_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ZOO_DIR_ENV, str(tmp_path / "nope"))
        with pytest.raises(TopologyError, match="does not exist"):
            registry()

    def test_broken_user_file_names_file(self, tmp_path, monkeypatch):
        (tmp_path / "broken.yml").write_text("base: tia\nbogus: 1\n")
        monkeypatch.setenv(ZOO_DIR_ENV, str(tmp_path))
        with pytest.raises(TopologyError, match="broken.yml"):
            registry()

    def test_scenario_names_degrade_to_builtins(self, tmp_path, monkeypatch):
        (tmp_path / "broken.yml").write_text("base: tia\nbogus: 1\n")
        monkeypatch.setenv(ZOO_DIR_ENV, str(tmp_path))
        assert set(scenario_names(strict=False)) == BUILTIN_NAMES


class TestResolution:
    def test_declaration_chain_merges_child_over_parent(self):
        compiled = _compile(
            {"name": "parent", "base": "five_t_ota", "corner": "ss",
             "grid": {"w_in": {"start": 10.0}}},
            {"name": "child", "base": "parent",
             "grid": {"w_in": {"stop": 50.0}}})
        child = compiled["child"]
        assert child.base_chain == ("child", "parent", "five_t_ota")
        assert dict(child.grid)["w_in"] == (10.0, 50.0, 1.0)
        assert child.corner is Corner.SS

    def test_inheritance_cycle(self):
        _rejects({"name": "a", "base": "b"}, {"name": "b", "base": "a"},
                 fragments=("base: inheritance cycle", "a -> b -> a"))

    def test_unknown_base_lists_choices(self):
        _rejects({"name": "x", "base": "nand_gate"},
                 fragments=("base: unknown base 'nand_gate'",
                            "known topology classes", "five_t_ota"))

    def test_duplicate_names(self):
        _rejects({"name": "x", "base": "tia"},
                 _decl({"name": "x", "base": "tia"}, source="other.yml"),
                 fragments=("name: duplicate scenario 'x'", "mem.yml"))

    def test_duplicate_names_rejects_generated_children(self):
        _rejects({"name": "gen_r0", "base": "five_t_ota"},
                 {"name": "gen", "base": "five_t_ota",
                  "variants": {"kind": "random", "count": 1, "seed": 1}},
                 fragments=("duplicate scenario 'gen_r0'",))


class TestSemanticValidation:
    def test_unknown_ctor_key(self):
        _rejects({"name": "x", "base": "ota_chain", "ctor": {"stages": 3}},
                 fragments=("ctor.stages", "takes no such argument",
                            "n_stages"))

    def test_reserved_ctor_key(self):
        _rejects({"name": "x", "base": "tia", "ctor": {"corner": "ss"}},
                 fragments=("ctor.corner: reserved keyword",))

    def test_unknown_attr(self):
        _rejects({"name": "x", "base": "five_t_ota",
                  "attrs": {"bogus": 1.0}},
                 fragments=("attrs.bogus",
                            "no numeric attribute 'bogus'"))

    def test_unknown_grid_parameter(self):
        _rejects({"name": "x", "base": "five_t_ota",
                  "grid": {"w_nope": {"stop": 5.0}}},
                 fragments=("grid.w_nope: unknown parameter", "w_in"))

    def test_grid_start_below_minimum(self):
        _rejects({"name": "x", "base": "five_t_ota",
                  "grid": {"w_in": {"start": 0.0}}},
                 fragments=("grid.w_in.start",
                            "below the allowed minimum 1"))

    def test_grid_stop_above_maximum(self):
        _rejects({"name": "x", "base": "five_t_ota",
                  "grid": {"w_in": {"stop": 101.0}}},
                 fragments=("grid.w_in.stop",
                            "above the allowed maximum 100"))

    def test_grid_stop_below_start(self):
        _rejects({"name": "x", "base": "five_t_ota",
                  "grid": {"w_in": {"start": 50.0, "stop": 10.0}}},
                 fragments=("grid.w_in.stop", "below start"))

    def test_spec_space_mismatch(self):
        _rejects({"name": "x", "base": "five_t_ota",
                  "specs": {"cutoff_freq": {"low": 1.0}}},
                 fragments=("specs.cutoff_freq: spec-space mismatch",
                            "gain"))

    def test_spec_low_must_be_below_high(self):
        _rejects({"name": "x", "base": "five_t_ota",
                  "specs": {"gain": {"low": 300.0, "high": 200.0}}},
                 fragments=("specs.gain", "must be below"))

    def test_log_scale_spec_needs_positive_bounds(self):
        _rejects({"name": "x", "base": "folded_cascode",
                  "specs": {"ugbw": {"low": -1.0}}},
                 fragments=("specs.ugbw.low", "log-scale"))

    def test_unknown_technology(self):
        _rejects({"name": "x", "base": "tia", "technology": "sky130"},
                 fragments=("technology: unknown technology 'sky130'",
                            "ptm45"))

    def test_unknown_pex_corner(self):
        _rejects({"name": "x", "base": "five_t_ota",
                  "pex": {"corners": ["tt_fast"]}},
                 fragments=("pex.corners: unknown signoff corner",))

    def test_fractional_mesh_segments(self):
        _rejects({"name": "x", "base": "five_t_ota",
                  "pex": {"mesh_segments": 2.5}},
                 fragments=("pex.mesh_segments",
                            "non-negative integer"))

    def test_random_variant_unknown_param(self):
        _rejects({"name": "x", "base": "five_t_ota",
                  "variants": {"kind": "random", "count": 1,
                               "params": ["w_nope"]}},
                 fragments=("variants.params: unknown parameter",))


class TestCompiledScenario:
    def test_pickles(self):
        sc = scenario("folded_pvt_ss_2em12")
        again = pickle.loads(pickle.dumps(sc))
        assert again == sc
        assert again.create().C_LOAD == pytest.approx(2.0e-12)

    def test_explicit_kwargs_win_over_declaration(self):
        topology = scenario("folded_pvt_ss_2em12").create(
            corner=Corner.FF, temperature=398.15)
        assert topology.corner is Corner.FF
        assert topology.temperature == pytest.approx(398.15)
        assert topology.C_LOAD == pytest.approx(2.0e-12)

    def test_corner_spec_apply_keeps_overrides(self):
        # CornerSpec.apply builds corner instances through the factory's
        # (technology, corner, temperature) keywords; the scenario's
        # non-PVT overrides must survive.
        hot = next(c for c in signoff_corners() if c.name == "ss_low_125c")
        topology = hot.apply(scenario("folded_pvt_tt_2em12"))
        assert topology.corner is Corner.SS
        assert topology.temperature == pytest.approx(398.15)
        assert topology.C_LOAD == pytest.approx(2.0e-12)

    def test_create_simulator_schematic_by_default(self):
        sim = scenario("tia").create_simulator(cache=False)
        assert isinstance(sim, SchematicSimulator)

    def test_create_simulator_pex(self):
        compiled = _compile(
            {"name": "x", "base": "five_t_ota",
             "pex": {"corners": ["tt_nom_27c", "ss_low_125c"],
                     "mesh_segments": 2.0, "c_wire_per_m": 9.0e-11}})
        sim = compiled["x"].create_simulator(cache=False)
        assert isinstance(sim, PexSimulator)
        rules = sim.extractor.rules
        assert rules.mesh_segments == 2
        assert isinstance(rules.mesh_segments, int)
        assert rules.c_wire_per_m == pytest.approx(9.0e-11)
        assert [c.name for c in sim.corners] == ["tt_nom_27c", "ss_low_125c"]

    def test_describe_resolves_environment(self):
        info = scenario("folded_pvt_ss_1em12").describe()
        assert info["class"] == "FoldedCascodeOta"
        assert info["corner"] == "ss"
        assert info["base"].endswith("-> folded_cascode")
        assert info["parameters"]
        assert info["cardinality"] > 0
