"""Property tests for the result-cache key.

Any change to any field of :class:`CompileOptions` or
:class:`MachineConfig` — or to the workload, model, scale, instruction
budget or source-tree digest — must change the key; recreating
identical configurations must reproduce it exactly (the key is
hash()-free, so it is stable across interpreter runs).
"""

import dataclasses

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis")
import hypothesis.strategies as st  # noqa: E402
from hypothesis import given  # noqa: E402

from repro.compiler import CompileOptions  # noqa: E402
from repro.harness.parallel import (DEFAULT_MAX_INSTRUCTIONS,  # noqa: E402
                                    sweep)
from repro.harness.results_cache import (ResultsCache,  # noqa: E402
                                         canonical, cell_key, fingerprint)
from repro.machine import MachineConfig  # noqa: E402
from repro.pipeline import SimStats  # noqa: E402
from repro.resources import PortModel  # noqa: E402

DIGEST = "test-digest"

#: The key of the default cell (mcf, multipass, scale 1.0, default
#: options and config, the 5M budget, ``DIGEST``).  A changed value
#: orphans every cached entry: re-pin it only on purpose, as a golden.
DEFAULT_CELL_KEY = (
    "300ff3a893d066ec3da82bdeba5bf4eaec7c4f207d3f4c327b6d801f886aa25e")


def _key(**overrides):
    base = dict(workload="mcf", model="multipass", scale=1.0,
                compile_options=CompileOptions(), config=MachineConfig(),
                max_instructions=5_000_000, tree_digest=DIGEST)
    base.update(overrides)
    base["options_fp"] = fingerprint(base.pop("compile_options"))
    base["config_fp"] = fingerprint(base.pop("config"))
    return cell_key(**base)


#: field name -> strategy of *non-default* values for that field.
_COMPILE_MUTATIONS = {
    "if_conversion": st.just(True),
    "reorder": st.just(False),
    "restarts": st.just(False),
    "dominance_ratio": st.floats(0.1, 64.0).filter(lambda v: v != 2.0),
    "ports": st.integers(1, 5).map(lambda w: PortModel(width=w)),
}

_MACHINE_INT_FIELDS = [
    f.name for f in dataclasses.fields(MachineConfig)
    if f.type == "int" or isinstance(getattr(MachineConfig(), f.name), int)
]


def _stand_in(spec):
    """A runner that simulates nothing."""
    return SimStats(spec.model, spec.workload)


class TestCacheKey:
    def test_stable_across_fresh_instances(self):
        assert _key() == _key()
        assert _key(compile_options=CompileOptions(),
                    config=MachineConfig()) == _key()

    def test_default_cell_key_is_pinned(self):
        assert _key() == DEFAULT_CELL_KEY

    def test_sweep_stores_each_cell_under_its_cell_key(self, tmp_path):
        models, workloads, scale = ("inorder", "ooo"), ("mcf", "gap"), 0.5
        cache = ResultsCache(tmp_path, tree_digest=DIGEST)
        sweep(models, workloads, scale=scale, jobs=1, results_cache=cache,
              runner=_stand_in)
        options_fp = fingerprint(CompileOptions())
        config_fp = fingerprint(MachineConfig())
        assert {path.stem for path in cache.entries()} == {
            cell_key(workload, model, scale, options_fp, config_fp,
                     DEFAULT_MAX_INSTRUCTIONS, tree_digest=DIGEST)
            for workload in workloads for model in models}

    @given(st.sampled_from(sorted(_COMPILE_MUTATIONS)), st.data())
    def test_any_compile_option_field_changes_the_key(self, name, data):
        value = data.draw(_COMPILE_MUTATIONS[name])
        mutated = dataclasses.replace(CompileOptions(), **{name: value})
        assert _key(compile_options=mutated) != _key()
        assert fingerprint(mutated) != fingerprint(CompileOptions())

    @given(st.sampled_from(sorted(_MACHINE_INT_FIELDS)),
           st.integers(1, 10_000))
    def test_any_machine_int_field_changes_the_key(self, name, value):
        default = getattr(MachineConfig(), name)
        if isinstance(default, bool):
            value = not default
        elif value == default:
            value = default + 1
        mutated = dataclasses.replace(MachineConfig(), **{name: value})
        assert _key(config=mutated) != _key()

    def test_machine_name_and_hierarchy_change_the_key(self):
        renamed = dataclasses.replace(MachineConfig(), name="other")
        assert _key(config=renamed) != _key()
        from repro.memory.configs import HIERARCHIES
        rehoused = MachineConfig().with_hierarchy(HIERARCHIES["config1"]())
        assert _key(config=rehoused) != _key()

    @given(st.sampled_from(["workload", "model"]), st.text(min_size=1))
    def test_identity_fields_change_the_key(self, field, value):
        base = dict(workload="mcf", model="multipass")
        if value == base[field]:
            value += "x"
        assert _key(**{field: value}) != _key()

    def test_scale_budget_and_digest_change_the_key(self):
        assert _key(scale=0.5) != _key()
        assert _key(max_instructions=1_000) != _key()
        assert _key(tree_digest="other-digest") != _key()

    @given(st.floats(0.01, 100.0))
    def test_equal_scales_collide_unequal_do_not(self, scale):
        assert _key(scale=scale) == _key(scale=scale)
        if scale != 1.0:
            assert _key(scale=scale) != _key()

    def test_canonical_rejects_unfingerprintable_types(self):
        with pytest.raises(TypeError):
            canonical(object())
