"""Every workload program, pinned by digest at scales 1.0 and 0.05.

A pin covers the whole sealed program: its rendered instructions, its
labels, every memory-image word in insertion order and its metadata.
The generators draw their data through ``workloads.common.below`` and
write it straight into the builder's image; these pins were recorded
from the ``rng.randrange``/``data_word`` generators that came before, so
they show the rewrite changed no program.  A changed pin means every
trace, figure and golden built on that program moved: re-pin only on
purpose, as with a golden (print ``program_digest(build_workload(name,
scale))``).  If all of them fail at once after a Python upgrade, see
``tests/property/test_draws.py`` first.
"""

import hashlib

import pytest

from repro.workloads import ALL_WORKLOADS, build_workload

PINS = {
    ("bzip2", 1.0):
        "d37a63facca51696dbf3a1305558227d4c410b3f537158977865abbfed081222",
    ("crafty", 1.0):
        "fa3fbb8531e1236b6386f4db534e0d5878ebbe79befb5748f42c45842ed1c9eb",
    ("gap", 1.0):
        "b653f267b3e0a2b7d41601b26f344e755394a709ef0e07ba88b6504e76283080",
    ("gzip", 1.0):
        "cb1e3fa29e9379e32a011e7cef0dc1a19a8115c9da954a6d4cdb7e1f9142db08",
    ("mcf", 1.0):
        "5b2f49cb86668a40bde53a28397f5b72baeba45555dde4a6a4061bed52700378",
    ("parser", 1.0):
        "f3f6509710af16b66575eacf2e999d7967abf865948629f9267200759416ce06",
    ("twolf", 1.0):
        "4270529655fc782bdb3eec1dc9c6d9394050cb353bc80b1face3a53ef2742ac3",
    ("vpr", 1.0):
        "b26b2ec22d72b5780a7c9072b07434d9721533842f6f8d480d850e8e15a81685",
    ("ammp", 1.0):
        "91864f6a5dbfb9d3face3df9757b9a0e4b6ca95f9506dacda44e54beab5cbf37",
    ("art", 1.0):
        "361203b67eb5d124b3ed5b0ae721825f58d5bdb07b6858a2807c22478172943f",
    ("equake", 1.0):
        "29ad2cef89926db96133aa57e81b1607c80bc3e910b7f4b035bbdbcfade55308",
    ("mesa", 1.0):
        "b4a8dc125ba494b8be1d79ea5af7c2df0ce1a9ca23bbeb2d04160e613b9fd2af",
    ("bzip2", 0.05):
        "129e4bf25ce24d94e83cb99ac160e9f4cf28140ba01ce37b557baf2c524105db",
    ("crafty", 0.05):
        "ca08308c74926b1ccd99e60a417205c5fac486891de48b85be30509e362e79cc",
    ("gap", 0.05):
        "56d5e827f7dca01cc8546741cc9d6a7f863bb3e2d7b332e9861a7e79976967cd",
    ("gzip", 0.05):
        "258876ff4ae69094d18852570467c2dd6f257e70fc9ac3d58eca47d0892a3c96",
    ("mcf", 0.05):
        "c9e8ec61033bcbd5f6450ed389d596d271e69f78c5fabf3d9fd8d577fea19b0c",
    ("parser", 0.05):
        "91e97d8e1128238d4d67ae252ee015e76bc18ff9bb526dd7d380175b976a60c8",
    ("twolf", 0.05):
        "1d9293a7545880ec2f5ecef20c061a7e54ea980c22a9d0ea1675432895b5d988",
    ("vpr", 0.05):
        "7459402bcfa3055c88a3a39505be749d8222ae28ad7903c0f6977d0d0f20494a",
    ("ammp", 0.05):
        "099ea0f983714cbcb26be057f3d9a8fdb90cee49bd1c13e40c13e4fa513d575a",
    ("art", 0.05):
        "41c951553b8c75ba8dc96852078bd14065f90d2043d28b02abbe2c600f05170a",
    ("equake", 0.05):
        "552e7a5d4d76baff2a312b451768daed19a846fe785c439a874337039c1ce4eb",
    ("mesa", 0.05):
        "7920825bb77ebb94f6cc54f5c43628dfdabc4a57ad5a4f0e1139ab226a3e1fbd",
}


def program_digest(program) -> str:
    """sha256 of everything a sealed program holds."""
    text = repr((program.render(), sorted(program.labels.items()),
                 list(program.memory_image.items()),
                 sorted(program.metadata.items())))
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_program_is_pinned():
    assert set(PINS) == {(name, scale) for name in ALL_WORKLOADS
                         for scale in (1.0, 0.05)}


@pytest.mark.parametrize("scale", (1.0, 0.05))
@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_program_matches_its_pin(name, scale):
    assert program_digest(build_workload(name, scale)) == PINS[name, scale]
