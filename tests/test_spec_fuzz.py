"""Spec boundary fuzz.

One field of a valid spec, at any depth, is replaced by a value of another
type, or a list by a list of the wrong length.  ``parse_spec`` plus the
kind's public builder must then either build or raise a LoopoidLabError,
never any other exception.  The specs cover every spec kind: a loop, a
system, finite tables and constructions, loopoids and algebroids.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_spec, example
from loopoid_lab.errors import LoopoidLabError

# the planar loop, with its unit spelled out at the default value so the
# fuzz reaches that field, and the README system spec
LOOP_SPEC = example("planar_loop")
LOOP_SPEC["body"]["unit"] = [0.0, 0.0]
SYSTEM_SPEC = example("readme_system")
SPECS = {
    "planar_loop": LOOP_SPEC,
    "readme_system": SYSTEM_SPEC,
    **{
        name: example(name)
        for name in (
            "z4_table",
            "s3_transversal",
            "signed_basis_semidirect",
            "phi_loopoid",
            "prolonged_planar_loopoid",
            "prolonged_algebroid",
            "cross_product_algebroid",
        )
    },
}

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _paths(node, prefix=()):
    """Key/index paths of every field below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _wrong_length(old):
    """Lists of any other length, cycling through ``old``'s items."""
    sizes = st.integers(0, len(old) + 2).filter(lambda n: n != len(old))
    return sizes.map(lambda n: copy.deepcopy([old[i % len(old)] for i in range(n)]))


@st.composite
def mutated(draw, spec):
    spec = copy.deepcopy(spec)
    path = draw(st.sampled_from(list(_paths(spec))))
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    other_type = VALUES.filter(lambda v: type(v) is not type(old))
    parent[path[-1]] = draw(_wrong_length(old) | other_type if isinstance(old, list) and old else other_type)
    return spec


def test_unmutated_specs_build():
    for spec in SPECS.values():
        build_spec(spec)
    assert build_spec(LOOP_SPEC).dim == 2
    system = build_spec(SYSTEM_SPEC)
    assert system.loopoid.dim_g == 6
    assert build_spec(SPECS["signed_basis_semidirect"]).order == 32
    assert build_spec(SPECS["prolonged_algebroid"]).base_dim == 3


@settings(derandomize=True, deadline=None, max_examples=600)
@given(st.sampled_from(sorted(SPECS)).flatmap(lambda name: mutated(SPECS[name])))
def test_mutated_spec_builds_or_raises_a_library_error(spec):
    try:
        build_spec(spec)
    except LoopoidLabError:
        pass
