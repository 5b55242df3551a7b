"""Spec boundary fuzz.

One field of a valid spec, at any depth, is replaced by a value of another
type, or a list by a list of the wrong length.  ``parse_spec`` plus the
kind's builder must then either build or raise a LoopoidLabError, never any
other exception.
"""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import example
from loopoid_lab.errors import LoopoidLabError
from loopoid_lab.specio import BUILDERS, parse_spec

# the planar loop and the README system spec, with the loop's unit and the
# system's Newton block spelled out at their default values so the fuzz
# reaches those fields
LOOP_SPEC = example("planar_loop")
LOOP_SPEC["body"]["unit"] = [0.0, 0.0]
SYSTEM_SPEC = example("readme_system")
SYSTEM_SPEC["body"]["newton"] = {"max_iter": 50, "tol": 1e-10, "damping": True, "rcond": 1e-4, "fd_step": 1e-5}

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
    parent[path[-1]] = draw(_wrong_length(old) | other_type if isinstance(old, list) else other_type)
    return spec


def _build(spec):
    parsed = parse_spec(json.dumps(spec))
    return BUILDERS[parsed.kind](parsed.body)


def test_unmutated_specs_build():
    assert _build(LOOP_SPEC).dim == 2
    system = _build(SYSTEM_SPEC)
    assert system.loopoid.dim_g == 6 and system.newton.tol == 1e-10


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.sampled_from([LOOP_SPEC, SYSTEM_SPEC]).flatmap(mutated))
def test_mutated_spec_builds_or_raises_a_library_error(spec):
    try:
        _build(spec)
    except LoopoidLabError:
        pass
