"""The schema's column rules are its scalar rules, bit for bit.

The bulk loader derives every label, property and heavy-edge decision
from the column forms; the benchmark's oracle and every scalar caller
use the scalar rules.  They must agree on every application ID and on
every edge of a generated graph.
"""

import numpy as np
import pytest

from repro.gdi import Datatype
from repro.gdi.constants import EntityType
from repro.gdi.types import encode_value
from repro.generator import (
    KroneckerParams,
    LpgSchema,
    PropertySpec,
    default_schema,
    generate_edges,
)

PARAMS = KroneckerParams(scale=10, edge_factor=8, seed=67)

#: every edge-property dtype, short and long byte strings, both arrays
HEAVY = LpgSchema(
    n_vertex_labels=3,
    n_edge_labels=5,
    properties=[
        PropertySpec("v_tiny", Datatype.BYTES, length=3),
        PropertySpec("v_ints", Datatype.INT64_ARRAY, length=4, density=0.5),
        PropertySpec("e_i", Datatype.INT64, entity_type=EntityType.EDGE),
        PropertySpec("e_d", Datatype.DOUBLE, entity_type=EntityType.EDGE, density=0.7),
        PropertySpec("e_b", Datatype.BOOL, entity_type=EntityType.EDGE),
        PropertySpec("e_s", Datatype.STRING, entity_type=EntityType.EDGE, length=17),
        PropertySpec("e_y", Datatype.BYTES, entity_type=EntityType.EDGE, length=9),
        PropertySpec(
            "e_f", Datatype.DOUBLE_ARRAY, entity_type=EntityType.EDGE, length=3,
            density=0.2,
        ),
    ],
    secondary_label_density=0.6,
    heavy_edge_fraction=0.3,
    seed=11,
)
SCHEMAS = {"default": default_schema(), "heavy": HEAVY}


def _edges():
    return np.vstack([generate_edges(PARAMS, r, 4) for r in range(4)])


def _assert_properties(columns, specs, scalar):
    """``columns`` against the scalar rule's ``(name, value)`` lists,
    one list per element."""
    assert [spec.name for spec, _, _ in columns] == [s.name for s in specs]
    for spec, carries, payload in columns:
        rows = [i for i, values in enumerate(scalar) if spec.name in dict(values)]
        assert np.flatnonzero(carries).tolist() == rows, spec.name
        want = [encode_value(spec.dtype, dict(scalar[i])[spec.name]) for i in rows]
        assert [p.tobytes() for p in payload] == want, spec.name


@pytest.mark.parametrize("name", SCHEMAS)
def test_vertex_columns_equal_the_scalar_rules(name):
    schema = SCHEMAS[name]
    apps = np.arange(PARAMS.n_vertices)
    labels = schema.vertex_label_columns(apps)
    assert [[int(i) for i in row if i >= 0] for row in labels] == [
        schema.vertex_label_indices(a) for a in apps.tolist()
    ]
    _assert_properties(
        schema.vertex_property_columns(apps),
        schema.vertex_properties_specs(),
        [schema.vertex_property_values(a) for a in apps.tolist()],
    )


@pytest.mark.parametrize("name", SCHEMAS)
def test_edge_columns_equal_the_scalar_rules(name):
    schema = SCHEMAS[name]
    src, dst = _edges().T
    pairs = list(zip(src.tolist(), dst.tolist()))
    heavy = schema.edge_heavy_column(src, dst)
    assert heavy.tolist() == [schema.edge_is_heavy(s, d) for s, d in pairs]
    assert schema.edge_label_column(src, dst).tolist() == [
        schema.edge_label_index(s, d) for s, d in pairs
    ]
    if name == "heavy":
        assert heavy.any() and not heavy.all()
    _assert_properties(
        schema.edge_property_columns(src[heavy], dst[heavy]),
        schema.edge_properties_specs(),
        [
            schema.edge_property_values(s, d)
            for (s, d), h in zip(pairs, heavy.tolist())
            if h
        ],
    )


def test_no_edge_labels_is_no_column():
    schema = default_schema(n_vertex_labels=0, n_edge_labels=0, n_properties=0)
    assert schema.edge_label_column(np.arange(3), np.arange(3)) is None
    assert (schema.vertex_label_columns(np.arange(3)) == -1).all()
    assert schema.vertex_property_columns(np.arange(3)) == []
