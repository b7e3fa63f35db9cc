"""Fuzzers for the JSON entry points: any JSON value is read into a result or
rejected with a HopfCqtError, within a per-example deadline.

Each loader gets arbitrary JSON values and, to reach past its first type
check, valid documents with one to three fields replaced, deleted or added.
Replacements mix arbitrary JSON with literals that parse in the context, so
that mutations keep most of a document well-formed.
"""

import copy

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from hopfcqt import serialize  # noqa: E402
from hopfcqt.catalog import get_entry  # noqa: E402
from hopfcqt.comodules import TwistedCoalgebra, enumerate_onedim  # noqa: E402
from hopfcqt.cqt import eps_tensor_eps  # noqa: E402
from hopfcqt.errors import HopfCqtError, SchemaError  # noqa: E402
from hopfcqt.groups import MAX_DESCRIPTOR_ORDER, group_from_descriptor  # noqa: E402
from hopfcqt.scalars import parse_scalar, rational  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=2000, derandomize=True)

# element, scalar and group literals of the catalog contexts below, and the
# tokens of scalar literals, so that a replaced field often still parses
LITERALS = ["1", "g", "t", "x", "y", "y*x", "y^-2", "2", "-1", "0", "(1 2)", "(1 2 3)",
            "r", "s", "r^2*s", "a", "1|t", "g|t", "g|1|t", "1,1,g", "1/2", "-1/2",
            "zeta(4,1)", "zeta(3,2)", "1/2 + 1/2*zeta(3,1)", "zeta(0,1)", "1/0",
            "Zn", "Z", "Dinf", "Q8", "S3", "K4", "perm", "finite", "product"]
SCALAR_TEXT = st.text(alphabet="0123456789/()+-*, zeta", max_size=24)
# sizes at and just past the limits on group orders and comodule dimensions,
# small enough that a loader without the limit fails the deadline rather than
# exhausting memory
SIZES = st.sampled_from([0, 1, 2, 64, 65, 128, 129, 257, float("inf"), float("nan")])
LEAVES = (st.none() | st.booleans() | st.integers(-300, 300) | st.integers() | SIZES
          | st.floats() | st.text(max_size=8) | SCALAR_TEXT | st.sampled_from(LITERALS))
JSON = st.recursive(LEAVES, lambda inner: (st.lists(inner, max_size=4)
                                           | st.dictionaries(st.text(max_size=6), inner,
                                                             max_size=4)),
                    max_leaves=10)
# group descriptors of every family, with arbitrary or oversized fields
DESCRIPTORS = st.fixed_dictionaries(
    {"family": st.sampled_from(["Zn", "K4", "S3", "Q8", "Z", "Dinf", "perm", "finite",
                                "product"])},
    optional={"n": SIZES | JSON, "gen": JSON, "name": JSON, "names": JSON, "table": JSON,
              "generators": st.lists(st.permutations(range(7)), min_size=1, max_size=2) | JSON,
              "factors": st.lists(st.sampled_from([{"family": "Zn", "n": 12},
                                                   {"family": "Z"}]) | JSON, max_size=3)})


def _slots(doc):
    "Every (container, key) pair inside doc, the outermost first."
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        keys = (list(node) if isinstance(node, dict)
                else range(len(node)) if isinstance(node, list) else [])
        for k in keys:
            out.append((node, k))
            stack.append(node[k])
    return out


@st.composite
def mutated(draw, templates):
    "A deep copy of one of templates with one to three fields replaced, deleted or added."
    doc = copy.deepcopy(draw(st.sampled_from(templates)))
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc)
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
        if action == "replace":
            node[key] = draw(DESCRIPTORS if key in ("G", "F") else JSON)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[draw(st.text(max_size=6) | st.sampled_from(LITERALS))] = draw(JSON)
        else:
            node.append(draw(JSON))
    return doc


def _result_or_library_error(load, *args):
    try:
        load(*args)
    except HopfCqtError:
        pass


CONTEXT_ENTRIES = ("Z2_Z2_tau", "S3_Z2", "Z2_Dinf", "Q8_Z", "Z2_Z2xZ_central")
CONTEXTS = [serialize.context_to_json(get_entry(eid).context(), 2) for eid in CONTEXT_ENTRIES]


def _payloads(eid, f):
    "rform, comodule and element documents on the entry's context, with f a base point."
    H = get_entry(eid).context()
    window = None if H.F.is_finite else 2
    comodule = enumerate_onedim(TwistedCoalgebra(H, f))[-1]
    x = H.basis("1", f).scaled(rational(1, 2)) + H.basis(H.G.elements()[-1], "1")
    return H, {"rform": serialize.rform_to_json(eps_tensor_eps(H, window=window)),
               "comodule": serialize.comodule_to_json(comodule),
               "element": serialize.element_to_json(x)}


PAYLOADS = [_payloads("Z2_Z2_tau", "t"), _payloads("Z2_Dinf", "y")]
LOADERS = {"rform": serialize.rform_from_json, "comodule": serialize.comodule_from_json,
           "element": serialize.element_from_json}


@SETTINGS
@given(JSON | SCALAR_TEXT)
def test_parse_scalar_gives_a_scalar_or_a_library_error(value):
    _result_or_library_error(parse_scalar, value)


@SETTINGS
@given(JSON | mutated(CONTEXTS))
def test_context_from_json_gives_a_context_or_a_library_error(doc):
    _result_or_library_error(serialize.context_from_json, doc)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_payload_loaders_give_a_result_or_a_library_error(kind):
    for H, templates in PAYLOADS:
        @SETTINGS
        @given(JSON | mutated([templates[kind]]))
        def check(doc):
            _result_or_library_error(LOADERS[kind], doc, H)

        check()


# S7 from a 7-cycle and a transposition, and Z_3 x Z_3 x Z_3 x Z_3 x Z_2
OVERSIZED = [{"family": "Zn", "n": MAX_DESCRIPTOR_ORDER + 1},
             {"family": "perm", "generators": [[1, 2, 3, 4, 5, 6, 0], [1, 0, 2, 3, 4, 5, 6]]},
             {"family": "finite", "names": [str(i) for i in range(MAX_DESCRIPTOR_ORDER + 1)],
              "table": []},
             {"family": "product", "factors": [{"family": "Zn", "n": 3}] * 4
                                              + [{"family": "Zn", "n": 2}]}]


@pytest.mark.parametrize("desc", OVERSIZED, ids=["Zn", "perm", "finite", "product"])
def test_descriptor_past_the_order_limit_is_refused_before_it_is_built(desc):
    with pytest.raises(SchemaError, match="limit %d|more than %d"
                       % (MAX_DESCRIPTOR_ORDER, MAX_DESCRIPTOR_ORDER)):
        group_from_descriptor(desc)


@pytest.mark.parametrize("dim", [0, serialize.MAX_COMODULE_DIM + 1])
def test_comodule_dimension_outside_the_limit_is_refused(dim):
    H, templates = PAYLOADS[0]
    doc = dict(templates["comodule"], dim=dim)
    with pytest.raises(SchemaError, match="dim must be between 1 and"):
        serialize.comodule_from_json(doc, H)
