"""Property test: ``tripaths verify`` on mutated golden certificates.

Every mutation of a golden certificate (keys dropped, values swapped for
other JSON types, huge or negative integers and booleans, values nested
in lists or objects, the text truncated or wrapped in deep brackets)
must end in a documented exit code, never in an exception.  The run is
derandomized, so it draws the same examples every time.
"""

import json
import pathlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tripaths.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main

GOLDEN = pathlib.Path(__file__).parent / "golden"
DOCS = {n: json.loads((GOLDEN / f"certificate-n{n}.json").read_text()) for n in (4, 5)}
ALLOWED = {EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, EXIT_MISMATCH}

SCALARS = st.one_of(
    st.booleans(), st.none(),
    st.sampled_from([0, 1, -1, 4, 5, 8, 119, 120, 2**31, 2**63, 10**30, -2**63]),
    st.integers(), st.floats(allow_nan=False), st.text(max_size=6),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
# one edit: (path choices, operation, replacement value)
EDITS = st.tuples(st.lists(st.integers(min_value=0, max_value=50), max_size=5),
                  st.sampled_from(["drop", "replace", "wrap-list", "wrap-object"]),
                  VALUES)


def _apply(doc, edit):
    """Walk the index choices into the document, then edit the node reached."""
    choices, op, value = edit
    parent, key, node = None, None, doc
    for i in choices:
        if isinstance(node, dict) and node:
            k = sorted(node)[i % len(node)]
        elif isinstance(node, list) and node:
            k = i % len(node)
        else:
            break
        parent, key, node = node, k, node[k]
    if parent is None:
        return value if op == "replace" else doc
    if op == "drop":
        del parent[key]
    elif op == "replace":
        parent[key] = value
    elif op == "wrap-list":
        parent[key] = [node]
    else:
        parent[key] = {"x": node}
    return doc


@settings(derandomize=True, max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(n=st.sampled_from([4, 5]), edits=st.lists(EDITS, max_size=3),
       cut=st.one_of(st.none(), st.floats(min_value=0, max_value=1)),
       depth=st.sampled_from([0, 0, 0, 1, 50, 5000]))
def test_mutated_goldens_end_in_documented_exit_codes(tmp_path, n, edits, cut, depth):
    doc = json.loads(json.dumps(DOCS[n]))
    for edit in edits:
        doc = _apply(doc, edit)
    text = json.dumps(doc)
    if cut is not None:
        text = text[:int(len(text) * cut)]
    text = "[" * depth + text + "]" * depth
    path = tmp_path / "mutated.json"
    path.write_text(text)
    assert main(["verify", str(path)]) in ALLOWED
