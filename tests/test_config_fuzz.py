"""Property test: a documented config with one field replaced never crashes the CLI.

Each example in docs/examples has one top-level or nested field (an object
key or a list entry) replaced by an arbitrary JSON value, and the command
line may carry a replaced mode and extra flags, known or not, with arbitrary
values.  Whatever the input, ``main`` must exit with a documented code, print
strict JSON, and on success report CHSH values within the algebraic bound
|S| <= 4; a help request succeeds with the help text and no report.
"""

import contextlib
import copy
import io
import json
import re
from pathlib import Path
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bellpost.cli import main

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"

# trials and samples may go up to 10**10 and 10**6 and run time grows with
# them, so the examples run with at most BASE_COUNT of each, and a valid
# count drawn for either stays at or below MAX_COUNT.
BASE_COUNT = 2_000
MAX_COUNT = 10_000


def _base(path: Path) -> dict:
    doc = json.loads(path.read_text())
    for key in ("trials", "samples"):
        if key in doc:
            doc[key] = min(doc[key], BASE_COUNT)
    return doc


def _paths(node, prefix=()):
    """The path of every object key and list entry below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


CASES = [
    (doc, path)
    for doc in map(_base, sorted(EXAMPLES.glob("*.json")))
    for path in _paths(doc)
]

SWAP_JITTER = next(
    case for case in CASES if case[0]["mode"] == "swap" and case[1] == ("noise", "jitter_alice")
)

HUGE_INTEGERS = st.integers(10**399, 10**400 - 1) | st.integers(-(10**400) + 1, -(10**399))
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-MAX_COUNT, MAX_COUNT)
    | HUGE_INTEGERS
    | st.floats()
    | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)

# Flags a fuzzed command line may add.  --out, --csv and --config name files
# and --format csv makes stdout CSV, so they are left out; --bootstrap and
# --trails are not flags of any mode.
FLAGS = ("--trials", "--seed", "--tol", "--grid", "--bootstrap", "--trails")
FLAG_VALUES = st.integers(-MAX_COUNT, MAX_COUNT).map(str) | st.text(max_size=8)
EXTRA_ARGS = st.lists(st.tuples(st.sampled_from(FLAGS), FLAG_VALUES), max_size=2).map(
    lambda pairs: [arg for pair in pairs for arg in pair]
)
MODE_ARGS = st.none() | st.text(max_size=8)


def _count(value: str):
    """The integer argparse would read for a count flag, or None."""
    try:
        return int(value)
    except ValueError:
        return None


# Result keys that hold a CHSH value: s, exact_s, s_exact, max_abs_s, ...
S_KEY = re.compile(r"(^|_)s($|_)")


def _s_values(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if S_KEY.search(key) and isinstance(value, float):
                yield value
            else:
                yield from _s_values(value)
    elif isinstance(node, list):
        for value in node:
            yield from _s_values(value)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.sampled_from(CASES), value=JSON_VALUES, mode=MODE_ARGS, extra=EXTRA_ARGS)
@example(case=CASES[0], value=None, mode=None, extra=["--trials", "abc"])
@example(case=CASES[0], value=None, mode=None, extra=["--bootstrap", "200"])
@example(case=CASES[0], value=None, mode=None, extra=["--trails", "5"])
@example(case=CASES[0], value=None, mode="teleport", extra=[])
@example(case=CASES[0], value=None, mode=None, extra=["-h"])
@example(case=CASES[0], value=None, mode="-h", extra=[])
@example(case=SWAP_JITTER, value=1e17, mode=None, extra=[])
def test_one_replaced_field_never_crashes(case, value, mode, extra):
    base, path = case
    if path in (("trials",), ("samples",)):
        assume(not (type(value) is int and value > MAX_COUNT))
    for flag, arg in zip(extra[::2], extra[1::2]):
        if flag == "--trials":
            assume((_count(arg) or 0) <= MAX_COUNT)
    doc = copy.deepcopy(base)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out = io.StringIO()
    with (
        mock.patch("sys.stdin", io.StringIO(json.dumps(doc))),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        code = main([base["mode"] if mode is None else mode, "--config", "-", *extra])
    assert code in (0, 2, 3, 4)
    report = json.loads(out.getvalue(), parse_constant=_reject_constant)
    if "help" in report:
        assert code == 0 and list(report) == ["help"]
    elif code == 0:
        assert all(abs(s) <= 4.0 + 1e-9 for s in _s_values(report["results"]))
