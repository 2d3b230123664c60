"""The benchmark's span table still matches the package.

perfbench/spans.py wraps pdlab functions by name and reads counts from
their arguments; a rename would otherwise surface only in a traced
benchmark pass.
"""

import importlib.util
import inspect
from pathlib import Path
from unittest import mock

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
)
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


@pytest.mark.parametrize("name", sorted(spans.SPANS))
def test_span_sites_resolve_and_counts_read_real_arguments(name):
    sites, counts = spans.SPANS[name]
    functions = []
    for site in sites:
        owner, attr = spans._resolve(*site)
        assert hasattr(owner, attr), f"{name}: {site} does not resolve"
        functions.append(getattr(owner, attr))
    # every lookup site of one span names the same function
    assert all(f is functions[0] for f in functions), name
    params = inspect.signature(functions[0]).parameters
    # a count reads its arguments by parameter name, as a bound call would give them
    args = {p: 1 for p in params}
    for count, fn in counts.items():
        if fn is None:  # peak_mb is measured, not read from arguments
            continue
        try:
            fn(args, mock.MagicMock())
        except KeyError as exc:
            pytest.fail(f"{name}.{count} reads {exc}, not a parameter of {list(params)}")
