"""The traced benchmark run (perfbench/spans.py) wraps package functions
by module and attribute name.  Resolve every name here, so a refactor
that renames or removes one fails in the package's own tests and not
only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)

TRACED = spans.SPANS + spans.COUNTS


def _resolve(module, path):
    owner = importlib.import_module(f"hermgrid.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module,path,metric", TRACED,
                         ids=[f"{m}.{p}" for m, p, _ in TRACED])
def test_traced_attribute_resolves(module, path, metric):
    assert callable(_resolve(module, path)), metric


def test_one_function_per_metric():
    # a name imported into a second module is wrapped there under the
    # same metric, which is only right while both are the same function
    by_metric = {}
    for module, path, metric in TRACED:
        by_metric.setdefault(metric, []).append(_resolve(module, path))
    for metric, fns in by_metric.items():
        assert all(fn is fns[0] for fn in fns), metric
