"""The benchmark's traced layers find every resdyn name they wrap.

``bench/spans.py`` wraps resdyn functions at the module where each caller
looks them up, and skips a name that no longer exists, which silently drops
that layer's metrics.  Every (module, attribute) pair in its ``TARGETS``
must therefore resolve to a callable.
"""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "spans.py")


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, span", _targets())
def test_traced_name_resolves_to_a_callable(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), \
        f"{module_name}.{attr} is gone, so span {span} drops its metrics"
