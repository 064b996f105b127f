"""Environment metadata for benchmark exports.

The end-to-end harness (``benchmarks/e2e``) records *where* its numbers
were measured — python/numpy versions, CPU count, platform — so a perf
trajectory is attributable: a wall-clock regression on a 1-core CI
runner is a very different fact from one on a 16-core workstation.
Nothing compares these keys; they exist for humans (and dashboards)
reading the JSON.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Any, Dict


def environment_metadata() -> Dict[str, Any]:
    """Host/interpreter facts worth stamping on a bench export.

    ``numpy`` is ``None`` when the optional dependency is absent —
    exactly the configurations the kernels fall back to pure python,
    which a reader comparing wall-clock numbers needs to know.
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "platform": sys.platform,
        "machine": platform.machine(),
    }
