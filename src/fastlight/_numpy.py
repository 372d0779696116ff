"""numpy, registered in sys.modules so that its code runs at the first
attribute access: the analytic commands never use it and never pay its
import. This is the one module that imports numpy; a plain `import numpy`
elsewhere would read the lazy module's __spec__ and so execute it at once.

The first access is not thread-safe (LazyLoader); fastlight is
single-threaded. A numpy already in sys.modules is returned unchanged.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
