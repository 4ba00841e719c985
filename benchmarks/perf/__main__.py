"""``python -m benchmarks.perf run|compare|verify`` (from the repository root)."""

import os
import runpy

runpy.run_path(os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"), run_name="__main__")
