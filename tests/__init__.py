import importlib.util
import os

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


def load_bench_script(name: str):
    """Import ``benchmarks/<name>.py`` (a script, not a package)."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(BENCH_DIR, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod
