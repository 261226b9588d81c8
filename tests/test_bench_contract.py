"""The benchmark's tracer wraps library functions by owner and attribute name.

A rename or fold that drops one of them breaks traced benchmark runs; this
test makes it fail the suite instead.  bench/tracer.py is only read, never
imported, so nothing is written under bench/.
"""

from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_function_resolves():
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    traced = namespace["TRACED"]
    assert traced
    for layer, name, owner, attr, _, _ in traced:
        # install() looks the function up in the owner's own namespace
        assert callable(vars(owner).get(attr)), f"{layer}.{name}: {owner}.{attr}"
