"""The benchmark's span tracer finds every package function it wraps by name.

``perfbench/tracer.py`` replaces functions and methods of the package by
their names; a renamed or deleted one would otherwise show up only when the
benchmark runs.
"""

import importlib
import importlib.util
import pathlib

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _namespaces(tracer_mod):
    """Every module namespace and class dict the tracer may patch."""
    spaces = {}
    for name in tracer_mod.MODULES:
        mod = importlib.import_module(name)
        spaces[name] = mod
        for attr, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == name:
                spaces[f"{name}.{attr}"] = value
    return spaces


def _snapshot(spaces):
    return {(key, attr): value for key, ns in spaces.items() for attr, value in vars(ns).items()}


def test_tracer_installs_and_restores_every_hook():
    tracer_mod = _load_tracer()
    spaces = _namespaces(tracer_mod)
    before = _snapshot(spaces)

    tracer = tracer_mod.Tracer()
    tracer.install()  # raises AttributeError or KeyError on a missing name
    try:
        patched = list(tracer._restore)
        assert patched
        for obj, attr, fn in patched:
            assert getattr(obj, attr) is not fn
    finally:
        tracer.uninstall()

    after = _snapshot(spaces)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    for obj, attr, fn in patched:
        assert vars(obj)[attr] is fn
