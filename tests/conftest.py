"""Helpers that several test modules share, imported as `from conftest import ...`."""

import inspect
import os
import threading

from poisonridge import mnist, mp, report, resolvent, simulator, sweep, theory


def record_threads(monkeypatch, *entries):
    """Wrap every public function of the modules perfbench traces, as its
    tracer does, and each (module, name) of `entries`, to record the thread
    of each call: "module.name" -> thread idents."""
    calls = {}

    def wrap(module, attr):
        fn = getattr(module, attr)

        def recorded(*args, **kwargs):
            calls.setdefault(f"{module.__name__}.{attr}", []).append(threading.get_ident())
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, recorded)

    for module in (mp, theory, simulator, sweep, resolvent, mnist, report):
        for attr, obj in list(vars(module).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrap(module, attr)
    for module, attr in entries:
        wrap(module, attr)
    return calls


def set_usable_cpus(monkeypatch, cpus):
    """Make `blas.usable_cpus` read len(cpus)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
