"""One in-process `sl2ybe` CLI call, run in a fresh interpreter by run.py.

    python3 perfbench/child.py {plain|trace|count} -- <sl2ybe arguments>

`plain` times `cli.main` alone; `trace` first wraps the public functions of
each package module (spans are recorded here, from outside the package) and
reports per-function call counts, inclusive and self time; `count` runs
`cli.main` under cProfile and reports exact-arithmetic construction counts.
Prints one JSON object on stdout: the CLI exit code, its captured stdout,
the wall time of `cli.main` and the mode's measurements.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
from fractions import Fraction

PACKAGE = "sl2ybe"

# Modules whose public functions the traced run wraps.  `exact` is left out:
# its functions and classes sit under every arithmetic step, so wrapping them
# would swamp the timings; its work is counted by the `count` mode instead.
TRACED_MODULES = ("cli", "acceptance", "sixj", "amatrix", "spectral", "ybe",
                  "classify", "linalg", "oracle")

# Functions whose distinct argument sets are counted, and whose first call per
# argument set is timed as a build (the packaged caches are keyed the same way).
DISTINCT = ("sixj.sixj", "amatrix.a_matrix")

EXACT_COUNTS = ("exact.fraction_new", "exact.quadext_new",
                "exact.sqrt_canonicalize.calls", "exact.squarefree_split.calls")


def _arg_key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        key = repr(key)
    return key


class Tracer:
    """Call count, inclusive time and self time per wrapped function."""

    def __init__(self):
        self.stats = {}      # name -> [calls, total_s, self_s]
        self.stack = []      # child-time accumulators of the open spans
        self.paused = False  # set while the tracer itself calls into the package
        self.keys = {name: set() for name in DISTINCT}
        self.build_s = {name: 0.0 for name in DISTINCT}
        self.nonzero = 0

    def wrap(self, name, fn):
        rec = self.stats[name] = [0, 0.0, 0.0]
        stack, clock = self.stack, time.perf_counter
        seen = self.keys.get(name)
        count_nonzero = name == "ybe.reduced_ybe_check"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if seen is not None:
                key = _arg_key(args, kwargs)
                if key not in seen:
                    seen.add(key)
                    tracer.build_s[name] += dt
            if count_nonzero:
                tracer.paused = True
                try:
                    tracer.nonzero += not result.is_zero
                finally:
                    tracer.paused = False
            return result

        return wrapper

    def install(self, package: str):
        """Wrap each public function once and rebind every module-level
        reference to it: `from .x import f` names, the package namespace and
        module-level tuples, lists and dicts (such as `acceptance.CRITERIA`,
        which `run_plan` matches by identity)."""
        wrapped = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{package}.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                elif isinstance(obj, (tuple, list)) and any(
                        inspect.isfunction(x) and x in wrapped for x in obj):
                    setattr(mod, attr, type(obj)(
                        wrapped.get(x, x) if inspect.isfunction(x) else x for x in obj))
                elif isinstance(obj, dict):
                    for k, v in obj.items():
                        if inspect.isfunction(v) and v in wrapped:
                            obj[k] = wrapped[v]

    def report(self):
        return {
            "functions": {name: {"calls": c, "total_s": t, "self_s": s}
                          for name, (c, t, s) in self.stats.items()},
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "build_s": self.build_s,
            "nonzero": {"ybe.reduced_ybe_check": self.nonzero},
        }


def exact_counts(profile, exact) -> dict:
    """Calls recorded by cProfile for the exact-arithmetic constructors."""
    calls = {}
    for entry in profile.getstats():
        calls[entry.code] = calls.get(entry.code, 0) + entry.callcount

    def count(*fns):
        return sum(calls.get(f.__code__, 0) for f in fns if inspect.isfunction(f))

    quad = vars(exact.QuadExt)
    return dict(zip(EXACT_COUNTS, (
        count(Fraction.__new__),
        count(quad.get("__init__"), quad.get("__new__")),
        count(exact.sqrt_canonicalize),
        count(exact.squarefree_split))))


def main(argv) -> int:
    mode, sep, *cli_argv = argv
    if sep != "--" or mode not in ("plain", "trace", "count"):
        print("usage: child.py {plain|trace|count} -- <sl2ybe arguments>", file=sys.stderr)
        return 2
    cli = importlib.import_module(f"{PACKAGE}.cli")
    out = {"mode": mode, "file": cli.__file__}
    tracer = profile = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install(PACKAGE)
    elif mode == "count":
        import cProfile
        profile = cProfile.Profile(builtins=False)
    captured = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        if profile is not None:
            code = profile.runcall(cli.main, cli_argv)
        else:
            code = cli.main(cli_argv)
    out["main_s"] = time.perf_counter() - t0
    out["exit"] = code
    out["stdout"] = captured.getvalue()
    if tracer is not None:
        out["trace"] = tracer.report()
    if profile is not None:
        out["counts"] = exact_counts(profile, importlib.import_module(f"{PACKAGE}.exact"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
