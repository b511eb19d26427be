"""Run one btkit CLI invocation with per-module counters, spans and a stack
sampler, all installed from outside the package.

    python3 perfbench/tracer.py TRACE.json <btkit arguments...>

The public functions and methods named in ``install`` are replaced by
wrappers.  The hot tiny ones (Scalar, IntMod and ParamPoly arithmetic,
generator actions, echelon reductions) only count.  Engine products and
echelon inserts also add up their time.  The coarse ones (suites, ideal
builds, closure and spanning checks, trace solves, representation rank) also
record a span (name, start, end, parent span).  Per-module self time comes from a
thread that samples the main thread's stack every half millisecond (the
switch interval is lowered to match, so the main thread hands over the
interpreter lock that often) and charges the time since the previous sample
to the innermost btkit module on the stack; a span per tiny call would cost
more than the work it measures.
TRACE.json receives counters, inclusive times, self times and spans when the
command ends; the exit code is the CLI's.
"""

import itertools
import json
import sys
import threading
import time
from collections import defaultdict

from btkit import (algebra, cli, domains, linalg, quotient, scalars, suites,
                   tensor, trace)

PACKAGE = "btkit."
SAMPLE_INTERVAL_S = 0.0005


class Tracer:
    def __init__(self):
        self.counters = defaultdict(itertools.count)
        self.inclusive = defaultdict(float)
        self.self_s = defaultdict(float)
        self.spans = []
        self._open = []
        self._depth = defaultdict(int)
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample, daemon=True)

    def tick(self, name):
        return self.counters[name].__next__

    def counts(self):
        # next() on an itertools.count returns how often it was advanced
        return {name: next(c) for name, c in sorted(self.counters.items())}

    # wrappers -------------------------------------------------------------

    def counted(self, fn, name):
        tick = self.tick(name)

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)
        return wrapper

    def timed(self, fn, name, grew=None, span=False):
        """Count calls, add outermost-call time to ``inclusive[name]``,
        optionally count results for which ``grew(result)`` holds under
        ``<name>.growth`` and record a span."""
        tick = self.tick(name)
        growth = self.tick(name + ".growth") if grew else None
        depth = self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            tick()
            if depth[name]:
                result = fn(*args, **kwargs)
            else:
                depth[name] += 1
                parent = self._open[-1] if self._open else None
                if span:
                    self._open.append(len(self.spans))
                    self.spans.append([name, None, None, parent])
                    record = self.spans[-1]
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    depth[name] -= 1
                    self.inclusive[name] += end - start
                    if span:
                        record[1], record[2] = start, end
                        self._open.pop()
            if grew and grew(result):
                growth()
            return result
        return wrapper

    # per-module self time ---------------------------------------------------

    def _sample(self):
        main = threading.main_thread().ident
        frames = sys._current_frames
        last = time.perf_counter()
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            frame = frames().get(main)
            now = time.perf_counter()
            self.self_s[_module_of(frame)] += now - last
            last = now

    def start(self):
        sys.setswitchinterval(SAMPLE_INTERVAL_S)
        self._sampler.start()

    def stop(self):
        self._stop.set()
        self._sampler.join()

    def result(self, wall_s):
        return {"wall_s": wall_s, "counters": self.counts(),
                "inclusive_s": dict(sorted(self.inclusive.items())),
                "self_s": dict(sorted(self.self_s.items())),
                "spans": self.spans}


def _module_of(frame):
    """Innermost btkit module on the stack; frames of the wrappers in this
    file count as tracing overhead, other frames (stdlib, numpy) are charged
    to the btkit code that called them."""
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name.startswith(PACKAGE):
            return name[len(PACKAGE):]
        if frame.f_code.co_filename == __file__:
            return "tracing"
        frame = frame.f_back
    return "other"


def _replace(owner, attr, new):
    """Set owner.attr to new, and rebind every btkit module global that held
    the original (names imported with ``from .x import y``)."""
    old = owner.__dict__[attr]
    setattr(owner, attr, new)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith(PACKAGE):
            for key, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, key, new)


def install(tr):
    def count(owner, names, counter):
        for attr in names:
            _replace(owner, attr, tr.counted(owner.__dict__[attr], counter))

    def time_(owner, attr, name, **kw):
        _replace(owner, attr, tr.timed(owner.__dict__[attr], name, **kw))

    count(scalars.Scalar, ("__add__", "__sub__", "__neg__", "__mul__",
                           "__truediv__", "invert", "__pow__"), "scalars.calls")
    count(domains.IntMod, ("__init__",), "domains.intmod_created")
    count(trace.ParamPoly, ("__add__", "__sub__", "__mul__", "times_A",
                            "times_B"), "trace.param_poly_ops")
    count(tensor, ("apply_word",), "tensor.word_applications")
    count(tensor, ("act_T", "act_E", "act_T_inverse"),
          "tensor.generator_actions")
    for cls in (linalg.Echelon, linalg.ModPEchelon):
        time_(cls, "insert", "linalg.rows_offered", grew=bool)
    for cls in (linalg.LinearSystem, linalg.ModPLinearSystem):
        time_(cls, "add", "linalg.rows_offered",
              grew=lambda r: r == linalg.LinearSystem.PIVOT)
    for cls in (linalg.Echelon, linalg.LinearSystem, linalg.ModPLinearSystem,
                linalg.ModPEchelon):
        count(cls, ("reduce",), "linalg.reductions")
    count(linalg.ModPEchelon, ("reduce_batch",), "linalg.reductions")
    time_(algebra.AlgebraElement, "__mul__", "algebra.products")
    time_(quotient, "build_ideal", "quotient.build_ideal", span=True)
    time_(quotient, "verify_ideal_closure", "quotient.closure_check",
          span=True)
    time_(quotient, "spanning_check", "quotient.spanning", span=True)
    time_(trace, "solve_trace", "trace.solve", span=True)
    time_(tensor, "representation_rank", "tensor.representation_rank",
          span=True)
    time_(tensor, "verify_relations_in_rep", "tensor.verify_relations_in_rep",
          span=True)
    for name in ("relations_suite", "quotient_suite", "rank_suite",
                 "trace_suite"):
        time_(suites, name, "suites." + name, span=True)


def main(argv):
    out, args = argv[0], argv[1:]
    tr = Tracer()
    install(tr)
    tr.start()
    start = time.perf_counter()
    try:
        code = cli.main(args)
    finally:
        wall = time.perf_counter() - start
        tr.stop()
        with open(out, "w") as fh:
            json.dump(tr.result(wall), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
