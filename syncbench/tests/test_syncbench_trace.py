"""The tracer's arithmetic: self time, per-resume accounting, unpatching."""

import pytest

from repro.simkernel import Simulator
from syncbench.trace import (
    Patches,
    Tracer,
    count_calls,
    span_function,
    span_generator,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_time_is_busy_minus_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock, min_slice_s=0.0)

    def leaf():
        clock.work(2.0)

    def middle():
        clock.work(1.0)
        leaf()
        leaf()
        clock.work(0.5)

    def root():
        clock.work(0.25)
        middle()

    leaf = span_function(tracer, leaf, "leaf", "L")
    middle = span_function(tracer, middle, "middle", "M")
    root = span_function(tracer, root, "root", "R")
    root()

    self_s = tracer.self_seconds()
    assert self_s == {"root": 0.25, "middle": 1.5, "leaf": 4.0}
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["root"].busy_s == 5.75
    assert by_name["middle"].busy_s == 5.5
    assert sum(self_s.values()) == by_name["root"].busy_s
    # parent = the span that made the call
    assert by_name["root"].parent is None
    assert by_name["middle"].parent == by_name["root"].sid
    assert [s.parent for s in tracer.spans if s.name == "leaf"] == [
        by_name["middle"].sid
    ] * 2


def test_span_closes_when_the_function_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock, min_slice_s=0.0)

    def boom():
        clock.work(1.0)
        raise KeyError("x")

    with pytest.raises(KeyError):
        span_function(tracer, boom, "boom", "L")()
    assert tracer.self_seconds() == {"boom": 1.0}
    assert tracer._stack == []


def test_generator_span_accumulates_per_resume_not_first_to_last():
    """Process A does 1+2+4 s of host work across three resumes while
    process B burns 10 s per resume in between, in one Simulator."""
    clock = FakeClock()
    tracer = Tracer(clock=clock, min_slice_s=0.0)
    sim = Simulator()
    order = []

    def process_a():
        for cost in (1.0, 2.0, 4.0):
            order.append("a")
            clock.work(cost)
            yield sim.timeout(1.0)
        return "done"

    def process_b():
        yield sim.timeout(0.5)
        for _ in range(3):
            order.append("b")
            clock.work(10.0)
            yield sim.timeout(1.0)

    traced_a = span_generator(tracer, process_a, "a", "A")
    proc = sim.process(traced_a())
    sim.process(process_b())
    sim.run()

    assert order == ["a", "b", "a", "b", "a", "b"]
    assert proc.value == "done"
    (span,) = tracer.spans
    assert span.busy_s == span.self_s == 7.0  # none of B's 30 s
    assert span.resumes == 4  # three yields + the final return
    assert (span.start, span.end) == (0.0, 37.0)  # first-to-last is 37 s
    assert len(tracer.slices) == 4


def test_generator_span_forwards_thrown_exceptions_and_hooks():
    tracer = Tracer(clock=FakeClock(), min_slice_s=0.0)
    seen = []

    def body(tag):
        try:
            yield 1
        except ValueError:
            yield 2
        return tag

    traced = span_generator(
        tracer, body, "g", "G",
        before=lambda counts, tag: seen.append(("before", tag)),
        after=lambda counts, result, tag: seen.append(("after", result)),
    )
    gen = traced("t")
    assert seen == [("before", "t")]
    assert next(gen) == 1
    assert gen.throw(ValueError()) == 2
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "t"
    assert seen == [("before", "t"), ("after", "t")]
    assert tracer._stack == []

    closed = traced("c")
    next(closed)
    closed.close()  # GeneratorExit reaches the wrapped generator
    assert tracer._stack == []
    assert seen[-1] == ("before", "c")  # no "after" for a closed process


def test_nested_generator_spans_split_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock, min_slice_s=0.0)

    def inner():
        clock.work(3.0)
        yield "x"
        clock.work(1.0)

    def outer():
        clock.work(0.5)
        yield from traced_inner()
        clock.work(0.25)

    traced_inner = span_generator(tracer, inner, "inner", "I")
    traced_outer = span_generator(tracer, outer, "outer", "O")
    assert list(traced_outer()) == ["x"]
    assert tracer.self_seconds() == {"outer": 0.75, "inner": 4.0}


def test_count_calls_counts_and_passes_through():
    tracer = Tracer()
    double = count_calls(tracer, lambda x, k=1: 2 * x * k, "calls")
    assert [double(2), double(3, k=2)] == [4, 12]
    assert tracer.counts["calls"] == 2
    assert tracer.spans == []


def test_chrome_trace_keeps_the_longest_slices_nested():
    clock = FakeClock()
    tracer = Tracer(clock=clock, min_slice_s=0.0)

    def short():
        clock.work(0.001)

    def long():
        clock.work(1.0)
        short()

    short = span_function(tracer, short, "short", "S")
    span_function(tracer, long, "long", "L")()
    events = tracer.chrome_trace(origin=0.0, max_events=1)["traceEvents"]
    assert [(e["name"], e["ph"], e["ts"], e["dur"]) for e in events] == [
        ("long", "X", 0.0, 1001000.0)
    ]


def test_patches_restore_the_exact_original_bindings():
    class Owner:
        def method(self):
            return "m"

        @staticmethod
        def static(x):
            return x

    raw_method = vars(Owner)["method"]
    raw_static = vars(Owner)["static"]
    patches = Patches()
    calls = []

    def wrap(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapped

    assert patches.replace(Owner, "method", wrap)
    assert patches.replace(Owner, "static", wrap)
    assert not patches.replace(Owner, "gone", wrap, required=False)
    with pytest.raises(AttributeError):
        patches.replace(Owner, "gone", wrap)
    assert Owner().method() == "m" and Owner.static(3) == 3
    assert Owner().static(4) == 4  # still a staticmethod
    assert calls == ["method", "static", "static"]
    patches.remove()
    assert vars(Owner)["method"] is raw_method
    assert vars(Owner)["static"] is raw_static
