"""Self-time subtraction and span recording."""

from tracing import Tracer, aggregate, read_spans, self_times


def span(sid, parent, name, start, end, amps=0):
    return {"run": "r", "id": sid, "parent": parent, "name": name,
            "start_ns": start, "end_ns": end, "amps": amps}


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, -1, "root", 0, 100),
        span(1, 0, "child", 10, 50),
        span(2, 1, "grandchild", 20, 30),
    ]
    assert self_times(spans) == {0: 60, 1: 30, 2: 10}


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(0, -1, "root", 0, 100),
        span(1, 0, "a", 10, 40),
        span(2, 0, "b", 30, 60),  # overlaps a on [30, 40]
        span(3, 0, "c", 60, 70),  # touches b
    ]
    assert self_times(spans)[0] == 100 - 60


def test_self_time_clips_children_to_the_parent():
    spans = [
        span(0, -1, "root", 10, 50),
        span(1, 0, "early", 0, 20),
        span(2, 0, "late", 45, 90),
        span(3, 0, "outside", 60, 80),
    ]
    assert self_times(spans)[0] == 40 - 10 - 5


def test_aggregate_sums_by_name():
    spans = [
        span(0, -1, "root", 0, 100),
        span(1, 0, "k", 0, 10, amps=4),
        span(2, 0, "k", 20, 50, amps=8),
    ]
    agg = aggregate(spans)
    assert agg["k"] == {"calls": 2, "wall_ns": 40, "self_ns": 40, "amps": 12}
    assert agg["root"]["self_ns"] == 60


def test_tracer_records_nesting_and_round_trips(tmp_path):
    tracer = Tracer("run-1")

    def inner(x):
        return x + 1

    wrapped_inner = tracer.span("inner", inner, amps=lambda args: args[0])

    def outer(x):
        return wrapped_inner(x) * 2

    assert tracer.span("outer", outer)(3) == 8
    path = tmp_path / "spans.jsonl"
    tracer.write(str(path))
    spans = read_spans(str(path))
    assert [(s["id"], s["parent"], s["name"], s["amps"]) for s in spans] == [
        (0, -1, "outer", 0),
        (1, 0, "inner", 3),
    ]
    assert all(s["run"] == "run-1" for s in spans)
    outer_span, inner_span = spans
    assert outer_span["start_ns"] <= inner_span["start_ns"] <= inner_span["end_ns"]
    assert inner_span["end_ns"] <= outer_span["end_ns"]


def test_tracer_closes_spans_on_exceptions():
    tracer = Tracer("run-2")

    def boom():
        raise KeyError("x")

    wrapped = tracer.span("boom", boom)
    try:
        wrapped()
    except KeyError:
        pass
    tracer.span("after", lambda: None)()
    assert tracer.parents == [-1, -1]
    assert tracer.ends[0] >= tracer.starts[0] > 0
