"""Unit tests for spans, the tracer stack, and causal queries."""

import pytest

from repro.obs.tracing import DecisionProvenance, Span, Trace, Tracer
from repro.sim.engine import Engine


@pytest.fixture
def tracer(engine: Engine) -> Tracer:
    return Tracer(engine)


class TestSpan:
    def test_duration_and_dict(self):
        sp = Span(1, "work", "cat", 10.0, args={"k": "v"})
        sp.end = 12.5
        assert sp.duration == 2.5
        d = sp.as_dict()
        assert d["id"] == 1
        assert d["parent"] is None
        assert d["args"] == {"k": "v"}

    def test_zero_length_by_default(self):
        sp = Span(1, "tick", "", 3.0)
        assert sp.duration == 0.0


class TestTracerStack:
    def test_begin_end_records_engine_time(self, engine, tracer):
        sp = tracer.begin("outer")
        engine.schedule(5.0, lambda: None)
        engine.run_until(5.0)
        tracer.end(sp)
        assert sp.start == 0.0
        assert sp.end == 5.0

    def test_nesting_gives_parentage(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.id
        assert outer.parent_id is None

    def test_explicit_parent_overrides_stack(self, tracer):
        with tracer.span("open"):
            sp = tracer.begin("linked", parent=41)
            tracer.end(sp)
        assert sp.parent_id == 41

    def test_parent_accepts_span_object(self, tracer):
        a = tracer.begin("a")
        tracer.end(a)
        b = tracer.begin("b", parent=a)
        tracer.end(b)
        assert b.parent_id == a.id

    def test_current_id_tracks_innermost(self, tracer):
        assert tracer.instant("before").parent_id is None
        with tracer.span("outer") as outer:
            assert tracer.instant("inside").parent_id == outer.id
        assert tracer.instant("after").parent_id is None

    def test_instant_does_not_open_context(self, tracer):
        with tracer.span("outer") as outer:
            mark = tracer.instant("event")
            assert mark.parent_id == outer.id
            assert tracer.instant("next").parent_id == outer.id

    def test_out_of_order_end_tolerated(self, tracer):
        a = tracer.begin("a")
        b = tracer.begin("b")
        tracer.end(a)  # ended before its child
        tracer.end(b)
        assert tracer.instant("after").parent_id is None

    def test_closing_a_span_reopens_the_enclosing_one(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    assert inner.parent_id == middle.id
                assert tracer.instant("after-inner").parent_id == middle.id
            assert tracer.instant("after-middle").parent_id == outer.id
        assert tracer.instant("after-outer").parent_id is None

    def test_out_of_order_end_unlinks_the_span(self, tracer):
        a = tracer.begin("a")
        b = tracer.begin("b")
        c = tracer.begin("c")
        tracer.end(b)  # ended while its child is still open
        assert tracer.instant("inside-c").parent_id == c.id
        tracer.end(c)
        assert tracer.instant("after-c").parent_id == a.id
        tracer.end(a)
        assert tracer.instant("after").parent_id is None

    def test_ids_are_unique_and_dense(self, tracer):
        spans = [tracer.instant(f"s{i}") for i in range(5)]
        assert [s.id for s in spans] == sorted({s.id for s in spans})


class TestTraceQueries:
    def _chain(self, tracer):
        scrape = tracer.instant("scrape")
        decide = tracer.instant("decide", parent=scrape)
        actuate = tracer.instant("actuate", parent=decide)
        return scrape, decide, actuate

    def test_get_and_len(self, tracer):
        scrape, _, _ = self._chain(tracer)
        trace = tracer.trace
        assert len(trace) == 3
        assert trace.get(scrape.id) is scrape
        assert trace.get(99) is None

    def test_by_name_and_children(self, tracer):
        scrape, decide, actuate = self._chain(tracer)
        trace = tracer.trace
        assert trace.by_name("decide") == [decide]
        assert trace.children(decide.id) == [actuate]

    def test_parent_chain_innermost_first(self, tracer):
        scrape, decide, actuate = self._chain(tracer)
        chain = tracer.trace.parent_chain(actuate)
        assert [s.name for s in chain] == ["actuate", "decide", "scrape"]

    def test_parent_chain_survives_cycles(self, tracer):
        a = tracer.instant("a")
        b = tracer.instant("b", parent=a)
        a.parent_id = b.id  # corrupt link
        chain = tracer.trace.parent_chain(b)
        assert [s.name for s in chain] == ["b", "a"]

    def test_provenance_as_dict_round_trips(self):
        record = DecisionProvenance(
            app="web", time=10.0, verdict="actuated", action="grow",
            error=0.1, output=0.2, gain_scale=1.0, terms=(0.1, 0.05, 0.0),
            inputs={"app/web/latency": 0.07}, signal_age=0.0,
            stale_periods=0, safe_mode=False, deadband=0.02, clamped=True,
            weights={"cpu": 1.0}, target={"cpu": 2.0}, replicas=3,
            lease_generation=7, scrape_span_id=1, span_id=2,
            active_faults=(0, 3), tuner_event="oscillation",
        )
        d = record.as_dict()
        assert d["verdict"] == "actuated"
        assert d["terms"] == [0.1, 0.05, 0.0]
        assert d["active_faults"] == [0, 3]
        assert d["lease_generation"] == 7


class TestTrace:
    def test_add_indexes_by_id(self):
        trace = Trace()
        sp = Span(5, "x", "", 0.0)
        trace.add(sp)
        assert trace.get(5) is sp
