"""Timeline recording: the compact tuples ``result_digest`` includes."""

from repro.core import Simulator, make_policy
from repro.core.timeline import FETCH_DONE, FETCH_ISSUED
from tests.conftest import make_trace, simple_config


def record_run(blocks):
    trace = make_trace(blocks, compute_ms=2.0)
    config = simple_config(cache_blocks=8, record_timeline=True)
    sim = Simulator(trace, make_policy("fixed-horizon"), 1, config)
    result = sim.run()
    return sim.timeline, result


class TestTimelineBasics:
    def test_disabled_by_default(self):
        trace = make_trace([0, 1])
        sim = Simulator(trace, make_policy("demand"), 1, simple_config())
        sim.run()
        assert sim.timeline is None

    def test_events_recorded_when_enabled(self):
        timeline, result = record_run(list(range(6)))
        kinds = {kind for _t, kind, _b, _d in timeline.events}
        assert FETCH_ISSUED in kinds
        assert FETCH_DONE in kinds

    def test_fetch_events_match_fetch_count(self):
        timeline, result = record_run(list(range(10)))
        issued = [e for e in timeline.events if e[1] == FETCH_ISSUED]
        done = [e for e in timeline.events if e[1] == FETCH_DONE]
        assert len(issued) == result.fetches
        assert len(done) == result.fetches
