"""Exhaustion forecasting against an independent least-squares oracle,
and the proactive analyzer against the version it replaced.

`reference_least_squares`, `reference_forecast_exhaustion` and
`reference_linear_forecast` are the generator-sum fit and the analyzer
that rebuilt each host's window on every sample. The fit and the analyzer
must give bit-equal values, decisions and window state.
"""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adaptdom.adaptation import (
    ANALYZERS,
    AdaptationLogic,
    Decision,
    Policy,
    Proactive,
    Stage,
    _fit,
    _least_squares,
    forecast_exhaustion,
)
from adaptdom.confgraph import Component, ConfigGraph, ReconfigTxn, ReplaceComponent
from adaptdom.errors import InsufficientSamples
from adaptdom.registry import Kind
from adaptdom.sensing import AdaptationEvent, AgentLaunchAction, GraphEditAction, MobileAgent
from adaptdom.system import Host, System


def reference_least_squares(samples):
    n = float(len(samples))
    sx = sum(t for t, _ in samples)
    sy = sum(v for _, v in samples)
    sxx = sum(t * t for t, _ in samples)
    sxy = sum(t * v for t, v in samples)
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    return slope, intercept


def reference_forecast_exhaustion(samples, critical):
    if len({t for t, _ in samples}) < 2:
        raise InsufficientSamples("need at least 2 samples with distinct times")
    slope, intercept = reference_least_squares(samples)
    if slope == 0.0:
        return None
    t_last = max(t for t, _ in samples)
    level_last = slope * t_last + intercept
    if (critical - level_last) * slope < 0:
        return None
    return (critical - intercept) / slope


def reference_linear_forecast(ctx, events):
    strategy = ctx.strategy
    if not isinstance(strategy, Proactive):
        return None
    event_type = str(ctx.params.get("event_type", "resource_sample"))
    fname = str(ctx.params.get("field", "level"))
    host_field = str(ctx.params.get("host_field", "host"))
    margin = float(ctx.policy.directives.get("forecast_margin", strategy.margin))
    series = ctx.state.setdefault("series", {})
    touched = []
    for event in events:
        if event.event_type != event_type:
            continue
        if fname not in event.payload or host_field not in event.payload:
            continue
        host = str(event.payload[host_field])
        pts = series.setdefault(host, [])
        pts.append((event.timestamp, float(event.payload[fname]), event.event_id))
        series[host] = [p for p in pts if p[0] > ctx.now - strategy.window]
        touched.append(host)
    for host in touched:
        pts = series[host]
        if len({t for t, _, _ in pts}) < 2:
            continue
        fit_samples = [(t, v) for t, v, _ in pts]
        slope, intercept = reference_least_squares(fit_samples)
        if slope == 0.0:
            continue
        descending = slope < 0
        guard = strategy.critical + margin if descending else strategy.critical - margin
        level_last = fit_samples[-1][1]
        past_guard = level_last <= guard if descending else level_last >= guard
        guard_cross = (guard - intercept) / slope
        if not (past_guard or guard_cross <= ctx.now):
            continue
        rel = ctx.member_path_of(ctx.host_object(host))
        if rel is None:
            continue
        ctx.note_reference(rel)
        graph = ctx.graph()
        if graph is None:
            continue
        predicted = reference_forecast_exhaustion(fit_samples, strategy.critical)
        edits = tuple(
            ReplaceComponent(cid, graph.components[cid].kind)
            for cid in graph.components_on(host)
        )
        actions = []
        if edits:
            actions.append(GraphEditAction(ReconfigTxn(ctx.next_txn_id("rejuv"), edits)))
        stop = ctx.absolute_path(rel)
        if stop is None:
            continue
        reset_action = str(ctx.params.get("reset_action", "reset_host_resource"))
        agent_oid = ctx.engine.agent_for(ctx.domain)
        actions.append(AgentLaunchAction(MobileAgent(agent_oid, (stop,), reset_action)))
        series[host] = []
        cause = tuple(eid for _, _, eid in pts)
        return Decision(
            ctx.domain,
            cause=cause,
            proposed_actions=tuple(actions),
            target_paths=(rel,),
            detail=f"exhaustion of {host} predicted at t={predicted}",
        )
    return None


def numpy_crossing(samples, critical):
    """Independent oracle: fit with numpy.polyfit, solve for the crossing."""
    ts = np.array([t for t, _ in samples], dtype=float)
    vs = np.array([v for _, v in samples], dtype=float)
    slope, intercept = np.polyfit(ts, vs, 1)
    if slope == 0.0:
        return None
    return (critical - intercept) / slope


def test_exact_linear_extrapolation():
    assert forecast_exhaustion([(0, 100), (10, 90)], 0) == pytest.approx(100.0)


def test_zero_slope_never_exhausts():
    assert forecast_exhaustion([(0, 50), (10, 50)], 0) is None


def test_slope_pointing_away():
    # Level rising while the critical value sits below: no crossing ahead.
    assert forecast_exhaustion([(0, 50), (10, 60)], 0) is None


def test_rising_toward_ceiling():
    assert forecast_exhaustion([(0, 10), (10, 20)], 100) == pytest.approx(90.0)


def test_insufficient_samples():
    with pytest.raises(InsufficientSamples):
        forecast_exhaustion([], 0)
    with pytest.raises(InsufficientSamples):
        forecast_exhaustion([(5, 50)], 0)
    with pytest.raises(InsufficientSamples):
        forecast_exhaustion([(5, 50), (5, 40)], 0)


@pytest.mark.parametrize("seed", range(20))
def test_noisy_samples_match_closed_form_oracle(seed):
    rng = random.Random(seed)
    slope = -rng.uniform(0.1, 5.0)
    intercept = rng.uniform(500, 2000)
    samples = []
    for i in range(rng.randrange(3, 40)):
        t = i * rng.uniform(1.0, 10.0)
        noise = rng.gauss(0, 5.0)
        samples.append((t, slope * t + intercept + noise))
    got = forecast_exhaustion(samples, 0.0)
    want = numpy_crossing(samples, 0.0)
    assert got is not None and want is not None
    assert got == pytest.approx(want, rel=1e-9)


@given(
    st.floats(min_value=-100, max_value=-0.01),
    st.floats(min_value=10, max_value=10_000),
    st.integers(min_value=2, max_value=30),
    st.floats(min_value=0.5, max_value=20),
)
def test_exact_linear_data_recovers_algebraic_crossing(slope, intercept, n, step):
    samples = [(i * step, slope * (i * step) + intercept) for i in range(n)]
    # The exhaustion question only makes sense while the level is still
    # above critical; past it the forecaster reports no crossing ahead.
    assume(samples[-1][1] > 0.0)
    expected = (0.0 - intercept) / slope
    got = forecast_exhaustion(samples, 0.0)
    assert got == pytest.approx(expected, rel=1e-9)


@given(st.lists(
    st.tuples(st.integers(-10**6, 10**6), st.floats(-1e6, 1e6, allow_nan=False)),
    min_size=1, max_size=40,
))
def test_least_squares_is_bit_equal_to_generator_sums(samples):
    times, levels = [t for t, _ in samples], [v for _, v in samples]
    try:
        want = reference_least_squares(samples)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            _least_squares(times, levels)
        return
    got = _least_squares(times, levels)
    assert got == want
    assert repr(got) == repr(want)  # tells -0.0 from 0.0


@pytest.fixture(scope="module")
def reference_analyzer():
    ANALYZERS["reference_linear_forecast"] = Stage(reference_linear_forecast)
    yield "reference_linear_forecast"
    del ANALYZERS["reference_linear_forecast"]


def forecast_system(analyze, window, margin, cooldown):
    """hostA and hostB are bound members of /rejuv with components; hostC
    has components but no host object, and hostD is unknown."""
    system = System()
    root = system.registry.create_root()
    rejuv = system.registry.register(Kind.DOMAIN)
    system.registry.include(root, rejuv, "rejuv")
    for name in ("hostA", "hostB"):
        obj = system.registry.register(Kind.PLAIN)
        system.registry.include(rejuv, obj, name)
        system.bind_host_object(name, obj)
    for name in ("hostA", "hostB", "hostC"):
        system.hosts.add(Host(name, 1000.0))
    system.config_manager.graph = ConfigGraph({
        "a1": Component("svc", "hostA"),
        "a2": Component("db", "hostA"),
        "b1": Component("svc", "hostB"),
        "c1": Component("svc", "hostC"),
    })
    sensor = system.registry.register(Kind.SENSOR)
    system.registry.include(rejuv, sensor, "res")
    system.hub.register_sensor(sensor, 0)
    system.engine.load_logic(rejuv, AdaptationLogic(
        "rejuv", Proactive(window=window, critical=0.0, margin=margin),
        analyze=analyze, monitor="event_type_filter",
        params={"event_types": "resource_sample,other"},
    ), Policy(directives={"cooldown": cooldown}))
    return system, rejuv, sensor


@st.composite
def sample_batches(draw):
    """Batches of samples. "tied" times repeat, "random" times jump back and
    forth, and "ascending" times cross the window as they advance."""
    mode = draw(st.sampled_from(("ascending", "tied", "random")))
    levels = st.one_of(
        st.integers(-100, 1000).map(float),
        st.floats(-100.0, 1000.0, allow_nan=False),
    )
    batches, event_id, t = [], 0, 0
    for _ in range(draw(st.integers(1, 10))):
        batch = []
        for _ in range(draw(st.integers(1, 4))):
            if mode == "tied":
                t = draw(st.integers(0, 2))
            elif mode == "random":
                t = draw(st.integers(0, 60))
            else:
                t += draw(st.integers(0, 9))
            event_id += 1
            payload = {"host": draw(st.sampled_from(("hostA", "hostB", "hostC", "hostD"))),
                       "level": draw(levels)}
            if draw(st.integers(0, 9)) == 0:
                del payload[draw(st.sampled_from(("host", "level")))]
            event_type = draw(st.sampled_from(("resource_sample",) * 4 + ("other", "noise")))
            batch.append((event_id, event_type, payload, t))
        batches.append(batch)
    return batches


def _run_batch(engine, domain, events):
    """One pipeline run over a batch, at its latest time: the status and the
    executed scenario. A batch's time may go back, so the clock is set by
    hand."""
    engine.clock.now = max(event.timestamp for event in events)
    outcome = engine._pipeline(domain, engine._bindings[domain], events)
    return outcome.status, outcome.scenario


def _run_batches(analyze, params, batches):
    system, rejuv, sensor = forecast_system(analyze, *params)
    outcomes = []
    for batch in batches:
        events = [AdaptationEvent(eid, sensor, kind, dict(payload), t)
                  for eid, kind, payload, t in batch]
        outcomes.append(_run_batch(system.engine, rejuv, events))
    series = system.engine._bindings[rejuv].stage_state.get("series", {})
    return outcomes, system.trace.lines(), series


@settings(max_examples=300, deadline=None)
@given(
    batches=sample_batches(),
    window=st.integers(1, 40),
    margin=st.floats(0.0, 900.0),
    cooldown=st.sampled_from((0, 10)),
)
def test_linear_forecast_equals_reference(reference_analyzer, batches, window, margin, cooldown):
    params = (window, margin, cooldown)
    outcomes, lines, series = _run_batches("linear_forecast", params, batches)
    want_outcomes, want_lines, want_series = _run_batches(reference_analyzer, params, batches)
    # Scenarios carry the actions; the decision and scenario trace records
    # carry each decision's cause, detail, action count and status.
    assert outcomes == want_outcomes
    assert lines == want_lines
    assert [(host, list(zip(*columns))) for host, columns in series.items()] == list(
        want_series.items())


@settings(max_examples=200, deadline=None)
@given(batches=sample_batches(), window=st.integers(1, 40), margin=st.floats(0.0, 900.0))
def test_the_kept_column_fit_is_bit_equal_to_least_squares(batches, window, margin):
    # Ascending, tied and out-of-order times, each batch appending samples
    # and trimming the window: a fit over the kept `t*t` and `t*level`
    # columns gives the bits `_least_squares` gives over times and levels.
    system, rejuv, sensor = forecast_system("linear_forecast", window, margin, 0)
    state = system.engine._bindings[rejuv].stage_state
    for batch in batches:
        _run_batch(system.engine, rejuv, [AdaptationEvent(eid, sensor, kind, dict(payload), t)
                                          for eid, kind, payload, t in batch])
        products = state["products"]
        for host, (times, levels, _) in state["series"].items():
            if len(set(times)) < 2:
                continue
            kept = _fit(len(times), sum(times), sum(levels), *map(sum, products[host]))
            want = _least_squares(times, levels)
            assert [x.hex() for x in kept] == [x.hex() for x in want]
