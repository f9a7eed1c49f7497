"""The one integer-argument rule, `check_int`, the one real-argument rule,
`check_float`, the one array-argument rule, `check_array`, and every
entry point that uses them.

An integer argument refuses a fraction, NaN, an infinity or None with a
ConfigError naming it, and a whole float or numpy integer gives exactly
what the Python int gives. A real argument refuses NaN, an infinity,
None, a string or a value past its bounds the same way, and a numpy
float gives exactly what the Python float gives. An array argument
refuses NaN, an infinity, strings, a ragged sequence or the wrong number
of dimensions the same way, and too few rows with the class its
estimator has always raised for them. The value types hold their arrays
and numbers by the same rules."""

import dataclasses
import math
import re

import numpy as np
import pytest

from chaoskit.cao import CaoProfile, minimum_embedding_dimension
from chaoskit.correlation import CorrelationCurve, D2Estimate, correlation_curve, correlation_dimension, correlation_sum
from chaoskit.errors import ConfigError, ShortSeriesError, check_array, check_float, check_int
from chaoskit.generators import (
    GeneratorSpec,
    gaussian_stream,
    generate,
    henon_lle_oracle,
    logistic_lle_oracle,
    tangent_map_lle,
    uniform_stream,
)
from chaoskit.information import (
    DiscreteDistribution,
    JointDistribution,
    auto_mutual_information,
    first_local_minimum,
    joint_distribution,
    marginal_distribution,
    mutual_information,
    select_lag_first_minimum,
)
from chaoskit.lyapunov import WolfParams, largest_lyapunov_wolf
from chaoskit.series import DelayVectors, EmbeddingParams, TimeSeries, autocorrelation, theiler_window
from chaoskit.sleep import EstimatorConfig, Group, SleepStage, analyze_recordings, compute_epoch_indices
from chaoskit.stats import GroupSummary, histograms_by_cell, summarize

X = generate(GeneratorSpec("logistic", 400, seed=3, transient_skip=100, parameters={"r": 4.0}))
PTS = np.column_stack([X.samples[:-1], X.samples[1:]])
CELL = {("lle", SleepStage.S2, Group.APNEA): list(X.samples)}
CURVE = correlation_curve(PTS)


def logistic_tangent_lle(n_steps, transient):
    return tangent_map_lle(lambda s: 4.0 * s * (1.0 - s), lambda s: 4.0 - 8.0 * s, 0.3, n_steps, transient=transient)


def _canon(value):
    """A comparable form that tells 3 from 3.0 and compares arrays bit for bit."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if dataclasses.is_dataclass(value):
        return (type(value), tuple(_canon(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, (tuple, list)):
        return (type(value), tuple(_canon(v) for v in value))
    if isinstance(value, dict):
        return (dict, tuple((k, _canon(v)) for k, v in sorted(value.items())))
    return (type(value), value)


# (argument name, call with the argument set to v, a usable whole value)
SITES = {
    "minimum_embedding_dimension t": ("t", lambda v: minimum_embedding_dimension(X, v, m_max=4), 3),
    "minimum_embedding_dimension m_max": ("m_max", lambda v: minimum_embedding_dimension(X, 1, m_max=v), 3),
    "correlation_sum theiler_w": ("theiler_w", lambda v: correlation_sum(PTS, 0.1, theiler_w=v), 3),
    "correlation_curve theiler_w": ("theiler_w", lambda v: correlation_curve(PTS, theiler_w=v), 3),
    "correlation_curve n_radii": ("n_radii", lambda v: correlation_curve(PTS, n_radii=v), 8),
    "GeneratorSpec n_samples": ("n_samples", lambda v: GeneratorSpec("henon", v), 3),
    "GeneratorSpec transient_skip": ("transient_skip", lambda v: GeneratorSpec("henon", 3, transient_skip=v), 3),
    "GeneratorSpec seed": ("seed", lambda v: GeneratorSpec("henon", 3, seed=v), 3),
    "uniform_stream n": ("n", lambda v: uniform_stream(1, v), 3),
    "uniform_stream offset": ("offset", lambda v: uniform_stream(1, 3, offset=v), 3),
    "uniform_stream seed": ("seed", lambda v: uniform_stream(v, 3), 3),
    "gaussian_stream n": ("n", lambda v: gaussian_stream(1, v), 3),
    "tangent_map_lle n_steps": ("n_steps", lambda v: logistic_tangent_lle(v, 10), 3),
    "tangent_map_lle transient": ("transient", lambda v: logistic_tangent_lle(3, v), 3),
    "henon_lle_oracle n_steps": ("n_steps", lambda v: henon_lle_oracle(v, transient=10), 10_000),
    "henon_lle_oracle transient": ("transient", lambda v: henon_lle_oracle(10_000, transient=v), 3),
    "logistic_lle_oracle n_steps": ("n_steps", lambda v: logistic_lle_oracle(v), 1000),
    "logistic_lle_oracle transient": ("transient", lambda v: logistic_lle_oracle(1000, transient=v), 3),
    "marginal_distribution bins": ("bins", lambda v: marginal_distribution(X.samples, v), 3),
    "joint_distribution bins": ("bins", lambda v: joint_distribution(X.samples, X.samples[::-1], v), 3),
    "mutual_information bins": ("bins", lambda v: mutual_information(X.samples, X.samples[::-1], v), 3),
    "auto_mutual_information lag": ("lag", lambda v: auto_mutual_information(X, v), 3),
    "auto_mutual_information bins": ("bins", lambda v: auto_mutual_information(X, 1, v), 3),
    "select_lag_first_minimum max_lag": ("max_lag", lambda v: select_lag_first_minimum(X, v), 3),
    "select_lag_first_minimum bins": ("bins", lambda v: select_lag_first_minimum(X, 10, v), 3),
    "WolfParams evolve_steps": ("evolve_steps", lambda v: WolfParams(evolve_steps=v), 3),
    "WolfParams theiler_w": ("theiler_w", lambda v: WolfParams(theiler_w=v), 3),
    "1-D Wolf walk theiler_w": ("theiler_w", lambda v: largest_lyapunov_wolf(X.samples, WolfParams(theiler_w=v)), 50),
    "EmbeddingParams dimension_m": ("dimension_m", lambda v: EmbeddingParams(v, 1), 3),
    "EmbeddingParams lag_t": ("lag_t", lambda v: EmbeddingParams(1, v), 3),
    "EmbeddingParams theiler_w": ("theiler_w", lambda v: EmbeddingParams(1, 1, v), 3),
    "autocorrelation max_lag": ("max_lag", lambda v: autocorrelation(X, v), 3),
    "theiler_window max_lag": ("max_lag", lambda v: theiler_window(X, v), 3),
    "analyze_recordings jobs": ("jobs", lambda v: analyze_recordings([], jobs=v), 3),
    "GroupSummary n": ("n", lambda v: GroupSummary(1.0, 1.0, v), 3),
    "histograms_by_cell n_bins": ("n_bins", lambda v: histograms_by_cell(CELL, v), 3),
}


def test_check_int():
    assert check_int("k", 3.0, 1) == 3 and type(check_int("k", np.int64(3), 1)) is int
    assert check_int("k", -7, -math.inf) == -7
    assert check_int("k", 5, 0, 5) == 5
    with pytest.raises(ConfigError, match=r"^k must be an integer in \[0, 4\], got 5$"):
        check_int("k", 5, 0, 4)
    for bad in (0, 2.5, math.nan, math.inf, -math.inf, None, "3", [3]):
        with pytest.raises(ConfigError, match=r"^k must be an integer >= 1, got "):
            check_int("k", bad, 1)


@pytest.mark.parametrize("site", SITES)
def test_integer_argument(site):
    name, call, whole = SITES[site]
    for bad in (math.nan, math.inf, -math.inf, None, 2.5):
        with pytest.raises(ConfigError, match=rf"^{name} must be an integer "):
            call(bad)
    expected = _canon(call(whole))
    assert _canon(call(float(whole))) == expected
    assert _canon(call(np.int64(whole))) == expected


def test_negative_transient_refused():
    # Summing from step -5 would average 995 steps over 1000.
    with pytest.raises(ConfigError, match=r"^transient must be an integer >= 0, got -5$"):
        logistic_lle_oracle(1000, transient=-5)


def _generated(kind, name):
    return lambda v: generate(GeneratorSpec(kind, 50, seed=1, parameters={name: v}))


# (name in the message, call with the argument set to v, a usable value,
# values past the argument's bounds). An end that is open refuses the
# bound itself; a usable value on a closed end shows that it is closed.
FLOAT_SITES = {
    "WolfParams min_separation": ("min_separation", lambda v: WolfParams(min_separation=v), 0.01, (0.0, -1.0)),
    "WolfParams max_separation": ("max_separation", lambda v: WolfParams(max_separation=v), 2.0, (0.0,)),
    "WolfParams max_replacement_angle": (
        "max_replacement_angle",
        lambda v: WolfParams(max_replacement_angle=v),
        0.5,
        (0.0, math.pi, 4.0),
    ),
    "EstimatorConfig plateau_tol": ("plateau_tol", lambda v: EstimatorConfig(plateau_tol=v), 0.05, (0.0,)),
    "EstimatorConfig e2_tol": ("e2_tol", lambda v: EstimatorConfig(e2_tol=v), 0.1, (-0.1,)),
    "EstimatorConfig min_fit_r2": ("min_fit_r2", lambda v: EstimatorConfig(min_fit_r2=v), 1.0, (1.5, -0.1)),
    "EstimatorConfig min_separation": ("min_separation", lambda v: EstimatorConfig(min_separation=v), 0.01, (0.0,)),
    "EstimatorConfig max_replacement_angle": (
        "max_replacement_angle",
        lambda v: EstimatorConfig(max_replacement_angle=v),
        1.0,
        (math.pi,),
    ),
    "minimum_embedding_dimension plateau_tol": (
        "plateau_tol",
        lambda v: minimum_embedding_dimension(X, 1, m_max=4, plateau_tol=v),
        0.05,
        (0.0,),
    ),
    "minimum_embedding_dimension e2_tol": (
        "e2_tol",
        lambda v: minimum_embedding_dimension(X, 1, m_max=4, e2_tol=v),
        0.1,
        (0.0,),
    ),
    "correlation_dimension min_fit_r2": ("min_fit_r2", lambda v: correlation_dimension(CURVE, v), 0.0, (-0.5,)),
    "correlation_sum radius": ("radius", lambda v: correlation_sum(PTS, v), 0.1, (0.0, -0.1)),
    "TimeSeries sample_rate_hz": ("sample_rate_hz", lambda v: TimeSeries(X.samples, v), 100.0, (0.0, -1.0)),
    "logistic r": ("logistic r", _generated("logistic", "r"), 4.0, (0.0, 4.5)),
    "logistic x0": ("logistic x0", _generated("logistic", "x0"), 0.3, (0.0, 1.0)),
    "henon x0": ("henon x0", _generated("henon", "x0"), 0.1, ()),
    "lorenz dt": ("lorenz dt", _generated("lorenz", "dt"), 0.01, (0.0,)),
    "lorenz z0": ("lorenz z0", _generated("lorenz", "z0"), 2.0, ()),
    "sine noise_std": ("sine noise_std", _generated("sine", "noise_std"), 0.0, (-0.1,)),
    "sine fs": ("sine fs", _generated("sine", "fs"), 10.0, (0.0,)),
    "ar1 noise_std": ("ar1 noise_std", _generated("ar1", "noise_std"), 1.0, (0.0,)),
    "white_noise fs": ("white_noise fs", _generated("white_noise", "fs"), 10.0, (0.0, -10.0)),
    "logistic_lle_oracle r": ("r", lambda v: logistic_lle_oracle(1000, r=v), 4.0, ()),
    "logistic_lle_oracle x0": ("x0", lambda v: logistic_lle_oracle(1000, x0=v), 0.3, ()),
    "henon_lle_oracle a": ("a", lambda v: henon_lle_oracle(10_000, a=v, transient=10), 1.4, ()),
    "henon_lle_oracle b": ("b", lambda v: henon_lle_oracle(10_000, b=v, transient=10), 0.3, ()),
}
# None leaves these to their data-dependent defaults.
OPTIONAL = {"min_separation", "max_separation"}


def test_check_float():
    assert check_float("x", 3) == 3.0 and type(check_float("x", np.float32(0.5))) is float
    assert check_float("x", 0, at_least=0) == 0.0 and check_float("x", 1, at_most=1) == 1.0
    with pytest.raises(ConfigError, match=r"^x must be a finite number > 0 and <= 4, got 0$"):
        check_float("x", 0, above=0, at_most=4)
    with pytest.raises(ConfigError, match=r"^x must be a finite number >= 0 and < 1, got 1$"):
        check_float("x", 1, at_least=0, below=1)
    for bad in (math.nan, math.inf, -math.inf, None, "0.5", [0.5], np.array(0.5), 1j, 10**400):
        with pytest.raises(ConfigError, match=r"^x must be a finite number, got "):
            check_float("x", bad)


@pytest.mark.parametrize("site", FLOAT_SITES)
def test_real_argument(site):
    name, call, usable, past_bounds = FLOAT_SITES[site]
    bad_values = (math.nan, math.inf, -math.inf, "abc", *past_bounds)
    for bad in bad_values if name in OPTIONAL else (*bad_values, None):
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be a finite number"):
            call(bad)
    expected = _canon(call(usable))
    assert _canon(call(np.float64(usable))) == expected
    if usable == int(usable):
        assert _canon(call(int(usable))) == expected


def test_whole_float_config_runs_a_window_like_the_default():
    window = generate(GeneratorSpec("lorenz", 300, seed=1, transient_skip=1000, parameters={"fs": 10.0}))
    got = compute_epoch_indices(window, EstimatorConfig(evolve_steps=3.0, bins=16.0))
    assert got.failures == {}
    assert _canon(got) == _canon(compute_epoch_indices(window, EstimatorConfig()))


def test_check_array():
    a = np.arange(6.0)
    assert check_array("a", a, ndim=1, min_len=6) is a
    view = a[::2]
    assert check_array("a", view, ndim=1, min_len=3) is view
    got = check_array("a", [[1, 2], [3, 4]], ndim=(1, 2), min_len=2)
    assert got.dtype == np.float64 and got.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(ConfigError, match=r"^a must be a 1-d array of finite numbers with at least 2 values, got NaN"):
        check_array("a", [1.0, math.nan], ndim=1, min_len=2)
    with pytest.raises(ConfigError, match=r"^a must be a 1-d or 2-d array of finite numbers with at least 1 row, got 0$"):
        check_array("a", np.empty((0, 3)), ndim=(1, 2), min_len=1)
    with pytest.raises(ConfigError, match=r"^a must be a 2-d array .*, got shape \(5, 0\)$"):
        check_array("a", np.empty((5, 0)), ndim=2, min_len=1)
    with pytest.raises(ShortSeriesError, match=r"^a must be a 1-d array .* at least 3 values, got 2$"):
        check_array("a", [1.0, 2.0], ndim=1, min_len=3, short=ShortSeriesError)


# (argument name, call with the argument set to v, a usable value, the
# fewest rows it takes, and the class that fewer rows raise)
ARRAY_SITES = {
    "TimeSeries samples": ("samples", lambda v: TimeSeries(v, 10.0), X.samples, 2, ShortSeriesError),
    "DelayVectors series": ("samples", lambda v: DelayVectors(TimeSeries(v, 10.0), EmbeddingParams(3, 2)), X.samples, 5, ShortSeriesError),
    "marginal_distribution values": ("values", lambda v: marginal_distribution(v, 4), X.samples, 1, ConfigError),
    "joint_distribution x": ("x", lambda v: joint_distribution(v, X.samples, 4), X.samples, 1, ConfigError),
    "joint_distribution y": ("y", lambda v: joint_distribution(X.samples, v, 4), X.samples, 1, ConfigError),
    "first_local_minimum values": ("values", first_local_minimum, X.samples, 3, ConfigError),
    "summarize values": ("values", summarize, X.samples, 2, ConfigError),
    "correlation_sum points": ("points", lambda v: correlation_sum(v, 0.1), PTS, 2, ConfigError),
    "correlation_curve points": ("points", correlation_curve, PTS, 2, ConfigError),
    "Wolf walk points": ("points", largest_lyapunov_wolf, PTS, 100, ShortSeriesError),
}


@pytest.mark.parametrize("site", ARRAY_SITES)
def test_array_argument(site):
    name, call, usable, min_len, short = ARRAY_SITES[site]
    nan, inf = usable.copy(), usable.copy()
    nan.flat[7], inf.flat[7] = math.nan, -math.inf
    # usable[None] has one dimension too many: a 2-d array for the 1-d
    # sites, and a 3-d one for the points, which may be 1-d or 2-d.
    empty_rows = usable.reshape(len(usable), -1)[:, :0]
    for bad in (nan, inf, usable.astype(str), [[1.0, 2.0], [3.0]], None, 0.5, usable[None], empty_rows):
        with pytest.raises(ConfigError, match=rf"^{name} must be a "):
            call(bad)
    with pytest.raises(short) as info:
        call(usable[: min_len - 1])
    assert type(info.value) is short
    call(usable)


def test_delay_vectors_holding_nan_are_refused():
    # Hand-built points holding a NaN once reached correlation_sum, which
    # counted the NaN point's pairs as never close: C(1.0) came out as
    # 0.2306... there. Delay vectors now lay their points out from a
    # checked series, and take nothing else.
    samples = np.random.default_rng(5).standard_normal(201)
    samples[18] = math.nan
    with pytest.raises(ConfigError, match=r"^samples must be a 1-d array of finite numbers"):
        TimeSeries(samples, 1.0)
    with pytest.raises(ConfigError, match=r"^series must be a TimeSeries, got ndarray$"):
        DelayVectors(np.column_stack([samples[:-1], samples[1:]]), EmbeddingParams(2, 1))
    # Points and samples are read-only, so no NaN can be written in later.
    samples[18] = 0.0
    vectors = DelayVectors(TimeSeries(samples, 1.0), EmbeddingParams(2, 1))
    with pytest.raises(ValueError, match="read-only"):
        vectors.points[17, 1] = math.nan
    with pytest.raises(ValueError, match="read-only"):
        vectors.series.samples[18] = math.nan


def _profile(**fields):
    usable = dict(e1_values=np.ones(4), e2_values=np.ones(4), m_max=5, lag_t=1, selected_m=3, deterministic=True)
    return CaoProfile(**{**usable, **fields})


def _estimate(**fields):
    return D2Estimate(**{**dict(d2=1.0, fit_range=(1.0, 2.0), fit_r2=0.99, n_pairs_in_range=10), **fields})


EDGES = np.array([0.0, 0.5, 1.0])
HALVES = np.array([0.5, 0.5])
CELLS = np.full((2, 2), 0.25)

# (field name, build the value with the field set to v, a usable value)
VALUE_FIELDS = {
    "CaoProfile e1_values": ("e1_values", lambda v: _profile(e1_values=v), np.ones(4)),
    "CaoProfile e2_values": ("e2_values", lambda v: _profile(e2_values=v), np.ones(4)),
    "CorrelationCurve radii": ("radii", lambda v: CorrelationCurve(v, CURVE.c_values, CURVE.n_pairs), CURVE.radii),
    "CorrelationCurve c_values": ("c_values", lambda v: CorrelationCurve(CURVE.radii, v, CURVE.n_pairs), CURVE.c_values),
    "D2Estimate fit_range": ("fit_range", lambda v: _estimate(fit_range=v), (1.0, 2.0)),
    "DiscreteDistribution probabilities": ("probabilities", lambda v: DiscreteDistribution(v, EDGES), HALVES),
    "DiscreteDistribution bin_edges": ("bin_edges", lambda v: DiscreteDistribution(HALVES, v), EDGES),
    "JointDistribution probabilities": ("probabilities", lambda v: JointDistribution(v, EDGES, EDGES), CELLS),
    "JointDistribution x_edges": ("x_edges", lambda v: JointDistribution(CELLS, v, EDGES), EDGES),
    "JointDistribution y_edges": ("y_edges", lambda v: JointDistribution(CELLS, EDGES, v), EDGES),
}


@pytest.mark.parametrize("site", VALUE_FIELDS)
def test_value_type_array(site):
    # Each bad value is tried as an array and as a list: the value types
    # take both, and check both by the one array rule.
    name, build, usable = VALUE_FIELDS[site]
    usable = np.array(usable)
    nan, pos_inf, neg_inf = usable.copy(), usable.copy(), usable.copy()
    nan.flat[1], pos_inf.flat[1], neg_inf.flat[0] = math.nan, math.inf, -math.inf
    for bad in (nan, pos_inf, neg_inf, usable.astype(str), np.array([[1.0, 2.0], [3.0]], dtype=object), usable[None]):
        for form in (bad, bad.tolist()):
            with pytest.raises(ConfigError, match=rf"^{name}\b"):
                build(form)
    build(usable.tolist())


# (field name, build the value with the field set to v, a usable value,
# values past the field's bounds)
VALUE_NUMBERS = {
    "CaoProfile m_max": ("m_max", lambda v: _profile(m_max=v), 5, (5.5, 2)),
    "CaoProfile selected_m": ("selected_m", lambda v: _profile(selected_m=v), 5, (2.5, 1, 6)),
    "CaoProfile lag_t": ("lag_t", lambda v: _profile(lag_t=v), 2, (2.5, 0, -3)),
    "CorrelationCurve n_pairs": (
        "n_pairs",
        lambda v: CorrelationCurve(CURVE.radii, CURVE.c_values, v),
        CURVE.n_pairs,
        (2.5, 0, -5),
    ),
    "D2Estimate n_pairs_in_range": ("n_pairs_in_range", lambda v: _estimate(n_pairs_in_range=v), 0, (2.5, -1)),
    "D2Estimate d2": ("d2", lambda v: _estimate(d2=v), 1.5, ()),
    "D2Estimate fit_range low end": ("fit_range[0]", lambda v: _estimate(fit_range=(v, 2.0)), 0.5, (0.0, -1.0)),
    "D2Estimate fit_range high end": ("fit_range[1]", lambda v: _estimate(fit_range=(1.0, v)), 3.0, (1.0, 0.5)),
}


@pytest.mark.parametrize("site", VALUE_NUMBERS)
def test_value_type_number(site):
    name, build, usable, past_bounds = VALUE_NUMBERS[site]
    for bad in (math.nan, math.inf, -math.inf, "abc", [usable], *past_bounds):
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be "):
            build(bad)
    build(usable)


def test_value_type_ranges():
    with pytest.raises(ConfigError, match=r"^selected_m must be an integer in \[2, 5\], got 6$"):
        _profile(selected_m=6)
    with pytest.raises(ConfigError, match=r"^m_max must be an integer >= 3, got None$"):
        _profile(m_max=None)
    with pytest.raises(ConfigError, match=r"^e2_values must hold m_max - 1 = 4 positive values$"):
        _profile(e2_values=np.ones(5))
    for pair in ((1.0, 2.0, 3.0), (1.0,), 1.0, None):
        with pytest.raises(ConfigError, match=r"^fit_range must be a pair of radii, got "):
            _estimate(fit_range=pair)
    with pytest.raises(ConfigError, match=r"^fit_range\[1\] must be a finite number > 2.0, got 1.0$"):
        _estimate(fit_range=(2.0, 1.0))
    with pytest.raises(ConfigError, match=r"^fit_range\[0\] must be a finite number > 0, got 0.0$"):
        _estimate(fit_range=(0.0, 1.0))
    with pytest.raises(ConfigError, match=r"^probabilities must sum to 1, got 0.7$"):
        DiscreteDistribution([0.7], [0.0, 1.0])
    with pytest.raises(ConfigError, match=r"^probabilities must be non-negative$"):
        DiscreteDistribution([1.5, -0.5], EDGES)


def test_curve_with_a_nan_radius_is_refused():
    # Such a curve once reached correlation_dimension, whose windows over
    # the NaN radius have no finite fit: the D2 of this one came out as
    # 0.8731..., against 0.8108... for the intact curve.
    radii = CURVE.radii.copy()
    radii[12] = math.nan
    with pytest.raises(ConfigError, match=r"^radii must be a 1-d array of finite numbers, got NaN"):
        CorrelationCurve(radii, CURVE.c_values, CURVE.n_pairs)
    assert correlation_dimension(CURVE).d2 == pytest.approx(0.8109, abs=1e-4)
