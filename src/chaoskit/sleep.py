"""Epoching of staged recordings and the per-window index pipeline.

A recording is a scalar signal plus a hypnogram scored in 30 second
epochs. Recordings are cut into non-overlapping 30 s windows (the
trailing partial window is dropped and logged), each window carries its
stage label, and the four indices are computed per window:

1. embedding delay from the first minimum of auto mutual information,
2. temporal exclusion window from the first autocorrelation zero,
3. minimum embedding dimension from the E1 plateau,
4. largest Lyapunov exponent and correlation dimension on the delay
   embedding at that dimension and delay.

Mutual information is evaluated at the selected delay. ``WindowPlan``
holds this sequence, one lazy step at a time, for both the pipeline and
``chaoskit estimate``. Failures are per index and per window: a window
that cannot support one estimator still reports the others, and the
batch never aborts. Every result carries a
fingerprint of the estimator configuration so mixed-config outputs are
detectable.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

from .cao import MIN_M_MAX, CaoProfile, check_scan_settings, minimum_embedding_dimension
from .correlation import MIN_RADII, D2Estimate, check_min_fit_r2, correlation_curve, correlation_dimension
from .errors import ChaosKitError, ConfigError, InputError, ShortSeriesError, check_int
from .information import MIN_LAG_SCAN, MIN_MI_BINS, auto_mutual_information, select_lag_first_minimum
from .lyapunov import (
    MAX_SEPARATION_FRACTION,
    MIN_SEPARATION_FRACTION,
    LyapunovResult,
    WolfParams,
    largest_lyapunov_wolf,
)
from .series import (
    MIN_THEILER_SCAN,
    DelayVectors,
    EmbeddingParams,
    LagResult,
    TimeSeries,
    delay_embed,
    theiler_window,
)

__all__ = [
    "EPOCH_SECONDS",
    "SleepStage",
    "Group",
    "SCORED_STAGES",
    "parse_stage_token",
    "parse_group",
    "Recording",
    "EstimatorConfig",
    "EpochIndices",
    "INDEX_NAMES",
    "samples_per_epoch",
    "epoch_split",
    "compute_epoch_indices",
    "analyze_recordings",
]

logger = logging.getLogger(__name__)

EPOCH_SECONDS = 30
LLE_UNITS = "nats/s"


class SleepStage(Enum):
    WAKE = "Wake"
    REM = "REM"
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    S4 = "S4"
    UNKNOWN = "Unknown"


SCORED_STAGES = (
    SleepStage.WAKE,
    SleepStage.REM,
    SleepStage.S1,
    SleepStage.S2,
    SleepStage.S3,
    SleepStage.S4,
)

_TOKEN_TO_STAGE = {
    "W": SleepStage.WAKE,
    "R": SleepStage.REM,
    "1": SleepStage.S1,
    "2": SleepStage.S2,
    "3": SleepStage.S3,
    "4": SleepStage.S4,
    "?": SleepStage.UNKNOWN,
}
_STAGE_TO_TOKEN = {stage: token for token, stage in _TOKEN_TO_STAGE.items()}


def parse_stage_token(token: str) -> SleepStage:
    """Stage for a hypnogram token; anything unrecognised is Unknown."""
    return _TOKEN_TO_STAGE.get(token.strip(), SleepStage.UNKNOWN)


def stage_token(stage: SleepStage) -> str:
    return _STAGE_TO_TOKEN[stage]


class Group(Enum):
    HEALTHY = "Healthy"
    APNEA = "Apnea"


_GROUPS_BY_SPELLING = {group.value.lower(): group for group in Group}


def parse_group(text: str) -> Group:
    """Group from its manifest spelling; never inferred from anything else.
    Anything but a known spelling, a non-string included, raises InputError."""
    try:
        return _GROUPS_BY_SPELLING[text.strip().lower()]
    except (KeyError, AttributeError):
        raise InputError(f"unknown group {text!r}; expected 'Healthy' or 'Apnea'") from None


def samples_per_epoch(sample_rate_hz: float) -> int:
    """Samples in one 30 s epoch; the rate must make that an integer."""
    exact = sample_rate_hz * EPOCH_SECONDS
    nearest = round(exact)
    if nearest < 1 or abs(exact - nearest) > 1e-6:
        raise ConfigError(
            f"sample rate {sample_rate_hz} Hz does not give an integer number of samples per {EPOCH_SECONDS} s epoch"
        )
    return int(nearest)


@dataclass(frozen=True)
class Recording:
    """One subject's signal plus its epoch-by-epoch stage labels."""

    subject_id: str
    group: Group
    series: TimeSeries
    hypnogram: tuple[SleepStage, ...]

    def __post_init__(self):
        if not self.subject_id:
            raise InputError("subject_id must be non-empty")
        if not isinstance(self.group, Group):
            raise InputError(f"group must be a Group, got {self.group!r}")
        object.__setattr__(self, "hypnogram", tuple(self.hypnogram))
        expected = len(self.series) // samples_per_epoch(self.series.sample_rate_hz)
        if len(self.hypnogram) != expected:
            raise InputError(
                f"hypnogram of {self.subject_id!r} has {len(self.hypnogram)} epochs, "
                f"signal supports {expected}"
            )


class EpochWindow(NamedTuple):
    epoch_index: int
    stage: SleepStage
    window: TimeSeries


def epoch_split(recording: Recording) -> list[EpochWindow]:
    """Non-overlapping 30 s windows with their stage labels.

    A trailing partial window is dropped (and logged at debug level).
    """
    spe = samples_per_epoch(recording.series.sample_rate_hz)
    x = recording.series.samples
    n_full = x.size // spe
    dropped = x.size - n_full * spe
    if dropped:
        logger.debug(
            "dropping %d trailing samples of %s (partial epoch)", dropped, recording.subject_id
        )
    fs = recording.series.sample_rate_hz
    return [
        EpochWindow(k, recording.hypnogram[k], TimeSeries(x[k * spe : (k + 1) * spe], fs))
        for k in range(n_full)
    ]


# The defaults the estimators declare, read once: the fields of WolfParams
# for the walk's knobs, the signatures of the scans and fits for the rest.
_DEFAULTS = {
    name: parameter.default
    for estimator in (select_lag_first_minimum, minimum_embedding_dimension, correlation_curve, correlation_dimension)
    for name, parameter in inspect.signature(estimator).parameters.items()
} | {f.name: f.default for f in fields(WolfParams)}
# The Wolf walk's own knobs, named alike in WolfParams and EstimatorConfig.
_WOLF_KNOBS = ("evolve_steps", "min_separation", "max_separation", "max_replacement_angle")


@dataclass(frozen=True)
class EstimatorConfig:
    """Every estimator knob the pipeline uses, in one hashable place.

    Each field is also a command-line flag: ``--`` and the field name
    with dashes, unless the metadata names a ``flag``; the metadata's
    ``help`` is the flag's help text, and ``--help`` adds the default.
    Each default is read from the estimator it feeds (``_DEFAULTS``),
    but for the two scan caps, which no estimator defaults. A value that
    no window could use is refused here, before any window is read.
    """

    bins: int = field(default=_DEFAULTS["bins"], metadata={"help": "histogram bins for MI"})
    mi_max_lag: int = field(default=50, metadata={"help": "cap for the delay scan, in samples"})
    theiler_max_lag: int = field(default=100, metadata={"help": "cap for the exclusion-window scan, in samples"})
    m_max: int = field(default=_DEFAULTS["m_max"], metadata={"help": "largest dimension in the Cao scan"})
    plateau_tol: float = field(default=_DEFAULTS["plateau_tol"], metadata={"help": "E1 plateau tolerance"})
    e2_tol: float = field(default=_DEFAULTS["e2_tol"], metadata={"help": "|E2-1| threshold for determinism"})
    evolve_steps: int = field(default=_DEFAULTS["evolve_steps"], metadata={"help": "samples per divergence segment"})
    min_separation: float | None = field(
        default=_DEFAULTS["min_separation"],
        metadata={"help": f"neighbour distance floor (default {MIN_SEPARATION_FRACTION!r} x extent)"},
    )
    max_separation: float | None = field(
        default=_DEFAULTS["max_separation"],
        metadata={"help": f"neighbour distance cap (default {MAX_SEPARATION_FRACTION!r} x extent)"},
    )
    max_replacement_angle: float = field(
        default=_DEFAULTS["max_replacement_angle"],
        metadata={"help": "replacement angle cone, radians", "flag": "--max-angle"},
    )
    n_radii: int = field(default=_DEFAULTS["n_radii"], metadata={"help": "radii on the correlation curve"})
    min_fit_r2: float = field(default=_DEFAULTS["min_fit_r2"], metadata={"help": "linearity bar for the D2 fit"})

    def __post_init__(self):
        for name, floor in (
            ("bins", MIN_MI_BINS),
            ("mi_max_lag", MIN_LAG_SCAN),
            ("theiler_max_lag", MIN_THEILER_SCAN),
            ("n_radii", MIN_RADII),
        ):
            object.__setattr__(self, name, check_int(name, getattr(self, name), floor))
        scan = check_scan_settings(self.m_max, self.plateau_tol, self.e2_tol)
        for name, value in zip(("m_max", "plateau_tol", "e2_tol"), scan):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "min_fit_r2", check_min_fit_r2(self.min_fit_r2))
        wolf = self.wolf_params(0)  # WolfParams checks the walk's own fields
        for name in _WOLF_KNOBS:
            object.__setattr__(self, name, getattr(wolf, name))

    def as_dict(self) -> dict:
        return asdict(self)

    def wolf_params(self, theiler_w: int) -> WolfParams:
        """Parameters of the Wolf walk on an embedding with exclusion window ``theiler_w``."""
        return WolfParams(theiler_w=theiler_w, **{name: getattr(self, name) for name in _WOLF_KNOBS})

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON form of the configuration."""
        canonical = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class EpochIndices:
    """All indices of one window, with per-index failure reasons.

    A value of None pairs with an entry in ``failures`` naming the
    index and why it is missing. ``failures`` empty means the window
    produced every index. A record checks each field by the rule of its
    annotation (``_RECORD_RULES``), so any record reads back equal.
    """

    subject_id: str
    group: Group | None
    stage: SleepStage
    epoch_index: int
    sample_rate_hz: float
    lle: float | None = None
    lle_units: str = LLE_UNITS
    mi: float | None = None
    mi_lag: int | None = None
    med: int | None = None
    e1_at_selected: float | None = None
    d2: float | None = None
    theiler_w: int | None = None
    embed_m: int | None = None
    deterministic: bool | None = None
    failures: Mapping[str, str] = field(default_factory=dict)
    config_fingerprint: str = ""

    def __post_init__(self):
        # Plain type tests by kind: report makes a record per line of a
        # night's file. Fields are read with getattr, since reading
        # self.__dict__ would give every record a dict of its own.
        for name, types in _TYPED:
            if type(getattr(self, name)) not in types:
                raise self._refusal(name)
        for name in _INDICES:
            if getattr(self, name) < 0:
                raise self._refusal(name)
        for name in _RATES:
            x = getattr(self, name)
            if not (_is_finite_real(x) and x > 0):
                raise self._refusal(name)
        for name in _REALS:
            x = getattr(self, name)
            if not (x is None or type(x) is float and math.isfinite(x) or _is_finite_real(x)):
                raise self._refusal(name)
        for name in _REASONS:
            x = getattr(self, name)
            if type(x) is not dict and not isinstance(x, Mapping) or x and any(
                type(k) is not str or type(r) is not str for k, r in x.items()
            ):
                raise self._refusal(name)
            object.__setattr__(self, name, dict(x))

    def _refusal(self, name: str) -> ConfigError:
        rule = _RECORD_RULES[self.__dataclass_fields__[name].type][1]
        return ConfigError(f"epoch record field {name!r} must be {rule}, got {getattr(self, name)!r}")

    @property
    def failed(self) -> bool:
        return bool(self.failures)


# The rule of each annotation an EpochIndices field may have: the exact
# types of its value (None where __post_init__ tests the number or the
# mapping itself) and the words of its error. A field with any other
# annotation stops the import here, with a KeyError naming it.
_RECORD_RULES = {
    "str": ((str,), "a string"),
    "int": ((int,), "an integer >= 0"),
    "float": (None, "a finite number > 0"),
    "int | None": ((int, type(None)), "an integer or null"),
    "float | None": (None, "a finite number or null"),
    "bool | None": ((bool, type(None)), "a bool or null"),
    "Mapping[str, str]": (None, "an object of strings"),
    "Group | None": ((Group, type(None)), "a Group or null"),
    "SleepStage": ((SleepStage,), "a SleepStage"),
}
_FIELDS = fields(EpochIndices)
_TYPED = tuple((f.name, _RECORD_RULES[f.type][0]) for f in _FIELDS if _RECORD_RULES[f.type][0])
_INDICES, _RATES, _REALS, _REASONS = (
    tuple(f.name for f in _FIELDS if f.type == kind) for kind in ("int", "float", "float | None", "Mapping[str, str]")
)


def _is_finite_real(value) -> bool:
    """A finite float (numpy's float64 too) or int, not a bool: JSON writes each exactly."""
    try:
        return (type(value) is int or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


INDEX_NAMES = ("lle", "mi", "med", "d2")


class EmbeddingChoice(NamedTuple):
    """Embedding dimension for the trajectory indices and its source.

    ``source`` is ``explicit`` (a fixed ``m``), ``cao-plateau``,
    ``plateau-missing-fallback-m-max`` or ``cao-failed-fallback``.
    ``profile`` is None unless a Cao scan ran; ``med_failure`` says why
    there is no minimum embedding dimension. ``embed_m`` is None when
    the window is too short to embed at all.
    """

    embed_m: int | None
    source: str
    profile: CaoProfile | None
    med_failure: str | None


class WindowPlan:
    """The per-window plan: delay, exclusion window, embedding
    dimension, then the indices on the delay embedding.

    ``compute_epoch_indices`` and ``chaoskit estimate`` both read one
    window through a plan, so the window gets the same numbers from
    either. Each step runs when it is first read and keeps its result; a
    step that cannot run raises its own ``ChaosKitError``, and only the
    steps that need its result fail with it. A fixed ``lag``,
    ``theiler`` or ``m`` takes the place of that step's estimate.

    The estimators are looked up in this module's namespace at call
    time, where a tracer may rebind them.
    """

    def __init__(
        self,
        window: TimeSeries,
        config: EstimatorConfig,
        *,
        lag: int | None = None,
        theiler: int | None = None,
        m: int | None = None,
    ):
        self.window = window
        self.config = config
        # A fixed value fills the step's cache, so the step never runs.
        if lag is not None:
            self.lag = LagResult(lag, False)
        if theiler is not None:
            self.theiler = LagResult(theiler, False)
        if m is not None:
            self.embedding = EmbeddingChoice(m, "explicit", None, None)

    @cached_property
    def lag(self) -> LagResult:
        """Delay at the first AMI minimum, scanned to ``mi_max_lag`` or ``n - 2``."""
        return select_lag_first_minimum(
            self.window, min(self.config.mi_max_lag, len(self.window) - 2), self.config.bins
        )

    @cached_property
    def theiler(self) -> LagResult:
        """Exclusion window, scanned to ``theiler_max_lag`` or ``n - 1``."""
        return theiler_window(self.window, min(self.config.theiler_max_lag, len(self.window) - 1))

    def mi(self) -> float:
        """Auto mutual information at the delay, in bits."""
        return auto_mutual_information(self.window, self.lag.lag, self.config.bins)

    def dimension_scan(self) -> CaoProfile:
        """Cao scan up to ``m_max``, capped at ``(n - 2) // lag`` so every
        dimension keeps two points; a cap below ``MIN_M_MAX`` cannot be
        scanned."""
        n, lag = len(self.window), self.lag.lag
        m_max = min(self.config.m_max, (n - 2) // lag)
        if m_max < MIN_M_MAX:
            raise ShortSeriesError(f"window of {n} samples cannot support a dimension scan at lag {lag}")
        return minimum_embedding_dimension(self.window, lag, m_max, self.config.plateau_tol, self.config.e2_tol)

    @cached_property
    def embedding(self) -> EmbeddingChoice:
        """The Cao plateau dimension; the scanned maximum when E1 never
        plateaus; ``max(2, min(m_max, (n - 1) // lag))`` when the scan fails,
        so the trajectory-based indices are still attempted."""
        lag = self.lag.lag
        try:
            profile = self.dimension_scan()
        except ChaosKitError as exc:
            fallback = (len(self.window) - 1) // lag
            embed_m = max(2, min(self.config.m_max, fallback)) if fallback >= 2 else None
            return EmbeddingChoice(embed_m, "cao-failed-fallback", None, str(exc))
        if profile.selected_m is None:
            return EmbeddingChoice(
                profile.m_max,
                "plateau-missing-fallback-m-max",
                profile,
                "E1 curve never plateaus; no finite embedding dimension",
            )
        return EmbeddingChoice(profile.selected_m, "cao-plateau", profile, None)

    @cached_property
    def vectors(self) -> DelayVectors:
        """The delay embedding at the delay and dimension."""
        m = self.embedding.embed_m
        if m is None:
            raise ShortSeriesError("no embedding dimension available")
        return delay_embed(self.window, EmbeddingParams(m, self.lag.lag))

    def lyapunov(self) -> LyapunovResult:
        """Wolf walk on the embedding, in nats per sample."""
        return largest_lyapunov_wolf(self.vectors, self.config.wolf_params(self.theiler.lag))

    def d2(self) -> D2Estimate:
        """Correlation dimension of the embedding."""
        curve = correlation_curve(self.vectors, self.config.n_radii, self.theiler.lag)
        return correlation_dimension(curve, self.config.min_fit_r2)


def compute_epoch_indices(
    window: TimeSeries,
    config: EstimatorConfig | None = None,
    *,
    subject_id: str = "",
    group: Group | None = None,
    stage: SleepStage = SleepStage.UNKNOWN,
    epoch_index: int = 0,
) -> EpochIndices:
    """Run the full index pipeline on one window, as a :class:`WindowPlan`.

    Per-index errors land in ``failures`` instead of raising. Without a
    delay and an exclusion window nothing downstream can run, so their
    failure fails all four indices.
    """
    if config is None:
        config = EstimatorConfig()
    plan = WindowPlan(window, config)
    epoch = dict(
        subject_id=subject_id,
        group=group,
        stage=stage,
        epoch_index=epoch_index,
        sample_rate_hz=window.sample_rate_hz,
        config_fingerprint=config.fingerprint(),
    )
    try:
        lag, w = plan.lag.lag, plan.theiler.lag
    except ChaosKitError as exc:
        return EpochIndices(**epoch, failures={name: str(exc) for name in INDEX_NAMES})
    failures: dict[str, str] = {}

    def attempt(name, step):
        try:
            return step()
        except ChaosKitError as exc:
            failures[name] = str(exc)
            return None

    mi = attempt("mi", plan.mi)
    choice = plan.embedding
    if choice.med_failure is not None:
        failures["med"] = choice.med_failure
    med = e1_at_selected = deterministic = None
    if choice.profile is not None:
        deterministic = choice.profile.deterministic
        med = choice.profile.selected_m
        if med is not None:
            e1_at_selected = float(choice.profile.e1_values[med - 1])
    lyapunov = attempt("lle", plan.lyapunov)
    d2 = attempt("d2", plan.d2)
    return EpochIndices(
        **epoch,
        lle=None if lyapunov is None else lyapunov.exponent * window.sample_rate_hz,  # nats/s
        mi=mi,
        mi_lag=int(lag),
        med=med,
        e1_at_selected=e1_at_selected,
        d2=None if d2 is None else d2.d2,
        theiler_w=int(w),
        embed_m=choice.embed_m,
        deterministic=deterministic,
        failures=failures,
    )


class _Task(NamedTuple):
    subject_id: str
    group: Group | None
    stage: SleepStage
    epoch_index: int
    window: TimeSeries


def _run_task(task: _Task, config: EstimatorConfig) -> EpochIndices:
    return compute_epoch_indices(
        task.window,
        config,
        subject_id=task.subject_id,
        group=task.group,
        stage=task.stage,
        epoch_index=task.epoch_index,
    )


def analyze_recordings(
    recordings: Sequence[Recording],
    config: EstimatorConfig | None = None,
    jobs: int = 1,
) -> list[EpochIndices]:
    """Compute indices for every 30 s window of every subject.

    Results come back in task order (subjects as given, epochs in time
    order) regardless of ``jobs``, and are identical for any job count.
    """
    if config is None:
        config = EstimatorConfig()
    jobs = check_int("jobs", jobs, 1)

    tasks = [
        _Task(rec.subject_id, rec.group, ew.stage, ew.epoch_index, ew.window)
        for rec in recordings
        for ew in epoch_split(rec)
    ]
    if jobs == 1 or len(tasks) < 2:
        return [_run_task(task, config) for task in tasks]
    # Forked workers inherit what is imported here: scipy.spatial,
    # imported once now, is not imported again by each worker at its
    # first KD-tree (about 0.4 s apiece on a 2-core host).
    import scipy.spatial  # noqa: F401

    # Under fork a pool starts all its workers at the first submit, so
    # it gets no more than there are windows.
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(_run_task, tasks, (config,) * len(tasks), chunksize=1))
