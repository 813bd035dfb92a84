"""Scenario configuration: flat key=value files with strict validation.

The surface is a flat UTF-8 ``key = value`` format. Entity groups use
indexed prefixes (``enb[0].x_m``, ``flow[1].interval_ms``); per-vehicle
settings use ``car[<i>].`` where ``<i>`` is the vehicle's position in enter
order (ties broken by name), and ``car.default.`` supplies the value for
every vehicle without an override; ``config.cars.get(i, config.default_car)``
is vehicle i's settings with the defaults applied. Unknown and duplicate
keys are hard errors: a typo must never silently run the wrong experiment.

Every key is one row of ``KEYS`` (scalar keys) or of an entity's field
table (``ENB_FIELDS``, ``CAR_FIELDS``, ``FLOW_FIELDS``). The rows drive
parsing, ``dump_defaults`` and the key list in README.md. A default is
read from where it lives, a dataclass field default or a module constant,
and is never restated.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from .binder import DEFAULT_NUM_RBS, Direction, check_num_rbs
from .channel import ChannelParams, CqiTables
from .engine import US_PER_MS, US_PER_S
from .errors import ConfigError
from .mobility import AccidentSpec
from .rrc import ASSOCIATION_METRICS, HandoverConfig
from .traffic import FlowSpec

SCHEDULERS = ("rr", "maxcqi")

# Defaults of the top-level keys; the others are dataclass field defaults.
DEFAULT_SIM_END_US = 10 * US_PER_S
MAX_SIM_END_S = 86_400  # one simulated day: finite is not enough, 1e300 s would never end
MAX_TIME_MS = MAX_SIM_END_S * 1000  # the same day, for the _ms keys
MAX_CQI_THRESHOLD_DB = 100.0  # 10**10 in linear, far from float overflow
DEFAULT_SEED = 1
DEFAULT_SCHEDULER = "rr"
DEFAULT_BACKHAUL_DELAY_US = US_PER_MS
DEFAULT_UE_TX_POWER_DBM = 26.0
DEFAULT_ENB_TX_POWER_DBM = 46.0


@dataclass(frozen=True)
class EnbConfig:
    name: str
    x: float
    y: float
    tx_power_dbm: float


@dataclass(frozen=True)
class CarConfig:
    master_id: Optional[int]  # None: no pinned eNB
    tx_power_dbm: float
    accident: Optional[AccidentSpec] = None


@dataclass(frozen=True)
class ScenarioConfig:
    sim_end_us: int
    seed: int
    num_rbs: int
    scheduler: str
    trace_file: Path
    dynamic_cell_association: bool
    association_metric: str
    handover: HandoverConfig
    backhaul_delay_us: int
    channel: ChannelParams
    tables: CqiTables
    default_car: CarConfig
    enbs: tuple[EnbConfig, ...]
    cars: dict[int, CarConfig] = field(default_factory=dict)
    flows: tuple[FlowSpec, ...] = ()


# ----------------------------------------------------------------------
# value parsers: raw text -> value, or ValueError saying what was expected


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expects an integer, got {text!r}") from None


def _float(text: str) -> float:
    """The one finiteness rule: every float key, list item and field uses it."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expects a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expects a finite number, got {text!r}")
    return value


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expects true or false, got {text!r}")
    return text == "true"


def _enb_name(text: str) -> str:
    """A name that fits cells.csv's columns, the ``time:cell;time:cell`` timeline
    and the space-split ``HANDOVER <vehicle> <source>-><target>`` log line."""
    if not text or "->" in text or any(c in ",;:" or c.isspace() for c in text):
        raise ValueError(f"expects a non-empty name without , ; : -> or whitespace, got {text!r}")
    return text


def _choice(*options: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expects one of {', '.join(options)}, got {text!r}")
        return text

    return parse


def _list(item: Callable[[str], Any]) -> Callable[[str], tuple]:
    def parse(text: str) -> tuple:
        return tuple(item(part.strip()) for part in text.split(","))

    return parse


def _non_negative(value: float) -> None:
    if value < 0:
        raise ValueError("must be non-negative")


def _within(low: float, high: float, above: bool = False) -> Callable[[float], None]:
    """A check of low <= value <= high, or of low < value <= high if `above`."""

    def check(value: float) -> None:
        if value > high or (value <= low if above else value < low):
            raise ValueError(
                f"must be above {low} and at most {high}" if above else f"must be in {low}..{high}"
            )

    return check


# Physical ranges: no value inside them overflows or divides by zero in the
# channel, and every value a real LTE deployment uses lies inside them.
_TX_POWER = _within(-50, 100)  # dBm
# Every time key is bounded by one simulated day, so none overflows once
# scaled to microseconds and none postpones an event beyond any run's end.
_SECONDS = _within(0, MAX_SIM_END_S)
_POSITIVE_SECONDS = _within(0, MAX_SIM_END_S, above=True)
_MILLISECONDS = _within(0, MAX_TIME_MS)
_POSITIVE_MILLISECONDS = _within(0, MAX_TIME_MS, above=True)


def _cqi_table(values: tuple) -> None:
    if len(values) != 15:
        raise ValueError(f"must have 15 entries (CQI 1..15), got {len(values)}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("must be strictly ascending")


def _cqi_thresholds(values: tuple) -> None:
    _cqi_table(values)
    if not all(-MAX_CQI_THRESHOLD_DB <= v <= MAX_CQI_THRESHOLD_DB for v in values):
        raise ValueError(f"entries must be in -{MAX_CQI_THRESHOLD_DB:g}..{MAX_CQI_THRESHOLD_DB:g}")


def _bits_table(values: tuple) -> None:
    _cqi_table(values)
    if values[0] <= 0:
        raise ValueError("must be positive")


REQUIRED = object()  # default of a key that must be given


@dataclass(frozen=True)
class Key:
    """One config key: parser, default, unit conversion, range check, doc line.

    `default` is in the unit the program holds. A key with a `scale` (µs per
    config unit, for the ``_s`` and ``_ms`` keys) is held in integer
    microseconds, and its `check` bounds it by one simulated day. A default
    of None leaves the value unset; `example` is what `dump_defaults` writes
    for a key without a default.
    """

    name: str
    parse: Callable[[str], Any]
    default: Any
    doc: str
    scale: Optional[int] = None
    check: Optional[Callable[[Any], None]] = None
    example: Any = None

    def convert(self, text: str, where: str, name: Optional[str] = None) -> Any:
        """Parse, range-check and scale one raw value; `where` prefixes errors."""
        try:
            value = self.parse(text)
        except ValueError as exc:
            raise ConfigError(f"{where}{name or self.name} {exc}") from None
        if self.check is not None:
            try:
                self.check(value)
            except ValueError as exc:
                raise ConfigError(f"{where}{name or self.name} {exc}") from None
        return value if self.scale is None else round(value * self.scale)


SIM_END = Key("sim_end_s", _float, DEFAULT_SIM_END_US,
              f"simulated duration, 0 to {MAX_SIM_END_S} (one day)", US_PER_S, _SECONDS)

KEYS = (
    SIM_END,
    Key("seed", _int, DEFAULT_SEED, "seed of the shadowing draws"),
    Key("num_rbs", _int, DEFAULT_NUM_RBS, "resource blocks per cell and direction, 1 to 110",
        check=check_num_rbs),
    Key("scheduler", _choice(*SCHEDULERS), DEFAULT_SCHEDULER, "rr (round robin) or maxcqi"),
    Key("trace_file", Path, REQUIRED, "mobility trace CSV, relative to the config file",
        example="trace.csv"),
    Key("dynamic_cell_association", _bool, False,
        "attach to the strongest cell, not to the master_id cell"),
    Key("association_metric", _choice(*ASSOCIATION_METRICS), ASSOCIATION_METRICS[0],
        "what strongest means: rx_power, or mean DL sinr"),
    Key("enable_handover", _bool, HandoverConfig.enabled,
        "A3 handover with hysteresis and time-to-trigger"),
    Key("handover.hysteresis_db", _float, HandoverConfig.hysteresis_db,
        "margin by which a neighbour must beat the serving cell, at least 0",
        check=_non_negative),
    Key("handover.time_to_trigger_ms", _float, HandoverConfig.time_to_trigger_us,
        f"how long the margin must hold before a handover, 0 to {MAX_TIME_MS}", US_PER_MS,
        _MILLISECONDS),
    Key("backhaul.delay_ms", _float, DEFAULT_BACKHAUL_DELAY_US,
        f"one-way core network delay, 0 to {MAX_TIME_MS}", US_PER_MS, _MILLISECONDS),
    Key("channel.pathloss_a_db", _float, ChannelParams.pathloss_a_db,
        "path loss at 1 km, 0 to 300", check=_within(0, 300)),
    Key("channel.pathloss_b_db", _float, ChannelParams.pathloss_b_db,
        "path loss per decade of distance, above 0 and at most 100",
        check=_within(0, 100, above=True)),
    Key("channel.min_distance_m", _float, ChannelParams.min_distance_m,
        "minimum coupling distance of the path loss model, 1 to 100000",
        check=_within(1, 100_000)),
    Key("channel.noise_figure_db", _float, ChannelParams.noise_figure_db,
        "receiver noise figure, 0 to 50", check=_within(0, 50)),
    Key("channel.rb_bandwidth_hz", _float, ChannelParams.rb_bandwidth_hz,
        "bandwidth of one RB, 1000 to 20000000", check=_within(1_000, 20_000_000)),
    Key("channel.shadowing", _bool, ChannelParams.shadowing_enabled,
        "log-normal shadowing, one draw per vehicle-eNB pair, made when the vehicle attaches"),
    Key("channel.shadowing_sigma_db", _float, ChannelParams.shadowing_sigma_db,
        "standard deviation of shadowing, 0 to 30", check=_within(0, 30)),
    Key("channel.cqi_thresholds_db", _list(_float), CqiTables.sinr_thresholds_db,
        "mean SINR needed for CQI 1..15, ascending, each in -100..100",
        check=_cqi_thresholds),
    Key("channel.bits_per_rb", _list(_int), CqiTables.bits_per_rb,
        "bits one RB carries at CQI 1..15, ascending, above 0", check=_bits_table),
    Key("channel.ue_tx_power_dbm", _float, DEFAULT_UE_TX_POWER_DBM,
        "UE transmit power, -50 to 100", check=_TX_POWER),
    Key("channel.enb_tx_power_dbm", _float, DEFAULT_ENB_TX_POWER_DBM,
        "eNB transmit power, -50 to 100", check=_TX_POWER),
    Key("car.default.master_id", _int, None,
        "eNB index vehicles attach to while dynamic_cell_association is false", example=0),
    Key("car.default.tx_power_dbm", _float, None,
        "UE transmit power of every vehicle, -50 to 100; unset means channel.ue_tx_power_dbm",
        check=_TX_POWER, example=DEFAULT_UE_TX_POWER_DBM),
)

ENB_FIELDS = (
    Key("name", _enb_name, None,
        "unique non-empty name without , ; : -> or whitespace; unset means enb0, enb1, ...",
        example="enb0"),
    Key("x_m", _float, REQUIRED, "position", example=0.0),
    Key("y_m", _float, REQUIRED, "position", example=0.0),
    Key("tx_power_dbm", _float, None,
        "transmit power, -50 to 100; unset means channel.enb_tx_power_dbm",
        check=_TX_POWER, example=DEFAULT_ENB_TX_POWER_DBM),
)

CAR_FIELDS = (
    Key("master_id", _int, None, "overrides car.default.master_id"),
    Key("tx_power_dbm", _float, None, "overrides car.default.tx_power_dbm, -50 to 100",
        check=_TX_POWER),
    Key("accident.count", _int, None, "1 stops the vehicle once on its route, 0 never"),
    Key("accident.start_s", _float, None,
        f"stop begins this long after departure, 0 to {MAX_SIM_END_S}", US_PER_S, _SECONDS),
    Key("accident.duration_s", _float, None,
        f"how long the vehicle stands still, above 0 and at most {MAX_SIM_END_S}", US_PER_S,
        _POSITIVE_SECONDS),
)

FLOW_FIELDS = (
    Key("direction", _choice("dl", "ul"), REQUIRED, "dl (server to vehicle) or ul"),
    Key("target", str, REQUIRED, "vehicle name, or ALL for one flow per vehicle"),
    Key("packet_bits", _int, REQUIRED, "packet size"),
    Key("interval_ms", _float, REQUIRED,
        f"time between packets, above 0 and at most {MAX_TIME_MS}", US_PER_MS,
        _POSITIVE_MILLISECONDS),
    Key("start_s", _float, REQUIRED, f"first packet, 0 to {MAX_SIM_END_S}", US_PER_S, _SECONDS),
    Key("stop_s", _float, REQUIRED, f"no packet after this, 0 to {MAX_SIM_END_S}", US_PER_S,
        _SECONDS),
)


class _RawConfig:
    """Raw key/value pairs with line numbers and used-key tracking."""

    def __init__(self, text: str) -> None:
        self.pairs: dict[str, tuple[str, int]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#") or stripped.startswith(";"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ConfigError(f"line {lineno}: empty key")
            if key in self.pairs:
                raise ConfigError(
                    f"line {lineno}: duplicate key {key!r} "
                    f"(first set on line {self.pairs[key][1]})"
                )
            self.pairs[key] = (value, lineno)
        self._used: set[str] = set()

    def value(self, key: Key) -> Any:
        """The converted value of a scalar key, or its default."""
        if key.name not in self.pairs:
            if key.default is REQUIRED:
                raise ConfigError(f"missing required key {key.name}")
            return key.default
        self._used.add(key.name)
        text, lineno = self.pairs[key.name]
        return key.convert(text, f"line {lineno}: ")

    def group(self, prefix: str, fields: tuple[Key, ...]) -> dict[int, dict[str, Any]]:
        """Convert every ``prefix[i].<field>`` line into {i: {field: value}}.

        Fields that are not given stay absent; a missing REQUIRED one is an
        error.
        """
        by_name = {key.name: key for key in fields}
        names = "|".join(re.escape(name) for name in by_name)
        pattern = re.compile(rf"{prefix}\[(\d+)\]\.({names})")
        groups: dict[int, dict[str, Any]] = {}
        for key, (text, lineno) in self.pairs.items():
            m = pattern.fullmatch(key)
            if m:
                self._used.add(key)
                value = by_name[m.group(2)].convert(text, f"line {lineno}: ", key)
                groups.setdefault(int(m.group(1)), {})[m.group(2)] = value
        for i, entry in sorted(groups.items()):
            for f in fields:
                if f.default is REQUIRED and f.name not in entry:
                    raise ConfigError(f"missing required key {prefix}[{i}].{f.name}")
        return groups

    def reject_unused(self) -> None:
        unused = [(ln, k) for k, (_, ln) in self.pairs.items() if k not in self._used]
        if unused:
            ln, key = min(unused)
            raise ConfigError(f"line {ln}: unknown key {key!r}")


def _contiguous(groups: dict[int, dict[str, Any]], what: str) -> list[tuple[int, dict]]:
    ordered = sorted(groups)
    if ordered != list(range(len(ordered))):
        raise ConfigError(f"{what} indices must be contiguous from 0, got {ordered}")
    return sorted(groups.items())


def _check_master(master: Optional[int], n_enbs: int, key: str) -> None:
    if master is not None and not 0 <= master < n_enbs:
        raise ConfigError(f"{key} = {master} does not reference a declared enb")


def _enbs(raw: _RawConfig, default_power: float) -> tuple[EnbConfig, ...]:
    groups = raw.group("enb", ENB_FIELDS)
    if not groups:
        raise ConfigError("missing required key: at least one enb[<i>].x_m/y_m block")
    enbs = tuple(
        EnbConfig(
            name=entry.get("name", f"enb{i}"),
            x=entry["x_m"],
            y=entry["y_m"],
            tx_power_dbm=entry.get("tx_power_dbm", default_power),
        )
        for i, entry in _contiguous(groups, "enb")
    )
    names = [e.name for e in enbs]
    if len(set(names)) != len(names):
        raise ConfigError(f"enb names must be unique, got {names}")
    return enbs


def _accident(entry: dict[str, Any], i: int) -> Optional[AccidentSpec]:
    count = entry.get("accident.count")
    if count is None:
        if any(k.startswith("accident.") for k in entry):
            raise ConfigError(f"car[{i}]: accident.start_s/duration_s need accident.count")
        return None
    if count == 0:
        return None
    if count != 1:
        raise ConfigError(f"car[{i}]: accident.count must be 0 or 1, got {count}")
    for required in ("accident.start_s", "accident.duration_s"):
        if required not in entry:
            raise ConfigError(f"missing required key car[{i}].{required}")
    try:
        return AccidentSpec(entry["accident.start_s"], entry["accident.duration_s"])
    except ValueError as exc:
        raise ConfigError(f"car[{i}]: {exc}") from None


def _cars(raw: _RawConfig, n_enbs: int, default: CarConfig) -> dict[int, CarConfig]:
    cars = {}
    for i, entry in sorted(raw.group("car", CAR_FIELDS).items()):
        _check_master(entry.get("master_id"), n_enbs, f"car[{i}].master_id")
        cars[i] = CarConfig(
            master_id=entry.get("master_id", default.master_id),
            tx_power_dbm=entry.get("tx_power_dbm", default.tx_power_dbm),
            accident=_accident(entry, i),
        )
    return cars


def _flows(raw: _RawConfig) -> tuple[FlowSpec, ...]:
    flows = []
    for i, entry in _contiguous(raw.group("flow", FLOW_FIELDS), "flow"):
        try:
            flows.append(
                FlowSpec(
                    name=f"flow{i}",
                    direction=Direction[entry["direction"].upper()],
                    target=entry["target"],
                    packet_bits=entry["packet_bits"],
                    interval_us=entry["interval_ms"],
                    start_us=entry["start_s"],
                    stop_us=entry["stop_s"],
                )
            )
        except ValueError as exc:
            raise ConfigError(f"flow[{i}]: {exc}") from None
    return tuple(flows)


def parse_config_text(text: str, base_dir: Path) -> ScenarioConfig:
    raw = _RawConfig(text)
    v = {key.name: raw.value(key) for key in KEYS}

    trace_file = base_dir / v["trace_file"]
    if not trace_file.is_file():
        raise ConfigError(f"trace_file {trace_file} does not exist")

    enbs = _enbs(raw, v["channel.enb_tx_power_dbm"])
    _check_master(v["car.default.master_id"], len(enbs), "car.default.master_id")
    car_power = v["car.default.tx_power_dbm"]
    default_car = CarConfig(
        master_id=v["car.default.master_id"],
        tx_power_dbm=v["channel.ue_tx_power_dbm"] if car_power is None else car_power,
    )
    cars = _cars(raw, len(enbs), default_car)
    flows = _flows(raw)
    raw.reject_unused()

    return ScenarioConfig(
        sim_end_us=v["sim_end_s"],
        seed=v["seed"],
        num_rbs=v["num_rbs"],
        scheduler=v["scheduler"],
        trace_file=trace_file,
        dynamic_cell_association=v["dynamic_cell_association"],
        association_metric=v["association_metric"],
        handover=HandoverConfig(
            enabled=v["enable_handover"],
            hysteresis_db=v["handover.hysteresis_db"],
            time_to_trigger_us=v["handover.time_to_trigger_ms"],
        ),
        backhaul_delay_us=v["backhaul.delay_ms"],
        channel=ChannelParams(
            pathloss_a_db=v["channel.pathloss_a_db"],
            pathloss_b_db=v["channel.pathloss_b_db"],
            min_distance_m=v["channel.min_distance_m"],
            noise_figure_db=v["channel.noise_figure_db"],
            rb_bandwidth_hz=v["channel.rb_bandwidth_hz"],
            shadowing_enabled=v["channel.shadowing"],
            shadowing_sigma_db=v["channel.shadowing_sigma_db"],
        ),
        tables=CqiTables(
            sinr_thresholds_db=v["channel.cqi_thresholds_db"],
            bits_per_rb=v["channel.bits_per_rb"],
        ),
        default_car=default_car,
        enbs=enbs,
        cars=cars,
        flows=flows,
    )


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, path.parent)


def format_value(value: Any) -> str:
    """A value spelled the way the config parsers read it back."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(format_value(item) for item in value)
    return str(value)


def dump_defaults() -> str:
    """Config text that sets every key in ``KEYS``, plus one example eNB.

    Keys without a default get their example value. Loading the text with
    a trace.csv next to it resolves to the defaults, with one eNB at the
    origin that every vehicle is pinned to.
    """
    lines = ["# vcellsim scenario defaults"]
    for key in KEYS:
        value = key.example if key.default is None or key.default is REQUIRED else key.default
        if key.scale is not None:
            value /= key.scale
        lines += [f"# {key.doc}", f"{key.name} = {format_value(value)}"]
    lines.append("# one example eNB")
    lines += [f"enb[0].{key.name} = {format_value(key.example)}" for key in ENB_FIELDS]
    return "\n".join(lines) + "\n"
