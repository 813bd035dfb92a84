import re
from pathlib import Path

import pytest

from vcellsim.binder import Direction
from vcellsim.channel import CQI_BITS_PER_RB, CQI_SINR_THRESHOLDS_DB
from vcellsim.config import (
    CAR_FIELDS,
    CarConfig,
    ENB_FIELDS,
    FLOW_FIELDS,
    KEYS,
    MAX_SIM_END_S,
    REQUIRED,
    dump_defaults,
    format_value,
    load_config,
)
from vcellsim.engine import US_PER_S, ms_to_us, s_to_us
from vcellsim.errors import ConfigError
from vcellsim.mobility import AccidentSpec

from conftest import ONE_CELL, TWO_CELLS, build_config, make_trace, write_scenario

MINIMAL_TRACE = make_trace([(0, "car0", 10, 0), (5, "car0", 100, 0)])


def _load(tmp_path, text, trace=MINIMAL_TRACE):
    return load_config(write_scenario(tmp_path, text, trace))


def test_paper_style_flags_enable_dynamic_and_handover(tmp_path):
    config = _load(
        tmp_path,
        build_config(
            "trace_file = trace.csv",
            "dynamic_cell_association = true",
            "enable_handover = true",
            TWO_CELLS,
        ),
    )
    assert config.dynamic_cell_association is True
    assert config.handover.enabled is True


@pytest.mark.parametrize("count", [0, 1, 2])
def test_car0_accident_keys(tmp_path, count):
    text = build_config(
        "trace_file = trace.csv",
        "dynamic_cell_association = true",
        ONE_CELL,
        f"car[0].accident.count = {count}",
        "car[0].accident.start_s = 20",
        "car[0].accident.duration_s = 30",
    )
    if count == 2:
        with pytest.raises(ConfigError, match=re.escape("car[0]")):
            _load(tmp_path, text)
        return
    accident = _load(tmp_path, text).cars[0].accident
    if count == 0:
        assert accident is None
    else:
        assert accident == AccidentSpec(start_us=s_to_us(20), duration_us=s_to_us(30))


def test_car_settings_arrive_with_defaults_applied(tmp_path):
    base = build_config("trace_file = trace.csv", TWO_CELLS)
    config = _load(tmp_path, base + "channel.ue_tx_power_dbm = 23\ncar[1].master_id = 1\n")
    assert config.default_car == CarConfig(master_id=None, tx_power_dbm=23.0)
    assert config.cars == {1: CarConfig(master_id=1, tx_power_dbm=23.0)}

    config = _load(
        tmp_path,
        base
        + "car.default.master_id = 0\ncar.default.tx_power_dbm = 20\n"
        + "car[0].tx_power_dbm = 10\ncar[2].master_id = 1\n",
    )
    assert config.default_car == CarConfig(master_id=0, tx_power_dbm=20.0)
    assert config.cars == {
        0: CarConfig(master_id=0, tx_power_dbm=10.0),
        2: CarConfig(master_id=1, tx_power_dbm=20.0),
    }


def test_handover_defaults_applied_when_omitted(tmp_path):
    config = _load(
        tmp_path,
        build_config("trace_file = trace.csv", "dynamic_cell_association = true", ONE_CELL),
    )
    assert config.handover.enabled is False
    assert config.handover.hysteresis_db == 3.0
    assert config.handover.time_to_trigger_us == ms_to_us(256)
    assert config.num_rbs == 50
    assert config.scheduler == "rr"
    assert config.channel.pathloss_a_db == 128.1
    assert config.tables.sinr_thresholds_db == CQI_SINR_THRESHOLDS_DB
    assert config.tables.bits_per_rb == CQI_BITS_PER_RB


def test_unknown_key_is_a_hard_error(tmp_path):
    text = build_config(
        "trace_file = trace.csv",
        "dynamic_cell_association = true",
        ONE_CELL,
        "dynamc_cell_association = true",  # typo must not run silently
    )
    with pytest.raises(ConfigError, match="unknown key"):
        _load(tmp_path, text)


def test_unknown_enb_field_is_a_hard_error(tmp_path):
    text = build_config(
        "trace_file = trace.csv",
        "dynamic_cell_association = true",
        ONE_CELL,
        "enb[0].power = 46",
    )
    with pytest.raises(ConfigError, match="unknown key"):
        _load(tmp_path, text)


def test_missing_trace_file_key(tmp_path):
    with pytest.raises(ConfigError, match="trace_file"):
        _load(tmp_path, build_config("dynamic_cell_association = true", ONE_CELL))


def test_nonexistent_trace_file(tmp_path):
    text = build_config(
        "trace_file = missing.csv", "dynamic_cell_association = true", ONE_CELL
    )
    (tmp_path / "scenario.ini").write_text(text)
    with pytest.raises(ConfigError, match="missing.csv"):
        load_config(tmp_path / "scenario.ini")


def test_missing_enb_block(tmp_path):
    with pytest.raises(ConfigError, match="enb"):
        _load(tmp_path, build_config("trace_file = trace.csv", "dynamic_cell_association = true"))


def test_type_mismatch_reports_line_number(tmp_path):
    text = "trace_file = trace.csv\nseed = banana\n" + ONE_CELL + "dynamic_cell_association = true\n"
    with pytest.raises(ConfigError, match="line 2"):
        _load(tmp_path, text)


def test_duplicate_key_rejected(tmp_path):
    text = build_config(
        "trace_file = trace.csv",
        "seed = 1",
        "seed = 2",
        "dynamic_cell_association = true",
        ONE_CELL,
    )
    with pytest.raises(ConfigError, match="duplicate"):
        _load(tmp_path, text)


def test_boolean_values_are_strict(tmp_path):
    text = build_config("trace_file = trace.csv", "dynamic_cell_association = yes", ONE_CELL)
    with pytest.raises(ConfigError, match="true or false"):
        _load(tmp_path, text)


def test_association_metric_default_and_validation(tmp_path):
    config = _load(
        tmp_path,
        build_config("trace_file = trace.csv", "dynamic_cell_association = true", ONE_CELL),
    )
    assert config.association_metric == "rx_power"
    config = _load(
        tmp_path,
        build_config(
            "trace_file = trace.csv",
            "dynamic_cell_association = true",
            "association_metric = sinr",
            ONE_CELL,
        ),
    )
    assert config.association_metric == "sinr"
    with pytest.raises(ConfigError, match="association_metric"):
        _load(
            tmp_path,
            build_config(
                "trace_file = trace.csv",
                "dynamic_cell_association = true",
                "association_metric = rsrq",
                ONE_CELL,
            ),
        )


def test_master_id_must_reference_declared_enb(tmp_path):
    text = build_config("trace_file = trace.csv", "car.default.master_id = 5", ONE_CELL)
    with pytest.raises(ConfigError, match="master_id"):
        _load(tmp_path, text)


def test_flow_block_must_be_complete(tmp_path):
    text = build_config(
        "trace_file = trace.csv",
        "dynamic_cell_association = true",
        ONE_CELL,
        "flow[0].direction = dl",
        "flow[0].target = car0",
    )
    with pytest.raises(ConfigError, match="flow\\[0\\]"):
        _load(tmp_path, text)


def test_flow_parsing(tmp_path):
    config = _load(
        tmp_path,
        build_config(
            "trace_file = trace.csv",
            "dynamic_cell_association = true",
            ONE_CELL,
            "flow[0].direction = ul",
            "flow[0].target = ALL",
            "flow[0].packet_bits = 8000",
            "flow[0].interval_ms = 12.5",
            "flow[0].start_s = 1",
            "flow[0].stop_s = 4",
        ),
    )
    (flow,) = config.flows
    assert flow.direction == Direction.UL
    assert flow.target == "ALL"
    assert flow.interval_us == ms_to_us(12.5)
    assert flow.start_us == s_to_us(1)


def test_enb_indices_must_be_contiguous(tmp_path):
    text = build_config(
        "trace_file = trace.csv",
        "dynamic_cell_association = true",
        "enb[0].x_m = 0\nenb[0].y_m = 0",
        "enb[2].x_m = 10\nenb[2].y_m = 0",
    )
    with pytest.raises(ConfigError, match="contiguous"):
        _load(tmp_path, text)


def test_enb_names_default_and_unique(tmp_path):
    config = _load(
        tmp_path,
        build_config(
            "trace_file = trace.csv",
            "dynamic_cell_association = true",
            "enb[0].x_m = 0\nenb[0].y_m = 0",
            "enb[1].x_m = 100\nenb[1].y_m = 0",
        ),
    )
    assert [e.name for e in config.enbs] == ["enb0", "enb1"]
    text = build_config(
        "trace_file = trace.csv",
        "dynamic_cell_association = true",
        "enb[0].name = same\nenb[0].x_m = 0\nenb[0].y_m = 0",
        "enb[1].name = same\nenb[1].x_m = 100\nenb[1].y_m = 0",
    )
    with pytest.raises(ConfigError, match="unique"):
        _load(tmp_path, text)


def test_comments_and_blank_lines_ignored(tmp_path):
    text = (
        "# comment\n; another comment\n\ntrace_file = trace.csv\n"
        "dynamic_cell_association = true\n" + ONE_CELL
    )
    config = _load(tmp_path, text)
    assert config.trace_file.name == "trace.csv"


def test_dumped_defaults_round_trip(tmp_path):
    (tmp_path / "trace.csv").write_text(MINIMAL_TRACE)
    path = tmp_path / "defaults.ini"
    path.write_text(dump_defaults())
    config = load_config(path)
    assert config.sim_end_us == s_to_us(10)
    assert config.seed == 1
    assert config.num_rbs == 50
    assert config.scheduler == "rr"
    assert config.dynamic_cell_association is False
    assert config.association_metric == "rx_power"
    assert config.default_car.master_id == 0
    assert config.handover.enabled is False
    assert config.handover.hysteresis_db == 3.0
    assert config.handover.time_to_trigger_us == ms_to_us(256)
    assert config.backhaul_delay_us == ms_to_us(1)
    assert config.channel.pathloss_a_db == 128.1
    assert config.channel.pathloss_b_db == 37.6
    assert config.channel.min_distance_m == 35.0
    assert config.channel.noise_figure_db == 9.0
    assert config.channel.rb_bandwidth_hz == 180e3
    assert config.channel.shadowing_enabled is False
    assert config.channel.shadowing_sigma_db == 8.0
    assert config.tables.sinr_thresholds_db == CQI_SINR_THRESHOLDS_DB
    assert config.tables.bits_per_rb == CQI_BITS_PER_RB
    assert config.default_car.tx_power_dbm == 26.0
    assert len(config.enbs) == 1
    assert config.enbs[0].tx_power_dbm == 46.0
    # loading the dump twice resolves identically
    assert load_config(path) == config


def test_dump_defaults_sets_every_key_once():
    lines = [ln for ln in dump_defaults().splitlines() if ln and not ln.startswith("#")]
    set_keys = [ln.partition(" = ")[0] for ln in lines]
    for key in KEYS:
        assert set_keys.count(key.name) == 1, key.name


README = Path(__file__).resolve().parents[1] / "README.md"
UNITS = {"s": "s", "ms": "ms", "m": "m", "db": "dB", "dbm": "dBm", "hz": "Hz", "bits": "bits"}


def readme_row(name, key):
    """The README table row that documents one key of the config key table."""
    if key.default is REQUIRED:
        default = "required"
    elif key.default is None:
        default = "unset"
    else:
        value = key.default if key.scale is None else key.default / key.scale
        default = f"`{format_value(value)}`"
    unit = UNITS.get(name.rpartition("_")[2], "")
    return f"| `{name}` | {default} | {unit} | {key.doc} |"


def test_readme_documents_every_key():
    rows = [readme_row(key.name, key) for key in KEYS] + [
        readme_row(f"{prefix}[<i>].{key.name}", key)
        for prefix, fields in (("enb", ENB_FIELDS), ("car", CAR_FIELDS), ("flow", FLOW_FIELDS))
        for key in fields
    ]
    text = README.read_text(encoding="utf-8")
    missing = [row for row in rows if row not in text]
    assert not missing, "README.md lacks these key rows:\n" + "\n".join(missing)


def test_every_time_key_is_bounded_by_one_simulated_day():
    # a scaled value is rounded to microseconds unchecked, so each time key
    # needs its own range
    fields = [k for table in (KEYS, ENB_FIELDS, CAR_FIELDS, FLOW_FIELDS) for k in table]
    time_keys = [k for k in fields if k.scale is not None]
    assert {k.name for k in time_keys} >= {"sim_end_s", "backhaul.delay_ms", "stop_s"}
    for key in time_keys:
        day = MAX_SIM_END_S * US_PER_S // key.scale
        assert key.convert(str(day), "") == MAX_SIM_END_S * US_PER_S
        with pytest.raises(ConfigError, match=re.escape(key.name)):
            key.convert(str(day + 1), "")
