import pytest

from vcellsim.cli import main
from vcellsim.config import CAR_FIELDS, ENB_FIELDS, FLOW_FIELDS, KEYS, load_config

from conftest import ONE_CELL, bench_generate, build_config, make_trace, write_scenario

TRACE = make_trace([(0, "car0", 100, 0), (0.5, "car0", 150, 0)])

CONFIG = build_config(
    "sim_end_s = 0.2",
    "trace_file = trace.csv",
    "dynamic_cell_association = true",
    ONE_CELL,
    "flow[0].direction = dl",
    "flow[0].target = car0",
    "flow[0].packet_bits = 2000",
    "flow[0].interval_ms = 20",
    "flow[0].start_s = 0",
    "flow[0].stop_s = 0.2",
)


def test_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    config = write_scenario(tmp_path, CONFIG, TRACE)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "vehicles.csv").is_file()
    assert (out / "cells.csv").is_file()
    assert (out / "run.csv").is_file()
    assert (out / "events.log").is_file()
    assert "car0" in (out / "vehicles.csv").read_text()
    assert "1 vehicles" in capsys.readouterr().out


def test_config_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("sim_end_s = 1.0\n")  # no trace, no enb
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_key_exits_two(tmp_path, capsys):
    config = write_scenario(tmp_path, CONFIG + "bogus_key = 1\n", TRACE)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2


def test_runtime_error_exits_three(tmp_path, capsys):
    # trace exists at load time but is malformed when the run parses it
    config = write_scenario(tmp_path, CONFIG, "time_s,vehicle,x_m,y_m\nbroken row\n")
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "runtime error" in err
    assert f"{tmp_path / 'trace.csv'}: line 2:" in err


def test_non_utf8_trace_exits_three_naming_file_and_line(tmp_path, capsys):
    config = write_scenario(tmp_path, CONFIG, TRACE)
    (tmp_path / "trace.csv").write_bytes(TRACE.encode() + b"0.7,car0,\xff,0\n")
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert f"{tmp_path / 'trace.csv'}: line 4: trace is not valid UTF-8" in err
    assert "Traceback" not in err


def test_validate_ok(tmp_path, capsys):
    config = write_scenario(tmp_path, CONFIG, TRACE)
    assert main(["validate", "--config", str(config)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("nonsense = true\n")
    assert main(["validate", "--config", str(bad)]) == 2


# Set-up errors that only reading the trace reveals: (config, trace, exit
# code, text the error line must contain).
SETUP_ERRORS = {
    "unknown flow target": (
        CONFIG.replace("flow[0].target = car0", "flow[0].target = ghost"), TRACE, 2, "'ghost'"
    ),
    "car beyond the roster": (CONFIG + "car[1].tx_power_dbm = 20\n", TRACE, 2, "car[1]"),
    "manual association without master_id": (
        CONFIG.replace("dynamic_cell_association = true", "dynamic_cell_association = false"),
        TRACE,
        2,
        "no master_id",
    ),
    "vehicle named like an enb": (
        CONFIG.replace("car0", "enb0"), TRACE.replace("car0", "enb0"), 2, "name of an eNB"
    ),
    "malformed trace row": (CONFIG, TRACE + "broken row\n", 3, "trace.csv: line 4:"),
}


@pytest.mark.parametrize("case", sorted(SETUP_ERRORS))
def test_validate_exits_as_run_does(tmp_path, capsys, case):
    text, trace, code, needle = SETUP_ERRORS[case]
    config = write_scenario(tmp_path, text, trace)
    results = []
    for command in (["validate"], ["run", "--out", str(tmp_path / "o")]):
        exit_code = main([*command, "--config", str(config)])
        out, err = capsys.readouterr()
        assert "OK" not in out
        results.append((exit_code, err))
    assert results[0] == results[1]
    exit_code, err = results[0]
    assert exit_code == code
    assert "Traceback" not in err
    lines = err.splitlines()
    prefix = "config error: " if code == 2 else "runtime error: "
    assert len(lines) == 1 and lines[0].startswith(prefix) and needle in lines[0], err


@pytest.mark.parametrize("workload", sorted(bench_generate().WORKLOADS))
def test_validate_accepts_the_bench_workloads(tmp_path, capsys, workload):
    ini = bench_generate().generate(workload, 1, tmp_path)
    assert main(["validate", "--config", str(ini)]) == 0
    assert capsys.readouterr().out == f"{ini}: OK\n"


def test_dump_defaults_is_loadable(tmp_path, capsys):
    assert main(["dump-defaults"]) == 0
    text = capsys.readouterr().out
    (tmp_path / "trace.csv").write_text(TRACE)
    (tmp_path / "defaults.ini").write_text(text)
    config = load_config(tmp_path / "defaults.ini")
    assert config.seed == 1


def test_seed_and_until_overrides(tmp_path, capsys):
    config = write_scenario(tmp_path, CONFIG, TRACE)
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(config), "--out", str(out), "--seed", "42", "--until", "0.1"]
    )
    assert code == 0
    run_row = (out / "run.csv").read_text().splitlines()[1]
    assert run_row.startswith("42,0.100,")


def test_jobs_runs_one_directory_per_seed(tmp_path):
    config = write_scenario(tmp_path, CONFIG, TRACE)
    out = tmp_path / "sweep"
    code = main(
        ["run", "--config", str(config), "--out", str(out), "--seed", "7", "--jobs", "2"]
    )
    assert code == 0
    assert (out / "seed-7" / "vehicles.csv").is_file()
    assert (out / "seed-8" / "vehicles.csv").is_file()
    assert (out / "seed-7" / "run.csv").read_text().splitlines()[1].startswith("7,")
    assert (out / "seed-8" / "run.csv").read_text().splitlines()[1].startswith("8,")


def _assert_config_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), err
    return err


def test_negative_flow_start_is_a_config_error(tmp_path, capsys):
    text = CONFIG.replace("flow[0].start_s = 0\n", "flow[0].start_s = -1\n")
    assert text != CONFIG
    config = write_scenario(tmp_path, text, TRACE)
    err = _assert_config_error(main(["validate", "--config", str(config)]), capsys)
    assert "flow[0]" in err
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert "flow[0]" in _assert_config_error(code, capsys)


@pytest.mark.parametrize("until", ["inf", "nan", "-1", "1e300"])
def test_bad_until_exits_two(tmp_path, capsys, until):
    config = write_scenario(tmp_path, CONFIG, TRACE)
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "o"), "--until", until])
    _assert_config_error(code, capsys)


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exits_two(tmp_path, capsys, jobs):
    config = write_scenario(tmp_path, CONFIG, TRACE)
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "o"), "--jobs", jobs])
    _assert_config_error(code, capsys)
    assert not (tmp_path / "o").exists()


# A valid config that sets every indexed field once, so that any one of
# them can be replaced by a bad value.
BASE = {
    "trace_file": "trace.csv",
    "dynamic_cell_association": "true",
    "enb[0].x_m": "0",
    "enb[0].y_m": "0",
    "enb[0].tx_power_dbm": "46",
    "car[0].tx_power_dbm": "20",
    "car[0].accident.count": "1",
    "car[0].accident.start_s": "0.1",
    "car[0].accident.duration_s": "0.1",
    "flow[0].direction": "dl",
    "flow[0].target": "car0",
    "flow[0].packet_bits": "1000",
    "flow[0].interval_ms": "20",
    "flow[0].start_s": "0",
    "flow[0].stop_s": "0.2",
}


def _is_float_key(key):
    try:
        value = key.parse("0.5")
    except ValueError:
        return False
    return isinstance(value, float) or isinstance(value, tuple) and isinstance(value[0], float)


FLOAT_KEYS = [k.name for k in KEYS if _is_float_key(k)] + [
    f"{prefix}[0].{k.name}"
    for prefix, fields in (("enb", ENB_FIELDS), ("car", CAR_FIELDS), ("flow", FLOW_FIELDS))
    for k in fields
    if _is_float_key(k)
]
BAD_VALUES = [(key, bad) for key in FLOAT_KEYS for bad in ("nan", "inf", "-inf")] + [
    ("num_rbs", "0"),
    ("num_rbs", "111"),
    ("channel.shadowing_sigma_db", "-1"),
    ("channel.pathloss_b_db", "0"),
    ("channel.min_distance_m", "0"),
    ("channel.rb_bandwidth_hz", "0"),
    ("backhaul.delay_ms", "-1"),
    ("handover.hysteresis_db", "-1"),
    ("handover.time_to_trigger_ms", "-1"),
    ("sim_end_s", "1e300"),  # finite, but a run that would not end
    ("channel.cqi_thresholds_db", "1, 2"),
    ("channel.cqi_thresholds_db", ", ".join(str(15 - k) for k in range(15))),
    ("channel.cqi_thresholds_db", ", ".join(str(4000 + k) for k in range(15))),
    ("channel.bits_per_rb", ", ".join(str(k) for k in range(15))),
    ("channel.bits_per_rb", ", ".join(str(15 - k) for k in range(15))),
    # finite, but each overflows or divides by zero in the channel, or
    # lies beyond any physical meaning of the key
    ("channel.enb_tx_power_dbm", "1e308"),
    ("channel.ue_tx_power_dbm", "4000"),
    ("enb[0].tx_power_dbm", "1e308"),
    ("car.default.tx_power_dbm", "4000"),
    ("car[0].tx_power_dbm", "-4000"),
    ("channel.pathloss_a_db", "-1e308"),
    ("channel.pathloss_b_db", "1e308"),
    ("channel.rb_bandwidth_hz", "1e-320"),
    ("channel.noise_figure_db", "-1e308"),
    ("channel.shadowing_sigma_db", "1e308"),
    ("channel.min_distance_m", "1e308"),
    # finite, but beyond a float once scaled to microseconds
    ("backhaul.delay_ms", "1e308"),
    ("handover.time_to_trigger_ms", "1e308"),
    ("flow[0].interval_ms", "1e308"),
    ("car[0].accident.start_s", "1e308"),
    # finite and fits in microseconds, but beyond one simulated day
    ("backhaul.delay_ms", "1e300"),
    ("handover.time_to_trigger_ms", "1e300"),
    ("flow[0].interval_ms", "1e300"),
    ("flow[0].start_s", "1e300"),
    ("flow[0].stop_s", "1e300"),
    ("car[0].accident.start_s", "1e300"),
    ("car[0].accident.duration_s", "1e300"),
    ("flow[0].stop_s", "86401"),
    ("backhaul.delay_ms", "86400001"),
    ("flow[0].start_s", "-1"),
    ("flow[0].interval_ms", "0"),
    ("car[0].accident.duration_s", "0"),
    # names that would break the cells.csv columns, the cell timeline or the
    # fields of an events.log line
    ("enb[0].name", ""),
    ("enb[0].name", "a,b"),
    ("enb[0].name", "a;b"),
    ("enb[0].name", "a:b"),
    ("enb[0].name", "a b"),
    ("enb[0].name", "a\tb"),
    ("enb[0].name", "a->b"),
    ("enb[0].name", "a b->c"),
]


def test_bad_value_cases_start_from_a_valid_config(tmp_path):
    assert {"sim_end_s", "enb[0].x_m", "car[0].accident.start_s", "flow[0].interval_ms"} <= set(
        FLOAT_KEYS
    )
    text = "".join(f"{k} = {v}\n" for k, v in BASE.items())
    assert load_config(write_scenario(tmp_path, text, TRACE)).cars[0].accident is not None


@pytest.mark.parametrize("key,bad", BAD_VALUES)
def test_bad_value_exits_two(tmp_path, capsys, key, bad):
    text = "".join(f"{k} = {v}\n" for k, v in {**BASE, key: bad}.items())
    config = write_scenario(tmp_path, text, TRACE)
    err = _assert_config_error(main(["validate", "--config", str(config)]), capsys)
    assert f": {key} " in err


# Two corners of the physical ranges. The strong one has the highest powers,
# no loss at 1 km and, at the 1 m distance floor, the steepest slope (-300 dB
# of path loss), over the narrowest band and the lowest noise figure. The
# weak one has the lowest powers and every link at the 100 km floor (500 dB
# of path loss), over the widest band and the highest noise figure. Both
# draw shadowing at the widest sigma.
CORNERS = {
    "strong": {
        "channel.enb_tx_power_dbm": "100",
        "channel.ue_tx_power_dbm": "100",
        "enb[0].tx_power_dbm": "100",
        "car.default.tx_power_dbm": "100",
        "car[0].tx_power_dbm": "100",
        "channel.pathloss_a_db": "0",
        "channel.pathloss_b_db": "100",
        "channel.min_distance_m": "1",
        "channel.rb_bandwidth_hz": "1000",
        "channel.noise_figure_db": "0",
    },
    "weak": {
        "channel.enb_tx_power_dbm": "-50",
        "channel.ue_tx_power_dbm": "-50",
        "enb[0].tx_power_dbm": "-50",
        "car.default.tx_power_dbm": "-50",
        "car[0].tx_power_dbm": "-50",
        "channel.pathloss_a_db": "300",
        "channel.pathloss_b_db": "100",
        "channel.min_distance_m": "100000",
        "channel.rb_bandwidth_hz": "20000000",
        "channel.noise_figure_db": "50",
    },
}


@pytest.mark.parametrize("corner", sorted(CORNERS))
def test_corner_of_the_physical_ranges_runs(tmp_path, capsys, corner):
    keys = {
        **BASE,
        **CORNERS[corner],
        "sim_end_s": "0.2",
        "enb[1].x_m": "0.5",  # a co-channel interferer next to the first cell
        "enb[1].y_m": "0",
        "channel.shadowing": "true",
        "channel.shadowing_sigma_db": "30",
        "flow[1].direction": "ul",
        "flow[1].target": "ALL",
        "flow[1].packet_bits": "100",
        "flow[1].interval_ms": "5",
        "flow[1].start_s": "0",
        "flow[1].stop_s": "0.2",
    }
    trace = make_trace(
        [(0, "car0", 0.5, 0), (0.5, "car0", 1, 0), (0, "car1", 0, 0.5), (0.5, "car1", 0, 1)]
    )
    config = write_scenario(tmp_path, "".join(f"{k} = {v}\n" for k, v in keys.items()), trace)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
