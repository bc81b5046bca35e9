"""Command-line interface tests (quick paths; heavy runs live in acceptance)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from nicsim.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args):
    return main(args)


def test_unknown_subcommand_exits_nonzero():
    proc = subprocess.run(
        [sys.executable, "-m", "nicsim.cli", "frobnicate"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1


def test_unknown_flag_exits_nonzero():
    proc = subprocess.run(
        [sys.executable, "-m", "nicsim.cli", "compare", "--warp", "9"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1


def test_calibrate_writes_params_and_residuals(tmp_path):
    out = tmp_path / "fit.json"
    res = tmp_path / "residuals.csv"
    rc = run_cli(["calibrate", "--out", str(out), "--residuals", str(res)])
    assert rc == 0
    fitted = json.loads(out.read_text())
    assert fitted["t_poll"] == pytest.approx(57.08, abs=0.1)
    lines = res.read_text().strip().split("\n")
    assert lines[0] == "mode,B,given_mrps,fitted_mrps,rel_err"
    assert len(lines) == 9
    # held-out-style sanity: every shipped datapoint reproduced within 10%
    assert all(float(line.split(",")[4]) < 0.10 for line in lines[1:])


def test_calibrate_underdetermined(tmp_path):
    points = tmp_path / "points.json"
    points.write_text(json.dumps([{"mode": "doorbell", "B": 1, "mrps": 4.3}]))
    rc = run_cli(["calibrate", "--datapoints", str(points), "--out", str(tmp_path / "x.json")])
    assert rc == 1


def test_compare_matches_reference_fixture(tmp_path):
    out = tmp_path / "compare.csv"
    rc = run_cli(["compare", "--out", str(out)])
    assert rc == 0
    expected = (GOLDEN / "compare_reference.csv").read_text()
    assert out.read_text() == expected


def test_compare_tor_override_shifts_rtt(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_cli(["compare", "--out", str(out_a)]) == 0
    assert run_cli(["compare", "--tor", "0.1", "--out", str(out_b)]) == 0
    rtt_a = float(out_a.read_text().strip().split("\n")[-1].split(",")[3])
    rtt_b = float(out_b.read_text().strip().split("\n")[-1].split(",")[3])
    assert rtt_a - rtt_b == pytest.approx(0.4, abs=0.05)  # two hops of 0.2 us


def test_rawbus_deterministic_and_plateaus(tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_cli(["rawbus", "--threads", "1,4,8", "--out", str(out1)]) == 0
    assert run_cli(["rawbus", "--threads", "1,4,8", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = [line.split(",") for line in out1.read_text().strip().split("\n")[1:]]
    assert float(rows[-1][1]) == pytest.approx(80.0, rel=0.05)


def test_override_wire_latency(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_cli([
        "sweep", "--modes", "coherent:B1", "--loads", "4",
        "--override", "cost_params.t_wire=1e-6",
        "--override", "duration_us=500", "--override", "warmup_us=50",
        "--out", str(out),
    ])
    assert rc == 0
    median = float(out.read_text().strip().split("\n")[1].split(",")[4])
    assert median == pytest.approx(1.904 - 0.6, abs=0.05)  # two hops removed


def test_override_bad_params_rejected(tmp_path):
    rc = run_cli(["rawbus", "--threads", "1", "--override", "cost_params.t_cl=0"])
    assert rc == 1


def test_scenario_file_input(tmp_path):
    scenario = {
        "nics": [{"id": 0, "config": {}}, {"id": 1, "config": {}}],
        "connections": [{"client_nic": 0, "server_nic": 1}],
        "loadgen": {"mode": "open_loop", "rate_mrps": 2.0},
        "duration_us": 400,
        "warmup_us": 40,
    }
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(scenario))
    out = tmp_path / "out.csv"
    rc = run_cli(["sweep", "--scenario", str(spath), "--modes", "coherent:B1",
                  "--loads", "2", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("mode,B,load_mrps,")


def test_invalid_scenario_gives_config_exit(tmp_path):
    spath = tmp_path / "bad.json"
    spath.write_text(json.dumps({"nics": [], "connections": []}))
    rc = run_cli(["sweep", "--scenario", str(spath), "--loads", "2"])
    assert rc == 1


BAD_OVERRIDES = {
    "rate_not_a_number": (["sweep", "--loads", "2"], 'loadgen.rate_mrps="abc"',
                          "loadgen.rate_mrps must be a number"),
    "nics_not_a_list": (["sweep", "--loads", "2"], "nics=5", "nics must be a list"),
    "window_not_an_integer": (["scale", "--threads", "1"], "loadgen.window=1.5",
                              "loadgen.window must be an integer"),
    "batch_not_an_integer": (["scale", "--threads", "1"],
                             'nics=[{"id": 0, "config": {"batch_B": 2.5}}, {"id": 1}]',
                             "nics[0]: batch_B must be an integer"),
    "unknown_cost_param": (["rawbus", "--threads", "1"], "cost_params.bogus=1",
                           "unknown cost parameter 'bogus'"),
    "compare_nics_not_a_list": (["compare"], "nics=5", "nics must be a list"),
    "connection_to_its_own_nic": (["sweep", "--loads", "2"],
                                  'connections=[{"client_nic": 0, "server_nic": 0}]',
                                  "connections[0]: client_nic and server_nic must differ"),
    # just past the size limits: refused before any ring or call is allocated
    "ring_depth_over_limit": (["sweep", "--modes", "coherent:B1", "--loads", "1"],
                              "ring_depth=131072", "ring_depth must be <= 65536, got 131072"),
    "window_over_limit": (["scale", "--threads", "1"], "loadgen.window=65537",
                          "loadgen.window must be <= 65536, got 65537"),
    "compare_duration_below_warmup": (["compare"], "duration_us=50",
                                      "duration_us must be >= 10x warmup_us"),
    "rawbus_scenario_key": (["rawbus", "--threads", "1"], "duration_us=x",
                            "override 'duration_us': this subcommand runs no scenario"),
    "calibrate_scenario_key": (["calibrate", "--out", "/dev/null"], "loadgen.window=2",
                               "override 'loadgen.window': this subcommand runs no scenario"),
}


@pytest.mark.parametrize("case", sorted(BAD_OVERRIDES))
def test_bad_override_exits_1_with_a_field_message(case):
    args, override, message = BAD_OVERRIDES[case]
    proc = subprocess.run(
        [sys.executable, "-m", "nicsim.cli", *args, "--override", override],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


# A NIC config that a flag or override makes invalid is one error per NIC
# row, and nothing that follows from it: the NICs were declared.
REFUSED_NIC_CONFIGS = {
    "sweep_empty_mode": (["sweep", "--modes", ":4"],
                         "nics[0]: tx_mode must be one of ('mmio', 'doorbell', 'coherent'), "
                         "got ''; nics[1]: tx_mode must be one of ('mmio', 'doorbell', "
                         "'coherent'), got ''"),
    "bars_shallow_ring": (["bars", "--override", "ring_depth=8"],
                          "nics[0]: batch_B must be in 1..8, got 11; "
                          "nics[1]: batch_B must be in 1..8, got 11"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_NIC_CONFIGS))
def test_a_refused_nic_config_exits_1_with_its_own_errors_only(case):
    args, message = REFUSED_NIC_CONFIGS[case]
    proc = subprocess.run([sys.executable, "-m", "nicsim.cli", *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == f"nicsim: {message}\n"


@pytest.mark.parametrize("depth", ["0", "-4"])
def test_a_refused_ring_depth_exits_1_with_its_own_error_only(depth):
    proc = subprocess.run([sys.executable, "-m", "nicsim.cli", "bars", "--override",
                           f"ring_depth={depth}"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "nicsim: ring_depth must be a power of two\n"


def test_a_scenario_that_declares_a_nic_id_twice_exits_1(tmp_path):
    data = json.loads((GOLDEN.parent.parent / "scenarios" / "echo_64b.json").read_text())
    data["nics"].append({"id": data["nics"][-1]["id"], "config": {"tx_mode": "mmio"}})
    scenario = tmp_path / "twice.json"
    scenario.write_text(json.dumps(data))
    proc = subprocess.run([sys.executable, "-m", "nicsim.cli", "bars", "--scenario", str(scenario)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == f"nicsim: nics[{len(data['nics']) - 1}]: id 1 already declared\n"


BAD_LIST_FLAGS = {
    "sweep_modes": (["sweep", "--modes", "coherent:Bx"], "--modes 'coherent:Bx'"),
    "sweep_loads": (["sweep", "--loads", "a"], "--loads 'a'"),
    "scale_threads": (["scale", "--threads", "x"], "--threads 'x'"),
    "rawbus_threads_range": (["rawbus", "--threads", "1..x"], "--threads '1..x'"),
    "rawbus_threads_zero": (["rawbus", "--threads", "0"], "thread counts must be >= 1"),
    # refused before a range is expanded or a scenario is built
    "scale_threads_over_cap": (["scale", "--threads", "65537"],
                               "thread counts must be <= 65536, got 65537"),
    "rawbus_threads_range_end_over_cap": (["rawbus", "--threads", "1..1000000000000"],
                                          "thread counts must be <= 65536, got 1000000000000"),
}


@pytest.mark.parametrize("case", sorted(BAD_LIST_FLAGS))
def test_bad_list_flag_exits_1_with_the_flag_name(case):
    args, message = BAD_LIST_FLAGS[case]
    proc = subprocess.run([sys.executable, "-m", "nicsim.cli", *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


# Open loops that offer more calls than any interface serves. Each used to
# queue every call in host memory until the process died or was killed; the
# sweep's bad row is its last, so it is refused before any row runs.
OPEN_LOOP_OVER_CAP = {
    "sweep_last_load": (["sweep", "--modes", "coherent:B1", "--loads", "1,10000"],
                        "got 2e+07 (10000 Mrps x 2000 us)"),
    "bars_rate": (["bars", "--override", "loadgen.rate_mrps=1e9"],
                  "got 2e+12 (1e+09 Mrps x 2000 us)"),
}


@pytest.mark.parametrize("case", sorted(OPEN_LOOP_OVER_CAP))
def test_open_loop_over_the_call_cap_exits_1_before_running(case):
    args, message = OPEN_LOOP_OVER_CAP[case]
    proc = subprocess.run([sys.executable, "-m", "nicsim.cli", *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "loadgen.rate_mrps x duration_us must be <= 262144 calls, " + message in proc.stderr
    assert proc.stdout == ""


def test_a_duration_over_the_cap_exits_1_before_running():
    # the closed-loop rows offer no calls past their window, so the call cap
    # never bounded them, and this ran until killed
    proc = subprocess.run([sys.executable, "-m", "nicsim.cli", "bars",
                           "--override", "duration_us=1e12"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "duration_us must be <= 100000, got 1e+12" in proc.stderr
    assert proc.stdout == ""


def test_sync_client_with_a_saturation_window_exits_1_before_running(tmp_path):
    # bars' saturation rows run a closed loop of window 64 on the scenario's
    # client, which a sync client cannot hold
    data = json.loads((GOLDEN.parent.parent / "scenarios" / "echo_64b.json").read_text())
    data["nics"][0]["config"]["threading_model"] = "sync"
    scenario = tmp_path / "sync.json"
    scenario.write_text(json.dumps(data))
    proc = subprocess.run([sys.executable, "-m", "nicsim.cli", "bars", "--scenario", str(scenario)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "nics[0]: a sync client holds one call in flight, so a closed loop needs " \
           "loadgen.window 1, got 64" in proc.stderr
    assert proc.stdout == ""


def test_a_closed_loop_below_the_batch_size_exits_1_before_running():
    # each doorbell row waits for a full batch, so a window of 2 completed
    # no call in the B=3 row and printed 0.0000 Mrps
    proc = subprocess.run([sys.executable, "-m", "nicsim.cli", "bars",
                           "--override", "loadgen.window=2", "--override", "duration_us=300",
                           "--override", "warmup_us=30"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "nics[0]: a doorbell batch waits for batch_B 3 entries and no controller ever " \
           "flushes a partial one, so a closed loop needs loadgen.window >= 3, got 2" in proc.stderr
    assert proc.stdout == ""


NON_FINITE = {
    "sweep_loads_nan": (["sweep", "--modes", "coherent:B1", "--loads", "nan"],
                        "loadgen.rate_mrps must be a number, got nan"),
    "sweep_loads_inf": (["sweep", "--modes", "coherent:B1", "--loads", "inf"],
                        "loadgen.rate_mrps must be a number, got inf"),
    "bars_cost_param_nan": (["bars", "--override", "cost_params.t_wire=NaN"],
                            "t_wire must be a number, got nan"),
    "scale_duration_infinity": (["scale", "--threads", "1", "--override", "duration_us=Infinity"],
                                "duration_us must be a number, got inf"),
    "compare_tor_inf": (["compare", "--tor", "inf"], "t_wire must be a number, got inf"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_number_exits_1_with_the_field_name(case):
    args, message = NON_FINITE[case]
    proc = subprocess.run([sys.executable, "-m", "nicsim.cli", *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize("row, message", [
    ({"mode": "doorbell", "B": 4, "mrps": float("nan")}, "mrps must be a number > 0, got nan"),
    ({"mode": "doorbell", "B": 0, "mrps": 9.0}, "B must be a positive integer, got 0"),
    ({"mode": "doorbell", "B": 2.5, "mrps": 9.0}, "B must be a positive integer, got 2.5"),
], ids=["mrps_nan", "batch_zero", "batch_not_an_integer"])
def test_calibrate_bad_datapoint_exits_1_with_its_index(tmp_path, row, message):
    points = tmp_path / "points.json"
    points.write_text(json.dumps([{"mode": "doorbell", "B": 1, "mrps": 4.3}, row]))
    out = tmp_path / "fit.json"
    proc = subprocess.run([sys.executable, "-m", "nicsim.cli", "calibrate", "--datapoints",
                           str(points), "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"datapoint 1: {message}" in proc.stderr
    assert not out.exists()


UNREADABLE_PATHS = {
    "bars_params_dir": (["bars", "--params", "{dir}"], "dir"),
    "bars_scenario_dir": (["bars", "--scenario", "{dir}"], "dir"),
    "calibrate_datapoints_dir": (["calibrate", "--datapoints", "{dir}", "--out", "{fit}"], "dir"),
    "rawbus_out_dir": (["rawbus", "--threads", "1", "--out", "{dir}"], "dir"),
    "bars_scenario_not_utf8": (["bars", "--scenario", "{utf16}"], "utf16"),
    "bars_params_not_utf8": (["bars", "--params", "{utf16}"], "utf16"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_PATHS))
def test_unreadable_path_exits_1_naming_the_path(tmp_path, capsys, case):
    args, culprit = UNREADABLE_PATHS[case]
    paths = {"dir": tmp_path / "a_directory", "utf16": tmp_path / "utf16.json",
             "fit": tmp_path / "fit.json"}
    paths["dir"].mkdir()
    paths["utf16"].write_bytes(b"\xff\xfe{}")  # a UTF-16 byte-order mark
    rc = run_cli([a.format(**paths) for a in args])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("nicsim: ") and str(paths[culprit]) in err


MALFORMED_JSON_FLAGS = {
    "bars_scenario": ["bars", "--scenario", "{bad}"],
    "rawbus_params": ["rawbus", "--threads", "1", "--params", "{bad}"],
    "calibrate_datapoints": ["calibrate", "--datapoints", "{bad}", "--out", "{fit}"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON_FLAGS))
def test_malformed_json_file_exits_1_naming_the_path(tmp_path, case):
    bad = tmp_path / "truncated.json"
    bad.write_text('{"nics": [')
    args = [a.format(bad=bad, fit=tmp_path / "fit.json") for a in MALFORMED_JSON_FLAGS[case]]
    proc = subprocess.run([sys.executable, "-m", "nicsim.cli", *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"nicsim: {bad}: not valid JSON (Expecting value at line 1 column 11)" in proc.stderr


def test_importing_nicsim_loads_no_numpy():
    # numpy is for the calibration fit only; the probe sees it once the fit runs
    code = ("import sys, nicsim, nicsim.sim, nicsim.host, nicsim.cli\n"
            "print('numpy' in sys.modules)\n"
            "nicsim.calibrate([('coherent', 1, 8.1), ('coherent', 4, 12.4)])\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_calibrate_applies_cost_param_overrides(tmp_path):
    out = tmp_path / "fit.json"
    rc = run_cli(["calibrate", "--out", str(out), "--residuals", str(tmp_path / "r.csv"),
                  "--override", "cost_params.t_wire=1"])
    assert rc == 0
    fitted = json.loads(out.read_text())
    assert fitted["t_wire"] == 1.0
    assert fitted["t_poll"] == pytest.approx(57.08, abs=0.1)  # fitted fields still fitted


SCENARIO_FILE = Path(__file__).parent.parent / "scenarios" / "echo_64b.json"
SHORT = ["--override", "duration_us=500", "--override", "warmup_us=50"]


def test_bars_runs_its_rows_on_a_scenario_file(tmp_path):
    # the file is coherent B=1 at 4 Mrps open loop; every row replaces that
    out = tmp_path / "bars.csv"
    assert run_cli(["bars", "--scenario", str(SCENARIO_FILE), *SHORT, "--out", str(out)]) == 0
    rows = {(r[0], int(r[1])): float(r[2])
            for r in (line.split(",") for line in out.read_text().strip().split("\n")[1:])}
    assert rows[("mmio", 1)] == pytest.approx(4.2, rel=0.05)
    assert rows[("coherent", 4)] == pytest.approx(12.4, rel=0.05)


def test_sweep_labels_match_the_rows_run_on_a_scenario_file(tmp_path):
    out_file, out_default = tmp_path / "file.csv", tmp_path / "default.csv"
    args = ["sweep", "--modes", "coherent:B4", "--loads", "11", *SHORT]
    assert run_cli([*args, "--scenario", str(SCENARIO_FILE), "--out", str(out_file)]) == 0
    assert run_cli([*args, "--out", str(out_default)]) == 0
    # the file differs from the standard setup only in what each row replaces
    assert out_file.read_text() == out_default.read_text()
    assert out_file.read_text().split("\n")[1].startswith("coherent,4,11.0000,")


def test_sweep_reports_no_latency_for_a_run_without_samples(tmp_path):
    # at 100 Mrps offered no call issued after warmup completes before the
    # end: the row has no latency to report, which is not a latency of 0
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--loads", "100", "--modes", "coherent:B1", "--out", str(out)]) == 0
    assert out.read_text().split("\n")[1] == "coherent,1,100.0000,8.1000,nan,nan,1"
