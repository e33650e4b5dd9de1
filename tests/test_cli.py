from __future__ import annotations

import hashlib
import re
import xml.etree.ElementTree as ET
from pathlib import Path

from bitplan import cli
from bitplan.anytime import ConvergencePoint
from bitplan.bench import builtin_scenario_path, run_trials
from bitplan.cli import cli_main


def test_plan_writes_csv_and_svgs(tmp_path):
    out = tmp_path / "run.csv"
    svg_dir = tmp_path / "svgs"
    rc = cli_main([
        "plan", "--scenario", "demo", "--planner", "bitstar", "--seed", "7",
        "--max-batches", "2", "--out", str(out), "--svg-dir", str(svg_dir),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "elapsed_s,cost,batch,tree_vertices,samples_drawn"
    assert len(lines) > 1
    snapshots = sorted(p.name for p in svg_dir.iterdir())
    assert snapshots[0] == "batch_000.svg"
    assert len(snapshots) == 3  # boundaries of batches 0, 1, 2


def test_unknown_planner_is_usage_error(capsys, tmp_path):
    rc = cli_main(["plan", "--scenario", "demo", "--planner", "dijkstra"])
    assert rc == 1
    assert "planner" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    assert cli_main([]) == 1


def test_missing_scenario_is_runtime_error(capsys):
    rc = cli_main(["plan", "--scenario", "/does/not/exist.scn", "--planner", "bitstar"])
    assert rc == 2
    assert "scenario" in capsys.readouterr().err


def test_broken_scenario_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[world]\nbounds = 0 0\n")
    rc = cli_main(["plan", "--scenario", str(bad), "--planner", "bitstar"])
    assert rc == 2
    assert "bounds" in capsys.readouterr().err


def test_a_scenario_that_is_not_utf8_is_runtime_error(tmp_path, capsys):
    # A Latin-1 e-acute (byte 0xE9) in the demo's first comment.
    bad = tmp_path / "latin1.scn"
    bad.write_bytes(builtin_scenario_path("demo").read_bytes().replace(b"Three", b"Thr\xe9e", 1))
    rc = cli_main(["plan", "--scenario", str(bad), "--planner", "bitstar"])
    assert rc == 2
    assert f"error: {bad}: " in capsys.readouterr().err


def test_a_target_only_stop_is_runtime_error(tmp_path, capsys):
    # A stop is a time budget or a batch cap: a target cost is no key at all.
    scn = tmp_path / "s.scn"
    scn.write_text(builtin_scenario_path("demo").read_text().replace(
        "[stop]\nmax_batches = 10", "[stop]\ntarget_cost = 16"))
    assert cli_main(["plan", "--scenario", str(scn), "--planner", "bitstar"]) == 2
    assert capsys.readouterr().err == f"error: {scn}:29: unknown key 'target_cost' in [stop]\n"


def test_non_finite_time_budget_is_usage_error(capsys):
    # A NaN budget never runs out; --max-batches keeps a run that starts short.
    rc = cli_main(["plan", "--scenario", "demo", "--planner", "rrtstar", "--seed", "1",
                   "--time-budget", "nan", "--max-batches", "1"])
    assert rc == 1
    assert "--time-budget" in capsys.readouterr().err


def test_out_of_range_integer_flags_are_usage_errors(capsys, tmp_path):
    for argv, flag in [
        (["plan", "--scenario", "demo", "--planner", "bitstar", "--max-batches", "-1"],
         "--max-batches"),
        (["bench", "--scenario", "demo", "--planner", "bitstar", "--trials", "0"], "--trials"),
        (["plan", "--scenario", "demo", "--planner", "rrtstar", "--seed", "-1",
          "--max-batches", "1"], "--seed"),
        (["demo", "--seed", "-2", "--max-batches", "1", "--svg-dir", str(tmp_path)], "--seed"),
    ]:
        assert cli_main(argv) == 1, argv
        assert flag in capsys.readouterr().err
    # A seed past float range is in range: the bound holds for any int.
    assert cli_main(["plan", "--scenario", "demo", "--planner", "rrtstar", "--seed", "9" * 400,
                     "--max-batches", "0"]) == 0
    assert capsys.readouterr().err == ""


def test_non_numeric_flags_are_usage_errors(capsys):
    plan = ["plan", "--scenario", "demo", "--planner", "rrtstar"]
    for argv, err in [
        (plan + ["--time-budget", "abc"],
         "error: argument --time-budget: expected a non-negative finite number, got 'abc'\n"),
        (plan + ["--max-batches", "abc"],
         "error: argument --max-batches: expected an integer >= 0, got 'abc'\n"),
        (plan + ["--seed", "5.0"], "error: argument --seed: expected an integer >= 0, got '5.0'\n"),
        (["bench", "--scenario", "demo", "--planner", "rrtstar", "--trials", "1e3"],
         "error: argument --trials: expected an integer >= 1, got '1e3'\n"),
    ]:
        assert cli_main(argv) == 1, argv
        assert capsys.readouterr().err == err


def test_rrtstar_svg_dir_is_a_note_and_writes_no_snapshot(tmp_path, capsys):
    svg_dir = tmp_path / "svgs"
    rc = cli_main(["plan", "--scenario", "demo", "--planner", "rrtstar", "--seed", "1",
                   "--max-batches", "50", "--svg-dir", str(svg_dir)])
    assert rc == 0
    assert capsys.readouterr().err == (
        "note: --svg-dir snapshots are per batch and apply to bitstar only\n")
    assert not svg_dir.exists()


def test_out_of_range_float_flags_are_usage_errors(capsys):
    # Rejected before any trial runs; a zero grid step would otherwise divide
    # by zero after the trials.
    bench = ["bench", "--scenario", "demo", "--planner", "rrtstar", "--trials", "1",
             "--max-batches", "50"]
    for argv, flag in [
        (bench + ["--grid-step", "0"], "--grid-step"),
        (bench + ["--grid-step", "-1"], "--grid-step"),
        (bench + ["--grid-step", "-0.0"], "--grid-step"),
        (["plan", "--scenario", "demo", "--planner", "rrtstar", "--seed", "1",
          "--max-batches", "1", "--time-budget", "-1"], "--time-budget"),
        (bench + ["--time-budget", "-0.5"], "--time-budget"),
    ]:
        assert cli_main(argv) == 1, argv
        assert flag in capsys.readouterr().err
    # A budget of -0.0 compares equal to 0, so it is non-negative.
    assert cli_main(["plan", "--scenario", "demo", "--planner", "rrtstar",
                     "--time-budget", "-0.0"]) == 0
    assert capsys.readouterr().err == ""


def test_a_bench_grid_of_over_a_million_steps_is_runtime_error(capsys):
    rc = cli_main(["bench", "--scenario", "demo", "--planner", "bitstar", "--trials", "1",
                   "--time-budget", "1", "--grid-step", "1e-9"])
    assert rc == 2
    assert capsys.readouterr().err == ("error: grid step 1e-09 s over a horizon of 1 s gives "
                                       "1000000001 grid steps; at most 1000000 are allowed\n")
    # Untimed, the same guard and message: the step count overflows to inf,
    # which no rounding of it may reach first.
    rc = cli_main(["bench", "--scenario", "demo", "--planner", "rrtstar", "--trials", "1",
                   "--max-batches", "5", "--grid-step", "1e-320"])
    assert rc == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: grid step 9\.99989e-321 s over a horizon of \S+ s gives inf grid "
                        r"steps; at most 1000000 are allowed\n", err), err


def test_an_untimed_bench_grid_reaches_the_slowest_trials_last_record(tmp_path, capsys,
                                                                       monkeypatch):
    # 414 * 0.3 is 124.19999999999999, so a grid end rounded up from
    # 124.2 / 0.3 alone falls one step short of the trial's last record.
    trace = [ConvergencePoint(1.0, 20.0, 1, 2, 100), ConvergencePoint(124.2, 19.0, 9, 3, 900)]
    monkeypatch.setattr(cli, "run_trials", lambda *args: [trace])
    out = tmp_path / "agg.csv"
    assert cli_main(["bench", "--scenario", "demo", "--planner", "bitstar", "--trials", "1",
                     "--max-batches", "9", "--grid-step", "0.3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "bitstar trials=1 solved=1 median_final_cost=19.000000\n"
    assert out.read_text().splitlines()[-2:] == ["124.200000,1,20.000000,20.000000",
                                                 "124.500000,1,19.000000,19.000000"]


def test_bench_runs_20_trials_from_seed_1_by_default(monkeypatch, capsys):
    seen = []

    def spy(*args):
        seen.append(args[1:])
        return run_trials(*args)

    monkeypatch.setattr(cli, "run_trials", spy)
    assert cli_main(["bench", "--scenario", "demo", "--planner", "rrtstar",
                     "--max-batches", "1"]) == 0
    assert capsys.readouterr().out.startswith("rrtstar trials=20 solved=")
    assert seen == [("rrtstar", 20, 1)]


def test_bench_reproducible_bytes(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = cli_main([
            "bench", "--scenario", "demo", "--planner", "rrtstar", "--trials", "2",
            "--time-budget", "0.4", "--grid-step", "0.1", "--out", str(out),
        ])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].startswith(b"t_s,n_solved,median_cost,mean_cost\n")
    # --time-budget replaces the scenario's whole stop, so the demo's
    # max_batches = 10 no longer caps RRT* at 10 iterations.
    assert outs[0].decode().splitlines()[-1].split(",")[1] == "2"


def test_a_stop_flag_replaces_the_scenario_files_whole_stop(tmp_path):
    # Both bounds of this [stop] end a run at once: at batch 1, or at 0.001
    # planner-seconds.
    scn = tmp_path / "s.scn"
    scn.write_text(builtin_scenario_path("demo").read_text().replace(
        "[stop]\nmax_batches = 10", "[stop]\ntime_budget_s = 0.001\nmax_batches = 1"))
    out = tmp_path / "run.csv"

    def run(*argv):
        assert cli_main([*argv, "--scenario", str(scn), "--planner", "bitstar",
                         "--out", str(out)]) == 0
        return out.read_text().splitlines()[1:]

    assert [r.split(",")[1:3] for r in run("plan")] == [["inf", "1"]]
    # Batch 3 is reached past the budget.
    rows = [r.split(",") for r in run("plan", "--max-batches", "3")]
    assert [r[2] for r in rows] == ["1", "2", "3"] and float(rows[-1][0]) > 0.001
    # A budget alone lifts the batch cap.
    rows = [r.split(",") for r in run("plan", "--time-budget", "0.3")]
    assert rows[-1][2] == "3" and float(rows[-1][0]) >= 0.3
    # bench: with no budget left, the aggregate's horizon covers the slowest
    # trial, whose last batch ends past 0.3 s, and both trials solve.
    rows = [r.split(",") for r in run("bench", "--trials", "2", "--max-batches", "3")]
    assert float(rows[-1][0]) > 0.3 and rows[-1][1] == "2"
    rows = [r.split(",") for r in run("bench", "--trials", "2", "--time-budget", "0.3")]
    assert rows[-1][:2] == ["0.300000", "2"]


def test_demo_max_batches_stops_at_that_batch(tmp_path):
    svg_dir, out = tmp_path / "snaps", tmp_path / "run.csv"
    assert cli_main(["demo", "--max-batches", "2", "--svg-dir", str(svg_dir),
                     "--out", str(out)]) == 0
    # The built-in demo's [stop] caps it at 10 batches.
    assert out.read_text().splitlines()[-1].split(",")[2] == "2"
    assert sorted(p.name for p in svg_dir.iterdir()) == [f"batch_00{b}.svg" for b in range(3)]


def test_bench_seed_override_changes_results(tmp_path):
    texts = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}.csv"
        rc = cli_main([
            "bench", "--scenario", "demo", "--planner", "bitstar", "--trials", "1",
            "--max-batches", "1", "--seed", seed, "--out", str(out),
            "--grid-step", "0.05",
        ])
        assert rc == 0
        texts.append(out.read_text())
    assert texts[0] != texts[1]


def test_demo_subcommand(tmp_path, capsys):
    # `demo` is `plan --scenario demo --planner bitstar`: the same CSV and
    # SVG bytes, and only the stdout line differs.
    runs = {}
    for name, argv in (("demo", ["demo"]),
                       ("plan", ["plan", "--scenario", "demo", "--planner", "bitstar"])):
        svg_dir, out = tmp_path / name / "snaps", tmp_path / name / "run.csv"
        rc = cli_main([*argv, "--seed", "3", "--max-batches", "1",
                       "--svg-dir", str(svg_dir), "--out", str(out)])
        assert rc == 0
        runs[name] = (capsys.readouterr().out, out.read_bytes(),
                      {p.name: p.read_bytes() for p in svg_dir.iterdir()})
    demo_out, demo_csv, demo_svgs = runs["demo"]
    plan_out, plan_csv, plan_svgs = runs["plan"]
    assert sorted(demo_svgs) == ["batch_000.svg", "batch_001.svg"]
    assert demo_svgs == plan_svgs
    assert demo_csv == plan_csv
    records = len(demo_csv.splitlines()) - 1
    cost = demo_csv.splitlines()[-1].split(b",")[1].decode()
    assert demo_out == f"demo seed=3 cost={cost} snapshots in {tmp_path / 'demo' / 'snaps'}\n"
    assert plan_out == f"bitstar seed=3 cost={cost} records={records}\n"


def test_plan_on_grid_scenario_file(tmp_path):
    (tmp_path / "wall.pgm").write_text(
        "P2\n10 10\n255\n"
        + "\n".join(
            " ".join("0" if row == 5 and col not in (7, 8) else "255" for col in range(10))
            for row in range(10)
        )
        + "\n"
    )
    scn = tmp_path / "wall.scn"
    scn.write_text(
        """
[world]
bounds = 0 0 10 10
[grid]
file = wall.pgm
meters_per_cell = 1
origin = 0 0
threshold = 127
[problem]
root = 5 2
goal_center = 5 9
goal_radius = 0.5
[bitstar]
batch_size = 40
rho = 6
[rrtstar]
eta = 2
alpha = 10
goal_period = 25
[stop]
max_batches = 4
"""
    )
    out = tmp_path / "grid_run.csv"
    rc = cli_main(["plan", "--scenario", str(scn), "--planner", "bitstar",
                   "--seed", "3", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert len(rows) >= 2
    final_cost = float(rows[-1].split(",")[1])
    assert 7.0 < final_cost < 14.0  # detour through the gap


def test_plan_without_outputs_just_summarizes(capsys):
    rc = cli_main(["plan", "--scenario", "demo", "--planner", "rrtstar",
                   "--seed", "2", "--time-budget", "0.2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rrtstar seed=2" in out


def test_snapshot_ellipse_has_the_goal_sample_as_focus(tmp_path):
    # The informed set is g_hat + h_hat < c_sol over the goal samples, so an
    # off-centre goal sample, not the goal region's centre, is the focus.
    scn = tmp_path / "offset.scn"
    scn.write_text(builtin_scenario_path("demo").read_text().replace(
        "goal_radius = 0.5", "goal_radius = 0.5\ngoal_sample = 0.45 8"))
    svg_dir = tmp_path / "svg"
    assert cli_main(["plan", "--scenario", str(scn), "--planner", "bitstar", "--seed", "1",
                     "--max-batches", "2", "--svg-dir", str(svg_dir)]) == 0
    root = ET.parse(svg_dir / "batch_002.svg").getroot()
    ellipses = root.findall("{http://www.w3.org/2000/svg}ellipse")
    assert len(ellipses) == 1
    # Midpoint of the root (0, -8) and the goal sample (0.45, 8), y negated.
    assert float(ellipses[0].get("cx")) == 0.225
    assert float(ellipses[0].get("cy")) == 0.0


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "bitplan" in capsys.readouterr().out


# Recorded from the demo scenario; any change in planner behaviour shows here.
PINNED_BITSTAR_CSV = """\
elapsed_s,cost,batch,tree_vertices,samples_drawn
0.006204,16.680007,1,11,100
0.062428,16.317281,2,42,200
0.313576,16.317281,3,92,300
"""
PINNED_BITSTAR_LAST_SVG_SHA256 = "e095e97d3a62e805803f996f5d0f7b63f7ca17c80a6b03d54e0a3b4b8b2d40a5"
PINNED_RRTSTAR_CSV = """\
elapsed_s,cost,batch,tree_vertices,samples_drawn
0.064112,21.664062,150,110,150
0.126848,21.456391,206,160,206
0.179632,21.336340,242,196,242
0.181344,21.290570,243,197,243
0.230840,21.256373,272,223,272
0.263576,21.218569,289,239,289
0.288716,21.071126,302,251,302
0.324824,20.958778,319,268,319
0.335828,19.936671,324,273,324
0.417500,19.555646,359,305,359
0.501052,19.507941,391,335,391
0.538672,18.704990,405,347,405
0.675516,18.516528,451,389,451
0.714140,18.502749,463,401,463
0.812368,18.497733,492,428,492
0.834028,18.325473,498,433,498
0.842908,16.720517,501,435,501
0.867820,16.627246,508,442,508
1.169992,16.597821,586,516,586
1.458136,16.565936,652,576,652
1.801780,16.528106,722,639,722
2.269996,16.504062,808,718,808
6.407064,16.182989,1345,1212,1345
7.986920,16.182989,1500,1358,1500
"""
# eta = 0.25: about 89% of the iterations steer, so the near query scans the
# tree again instead of reusing the nearest scan.
PINNED_STEERED_RRTSTAR_CSV = """\
elapsed_s,cost,batch,tree_vertices,samples_drawn
1.877664,19.920865,965,501,965
2.911228,19.902129,1196,622,1196
3.059520,19.831714,1226,637,1226
4.597452,19.831714,1500,780,1500
"""
# Two goal samples: h_hat is a minimum over them in every scan.
PINNED_TWO_GOAL_BITSTAR_CSV = """\
elapsed_s,cost,batch,tree_vertices,samples_drawn
0.006240,16.478043,1,11,100
0.056464,16.065435,2,41,200
0.290896,16.065435,3,94,300
"""


def test_plan_outputs_match_pinned_bytes(tmp_path):
    bit_csv, rrt_csv, svg_dir = tmp_path / "bit.csv", tmp_path / "rrt.csv", tmp_path / "svg"
    assert cli_main([
        "plan", "--scenario", "demo", "--planner", "bitstar", "--seed", "1",
        "--max-batches", "3", "--out", str(bit_csv), "--svg-dir", str(svg_dir),
    ]) == 0
    assert cli_main([
        "plan", "--scenario", "demo", "--planner", "rrtstar", "--seed", "1",
        "--max-batches", "1500", "--out", str(rrt_csv),
    ]) == 0
    assert bit_csv.read_text() == PINNED_BITSTAR_CSV
    assert rrt_csv.read_text() == PINNED_RRTSTAR_CSV
    # --seed defaults to 1.
    assert cli_main(["plan", "--scenario", "demo", "--planner", "bitstar", "--max-batches", "3",
                     "--out", str(bit_csv)]) == 0
    assert bit_csv.read_text() == PINNED_BITSTAR_CSV
    last_svg = (svg_dir / "batch_003.svg").read_bytes()
    assert hashlib.sha256(last_svg).hexdigest() == PINNED_BITSTAR_LAST_SVG_SHA256

    two_goal_scn, two_goal_csv = tmp_path / "two_goal.scn", tmp_path / "two_goal.csv"
    two_goal_scn.write_text(builtin_scenario_path("demo").read_text().replace(
        "goal_radius = 0.5", "goal_radius = 0.5\ngoal_sample = -0.3 8\ngoal_sample = 0.3 7.8"))
    assert cli_main([
        "plan", "--scenario", str(two_goal_scn), "--planner", "bitstar", "--seed", "1",
        "--max-batches", "3", "--out", str(two_goal_csv),
    ]) == 0
    assert two_goal_csv.read_text() == PINNED_TWO_GOAL_BITSTAR_CSV

    steered_scn, steered_csv = tmp_path / "steered.scn", tmp_path / "steered.csv"
    steered_scn.write_text(builtin_scenario_path("demo").read_text().replace(
        "eta = 2\n", "eta = 0.25\n"))
    assert cli_main([
        "plan", "--scenario", str(steered_scn), "--planner", "rrtstar", "--seed", "1",
        "--max-batches", "1500", "--out", str(steered_csv),
    ]) == 0
    assert steered_csv.read_text() == PINNED_STEERED_RRTSTAR_CSV
