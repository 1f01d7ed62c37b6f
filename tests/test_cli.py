"""CLI subcommands: configs, runs, comparisons, coefficient tables, rate fits."""

import contextlib
import io
import json
import math
import os
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liees import chenfliess, cli, costs, sim
from liees.errors import LieesError


def small_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "cost": {"name": "power", "alpha": 1.0, "xstar": 1.0, "m": 2},
        "system": {"builder": "two_input", "N": 2, "kappa": 1, "gain": 1.0},
        "integrator": {"epsilon": 1e-3, "steps_per_period": 256,
                       "total_time": 0.5, "x0": 0.0},
        "analysis": {"fit": True, "lbs_compare": True},
        "output": {"trajectory_csv": f"{name}.traj.csv",
                   "summary_json": f"{name}.summary.json",
                   "decimation": 256},
    }
    for path, val in overrides.items():
        node = cfg
        parts = path.split(".")
        for p in parts[:-1]:
            node = node[p]
        node[parts[-1]] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestRun:
    def test_quadratic_gradient_run(self, tmp_path, capsys):
        path = small_config(tmp_path)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "cfg.json.summary.json").read_text())
        assert summary["rate"]["rate_class"] == "exponential"
        # gradient flow of (x-1)^2 decays at rate 2
        assert abs(summary["rate"]["lambda"] - 2.0) < 0.2
        assert summary["lbs_closeness"] < 0.1
        assert (tmp_path / "cfg.json.traj.csv").exists()

    def test_determinism(self, tmp_path, capsys):
        pa = small_config(tmp_path, "a.json")
        pb = small_config(tmp_path, "b.json")
        assert cli.main(["run", "--config", str(pa), "--out", str(tmp_path)]) == 0
        assert cli.main(["run", "--config", str(pb), "--out", str(tmp_path)]) == 0
        csv_a = (tmp_path / "a.json.traj.csv").read_bytes()
        csv_b = (tmp_path / "b.json.traj.csv").read_bytes()
        assert csv_a == csv_b
        sa = (tmp_path / "a.json.summary.json").read_text()
        sb = (tmp_path / "b.json.summary.json").read_text()
        assert sa == sb

    def test_tiny_gain_runs(self, tmp_path, capsys):
        # a valid gain far below any bracket test's resolution still builds and runs
        path = small_config(tmp_path, **{"system.gain": 1e-13, "analysis.fit": False})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "cfg.json.summary.json").read_text())
        assert summary["periods"] == 500

    def test_invalid_degree_exits_two(self, tmp_path, capsys):
        path = small_config(tmp_path, **{"cost.m": 1})
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "cost.m" in capsys.readouterr().err

    def test_missing_field_named(self, tmp_path, capsys):
        cfg = {"cost": {"name": "power", "alpha": 1.0, "xstar": 1.0, "m": 2},
               "system": {"builder": "two_input", "N": 2},
               "integrator": {"epsilon": 1e-3}}
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "integrator.total_time" in err

    def test_unknown_builder(self, tmp_path, capsys):
        path = small_config(tmp_path, **{"system.builder": "nonsense"})
        assert cli.main(["run", "--config", str(path)]) == 2


class TestCompare:
    def test_identical_configs_equal_columns(self, tmp_path, capsys):
        pa = small_config(tmp_path, "a.json")
        pb = small_config(tmp_path, "b.json")
        out = tmp_path / "cmp.csv"
        code = cli.main(["compare", "--config-a", str(pa), "--config-b", str(pb),
                         "--out", str(out), "--out-dir", str(tmp_path)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "t,x_a,x_b,J_a,J_b"
        _, ta = cli.run_experiment(cli.load_config(str(pa)), str(tmp_path))
        _, tb = cli.run_experiment(cli.load_config(str(pb)), str(tmp_path))
        columns = zip(ta.times, ta.states, tb.states, ta.cost_values, tb.cost_values)
        oracle = "".join(f"{t:.17g},{xa:.17g},{xb:.17g},{ja:.17g},{jb:.17g}\n"
                         for t, xa, xb, ja, jb in columns)
        assert out.read_text() == "t,x_a,x_b,J_a,J_b\n" + oracle
        for row in rows[1:10]:
            _, xa, xb, ja, jb = row.split(",")
            assert xa == xb and ja == jb
        verdict = json.loads((tmp_path / "cmp.json").read_text())
        assert verdict["band"] == 0.05
        assert verdict["time_to_band_a"] == verdict["time_to_band_b"]

    def test_epsilon_mismatch_exits_two(self, tmp_path, capsys):
        pa = small_config(tmp_path, "a.json")
        pb = small_config(tmp_path, "b.json", **{"integrator.epsilon": 1e-2})
        code = cli.main(["compare", "--config-a", str(pa), "--config-b", str(pb),
                         "--out", str(tmp_path / "cmp.csv")])
        assert code == 2

    def test_equal_sample_steps_at_other_resolutions(self, tmp_path, capsys):
        # decimation 0 stores once per period, as decimation 512 at 512 steps does
        short = {"integrator.total_time": 0.02, "analysis.fit": False}
        pa = small_config(tmp_path, "a.json", **short, **{"output.decimation": 0})
        pb = small_config(tmp_path, "b.json", **short, **{"integrator.steps_per_period": 512,
                                                          "output.decimation": 512})
        out = tmp_path / "cmp.csv"
        assert cli.main(["compare", "--config-a", str(pa), "--config-b", str(pb),
                         "--out", str(out), "--out-dir", str(tmp_path)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 21


def _run_into(tmp_path, out_dir):
    argv = ["run", "--config", str(small_config(tmp_path)), "--out", str(out_dir)]
    return argv, out_dir / "cfg.json.traj.csv"


def _compare_into(tmp_path, out_dir):
    argv = ["compare", "--config-a", str(small_config(tmp_path, "a.json")),
            "--config-b", str(small_config(tmp_path, "b.json")),
            "--out", str(out_dir / "cmp.csv"), "--out-dir", str(tmp_path)]
    return argv, out_dir / "cmp.csv"


@pytest.mark.parametrize("command", [_run_into, _compare_into], ids=["run", "compare"])
@pytest.mark.parametrize("parent, error", [("missing", "[Errno 2] No such file or directory"),
                                           ("file", "[Errno 20] Not a directory"),
                                           ("unwritable", "[Errno 13] Permission denied")])
def test_output_directory_checked_before_integrating(tmp_path, capsys, monkeypatch,
                                                     command, parent, error):
    (tmp_path / "file").write_text("")
    (tmp_path / "unwritable").mkdir()
    # a directory root may write to reads as unwritable
    monkeypatch.setattr(os, "access", lambda path, mode: not path.endswith("unwritable"))
    argv, first_output = command(tmp_path, tmp_path / parent)

    def integrate(*args):
        raise AssertionError("integrated before checking the output directory")

    monkeypatch.setattr(sim, "integrate", integrate)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"I/O error: {error}: {str(first_output)!r}\n"


class TestCoeffs:
    def test_third1222_table_and_verdict(self, tmp_path, capsys):
        out = tmp_path / "co"
        code = cli.main(["coeffs", "--kind", "third1222", "--epsilon", "1e-4",
                         "--target", "1,2,2,2", "--out", str(out)])
        assert code == 0
        rows = (tmp_path / "co.csv").read_text().splitlines()
        assert rows[0] == "bracket_word,coefficient"
        table = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
        assert table["1222"] == pytest.approx(1.0, abs=1e-4)
        verdict = json.loads((tmp_path / "co.json").read_text())
        assert verdict["ok"] is True
        assert verdict["target"] == [1, 2, 2, 2]

    def test_stdout_table(self, capsys):
        assert cli.main(["coeffs", "--kind", "classic", "--epsilon", "1.0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("bracket_word,coefficient")

    def test_target_computes_one_signature(self, monkeypatch, capsys):
        # the table is printed from the coefficients verify_excitation judged
        argv = ["coeffs", "--kind", "second122", "--epsilon", "1e-4"]
        assert cli.main(argv) == 0
        table = capsys.readouterr().out
        calls = []
        compute = chenfliess.compute_signature
        monkeypatch.setattr(chenfliess, "compute_signature",
                            lambda *a, **k: calls.append(a) or compute(*a, **k))
        assert cli.main(argv + ["--target", "1,2,2"]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.startswith(table + "{")

    @pytest.mark.parametrize("target", [[], ["--target", "1,2"]])
    def test_overflowing_signature_is_a_numeric_failure(self, target, capsys):
        # at eps 1e160 the depth-4 iterated integrals of first12 overflow;
        # no table is printed and numpy's overflow warnings stay silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["coeffs", "--kind", "first12", "--epsilon", "1e160", *target])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure: signature entry ")
        assert captured.err.count("\n") == 1


class TestRate:
    def test_rate_roundtrip(self, tmp_path, capsys):
        cost = costs.make_power_cost(0.5, 0.0, 2)
        traj = sim.integrate_lbs(cost, [(1, 1.0)], 1.0, 5.0, 5000,
                                 record_epsilon=0.01)
        csv = tmp_path / "traj.csv"
        sim.write_trajectory_csv(traj, str(csv))
        out = tmp_path / "rate.json"
        code = cli.main(["rate", "--traj", str(csv), "--xstar", "0.0",
                         "--epsilon", "0.01", "--out", str(out)])
        assert code == 0
        got = json.loads(out.read_text())
        assert got["rate_class"] == "exponential"
        assert abs(got["lambda"] - 1.0) < 0.02


class TestVerifySuites:
    @pytest.mark.parametrize("suite", ["brackets", "lemma3", "assumptions"])
    def test_suite_passes(self, suite, capsys):
        assert cli.main(["verify", suite]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out

    def test_excitation_suite_passes(self, capsys):
        assert cli.main(["verify", "excitation"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    # every check of `liees verify all` in order, details stripped: a check
    # lost or renamed in a later change shows here (the benchmark's
    # design_verify workload counts the excitation lines)
    PINNED = [
        "[PASS] brackets: bracket antisymmetry <= 1e-9",
        "[PASS] brackets: Jacobi identity <= 1e-6",
        "[PASS] brackets: generating pair bracket = -c J^(N-1)",
        "[PASS] brackets: quadruple family bracket = -phi3^2 J'''",
        "[PASS] excitation: excitation first12 -> (1, 2)",
        "[PASS] excitation: excitation second122 -> (1, 2, 2)",
        "[PASS] excitation: excitation third1222 -> (1, 2, 2, 2)",
        "[PASS] excitation: excitation triple123 -> (1, 2, 3)",
        "[PASS] excitation: classic pair I12 = -eps, I21 = +eps (rel 1e-6)",
        "[PASS] lemma3: lemma3 phi2=1 m=2",
        "[PASS] lemma3: lemma3 phi2=sqrt2 m=2",
        "[PASS] lemma3: lemma3 phi2=z m=2",
        "[PASS] lemma3: lemma3 phi2=1 m=4",
        "[PASS] lemma3: lemma3 phi2=sqrt2 m=4",
        "[PASS] lemma3: lemma3 phi2=z m=4",
        "[PASS] assumptions: power(1,1,4) assumption 1 satisfied",
        "[PASS] assumptions: power(1,1,4) assumption 2 satisfied",
        "[PASS] assumptions: power(1,1,4) assumption 3 satisfied",
        "[PASS] assumptions: power(1,0,2) assumption 3 satisfied (beta21=0)",
        "[PASS] assumptions: abs cost assumption 2 rejected",
    ]

    def test_all_prints_the_pinned_checks(self, capsys):
        assert cli.main(["verify", "all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.rsplit(" (", 1)[0] for line in lines] == self.PINNED


def _missing_traj(tmp_path):
    return ["rate", "--traj", str(tmp_path / "missing.csv"), "--xstar", "1",
            "--epsilon", "1e-4"]


def _traj_csv(text, xstar="1", epsilon="1e-4"):
    def argv(tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text(text)
        return ["rate", "--traj", str(path), "--xstar", xstar, "--epsilon", epsilon]
    return argv


EVEN_CSV = "t,x,J\n0,0,1\n1e-4,0.1,0.6\n2e-4,0.2,0.3\n"


def _coeffs_epsilon(epsilon):
    return lambda tmp_path: ["coeffs", "--kind", "first12", "--epsilon", epsilon]


def _config(**overrides):
    def argv(tmp_path):
        return ["run", "--config", str(small_config(tmp_path, **overrides))]
    return argv


def _compare_band(band, **overrides_b):
    def argv(tmp_path):
        return ["compare", "--config-a", str(small_config(tmp_path, "a.json")),
                "--config-b", str(small_config(tmp_path, "b.json", **overrides_b)),
                "--out", str(tmp_path / "cmp.csv"), "--band", band]
    return argv


def _binary_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe\x00")
    return ["run", "--config", str(path)]


@pytest.mark.parametrize("argv, message", [
    (_missing_traj, "I/O error: [Errno 2] No such file or directory"),
    (_traj_csv("t,x,J\n0,0,1\n\n1e-4,0.1,0.6\n"), "line 3: expected three numbers t,x,J"),
    (_traj_csv("t,x,J\n"), "no trajectory rows after the header"),
    (lambda tmp_path: ["coeffs", "--kind", "first12", "--epsilon", "1e-4", "--target", "a,b"],
     "validation error: --target must be comma-separated integers, got 'a,b'"),
    (_config(**{"cost.alpha": True}),
     "config error: field 'cost.alpha' must be float, got bool"),
    (_config(**{"cost.m": True}), "config error: field 'cost.m' must be int, got bool"),
    (_binary_config, "config error: cannot read config"),
    (_traj_csv("t,x,J\n0,0,1\n1e-4,0.1,0.6\n3e-4,0.2,0.3\n"),
     "line 3: times must be evenly spaced and increasing"),
    (_traj_csv(EVEN_CSV, epsilon="nan"), "validation error: --epsilon must be finite, got nan"),
    (_traj_csv(EVEN_CSV, epsilon="1e-300"),
     "validation error: --epsilon 1e-300 is shorter than the sample step 0.0001 of"),
    (_traj_csv(EVEN_CSV, xstar="nan"), "validation error: --xstar must be finite, got nan"),
    (_coeffs_epsilon("nan"), "validation error: --epsilon must be finite, got nan"),
    (_coeffs_epsilon("inf"), "validation error: --epsilon must be finite, got inf"),
    (_config(**{"integrator.total_time": float("inf")}),
     "config error: field 'integrator.total_time' must be finite, got inf"),
    (_config(**{"integrator.x0": float("nan")}),
     "config error: field 'integrator.x0' must be finite, got nan"),
    (_config(system={"builder": "three_input", "phi2": 1.0},
             **{"integrator.steps_per_period": 64, "output.decimation": 64}),
     "validation error: 64 steps/period resolve the fastest harmonic (15/period)"),
    (_compare_band("nan"), "validation error: --band must be finite, got nan"),
    (_compare_band("-1"), "validation error: --band must be positive, got -1.0"),
    (lambda tmp_path: ["coeffs", "--kind", "first12", "--epsilon", "1e-4",
                       "--target", "1,2", "--tol", "nan"],
     "validation error: --tol must be finite, got nan"),
    (_compare_band("0.05", **{"output.decimation": 128}),
     "config error: sample step mismatch: 0.001 vs 0.0005"),
    # counts whose arrays numpy cannot size
    (_config(system={"builder": "three_input", "phi2": 1.0, "kappa": 10 ** 20}),
     "validation error: 256 steps/period resolve the fastest harmonic "
     "(1500000000000000000000/period)"),
    (_config(**{"integrator.total_time": 1e30}),
     "stored states are more than an array of doubles can hold"),
    (_config(**{"integrator.steps_per_period": 10 ** 20, "output.decimation": 0}),
     "validation error: 100000000000000000000 steps per period are more than an array"),
    (_config(system={"builder": "three_input", "phi2": 1e300}),
     "validation error: phi2 = 1e+300 is too large: phi2^2 overflows"),
    (_config(**{"integrator.epsilon": 5e-324}),
     "validation error: total_time / epsilon = 0.5 / 4.94066e-324 is inf periods"),
    (_config(**{"cost.m": 10 ** 100}),
     "validation error: degree m is too large: alpha m!/(m - 4)! overflows"),
    (_config(**{"cost.alpha": 10 ** 400}),
     "config error: field 'cost.alpha' must be finite, got inf"),
    (lambda tmp_path: [*_config()(tmp_path), "--steps-per-period", str(10 ** 400)],
     "validation error: 1000000000000000000000"),
    # the parser's own rejections: one line each, no usage
    (lambda tmp_path: ["coeffs", "--kind", "first12", "--epsilon", "1e-4", "--kappa", "x"],
     "liees coeffs: error: argument --kappa: invalid int value: 'x'"),
    (lambda tmp_path: ["coeffs", "--kind", "nope", "--epsilon", "1e-4"],
     "liees coeffs: error: argument --kind: invalid choice: 'nope'"),
    (lambda tmp_path: ["run", "--config", "a.json", "x\ny"],
     "liees: error: unrecognized arguments: x\\ny"),
], ids=["missing-traj", "blank-csv-line", "header-only-csv", "non-integer-target",
        "bool-alpha", "bool-degree", "binary-config",
        "uneven-csv-times", "nan-rate-epsilon", "tiny-rate-epsilon",
        "nan-xstar", "nan-coeffs-epsilon", "inf-coeffs-epsilon", "infinite-total-time",
        "nan-x0", "coarse-three-input-steps", "nan-band",
        "negative-band", "nan-tol", "sample-step-mismatch",
        "oversized-three-input-kappa", "oversized-total-time",
        "oversized-steps-per-period", "huge-phi2", "subnormal-epsilon", "huge-degree",
        "huge-integer-alpha", "huge-steps-override", "non-integer-kappa", "unknown-kind",
        "unrecognized-multiline-argument"])
def test_bad_input_exits_two_with_one_line(tmp_path, capsys, argv, message):
    assert cli.main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1 and "Traceback" not in err


# coeffs inputs that exited 2 while the coefficients came from a quadrature
# grid: a grid too coarse for the design, one numpy could not size, and a
# kappa whose grid filled the address space.  The coefficients are exact now:
# --quadrature-steps has no effect, and the band of a design counts its
# harmonics in units of kappa, so each prints the table it prints without
# them, and kappa 10^12 the design's exact target coefficient.
@pytest.mark.parametrize("extra", [
    ["--quadrature-steps", "-5"], ["--quadrature-steps", "8"], ["--kappa", "1000000000000"],
    ["--quadrature-steps", "99999999999999999999"]],
    ids=["negative-quadrature-steps", "coarse-quadrature-steps", "unallocatable-kappa",
         "oversized-quadrature-steps"])
def test_coeffs_inputs_once_rejected_now_run(capsys, extra):
    argv = ["coeffs", "--kind", "first12", "--epsilon", "1e-4", "--target", "1,2"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr()
    assert cli.main(argv + extra) == 0
    got = capsys.readouterr()
    assert got.err == ""
    if extra[0] == "--quadrature-steps":
        assert got.out == plain.out
    else:
        verdict = json.loads(got.out[got.out.index("{"):])
        assert abs(verdict["target_coeff"] - 1.0) <= 1e-12


@pytest.mark.parametrize("argv", [["--help"], ["coeffs", "--help"]])
def test_help_exits_zero_with_its_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: {' '.join(['liees', *argv[:-1]])} [-h]"), out


# -- the exit-code contract under a fuzzer ----------------------------------
#
# Every argv of run, compare, coeffs and rate drawn here ends in exit 0-3.  An
# exit 2 or 3 prints one prefixed line per problem and no traceback; the
# parser's own rejection of an argument exits 2 with one error line.  The
# draws leave out only what would exhaust the host, each range named here:
#   * a run and its LBS comparison that would take more than 2^20 RK4 steps
#     (epsilon 1e-9 with total_time 0.05 is valid and runs 1.3e10 steps:
#     minutes, not an error), unless an array of it reaches 2^50 doubles
#     (8 PiB): above that every allocation fails at once;
#   * output paths outside the test's own directory.
# A coeffs draw is never left out: its signature is exact, on arrays sized by
# the design's harmonics counted in units of kappa, whatever kappa is.

WORK_CAP = 2 ** 20
ALLOC_FAILS = 2 ** 50
PREFIXES = ("config error: ", "validation error: ", "numeric failure: ", "error: ",
            "I/O error: ", "memory error: ")

# plausible values twice as often as hostile ones
PLAUSIBLE_INTS = st.sampled_from([1, 2, 3, 4, 5, 16, 64, 256, 4096])
PLAUSIBLE_FLOATS = st.sampled_from([1e-4, 1e-3, 1e-2, 0.05, 0.5, 1.0, 2.0])
HOSTILE_NUMBERS = st.one_of(
    st.sampled_from([0, -1, 10 ** 20, 2 ** 63, 10 ** 400, 0.0, -0.0, 1.5, 1e-9, 1e-300,
                     5e-324, 1e300, float("nan"), float("inf"), float("-inf")]),
    st.integers(-3, 300), st.floats(-1e3, 1e3))
NUMBERS = st.one_of(PLAUSIBLE_INTS, PLAUSIBLE_FLOATS, HOSTILE_NUMBERS)
JSON_VALUES = st.one_of(NUMBERS, st.none(), st.booleans(),
                        st.sampled_from(["", "power", "mixed", "x", "t.csv", "sub/t.csv"]),
                        st.just([]), st.just({}))
BASE_FIELDS = {
    "cost": {"name": "power", "alpha": 1.0, "xstar": 1.0, "m": 2},
    "system": {"builder": "two_input", "N": 2, "kappa": 1, "gain": 1.0, "phi2": 1.0,
               "kappa12": 5, "kappa1222": 1, "gamma1": 1.0, "gamma3": 1.0},
    "integrator": {"epsilon": 1e-2, "steps_per_period": 64, "total_time": 0.5, "x0": 0.0},
    "analysis": {"fit": True, "lbs_compare": True},
    "output": {"trajectory_csv": "t.csv", "summary_json": "s.json", "decimation": 0},
}
FIELD_PATHS = [(s, f) for s, fields in BASE_FIELDS.items() for f in fields]
BUILDER_NAMES = list(cli.BUILDERS) + ["nope"]


@st.composite
def configs(draw):
    """A JSON text: the base config with fields replaced, dropped or added, or
    not a config at all."""
    cfg = json.loads(json.dumps(BASE_FIELDS))
    cfg["system"]["builder"] = draw(st.sampled_from(BUILDER_NAMES))
    for section, name in draw(st.lists(st.sampled_from(FIELD_PATHS), max_size=4)):
        if draw(st.booleans()):
            cfg[section].pop(name, None)
        else:
            cfg[section][name] = draw(JSON_VALUES)
    if draw(st.integers(0, 9)) == 0:
        cfg[draw(st.sampled_from(list(BASE_FIELDS)))] = draw(JSON_VALUES)
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from(["", "{", "[1, 2]", "null", '"cfg"', "\xff"]))
    return json.dumps(cfg)

JUNK_TEXT = st.sampled_from(["", "x", "1,2", "1e3", "0x10", "0.5"])
INT_TEXT = st.one_of(PLAUSIBLE_INTS.map(str), PLAUSIBLE_INTS.map(str),
                     st.one_of(HOSTILE_NUMBERS.map(repr), JUNK_TEXT))
FLOAT_TEXT = st.one_of(PLAUSIBLE_FLOATS.map(repr), PLAUSIBLE_FLOATS.map(repr),
                       st.one_of(HOSTILE_NUMBERS.map(repr), JUNK_TEXT))


def run_work(cfg: dict) -> int:
    """RK4 steps of a run of a loaded config, its LBS comparison included;
    0 when the run is rejected before it steps."""
    try:
        fastest = cli.build_from_config(cfg).fastest_harmonic
    except LieesError:
        return 0
    S, total, eps = cfg["steps_per_period"], cfg["total_time"], cfg["epsilon"]
    dec = cfg["decimation"] or S
    if S < 16 * fastest or dec < 1 or total <= 0 or 2 * S >= ALLOC_FAILS:
        return 0
    periods = total / eps
    if not math.isfinite(periods):
        return 0
    periods = max(1, round(periods))
    if periods * S // dec + 1 >= ALLOC_FAILS:
        return 0
    return periods * S + (4 * periods if cfg["lbs_compare"] else 0)


def config_work(path, steps: int, decimate: int) -> int:
    try:
        cfg = cli.load_config(str(path))
    except cli.ConfigError:
        return 0
    cfg["steps_per_period"] = steps or cfg["steps_per_period"]
    cfg["decimation"] = decimate or cfg["decimation"]
    return run_work(cfg)


def int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        return 0


def exit_code(argv):
    """cli.main's exit code and stderr; None for the parser's own rejection,
    which is exactly one line, `liees <command>: error: ...`, and exit 2."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = err.getvalue()
    if text.startswith("liees"):
        assert code == 2 and text.count("\n") == 1 and text.endswith("\n"), text
        assert text.split(": error: ")[0] in ("liees", f"liees {argv[0]}"), text
        return None, text
    return code, text


def assert_contract(code, err):
    assert "Traceback" not in err, err
    if code is None:
        return
    assert code in (0, 1, 2, 3), (code, err)
    if code in (2, 3):
        lines = err.splitlines()
        assert lines and err.endswith("\n"), err
        assert all(line.startswith(PREFIXES) for line in lines), err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    traj = sim.integrate_lbs(costs.make_power_cost(0.5, 0.0, 2), [(1, 1.0)], 1.0, 5.0, 500,
                             record_epsilon=0.01)
    sim.write_trajectory_csv(traj, str(d / "traj.csv"))
    (d / "bad.csv").write_text("t,x,J\n0,0\n")
    return d


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_exit_codes_under_a_fuzzer(fuzz_dir, data):
    command = data.draw(st.sampled_from(["run", "compare", "coeffs", "rate"]))
    out = str(fuzz_dir)
    if command in ("run", "compare"):
        paths = []
        for name in ("a.json", "b.json")[:1 + (command == "compare")]:
            path = fuzz_dir / name
            path.write_text(data.draw(configs()))
            paths.append(path)
        steps, decimate = (data.draw(st.one_of(st.just("0"), INT_TEXT)) for _ in range(2))
        if command == "run":
            argv = ["run", "--config", str(paths[0]), "--out", out,
                    "--steps-per-period", steps, "--decimate", decimate]
            work = config_work(paths[0], int_arg(steps), int_arg(decimate))
        else:
            argv = ["compare", "--config-a", str(paths[0]), "--config-b", str(paths[1]),
                    "--out", str(fuzz_dir / "cmp.csv"), "--out-dir", out,
                    "--band", data.draw(FLOAT_TEXT)]
            work = sum(config_work(p, 0, 0) for p in paths)
        assume(work <= WORK_CAP)
    elif command == "coeffs":
        kind = data.draw(st.sampled_from(["first12", "classic", "second122", "third1222",
                                          "triple123", "nope"]))
        kappa, quad = data.draw(INT_TEXT), data.draw(st.one_of(st.just("0"), INT_TEXT))
        argv = ["coeffs", "--kind", kind, "--epsilon", data.draw(FLOAT_TEXT),
                "--kappa", kappa, "--quadrature-steps", quad, "--tol", data.draw(FLOAT_TEXT)]
        if data.draw(st.booleans()):
            argv += ["--target", data.draw(st.sampled_from(["1,2", "2,1", "1,2,2", "1,2,2,2",
                                                            "1,2,3", "1,1", "", "5,6", "x"]))]
        if data.draw(st.booleans()):
            argv += ["--out", str(fuzz_dir / "coeffs")]
    else:
        traj = data.draw(st.sampled_from(["traj.csv", "traj.csv", "bad.csv", "missing.csv", "."]))
        argv = ["rate", "--traj", str(fuzz_dir / traj), "--xstar", data.draw(FLOAT_TEXT),
                "--epsilon", data.draw(FLOAT_TEXT)]
        if data.draw(st.booleans()):
            argv += ["--out", str(fuzz_dir / "rate.json")]
    assert_contract(*exit_code(argv))
