"""A `liees` process loads only the modules its command runs, and behaves as
the in-process cli.main: same exit code, stdout, stderr and files.  Each check
starts a fresh interpreter, about 0.1-0.3 s."""

import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import liees
from liees import cli

SRC = Path(liees.__file__).resolve().parents[1]
ROOT = SRC.parent
KINDS = {"first12": "1,2", "classic": "1,2", "second122": "1,2,2", "third1222": "1,2,2,2",
         "triple123": "1,2,3"}
CONFIG = {
    "cost": {"name": "power", "alpha": 1.0, "xstar": 1.0, "m": 2},
    "system": {"builder": "two_input", "N": 2, "kappa": 1, "gain": 1.0},
    "integrator": {"epsilon": 1e-3, "steps_per_period": 64, "total_time": 0.05, "x0": 0.0},
    "analysis": {"fit": True, "lbs_compare": True},
    "output": {"trajectory_csv": "traj.csv", "summary_json": "summary.json",
               "decimation": 16},
}


def python(*args, env=None, stdout=subprocess.PIPE):
    """A fresh interpreter on this source tree, with 80-column help text."""
    env = dict(os.environ if env is None else env, PYTHONPATH=str(SRC), COLUMNS="80")
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL,
                          timeout=120)


def write_config(directory: Path, name="cfg.json") -> str:
    path = directory / name
    path.write_text(json.dumps(CONFIG))
    return str(path)


def _run(tmp_path):
    return ["run", "--config", write_config(tmp_path), "--out", str(tmp_path)]


def _compare(tmp_path):
    return ["compare", "--config-a", write_config(tmp_path, "a.json"),
            "--config-b", write_config(tmp_path, "b.json"),
            "--out", str(tmp_path / "cmp.csv"), "--out-dir", str(tmp_path)]


def _rate(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,x,J\n" + "".join(f"{k * 1e-3!r},{0.5 ** k!r},{0.25 ** k!r}\n"
                                         for k in range(40)))
    return ["rate", "--traj", str(path), "--xstar", "0", "--epsilon", "1e-3"]


CORE = ["cli", "errors", "dither"]
COEFFS = CORE + ["chenfliess", "lie"]
RUN = CORE + ["_kernel", "analysis", "costs", "lie", "sim"]


@pytest.mark.parametrize("argv, modules", [
    (lambda tmp_path: ["coeffs", "--kind", "third1222", "--epsilon", "1e-4",
                       "--target", "1,2,2,2"], COEFFS),
    (lambda tmp_path: ["verify", "all"], COEFFS + ["costs", "verify"]),
    (_run, RUN),
    (_compare, RUN),
    (_rate, RUN),
    (lambda tmp_path: ["run"], CORE),
], ids=["coeffs", "verify", "run", "compare", "rate", "usage-error"])
def test_each_command_loads_only_its_modules(tmp_path, argv, modules):
    # a command imports what it runs: coeffs no sim, run no chenfliess or verify
    code = """
import sys
from liees import cli
cli.main(sys.argv[1:])
print(sorted(m[6:] for m in sys.modules if m.startswith("liees.")))
"""
    done = python("-c", code, *argv(tmp_path))
    assert done.stdout.splitlines()[-1] == str(sorted(modules)), done.stderr


def in_process(argv):
    """Exit code, stdout and stderr of cli.main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _coeffs(kind):
    return lambda tmp_path: ["coeffs", "--kind", kind, "--epsilon", "3e-4", "--kappa", "2",
                             "--target", KINDS[kind], "--out", str(tmp_path / "coeffs")]


def _missing_field(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(CONFIG, integrator={"epsilon": 2.0})))
    return ["run", "--config", str(path)]


@pytest.mark.parametrize("argv", [
    lambda tmp_path: ["--help"],
    lambda tmp_path: ["run", "--config"],
    lambda tmp_path: ["compare", "--config-a", "a.json"],
    lambda tmp_path: ["coeffs", "--kind", "first12", "--epsilon", "1e-4", "--kappa", "x"],
    lambda tmp_path: ["rate", "--traj", "t.csv", "--xstar", "nan", "--epsilon", "-"],
    lambda tmp_path: ["verify", "nope"],
    _missing_field,
    *[_coeffs(kind) for kind in KINDS],
    lambda tmp_path: ["verify", "all"],
    _run,
], ids=["help", "run-usage", "compare-usage", "coeffs-usage", "rate-usage", "verify-usage",
        "config-error", *[f"coeffs-{kind}" for kind in KINDS], "verify-all", "run"])
def test_process_equals_in_process_main(tmp_path, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    (tmp_path / "process").mkdir()
    (tmp_path / "main").mkdir()
    done = python("-m", "liees", *argv(tmp_path / "process"))
    assert (done.returncode, done.stdout, done.stderr) == in_process(argv(tmp_path / "main"))

    def files(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir() if p.name != "cfg.json"}

    assert files(tmp_path / "process") == files(tmp_path / "main")


def test_broken_pipe_keeps_exit_code_and_stderr():
    # buffered, the exit's flush meets a pipe closed before any line and the
    # interpreter reports it, exiting 120; unbuffered, the first print after
    # the reader closes raises EPIPE, which main reports as an I/O error
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with os.fdopen(write) as closed:
        done = python("-m", "liees", "verify", "all", env=env, stdout=closed)
    assert done.returncode == 120
    assert re.fullmatch(r"Exception ignored in: <_io\.TextIOWrapper name='<stdout>'.*>\n"
                        r"BrokenPipeError: \[Errno 32\] Broken pipe\n", done.stderr)

    read, write = os.pipe()
    with subprocess.Popen([sys.executable, "-m", "liees", "verify", "all"], stdout=write,
                          stderr=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
                          env=dict(env, PYTHONUNBUFFERED="1", PYTHONPATH=str(SRC))) as proc:
        os.close(write)
        with os.fdopen(read) as reader:
            assert reader.readline().startswith("[PASS] brackets:")
        rc, err = proc.wait(timeout=120), proc.stderr.read()
    if (rc, err) == (0, ""):
        # the reader closed more than the suites' 7-11 ms after the first line
        pytest.skip("verify all wrote every line before the reader closed")
    assert (rc, err) == (2, "I/O error: [Errno 32] Broken pipe\n")


def test_entry_freezes_the_heap_and_main_does_not():
    # the process's exit skips the frozen heap; in-process callers keep theirs
    code = """
import gc, sys
from liees import cli
print(cli.main(["verify", "brackets"]), gc.get_freeze_count())
sys.argv = ["liees", "verify", "brackets"]
print(cli.entry(), gc.get_freeze_count() > 0)
"""
    done = python("-c", code)
    lines = [line for line in done.stdout.splitlines() if not line.startswith("[PASS]")]
    assert lines == ["0 0", "0 True"], done.stderr


def test_console_script_enters_at_cli_entry():
    text = (ROOT / "pyproject.toml").read_text()
    target = re.search(r"^\[project\.scripts\]\nliees = \"([\w.]+):(\w+)\"$", text, re.M)
    module, name = target.groups()
    assert getattr(importlib.import_module(module), name) is cli.entry
