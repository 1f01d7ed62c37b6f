"""The README's Python examples run as written and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def run_block(source: str) -> list[str]:
    """The words the block prints, in a namespace of its own."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    return out.getvalue().split()


def test_readme_has_its_two_examples():
    assert len(BLOCKS) == 2


def test_quick_start_is_exponential_at_about_24():
    # 5,000 periods of 512 steps: 2.56M RK4 steps, 0.4 s on the compiled kernel
    # and 2.0 s on the Python stepper (one 2-vCPU Xeon host).  "About 24" is
    # the averaged rate 4! c = 24, within 2: the fit's own bias reads 25.2
    rate_class, lam = run_block(BLOCKS[0])
    assert rate_class == "exponential"
    assert abs(float(lam) - 24.0) <= 2.0


def test_excitation_example_prints_true_and_one():
    ok, coeff = run_block(BLOCKS[1])
    assert ok == "True" and abs(float(coeff) - 1.0) <= 1e-12
