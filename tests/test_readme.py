"""The README's code blocks: the library example runs as written, and the
config block is the shipped demo config."""

import contextlib
import io
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_blocks(lang):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def test_library_example_runs_as_written():
    (code,) = readme_blocks("python")
    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["j"] == 1
    assert abs(namespace["bases"][0].ell - 2.0) <= 0.01
    assert abs(namespace["ce"].extrapolated - 5.0) <= 0.2 * 5.0
    assert namespace["report"].passed
    lines = printed.getvalue().splitlines()
    assert len(lines) == 2 and lines[0].startswith("1 ") and lines[1] == "True"


def test_config_block_is_the_demo_config():
    (block,) = readme_blocks("json")
    demo = (ROOT / "configs" / "demo.json").read_text(encoding="utf-8")
    assert json.loads(block) == json.loads(demo)
