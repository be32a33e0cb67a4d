"""The `impulsesim ...` commands of README.md's code blocks.

As a script, runs each of them in order in one new temporary directory and
exits 1 at the first that does not exit 0:

    python tests/readme_commands.py
"""

import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path


def readme_commands() -> list[list[str]]:
    """Each command as an argv, continuation lines joined, comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
    return [shlex.split(line, comments=True)
            for block in blocks for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("impulsesim ")]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for argv in readme_commands():
            print("$", shlex.join(argv), flush=True)
            if subprocess.run(argv, cwd=scratch).returncode != 0:
                sys.exit(f"README command failed: {shlex.join(argv)}")
