"""The CLI digest listing of ``scripts/cli_digests.py`` against the
committed ``tests/data/cli_digests.txt``.

A change that keeps every output bit leaves the file as it is; one that
moves bits regenerates it with ``--write`` and its diff shows the moved
lines; a failure names each digest that moved, is missing or is new.
Matmul and ``exp`` rounding may differ on another numpy, CPU
architecture or BLAS, so the test skips where the file's fingerprint
differs from this machine's and names the field.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_digests.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("cli_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_digests_match_committed_listing(tmp_path):
    script = _load_script()
    text = script.DIGEST_FILE.read_text().splitlines()
    recorded = dict(line[2:].split(": ", 1) for line in text if line.startswith("# "))
    expected = [line for line in text if not line.startswith("#")]
    for key, value in script.fingerprint().items():
        if recorded.get(key) != value:
            pytest.skip(f"digests were written with {key} {recorded.get(key)!r}, "
                        f"this machine has {value!r}")
    result = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                            capture_output=True, text=True, check=True)
    got = result.stdout.splitlines()
    report = _differences(expected, got)
    assert got == expected, "digest listing differs:\n" + "\n".join(report or ["(line order)"])


def _differences(expected, got):
    """One line per digest name whose digest moved, that is missing from
    ``got``, or that is new in it; lines are ``sha256  name``."""
    want, have = (dict(line.split("  ", 1)[::-1] for line in lines) for lines in (expected, got))
    return ([f"moved: {name} {want[name]} -> {have[name]}"
             for name in want if name in have and want[name] != have[name]]
            + [f"missing: {name}" for name in want if name not in have]
            + [f"new: {name}" for name in have if name not in want])
