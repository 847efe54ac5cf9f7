import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SCRIPT = _ROOT / "scripts" / "same_output.py"


def _same_output(base: Path, head: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(_SCRIPT), "--smoke", str(base), str(head)],
                          capture_output=True, text=True, timeout=120)


def test_the_repository_gives_its_own_dict_output():
    proc = _same_output(_ROOT, _ROOT)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(lines) == 10
    assert all(line.startswith("dict-") and line.endswith(", same") for line in lines)
    assert all(" exit 0/0, " in line for line in lines)


def test_a_tree_whose_dict_prints_otherwise_differs(tmp_path):
    package = tmp_path / "src" / "discotrans"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text("")  # prints nothing, exit 0
    proc = _same_output(tmp_path, _ROOT)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1
    assert len(lines) == 10
    assert all(line.endswith(", differ from byte 0") for line in lines)
