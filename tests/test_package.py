import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_bare_import_loads_no_submodule_and_no_numeric_stack():
    # The package __init__ re-exports nothing: each name is imported from its
    # module, so a bare import pays for neither numpy nor scipy.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import entropy_classifier, json; "
            "print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                         capture_output=True, text=True).stdout
    loaded = json.loads(out)
    assert "entropy_classifier" in loaded
    assert [m for m in loaded if m.startswith("entropy_classifier.")] == []
    assert [m for m in loaded if m.split(".")[0] in ("numpy", "scipy")] == []
