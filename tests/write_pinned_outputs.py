"""Write tests/pinned_outputs.json from the code as it stands.

    PYTHONPATH=src python tests/write_pinned_outputs.py

The reference pins trained numbers, so a change that moves them must not
rewrite it quietly: regenerate it only with a stated reason in CHANGES.md
(as for perfbench/reference.json), from the code before the change where the
change claims to keep every number. Not collected by pytest.
"""

import json
import tempfile
from pathlib import Path

from test_pinned_outputs import REFERENCE, pinned_outputs

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        outputs = pinned_outputs(Path(root))
    REFERENCE.write_text(json.dumps(outputs, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
