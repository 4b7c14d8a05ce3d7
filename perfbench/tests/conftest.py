import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import program  # noqa: E402

program.import_program(HERE.parent)
