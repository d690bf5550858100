import sys
from pathlib import Path

# the benchmark's modules live one directory up and are imported by name; the
# library is imported from the repository's src/
HERE = Path(__file__).resolve()
sys.path.insert(0, str(HERE.parents[1]))
sys.path.insert(0, str(HERE.parents[2] / "src"))
