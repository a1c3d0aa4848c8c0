"""The size of the package itself."""
from pathlib import Path

SEED_SRC_LINES = 2151  # lines of src/clams/*.py in the first version of the package


def test_src_stays_below_the_seed_line_count():
    files = sorted((Path(__file__).parents[1] / "src" / "clams").glob("*.py"))
    lines = sum(len(path.read_bytes().splitlines()) for path in files)
    assert len(files) > 1 and lines <= SEED_SRC_LINES, (lines, [path.name for path in files])
