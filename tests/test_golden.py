"""Byte-for-byte regression of kernel reports against stored output.

Each file under tests/golden holds the JSON that

    vertexscreen kernel --preset P --level L --max-weight W --out FILE

wrote before elimination over Q(k) became fraction-free.  The engine
promises identical output for a fixed configuration, so a change that
moves any byte of a basis, a dimension or a reported denominator fails
here.  Regenerate a file only for an intended change of output, and say
why in the commit.
"""

from pathlib import Path

import pytest

from vertexscreen.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = [
    ("sl3-regular", "symbolic", 8),
    ("osp1_4-regular", "symbolic", 6),
    ("sl3-subregular", "symbolic", 6),
    ("sl4-subregular", "7/2", 6),
]


@pytest.mark.parametrize("preset, level, max_w2", CASES)
def test_kernel_report_matches_golden(preset, level, max_w2, tmp_path,
                                      capsys):
    name = "kernel-%s-%s-%d.json" % (preset, level.replace("/", "_"), max_w2)
    out = tmp_path / name
    assert main(["kernel", "--preset", preset, "--level", level,
                 "--max-weight", str(max_w2), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
