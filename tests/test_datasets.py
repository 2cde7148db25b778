import os
import subprocess
import sys
from pathlib import Path

import pytest

import sentiga
from sentiga.datasets import reference_corpus_path


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_generator_reproduces_the_asset_under_any_hash_seed(tmp_path, hash_seed):
    """String hashing varies between interpreters; the generated bytes must not."""
    out = tmp_path / "reference_corpus.csv"
    src = str(Path(sentiga.__file__).parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    script = "import sys; from sentiga.datasets import write_reference_corpus as w; w(sys.argv[1])"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == reference_corpus_path().read_bytes()
