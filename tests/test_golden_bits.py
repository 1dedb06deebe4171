"""The bits every family trains and scores to are pinned: the digests of
``tools/golden_bits.py`` (parameters, epoch losses, threshold and the verdicts
of a one-call and a per-sequence predict, for each family and input mode)
must equal ``tests/data/golden-bits.json``, in this process and in fresh
interpreters with another BLAS thread count and hash seed. A change that
moves bits re-records the file (``python tools/golden_bits.py --record``) and
names each moved entry in CHANGES.md."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "golden_bits.py"
GOLDEN = ROOT / "tests" / "data" / "golden-bits.json"


def load_tool():
    spec = importlib.util.spec_from_file_location("golden_bits", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def moved(text: str) -> list[str]:
    """The entries of a rendered digest document that differ from the file's."""
    golden, got = json.loads(GOLDEN.read_text(encoding="utf-8")), json.loads(text)
    return sorted(name for name in golden.keys() | got.keys()
                  if golden.get(name) != got.get(name))


class TestGoldenBits:
    def test_recomputed_in_process(self):
        tool = load_tool()
        text = tool.render(tool.digests())
        assert moved(text) == []
        assert text == GOLDEN.read_text(encoding="utf-8")

    def test_recomputed_with_other_blas_threads_and_hash_seeds(self):
        children = [
            subprocess.Popen(
                [sys.executable, str(TOOL)], stdout=subprocess.PIPE, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                     "OMP_NUM_THREADS": threads, "PYTHONHASHSEED": hash_seed})
            for threads, hash_seed in (("1", "0"), ("2", "4242"))]
        for child in children:
            out, _ = child.communicate(timeout=120)
            assert child.returncode == 0
            assert moved(out) == []

    def test_names_the_families_whose_scores_depend_on_the_call(self):
        # item 3's known gap: a supervised score moves with its call's rows
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        split = {name for name, entry in golden.items() if entry["split_moves_scores"]}
        assert split == {f"{family}[{mode}]" for family in ("bilstm_attention", "cnn")
                         for mode in ("index", "semantic")}
        for entry in golden.values():
            assert entry["split_moves_scores"] == (
                entry["verdicts_one_call_sha256"] != entry["verdicts_per_sequence_sha256"])
