"""scripts/same_results.py compare: text must match, numbers may move."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "same_results.py"


@pytest.fixture(scope="module")
def same_results():
    spec = importlib.util.spec_from_file_location("same_results", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root: Path, files: dict) -> str:
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return str(root)


def test_moved_numbers_pass_and_are_reported(same_results, tmp_path, capsys):
    a = _write(tmp_path / "a", {"x.csv": "omega,v\n0.8,1.25e-3\n", "x.stdout": "PASS k2 (3)\n"})
    b = _write(tmp_path / "b", {"x.csv": "omega,v\n0.8,1.2500000000000002e-3\n", "x.stdout": "PASS k2 (3)\n"})
    assert same_results.main(["compare", a, b]) == 0
    out = capsys.readouterr().out
    assert "3 numbers, 1 moved" in out
    assert "worst absolute deviation 2.168e-19" in out


def test_exact_fails_on_a_moved_number(same_results, tmp_path, capsys):
    a = _write(tmp_path / "a", {"x.csv": "omega,v\n0.8,1.25e-3\n"})
    b = _write(tmp_path / "b", {"x.csv": "omega,v\n0.8,1.2500000000000002e-3\n"})
    assert same_results.main(["compare", "--exact", a, b]) == 1
    assert "DIFF 1 numbers moved (--exact)" in capsys.readouterr().out
    assert same_results.main(["compare", "--exact", a, a]) == 0


@pytest.mark.parametrize(
    "b_files",
    [
        {"x.csv": "omega,v\n0.8,1.25e-3,\n"},  # text around the numbers
        {"x.csv": "omega,v\n0.8,1.25e-3\n", "y.csv": ""},  # an extra file
        {"x.csv": "omega,v\n0.8,1.25e-3 7\n"},  # an extra number
        {"x.csv": "omega,w\n0.8,1.25e-3\n"},  # a changed word
    ],
    ids=["text", "file_set", "number_count", "word"],
)
def test_any_other_difference_fails(same_results, tmp_path, b_files):
    a = _write(tmp_path / "a", {"x.csv": "omega,v\n0.8,1.25e-3\n"})
    b = _write(tmp_path / "b", b_files)
    assert same_results.main(["compare", a, b]) == 1


def test_digits_inside_words_are_text(same_results):
    text, numbers = same_results._split("resonant_growth k_max2 v=-3.5e-2 t 20.3.")
    assert numbers == ["-3.5e-2", "20.3"]
    assert "k_max2" in "".join(text)
