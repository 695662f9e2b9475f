"""The bundle comparison of ``tools/bundle_diff.py`` sizes what changed."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bundle_diff", Path(__file__).resolve().parent.parent / "tools" / "bundle_diff.py"
)
bundle_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bundle_diff)


def write_bundle(root: Path, files: dict[str, str]) -> Path:
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def events(*ranks):
    return json.dumps({"band": 10, "events": [
        {"century": 16, "lemma": lemma, "new_rank": rank, "role": "N"}
        for lemma, rank in ranks]})


def test_identical_bundles_report_nothing(tmp_path):
    files = {"a.csv": "# seed=0\nx,y\nN,1.5\n", "e.json": events(("a", 1))}
    lines, largest = bundle_diff.compare(write_bundle(tmp_path / "base", files),
                                         write_bundle(tmp_path / "work", files))
    assert lines == [] and largest == 0.0


def test_float_changes_are_sized_and_other_changes_listed(tmp_path):
    base = write_bundle(tmp_path / "base", {
        "hierarchy_14.csv": "# seed=0\nrole,lemma,level\nN,a,0.0\nN,b,1.25\nN,c,2\n",
        "emergent_heads.json": events(("a", 1), ("b", 4)),
        "asn_14.dot": "digraph {}\n",
        "summary_14.json": json.dumps({"nodes": 3, "mean": 0.5, "name": "x"}),
    })
    work = write_bundle(tmp_path / "work", {
        "hierarchy_14.csv": "# seed=0\nrole,lemma,level\nN,a,1e-13\nN,b,1.25\nN,d,3\n",
        "emergent_heads.json": events(("a", 1), ("b", 2)),
        "asn_14.dot": "digraph { }\n",
        "summary_14.json": json.dumps({"nodes": 4, "mean": 0.5 + 2e-12, "name": "y"}),
        "extra.csv": "",
    })
    lines, largest = bundle_diff.compare(base, work)
    assert largest == pytest.approx(2e-12)
    assert lines == [
        "  asn_14.dot: differs (not sized)",
        "  emergent_heads.json: 0 float fields differ, largest |delta| 0",
        '    /events: - {"century": 16, "lemma": "b", "new_rank": 4, "role": "N"}',
        '    /events: + {"century": 16, "lemma": "b", "new_rank": 2, "role": "N"}',
        "  extra.csv: only in the working tree",
        "  hierarchy_14.csv: 1 float fields differ, largest |delta| 1e-13",
        "    line 5 field 2: 'c' -> 'd'",
        "    line 5 field 3: '2' -> '3'",
        "  summary_14.json: 1 float fields differ, largest |delta| 2e-12",
        "    /name: 'x' -> 'y'",
        "    /nodes: 3 -> 4",
    ]


def test_a_list_of_objects_that_differs_only_in_floats_is_sized(tmp_path):
    def lrt(ratio, p_value, favored="indeterminate"):
        return {"alternative": "lognormal", "favored": favored,
                "log_likelihood_ratio": ratio, "p_value": p_value}

    base = write_bundle(tmp_path / "base", {
        "powerlaw_15.json": json.dumps({"lrt": [lrt(-1.5, 0.25), lrt(3.0, 0.5)]}),
        "events.json": json.dumps({"lrt": [lrt(-1.5, 0.25)]}),
    })
    work = write_bundle(tmp_path / "work", {
        "powerlaw_15.json": json.dumps(
            {"lrt": [lrt(-1.5 + 3e-14, 0.25 - 1e-12), lrt(3.0, 0.5)]}),
        "events.json": json.dumps({"lrt": [lrt(-1.5 + 3e-14, 0.05, "lognormal")]}),
    })
    lines, largest = bundle_diff.compare(base, work)
    assert largest == pytest.approx(1e-12)
    # A float change beside a text change still shows the whole objects.
    assert lines == [
        "  events.json: 0 float fields differ, largest |delta| 0",
        '    /lrt: - {"alternative": "lognormal", "favored": "indeterminate", '
        '"log_likelihood_ratio": -1.5, "p_value": 0.25}',
        '    /lrt: + {"alternative": "lognormal", "favored": "lognormal", '
        f'"log_likelihood_ratio": {-1.5 + 3e-14!r}, "p_value": 0.05}}',
        "  powerlaw_15.json: 2 float fields differ, largest |delta| 1e-12",
    ]
