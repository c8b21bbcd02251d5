"""The CLI is built from ScenarioSpec and runs the README's documented forms."""

from dataclasses import fields

import numpy as np
import pytest

from graph_ot import SCENARIOS, ScenarioSpec, read_artifact
from graph_ot.cli import _spec_from_args, build_parser, main


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_parser_defaults_are_the_spec_defaults(name):
    args = build_parser().parse_args([name])
    assert _spec_from_args(args) == ScenarioSpec(name)


def test_parser_options_are_the_spec_fields():
    args = build_parser().parse_args(["solve"])
    options = set(vars(args)) - {"scenario"}
    assert options == {f.name for f in fields(ScenarioSpec)} - {"scenario"}


def test_multi_value_options_store_converted_tuples():
    parser = build_parser()
    args = parser.parse_args(
        ["tree-compare", "--mu-gauss1d", "15", "1.4", "1e-4", "--tree", "a.txt", "--tree", "b.txt"]
    )
    spec = _spec_from_args(args)
    assert spec.mu_gauss1d == (15.0, 1.4, 1e-4)
    assert spec.tree_files == ("a.txt", "b.txt")


def test_full_size_benchmark_2d_form_refines_the_default(tmp_path, capsys):
    # the README's full-size command, `--lattice2d 64 4.0 --origin -1
    # --steps 64`, at the default size: it must be the default problem
    default, given = tmp_path / "default.json", tmp_path / "given.json"
    assert main(["benchmark-2d", "--out", str(default)]) == 0
    argv = ["benchmark-2d", "--lattice2d", "16", "4.0", "--origin", "-1", "--steps", "16"]
    assert main(argv + ["--out", str(given)]) == 0
    a, b = read_artifact(default), read_artifact(given)
    assert b["config"] == a["config"]
    assert b["trajectory"].keys() == a["trajectory"].keys()
    for name, array in a["trajectory"].items():
        given = b["trajectory"][name]
        np.testing.assert_array_equal(given.view(np.uint64), array.view(np.uint64), strict=True)
