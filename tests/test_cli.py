"""Command-line interface: exit codes, report structure, determinism."""

import json
import subprocess
import sys

import pytest

from nodalcert.cli import build_parser, infer_variable_count, main
from nodalcert.report import SCHEMA_VERSION

TOP_KEYS = {"schema_version", "command", "parameters", "results", "certificates", "rank_ledger", "timings"}


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_infer_variable_count():
    assert infer_variable_count("x0^2 + x3*x1") == 3
    with pytest.raises(Exception):
        infer_variable_count("no variables here")


def test_parser_covers_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ["hilbert", "pairing-check", "koszul", "varmul", "hodge", "period-diff", "certify", "sweep", "fixture"]:
        assert name in text


def test_hilbert_table_on_the_smooth_reference(capsys):
    code, doc = run_json(capsys, ["hilbert", "--fixture", "fermat:3,4", "--kmax", "8"])
    assert code == 0
    assert doc["schema_version"] == SCHEMA_VERSION
    assert set(doc) == TOP_KEYS
    table = doc["results"]["hilbert_table"]
    assert [row["quotient"] for row in table] == [1, 4, 10, 16, 19, 16, 10, 4, 1]
    assert [row["smooth_reference"] for row in table] == [1, 4, 10, 16, 19, 16, 10, 4, 1]
    assert doc["results"]["coincidence_threshold"] == "Smooth"
    assert doc["results"]["tjurina"] == 0


def test_hilbert_shows_where_columns_diverge(capsys):
    code, doc = run_json(capsys, ["hilbert", "--fixture", "one_node:3,4,seed=101", "--kmax", "10"])
    assert code == 0
    table = doc["results"]["hilbert_table"]
    ct = doc["results"]["coincidence_threshold"]
    assert ct == 8
    for row in table:
        matches = row["quotient"] == row["smooth_reference"]
        assert matches == (row["k"] <= ct)
    assert doc["results"]["tjurina"] == 1


def test_hilbert_skips_the_threshold_past_the_size_cap(capsys):
    code, doc = run_json(capsys, ["hilbert", "--fixture", "fermat:5,6", "--kmax", "2"])
    assert code == 0
    assert "coincidence_threshold" not in doc["results"] and "tjurina" not in doc["results"]
    note = doc["results"]["threshold_note"]
    assert "around degree 26" in note and "skipped as infeasible" in note


def test_hilbert_reads_polynomial_files(tmp_path, capsys):
    poly = tmp_path / "f.txt"
    poly.write_text("x0^4 + x1^4 + x2^4 + x3^4\n")
    code, doc = run_json(capsys, ["hilbert", "--input", str(poly), "--kmax", "2"])
    assert code == 0
    assert doc["parameters"]["n"] == 3
    assert doc["parameters"]["degree"] == 4


def test_hilbert_keeps_its_table_when_the_count_does_not_stabilize(tmp_path, capsys):
    # a cubic surface in (x0, x1)^2: singular along the line x0 = x1 = 0
    poly = tmp_path / "f.txt"
    poly.write_text("x0^2*x2 + x1^2*x3 + x0*x1*x2 + x0^3 + x1^3 + 2*x0^2*x3\n")
    code, doc = run_json(capsys, ["hilbert", "--input", str(poly)])
    assert code == 0
    results = doc["results"]
    assert [row["quotient"] for row in results["hilbert_table"]] == [1, 4, 6, 6, 7, 8, 9]
    assert (results["socle_degree"], results["coincidence_threshold"]) == (4, 2)
    assert results["tjurina"] == "not stabilized"
    assert results["tjurina_note"] == "quotient dimensions did not stabilize by degree 13"


def test_koszul_keeps_its_report_when_the_relation_scan_finds_nothing(capsys):
    # one node on a quintic: ct = 12 puts the first relation at 12 - 5 + 2 = 9
    code, doc = run_json(capsys, ["koszul", "--fixture", "one_node:3,5,seed=303", "--qmax", "8"])
    assert code == 0
    results = doc["results"]
    assert doc["certificates"][0]["verdict"] == "Nodal(1)"
    assert results["cohomology_dims"] == {str(m): 0 for m in range(8)}
    assert results["vanishing_holds"] is True
    assert results["min_relation_degree"] == "not found"
    assert results["min_relation_degree_note"] == "no nontrivial syzygy found through degree 8"
    assert results["coincidence_threshold"] == 12
    assert "threshold_identity" not in results
    code, doc = run_json(capsys, ["koszul", "--fixture", "one_node:3,5,seed=303", "--qmax", "9"])
    assert code == 0
    assert (doc["results"]["min_relation_degree"], doc["results"]["threshold_identity"]) == (9, True)


@pytest.mark.parametrize("field", ["fp:2147483629,fp:2147483587", "exact"])
@pytest.mark.parametrize(
    "argv", [["koszul", "--kmax", "14"], ["hilbert", "--kmax", "12"]], ids=["koszul", "hilbert"]
)
def test_user_chosen_degrees_stop_at_the_entry_cap(monkeypatch, capsys, field, argv):
    from nodalcert import field as field_module
    from nodalcert import linalg

    cap = 140_000  # above certify's largest slice on this quartic (480 x 286)
    monkeypatch.setattr(linalg, "_ENTRY_CAP", cap)
    densified = []

    def spy(dense):
        return lambda self, coo, *args: densified.append(coo.shape) or dense(self, coo, *args)

    for realization in (field_module.PrimeField, field_module.Rationals):
        monkeypatch.setattr(realization, "dense", spy(realization.dense))
    code = main(argv + ["--fixture", "one_node:3,4,seed=101", "--field", field])
    assert code == 2
    assert "past the feasible size cap of 140000" in capsys.readouterr().err
    assert densified and max(rows * cols for rows, cols in densified) <= cap


def test_smooth_inputs_require_opt_in(capsys):
    assert main(["pairing-check", "--fixture", "fermat:3,4"]) == 2
    capsys.readouterr()
    code, doc = run_json(capsys, ["pairing-check", "--fixture", "fermat:3,4", "--allow-smooth"])
    assert code == 0
    assert doc["results"]["pairing_injective"] is True


def test_pairing_check_on_a_certified_node(capsys):
    code, doc = run_json(capsys, ["pairing-check", "--fixture", "one_node:3,4,seed=101"])
    assert code == 0
    assert doc["results"]["pairing_rank"] == doc["results"]["expected_rank"] == 19
    assert doc["certificates"][0]["verdict"] == "Nodal(1)"


def test_koszul_window_and_identity(capsys):
    code, doc = run_json(capsys, ["koszul", "--fixture", "one_node:3,4,seed=101", "--qmax", "8"])
    assert code == 0
    dims = doc["results"]["cohomology_dims"]
    assert all(v == 0 for m, v in dims.items() if int(m) <= 5)
    assert doc["results"]["vanishing_holds"] is True
    assert doc["results"]["min_relation_degree"] == 6
    assert doc["results"]["coincidence_threshold"] == 8
    assert doc["results"]["threshold_identity"] is True


def test_varmul_kernels_vanish(capsys):
    code, doc = run_json(capsys, ["varmul", "--fixture", "one_node:3,4,seed=101"])
    assert code == 0
    assert doc["results"]["kernels_vanish"] is True
    assert set(doc["results"]["kernel_dims"].values()) == {0}


def test_hodge_compares_saturation_with_the_point_ideal(capsys):
    code, doc = run_json(capsys, ["hodge", "--fixture", "one_node:3,4,seed=101"])
    assert code == 0
    assert doc["results"]["gr_top"] == 1
    assert doc["results"]["gr_next"] == 18
    assert doc["results"]["saturation_dim"] == doc["results"]["ideal_of_points_dim"] == 34
    assert doc["results"]["saturation_matches_points"] is True


def test_period_diff_full_subspace(capsys):
    code, doc = run_json(capsys, ["period-diff", "--fixture", "one_node:3,4,seed=101"])
    assert code == 0
    assert doc["results"]["rank"] == doc["results"]["subspace_dim"] == 19
    assert doc["results"]["injective"] is True


def test_period_diff_with_a_subspace_file(tmp_path, capsys):
    sub = tmp_path / "v.txt"
    sub.write_text("x0*x1*x2*x3\n# a comment\nx0^4\n")
    code, doc = run_json(
        capsys, ["period-diff", "--fixture", "one_node:3,4,seed=101", "--subspace", str(sub)]
    )
    assert code == 0
    assert doc["results"]["subspace_dim"] == 2
    assert doc["results"]["injective"] is True


def test_period_diff_rejects_fourfolds(capsys):
    code = main(["period-diff", "--fixture", "one_node:4,5,seed=505"])
    err = capsys.readouterr().err
    assert code == 2
    assert "hypothesis not met" in err


def test_certify_json_document(capsys):
    code, doc = run_json(capsys, ["certify", "--fixture", "one_node:3,4,seed=101"])
    assert code == 0
    cert = doc["certificates"][0]
    assert cert["verdict"] == "Nodal(1)"
    assert cert["route"] == "literal"
    assert cert["tjurina"] == 1
    assert doc["parameters"]["seed"] == 101
    assert doc["parameters"]["claimed_nodes"] == ["[0 : 0 : 0 : 1]"]
    assert any(label.startswith("jacobian/") for label in doc["rank_ledger"])


def test_certify_smooth_and_opt_in(capsys):
    assert main(["certify", "--fixture", "fermat:3,4"]) == 2
    capsys.readouterr()
    code, doc = run_json(capsys, ["certify", "--fixture", "fermat:3,4", "--allow-smooth"])
    assert code == 0
    assert doc["certificates"][0]["verdict"] == "Smooth"


def test_certify_reports_infeasible_inputs_honestly(capsys):
    code, doc = run_json(capsys, ["certify", "--fixture", "one_node:5,6,seed=808"])
    assert code == 2
    cert = doc["certificates"][0]
    assert cert["verdict"].startswith("Failed")
    assert "feasible size cap" in cert["reason"]


def test_certify_with_a_wrong_points_file(tmp_path, capsys):
    pts = tmp_path / "p.txt"
    pts.write_text("[1 : 0 : 0 : 0]\n")
    code, doc = run_json(
        capsys, ["certify", "--fixture", "one_node:3,4,seed=101", "--points", str(pts)]
    )
    assert code == 2
    assert doc["certificates"][0]["verdict"].startswith("Failed")


def test_input_error_exit_codes(tmp_path, capsys):
    assert main(["certify", "--fixture", "bogus-spec"]) == 2
    assert main(["certify", "--fixture", "one_node:3,4"]) == 2  # missing seed
    assert main(["certify", "--fixture", "multi_node:1,3,2,seed=1"]) == 2  # no candidate in the tries
    assert main(["certify", "--input", "/nonexistent/path.txt"]) == 2
    assert main(["certify"]) == 2  # neither --fixture nor --input
    # coefficients past int64, in the surface and in a deformation subspace
    poly, sub = tmp_path / "f.txt", tmp_path / "v.txt"
    poly.write_text("x0^3 + x1^3 + x2^3 + x0*x1*x2 + 100000000000000000000000*x3^3\n")
    sub.write_text("x0^5 + 100000000000000000000000000000*x1^5\n")
    assert main(["certify", "--input", str(poly)]) == 2
    assert main(["period-diff", "--fixture", "one_node:3,5,seed=1", "--subspace", str(sub)]) == 2
    assert capsys.readouterr().err.count("int64 safety bound") == 2
    # a deformation subspace with no polynomial in it: an empty file, and one of comments only
    empty, comments = tmp_path / "empty.txt", tmp_path / "comments.txt"
    empty.write_text("")
    comments.write_text("# nothing\n")
    for path in (empty, comments):
        assert main(["period-diff", "--fixture", "one_node:3,4,seed=101", "--subspace", str(path)]) == 2
    assert capsys.readouterr().err.count("the deformation subspace is empty") == 2


def test_corrupted_points_file(tmp_path, capsys):
    pts = tmp_path / "bad.txt"
    pts.write_text("[1 : frog : 0 : 0]\n")
    assert main(["certify", "--fixture", "one_node:3,4,seed=101", "--points", str(pts)]) == 2
    capsys.readouterr()


def test_sweep_reports_constancy(capsys):
    code, doc = run_json(
        capsys, ["sweep", "one_node:3,4,seed=11", "one_node:3,4,seed=22"]
    )
    assert code == 0
    assert doc["results"]["constancy"] is True
    entries = doc["results"]["fixtures"]
    assert [e["seed"] for e in entries] == [11, 22]
    assert all(e["verdict"] == "Nodal(1)" for e in entries)
    assert all(e["gr_top"] == 1 and e["gr_next"] == 18 for e in entries)


def test_sweep_with_a_smooth_entry(capsys, monkeypatch):
    import nodalcert.cli as cli

    grouped = []
    check = cli.corollary_constancy_check
    monkeypatch.setattr(cli, "corollary_constancy_check", lambda items: grouped.append(items) or check(items))
    code, doc = run_json(capsys, ["sweep", "fermat:3,4", "one_node:3,4,seed=11", "one_node:3,4,seed=22"])
    assert code == 2
    smooth, *nodal = doc["results"]["fixtures"]
    assert smooth["verdict"] == "Smooth"
    assert not any(key.startswith("gr_") for key in smooth)
    assert [count for count, _ in grouped[0]] == [1, 1]
    assert doc["results"]["constancy"] is True
    prefixes = [e["fixture"] + "/" for e in nodal]
    assert all(label.startswith(tuple(prefixes)) for label in doc["rank_ledger"])
    assert all(any(label.startswith(p) for label in doc["rank_ledger"]) for p in prefixes)


def test_sweep_parallel_matches_serial_byte_for_byte():
    argv = [
        sys.executable, "-m", "nodalcert.cli", "sweep",
        "fermat:3,4", "one_node:3,4,seed=11", "one_node:3,4,seed=22", "--json",
    ]
    serial = subprocess.run(argv, capture_output=True, text=True)
    threaded = subprocess.run(argv + ["--threads", "2"], capture_output=True, text=True)
    assert serial.returncode == threaded.returncode == 2
    strip = lambda raw: {k: v for k, v in json.loads(raw).items() if k != "timings"}
    assert strip(serial.stdout) == strip(threaded.stdout)


def test_sweep_threads_below_one_are_rejected(capsys):
    for threads in ("0", "-3"):
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", "one_node:3,4,seed=11", "--threads", threads])
        assert exit_.value.code == 2
    capsys.readouterr()


def test_sweep_starts_no_more_workers_than_fixtures(capsys, monkeypatch):
    import concurrent.futures

    started = []

    class InProcessPool:
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    code, doc = run_json(capsys, ["sweep", "one_node:3,4,seed=11", "one_node:3,4,seed=22", "--threads", "64"])
    assert code == 0 and doc["results"]["constancy"] is True
    assert started == [2]


def test_fixture_subcommand_prints_the_surface(capsys):
    code, doc = run_json(capsys, ["fixture", "one_node:3,4", "--seed", "42"])
    assert code == 0
    assert doc["results"]["fixture"] == "one_node(n=3, d=4, seed=42)"
    assert "x3" in doc["results"]["polynomial"]
    assert doc["results"]["points"] == ["[0 : 0 : 0 : 1]"]
    assert doc["parameters"]["seed"] == 42


def test_text_rendering_is_the_default(capsys):
    code = main(["certify", "--fixture", "one_node:3,4,seed=101"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("== nodalcert certify report")
    assert "verdict: Nodal(1)" in out
