import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import prelie
from prelie import cli, verify
from prelie.cli import OP_REGISTRY, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_planar_text(capsys):
    code, out = run(capsys, "enumerate", "planar", "--degree", "3")
    assert code == 0
    assert out.splitlines() == ["((()))  energy=3", "(()())  energy=2", "count 2"]


def test_enumerate_json(capsys):
    code, out = run(capsys, "enumerate", "nonplanar", "--degree", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert len(payload["trees"]) == 4


def test_enumerate_binary_shows_rotation(capsys):
    code, out = run(capsys, "enumerate", "binary", "--degree", "2")
    assert code == 0
    assert "->" in out


def test_enumerate_cap_exit_code(capsys):
    code, _ = run(capsys, "enumerate", "planar", "--degree", "13")
    assert code == 3


def test_enumerate_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("PRELIE_MAX_DEGREE", "3")
    code, _ = run(capsys, "enumerate", "planar", "--degree", "5")
    assert code == 3
    monkeypatch.delenv("PRELIE_MAX_DEGREE")
    code, _ = run(capsys, "enumerate", "planar", "--degree", "5")
    assert code == 0


def test_enumerate_env_cap_not_integer(capsys, monkeypatch):
    monkeypatch.setenv("PRELIE_MAX_DEGREE", "abc")
    code = main(["enumerate", "planar", "--degree", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: PRELIE_MAX_DEGREE")


# ---------------------------------------------------------------------------
# compute


def test_compute_product(capsys):
    code, out = run(
        capsys, "compute", "product", "--product", "graft", "--left", "()", "--right", "(())"
    )
    assert code == 0
    assert out.strip() == "1 ((())) + 1 (()())"


def test_compute_product_bad_tree(capsys):
    code, _ = run(
        capsys, "compute", "product", "--product", "graft", "--left", "((", "--right", "()"
    )
    assert code == 2


def test_compute_psi_json(capsys):
    code, out = run(capsys, "compute", "psi", "--tree", "(()())", "--format", "json")
    assert code == 0
    terms = json.loads(out)
    assert len(terms) == 2
    assert {t["coeff"] for t in terms} == {"1"}


def test_compute_psi_inverse(capsys):
    code, out = run(capsys, "compute", "psi-inverse", "--tree", "(()())")
    assert code == 0
    assert out.strip() == "-1 ((())) + 1 (()())"


def test_compute_psi_inverse_labeled(capsys):
    code, out = run(capsys, "compute", "psi-inverse", "--tree", "a(b())")
    assert code == 0
    assert out == "1 a(b())\n"


def test_compute_coeff_both(capsys):
    code, out = run(
        capsys,
        "compute", "coeff",
        "--sigma", "(()(()))",
        "--tau", "(()()())",
        "--method", "both",
    )
    assert code == 0
    assert "recursive: 2" in out
    assert "bijections: 2" in out
    assert "match" in out


def test_compute_coeff_labeled_zero(capsys):
    # psi(a(c()b())) = a(c()b()) + a(b(c())) and psi(()) fixes the unlabeled
    # root, so neither sigma occurs: both methods must honour labels.
    for sigma, tau in (("a(b()c())", "a(c()b())"), ("a(())", "(())")):
        code, out = run(
            capsys, "compute", "coeff", "--sigma", sigma, "--tau", tau, "--method", "both"
        )
        assert code == 0
        assert out.splitlines() == ["recursive: 0", "bijections: 0", "match"], (sigma, tau)


def test_compute_alpha_labeled_zero(capsys):
    code, out = run(
        capsys, "compute", "alpha", "--s", "(())", "--tau", "a(())", "--method", "both"
    )
    assert code == 0
    assert out.splitlines() == [
        "alpha: 0", "tilde_b: 0", "sym: 1", "tilde_b_over_sym: 0", "match",
    ]


def test_compute_coeff_mismatch_exit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "coeff_c_bijections", lambda *a, **kw: -1)
    code, out = run(
        capsys,
        "compute", "coeff", "--sigma", "(())", "--tau", "(())", "--method", "both",
    )
    assert code == 4
    assert "MISMATCH" in out


def test_compute_coeff_unequal_degrees_exit_2(capsys):
    for method in ("recursive", "bijections", "both"):
        code = main(["compute", "coeff", "--sigma", "(())", "--tau", "()", "--method", method])
        captured = capsys.readouterr()
        assert code == 2, method
        assert captured.out == "" and captured.err.startswith("error: "), method


DEEP_TREE = "(" * 3000 + ")" * 3000


def test_deep_tree_exits_3(capsys):
    for argv in (
        ["compute", "psi", "--tree", DEEP_TREE],
        ["compute", "product", "--product", "graft", "--left", "()", "--right", DEEP_TREE],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3, argv[1]
        assert captured.err.startswith("error: "), argv[1]


def test_deep_tree_exits_3_without_traceback_in_subprocess():
    src = str(Path(prelie.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "prelie.cli", "compute", "psi", "--tree", DEEP_TREE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_main_reuses_parser_without_leaking_options(capsys):
    both = ("compute", "coeff", "--sigma", "(()())", "--tau", "(()())")
    code, out = run(capsys, *both, "--method", "both")
    assert code == 0
    assert out.splitlines() == ["recursive: 1", "bijections: 1", "match"]
    code, out = run(capsys, *both)
    assert code == 0
    assert out.splitlines() == ["recursive: 1"]
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_compute_alpha_both(capsys):
    code, out = run(
        capsys,
        "compute", "alpha",
        "--s", "(()())", "--tau", "(()())", "--method", "both",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "alpha": 1, "tilde_b": 2, "sym": 2, "tilde_b_over_sym": 1, "match": True
    }


def test_compute_matrix_csv(capsys):
    code, out = run(capsys, "compute", "matrix", "--degree", "3", "--format", "csv")
    assert code == 0
    assert "1,1" in out and "0,1" in out


def test_compute_beta_default(capsys):
    code, out = run(capsys, "compute", "beta", "--degree", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 3], [0, 0, 0, 1]]


def test_compute_beta_section_file(capsys, tmp_path):
    path = tmp_path / "sec.txt"
    path.write_text(prelie.default_section(3).to_text())
    code, out = run(
        capsys, "compute", "beta", "--degree", "3", "--section", str(path), "--format", "csv"
    )
    assert code == 0
    assert "1,1" in out


def test_compute_expand(capsys):
    code, out = run(capsys, "compute", "expand", "--ag", "--degree", "4", "--format", "csv")
    assert code == 0
    assert "3" in out
    code, _ = run(capsys, "compute", "expand", "--degree", "4")
    assert code == 2


def test_compute_ag_multigen(capsys):
    code, out = run(
        capsys, "compute", "ag-multigen", "--degree", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["count"] == 14


def test_compute_ag_multigen_rejects_names_that_are_not_labels(capsys):
    for alphabet in ("A", "a b,c", "a,", "a,(b)"):
        code = main(["compute", "ag-multigen", "--degree", "3", "--alphabet", alphabet])
        captured = capsys.readouterr()
        assert code == 2, alphabet
        assert captured.out == ""
        assert "is not a label" in captured.err
    code, out = run(capsys, "compute", "ag-multigen", "--degree", "2", "--alphabet", "x_1,y2")
    assert code == 0
    *monomials, count = out.splitlines()
    assert count == "count 4"
    for m in monomials:
        assert prelie.parse_monomial(m).serialize() == m


# ---------------------------------------------------------------------------
# verify


def test_verify_sequences(capsys):
    code, out = run(capsys, "verify", "sequences")
    assert code == 0
    assert "suite sequences: pass" in out


def test_verify_identities_json(capsys):
    code, out = run(
        capsys, "verify", "identities", "--max-degree", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert {c["name"] for c in payload["checks"]} == {"pre-lie-identity", "nap-identity"}


def test_verify_oracle_small(capsys):
    code, out = run(capsys, "verify", "oracle", "--max-degree", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_oracle_rejects_degree_above_brute_force_cap(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("verify oracle started work above the cap")

    monkeypatch.setattr(verify, "coeff_c_recursive", no_work)
    monkeypatch.setattr(verify, "coeff_c_bijections", no_work)
    code = main(["verify", "oracle", "--max-degree", "9"])
    captured = capsys.readouterr()
    assert code == 3
    assert "brute-force cap 8" in captured.err


def test_verify_matrices(capsys):
    code, out = run(capsys, "verify", "matrices", "--max-degree", "4")
    assert code == 0
    assert "[PASS]" in out


def test_verify_rejects_max_degree_below_one(capsys):
    for degree in ("0", "-1"):
        code = main(["verify", "matrices", "--max-degree", degree])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def test_verify_tree_grounded(capsys):
    code, out = run(capsys, "verify", "tree-grounded", "--max-degree", "5")
    assert code == 0
    assert "section-round-trip-n4" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(
        verify.SUITES, "sequences", (lambda max_degree, seed: [verify.check("forced", False)], 5)
    )
    code, out = run(capsys, "verify", "sequences")
    assert code == 1
    assert "fail" in out


# ---------------------------------------------------------------------------
# section


def test_section_show_and_validate(capsys, tmp_path):
    code, out = run(capsys, "section", "show", "--degree", "3")
    assert code == 0
    assert "(()()) => (()())" in out
    path = tmp_path / "sec.txt"
    path.write_text(out)
    code, out = run(capsys, "section", "validate", str(path))
    assert code == 0
    assert "valid section" in out


def test_section_validate_rejects_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("((())) => (()())\n")
    code, _ = run(capsys, "section", "validate", str(path))
    assert code == 2
    code, _ = run(capsys, "section", "validate", str(tmp_path / "missing.txt"))
    assert code == 2


def test_section_file_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe(()) => (())\n")
    for argv in (
        ["section", "validate", str(path)],
        ["compute", "beta", "--degree", "2", "--section", str(path)],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "UTF-8" in captured.err


def test_section_validate_without_file_exits_2(capsys):
    code = main(["section", "validate"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_section_validate_rejects_duplicate_lines(capsys, tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("(()) => (())\n(()(())) => (()(()))\n(()(())) => ((())())\n")
    code = main(["section", "validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 3" in captured.err and "line 2" in captured.err


# ---------------------------------------------------------------------------
# determinism and coverage


def test_repeat_runs_byte_identical(capsys):
    _, first = run(capsys, "compute", "matrix", "--degree", "5", "--format", "json")
    _, second = run(capsys, "compute", "matrix", "--degree", "5", "--format", "json")
    assert first == second
    _, v1 = run(capsys, "verify", "matrices", "--max-degree", "4", "--format", "json")
    _, v2 = run(capsys, "verify", "matrices", "--max-degree", "4", "--format", "json")
    assert v1 == v2


def test_registry_names_are_public_api():
    for name in OP_REGISTRY:
        assert hasattr(prelie, name), name


def test_registry_paths_name_real_subcommands():
    parser = cli.build_parser()
    top = {"enumerate", "compute", "verify", "section"}
    for path in OP_REGISTRY.values():
        assert path.split()[0] in top, path
    assert parser.prog == "prelie"


def _clear_package_caches():
    for name, module in list(sys.modules.items()):
        if name == "prelie" or name.startswith("prelie."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def test_registry_paths_reach_their_operation(capsys):
    for name, path in OP_REGISTRY.items():
        code_object = inspect.unwrap(getattr(prelie, name)).__code__
        entered = set()

        def profile(frame, event, arg):
            if event == "call":
                entered.add(frame.f_code)

        _clear_package_caches()
        sys.setprofile(profile)
        try:
            exit_code = main(path.split())
        finally:
            sys.setprofile(None)
        capsys.readouterr()
        assert exit_code == 0, path
        assert code_object in entered, f"{path} does not reach {name}"
