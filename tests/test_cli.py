import inspect
import json
import os
import random
import shlex
import subprocess
import sys
from itertools import product as iproduct
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def test_cap_zero_exits_3(capsys):
    for argv in (
        ["enumerate", "planar", "--degree", "3", "--cap", "0"],
        ["compute", "ag-multigen", "--degree", "6", "--cap", "0"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3, argv
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "cap 0" in captured.err, argv


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
        ["compute", "psi-inverse", "--tree", DEEP_TREE],
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


def _cli_in_fresh_process(*argv):
    src = str(Path(prelie.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "prelie.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_psi_inverse_of_a_deep_chain_in_subprocess():
    # The left-Butcher recursion goes one level per branch: a chain is its
    # own image and preimage.
    chain = "(" * 450 + ")" * 450
    proc = _cli_in_fresh_process("compute", "psi-inverse", "--tree", chain)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", f"1 {chain}\n")


def test_psi_of_a_deep_chain_in_subprocess():
    # _psi's memo is a plain dict, so each tree level costs one level of the
    # recursion limit: a chain, its own image, is reached to about 980 deep.
    chain = "(" * 900 + ")" * 900
    proc = _cli_in_fresh_process("compute", "psi", "--tree", chain)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", f"1 {chain}\n")


def test_left_graft_of_deep_chains_in_subprocess():
    # Both exit 3 when a tree level costs two levels of the recursion limit.
    # Grafting onto an n-deep chain sums n trees whose distinct subtrees hold
    # about 2n^3/3 characters, so that chain stays at 600 (about 200 MiB).
    chain = "(" * 900 + ")" * 900
    proc = _cli_in_fresh_process("compute", "product", "--product", "left-graft", "--left", chain, "--right", "()")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"1 ({chain})\n"
    chain = "(" * 600 + ")" * 600
    proc = _cli_in_fresh_process("compute", "product", "--product", "left-graft", "--left", "()", "--right", chain)
    assert (proc.returncode, proc.stderr) == (0, "")
    terms = proc.stdout.split(" + ")
    assert len(terms) == 600
    assert all(t.startswith("1 (") for t in terms)


def test_graft_onto_a_deep_chain_in_subprocess():
    # One interpreter level per tree level: a graft of a vertex at each of
    # the 600 vertices of the chain gives 600 distinct trees.
    chain = "(" * 600 + ")" * 600
    proc = _cli_in_fresh_process("compute", "product", "--product", "graft", "--left", "()", "--right", chain)
    assert (proc.returncode, proc.stderr) == (0, "")
    terms = proc.stdout.split(" + ")
    assert len(terms) == 600
    assert all(t.startswith("1 (") for t in terms)


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


def dense_csv(m):
    """The CSV text of a matrix built from its dense entries."""
    lines = ["," + ",".join(m.col_basis)]
    lines += [name + "," + ",".join(map(str, row)) for name, row in zip(m.row_basis, m.entries)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("band", [1, 50, 133, 10**9])
def test_csv_is_the_dense_grid_in_any_band(capsys, monkeypatch, band):
    """Every band size, down to one cell, prints the dense grid's CSV, both
    from ``to_csv`` and line by line from the CLI."""
    monkeypatch.setattr(prelie.matrix, "_CSV_BAND_CELLS", band)
    for m, argv in [
        (prelie.psi_matrix(6), ["matrix", "--degree", "6"]),
        (prelie.alpha_matrix(6), None),
        (prelie.beta_matrix(prelie.default_section(6), 6), ["beta", "--degree", "6"]),
    ]:
        assert m.to_csv() == dense_csv(m)
        if argv:
            code, out = run(capsys, "compute", *argv, "--format", "csv")
            assert code == 0 and out == dense_csv(m)


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


def test_verify_rejects_max_degree_above_cap_before_work(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("verify started work above the cap")

    monkeypatch.setattr(verify, "psi_matrix", no_work)
    monkeypatch.setattr(verify, "n_statistic_total", no_work)
    monkeypatch.setattr(verify.trees, "enumerate_nonplanar", no_work)
    monkeypatch.setattr(verify.monomials, "ag_basis", no_work)
    for suite in sorted(verify.SUITES):
        code = main(["verify", suite, "--max-degree", "13"])
        captured = capsys.readouterr()
        assert code == 3, suite
        assert captured.out == ""
        assert captured.err == "error: max degree 13 exceeds cap 12\n", suite


def reference_triples(max_degree):
    """The triples the identities suite drew from before: the whole cube
    of the pool, filtered by total degree."""
    pool = []
    for n in range(1, max_degree - 1):
        pool.extend(prelie.enumerate_nonplanar(n))
    return [
        (s, t, u)
        for s, t, u in iproduct(pool, pool, pool)
        if s.degree + t.degree + u.degree <= max_degree
    ]


def test_identity_triples_match_filtered_cube():
    for n in range(3, 10):
        want = reference_triples(n)
        assert verify._triples(n) == want, n


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


def test_verify_identities_rejects_max_degree_below_three(capsys):
    # every triple has degree >= 3: below that the suite would check nothing
    for degree in ("1", "2"):
        code = main(["verify", "identities", "--max-degree", degree])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
    code, out = run(capsys, "verify", "identities", "--max-degree", "3")
    assert code == 0
    assert "[PASS] pre-lie-identity  (1 triples, 0 failures)" in out


def test_verify_tree_grounded(capsys):
    code, out = run(capsys, "verify", "tree-grounded", "--max-degree", "5")
    assert code == 0
    for n in range(2, 6):
        assert f"[PASS] section-round-trip-n{n}\n" in out
    assert "section-round-trip-n1" not in out
    assert "section-round-trip-n6" not in out


def test_tree_grounded_round_trip_catches_graft_kernel_faults(capsys, monkeypatch):
    # The round trip compares the AG-section beta, built by the pre-Lie
    # graft kernel, with the planar left-graft images projected termwise,
    # so a fault in the graft kernel alone must fail it.  The alpha column
    # sums of verify matrices catch both faults too: a matrix drops any
    # text outside its row basis rather than failing on it.
    products = sys.modules["prelie.products"]
    graft_texts = products._graft_texts

    def root_graft_twice(memo, s, t):
        out = graft_texts(memo, s, t)
        if s != "()" and len(products._children(t)[1]) >= 2:
            out = memo[t] = out[:1] + out
        return out

    def child_joins_last(label, kids, keys, x):
        return f"{label}({''.join(kids)}{x})"

    faults = (
        ("_graft_texts", root_graft_twice, "n5"),
        ("_joined", child_joins_last, "n4"),
    )
    for name, fault, first_sum in faults:
        _clear_package_caches()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(products, name, fault)
                code, out = run(capsys, "verify", "tree-grounded", "--max-degree", "7")
                sums_code, sums_out = run(capsys, "verify", "matrices", "--max-degree", "6")
        finally:
            _clear_package_caches()
        assert code == 1, name
        assert "[FAIL] section-round-trip-n" in out, name
        assert sums_code == 1, name
        assert f"[FAIL] alpha-column-sums-{first_sum}" in sums_out, name


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
    """Empty every memo of the package: each memoized function, whether an
    ``lru_cache`` or a plain-dict memo, has a ``cache_clear``."""
    for name, module in list(sys.modules.items()):
        if name == "prelie" or name.startswith("prelie."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def test_clearing_package_caches_empties_the_plain_dict_memos(capsys):
    psi_module, products = sys.modules["prelie.psi"], sys.modules["prelie.products"]
    requests = (
        ["verify", "oracle", "--max-degree", "4"],
        ["compute", "psi", "--tree", "(()(()))"],
        ["compute", "psi-inverse", "--tree", "(()(()))"],
        ["compute", "product", "--product", "graft", "--left", "(())", "--right", "(()())"],
    )
    for argv in requests:
        assert main(argv) == 0, argv
    capsys.readouterr()
    memos = {
        "coeff_c_recursive": lambda: psi_module.coeff_c_recursive.cache_info().currsize,
        "psi": lambda: psi_module.psi.cache_info().currsize,
        "_inverses": lambda: len(psi_module._inverses),
        "_grafts": lambda: len(products._grafts),
    }
    assert all(size() for size in memos.values()), {name: size() for name, size in memos.items()}
    _clear_package_caches()
    assert {name: size() for name, size in memos.items()} == dict.fromkeys(memos, 0)


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


# ---------------------------------------------------------------------------
# the grammar table parser against the argparse tree


def reference_main(argv):
    """``main`` with the argparse tree alone: it parses every line, then
    the same exception mapping."""
    args = cli.build_parser().parse_args(argv)
    try:
        return args.func(args)
    except cli.DegreeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_CAP
    except RecursionError:
        print("error: tree nested too deeply to process", file=sys.stderr)
        return cli.EXIT_CAP
    except (cli.DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_BAD_ARGS


def outcome(capsys, fn, argv):
    """(exit code, stdout, stderr) of one call, a ``SystemExit`` included."""
    try:
        code = fn(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EDGE_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["enumerate", "-h"],
    ["compute", "-h"],
    ["compute", "psi", "-h"],
    ["compute", "psi", "--tree", "()", "-h"],
    ["verify", "--help"],
    ["section", "-h"],
    ["frobnicate"],
    ["-x"],
    ["compute"],
    ["compute", "frobnicate"],
    ["compute", "-x"],
    ["compute", "psi"],
    ["compute", "psi", "--tree"],
    ["enumerate", "planar"],
    ["enumerate", "trees", "--degree", "3"],
    ["compute", "coeff", "--sigma", "()", "--tau", "()", "--method", "all"],
    ["enumerate", "planar", "--degree", "x"],
    ["enumerate", "planar", "--deg", "3"],
    ["enumerate", "--degree", "3", "planar"],
    ["compute", "psi", "--tree=(())"],
    ["compute", "psi", "--tre", "(())"],
    ["compute", "psi", "--", "--tree", "(())"],
    ["--", "compute", "psi", "--tree", "()"],
    ["compute", "--", "psi", "--tree", "()"],
    ["enumerate", "--", "planar", "--degree", "3"],
    ["enumerate", "planar", "--degree", "3", "extra"],
    ["compute", "psi", "--tree", "()", "extra"],
    ["section", "show", "a", "b"],
    ["enumerate", "planar", "--degree", "3", "--unknown"],
    ["compute", "psi", "--tree", "()", "--tree", "(())"],
    ["compute", "matrix", "--degree", "3", "--format", "xml"],
    ["section"],
    ["verify", "sequences", "--max-degree", "-1"],
    ["compute", "alpha", "--ta", "(())", "--s", "(())"],
    ["compute", "psi-inverse", "--tree", ""],
    ["compute", "expand", "--ag", "--ag", "--degree", "2"],
    *([*words, "-h"] for words in cli.GRAMMAR),
    ["compute", "coeff", "--sigma", "()", "--tau", "()", "--brute-cap", "-3"],
    ["compute", "psi", "--tree", "()", "--format=json"],
    ["enumerate", "planar", "--degree", "1_0"],
    ["enumerate", "planar", "--degree", " 3"],
    ["compute", "coeff", "--sigma", "()", "--tau", "()", "--method", "BOTH"],
    ["compute", "psi", "--tree", "-()"],
    ["compute", "product", "--product", "graft", "--left", "()"],
    ["section", "show", "--degree", "4", "extra"],
    ["section", "show", "-()"],
]


def readme_command_lines():
    """Each ``prelie ...`` line of the README, split into words, with the
    file a ``>`` redirection names."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    for line in readme.read_text().splitlines():
        if line.startswith("prelie "):
            command, _, target = line.partition(" > ")
            yield shlex.split(command)[1:], target.strip() or None


def sampled_request_lines(seed=11, count=60):
    """Seeded compute psi / psi-inverse / coeff / alpha / product lines."""
    rng = random.Random(seed)
    trees = {n: [t.serialize() for t in prelie.enumerate_planar(n)] for n in range(1, 7)}
    lines = []
    for k in range(count):
        n = rng.randint(1, 6)
        a, b = rng.choice(trees[n]), rng.choice(trees[n])
        fmt = ["--format", "json"] if k % 7 == 0 else []
        kind = k % 5
        if kind == 0:
            lines.append(["compute", "psi", "--tree", a, *fmt])
        elif kind == 1:
            lines.append(["compute", "psi-inverse", "--tree", a, *fmt])
        elif kind == 2:
            method = rng.choice(["recursive", "bijections", "both"])
            lines.append(["compute", "coeff", "--sigma", a, "--tau", b, "--method", method, *fmt])
        elif kind == 3:
            method = rng.choice(["fiber", "bijections", "both"])
            lines.append(["compute", "alpha", "--s", a, "--tau", b, "--method", method, *fmt])
        else:
            product = rng.choice(sorted(cli.PRODUCTS))
            right = rng.choice(trees[rng.randint(1, 5)])
            lines.append(["compute", "product", "--product", product, "--left", a, "--right", right, *fmt])
    return lines


def test_leaf_dispatch_matches_full_parser(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("PRELIE_MAX_DEGREE", raising=False)
    monkeypatch.chdir(tmp_path)
    cases = [path.split() for path in OP_REGISTRY.values()] + EDGE_CASES + sampled_request_lines()
    for argv in cases:
        want = outcome(capsys, reference_main, argv)
        assert outcome(capsys, main, argv) == want, argv
    readme = list(readme_command_lines())
    assert len(readme) >= 15
    for argv, target in readme:
        want = outcome(capsys, reference_main, argv)
        assert outcome(capsys, main, argv) == want, argv
        if target:
            (tmp_path / target).write_text(want[1])


def test_leaf_parsers_are_recorded_under_their_command_words(capsys):
    assert set(cli.GRAMMAR) == {
        ("enumerate",), ("verify",), ("section",),
        *(("compute", op) for op in (
            "product", "psi", "psi-inverse", "coeff", "alpha", "matrix", "beta",
            "expand", "ag-multigen",
        )),
    }
    parser = cli.build_parser()
    for words in cli.GRAMMAR:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*words, "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: {' '.join(('prelie', *words))} [-h]")


OPTION_STRINGS = {name for leaf in cli.GRAMMAR.values() for name in leaf.options}


def test_table_parser_takes_every_ordinary_line(monkeypatch):
    """Every registry, sampled request and plain README line is parsed from
    the table, without building the argparse tree, into the namespace the
    tree gives it."""

    def no_tree():
        raise AssertionError("the argparse tree was built")

    readme = [
        argv for argv, _ in readme_command_lines()
        if not any("=" in w or (w.startswith("-") and w not in OPTION_STRINGS) for w in argv)
    ]
    assert len(readme) >= 15
    lines = [path.split() for path in OP_REGISTRY.values()] + readme + sampled_request_lines()
    cli._parser.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", no_tree)
        parsed = [cli._parse_args(argv) for argv in lines]
    assert cli._parser.cache_info().currsize == 0
    tree = cli.build_parser()
    for argv, args in zip(lines, parsed):
        assert vars(args) == vars(tree.parse_args(argv)), argv


# The words a command line may hold after its leaf words: the leaf's option
# strings, with =, abbreviated and with their choices, small ints, malformed
# ints, short tree texts (one not closed, one starting with -), -- and -h.
# Degrees stay at most 6, so every accepted line is cheap.
TEXTS = ("()", "(())", "(()())", "a(b())", "sec.txt")
COMMON_WORDS = (*map(str, range(-2, 7)), "x", "1.5", "0_5", " 3", "+4", "", *TEXTS, "((", "-()", "--", "-h")


def _leaf_words(words):
    leaf = cli.GRAMMAR[words]
    out = set(COMMON_WORDS)
    for arg in leaf.args:
        out.update(arg.choices or ())
        if arg.name.startswith("--"):
            out.update((arg.name, arg.name[:-1], f"{arg.name}=3", f"{arg.name}=()"))
    return sorted(out)


LEAF_WORDS = {words: _leaf_words(words) for words in cli.GRAMMAR}


def _rarely(draw):
    return draw(st.integers(0, 5)) == 0


def _value(draw, arg):
    """A value for an argument: a valid one, or rarely one that is not (a
    choice in upper case or after a dash, a malformed int, a tree text
    after a dash, -- or -h)."""
    if arg.choices:
        good, bad = arg.choices, (arg.choices[0].upper(), "-" + arg.choices[0])
    elif arg.type is int:
        good, bad = tuple(map(str, range(-2, 7))), ("x", "1.5", "0_5", " 3")
    else:
        good, bad = TEXTS, ("-()", "--", "-h")
    return draw(st.sampled_from(bad if _rarely(draw) else good))


@st.composite
def command_lines(draw):
    """A leaf's words, then either any words of its vocabulary or a line
    shaped like a request: positionals, then options in any order, each
    with a value drawn for it, a required option rarely left out, and
    rarely one vocabulary word inserted."""
    words = draw(st.sampled_from(sorted(cli.GRAMMAR)))
    vocabulary = st.sampled_from(LEAF_WORDS[words])
    if draw(st.booleans()):
        return [*words, *draw(st.lists(vocabulary, max_size=8))]
    leaf = cli.GRAMMAR[words]
    tail = [_value(draw, arg) for arg in leaf.positionals]
    for arg in draw(st.permutations(list(leaf.options.values()))):
        if (arg.required and not _rarely(draw)) or draw(st.booleans()):
            tail.append(arg.name)
            if not arg.flag:
                tail.append(_value(draw, arg))
    if _rarely(draw):
        tail.insert(draw(st.integers(0, len(tail))), draw(vocabulary))
    return [*words, *tail]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=command_lines())
def test_table_parser_matches_argparse_on_drawn_lines(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.delenv("PRELIE_MAX_DEGREE", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sec.txt").write_text("(()) => (())\n")
    assert outcome(capsys, main, argv) == outcome(capsys, reference_main, argv)


def test_closed_output_pipe_exits_141_silently():
    # degree 11 prints about 570 kB, more than a pipe holds, so the writer is
    # still writing when the reader closes its end
    src = str(Path(prelie.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "prelie.cli", "enumerate", "planar", "--degree", "11"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert first == b"((((((((((()))))))))))  energy=55\n"
    assert err == b""


def test_closed_output_pipe_during_matrix_csv_exits_141_silently():
    # the degree-9 matrix prints about 4 MB, written line by line, so the
    # reader's close shows at the next write
    src = str(Path(prelie.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "prelie.cli", "compute", "matrix", "--degree", "9", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.read(1)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert first == b","
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "matrix", "--degree", "9"],
        ["compute", "expand", "--ag", "--degree", "9"],
        ["enumerate", "planar", "--degree", "11"],
    ],
)
def test_closed_output_pipe_during_json_exits_141_silently(argv):
    # each prints megabytes of JSON, more than a pipe holds, written a piece
    # at a time, so the reader's close shows at the next write rather than
    # cutting one long write short without an error
    src = str(Path(prelie.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "prelie.cli", *argv, "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.read(1)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert first == b"{"
    assert err == b""


@pytest.mark.parametrize("band", [1, 50, 10**9])
def test_matrix_json_is_json_dumps_of_the_dense_grid_in_any_band(capsys, monkeypatch, band):
    monkeypatch.setattr(prelie.matrix, "_CSV_BAND_CELLS", band)
    for m, argv in [
        (prelie.psi_matrix(1), ["matrix", "--degree", "1"]),
        (prelie.psi_matrix(6), ["matrix", "--degree", "6"]),
        (prelie.alpha_matrix(5), None),
        (prelie.beta_matrix(prelie.default_section(6), 6), ["beta", "--degree", "6"]),
        (prelie.expand_basis(prelie.ag_basis(6)), ["expand", "--ag", "--degree", "6"]),
    ]:
        want = json.dumps(m.to_json())
        assert m.to_json_str() == want
        if argv:
            code, out = run(capsys, "compute", *argv, "--format", "json")
            assert code == 0 and out == want + "\n"


def test_dense_matrix_above_cell_budget_exits_3_before_any_image(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("an image was computed above the cell budget")

    monkeypatch.setattr(sys.modules["prelie.psi"], "psi", no_work)
    monkeypatch.setattr(sys.modules["prelie.psi"], "_psi", no_work)
    code = main(["compute", "matrix", "--degree", "11"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: degree 11: a dense 16796 x 16796 matrix exceeds 24000000 cells\n"


def test_dense_matrix_above_cell_budget_exits_3_before_any_tree(capsys, monkeypatch):
    def no_trees(cls, n):
        raise AssertionError(f"degree-{n} trees were enumerated above the cell budget")

    monkeypatch.setattr(sys.modules["prelie.trees"], "_basis", no_trees)
    code = main(["compute", "matrix", "--degree", "13", "--cap", "20"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: degree 13: a dense 208012 x 208012 matrix exceeds 24000000 cells\n"


def test_ag_expansion_above_a_cap_exits_3_before_any_monomial(capsys, monkeypatch):
    def no_monomials(*args):
        raise AssertionError("AG monomials were built above a cap")

    monkeypatch.setattr(sys.modules["prelie.monomials"], "_ag_raw", no_monomials)
    for argv, err in (
        (["--degree", "17"], "error: degree 17 exceeds cap 12\n"),
        (["--degree", "13", "--cap", "20"],
         "error: degree 13: a dense 12486 x 12486 matrix exceeds 24000000 cells\n"),
    ):
        code = main(["compute", "expand", "--ag", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", err), argv


def test_beta_above_a_cap_exits_3_before_reading_the_section(capsys, monkeypatch, tmp_path):
    def no_trees(text):
        raise AssertionError("a section file was parsed above a cap")

    path = tmp_path / "sec.txt"
    path.write_text(prelie.default_section(3).to_text())
    monkeypatch.setattr(sys.modules["prelie.trees"], "parse_tree", no_trees)
    for argv, err in (
        (["--degree", "17"], "error: degree 17 exceeds cap 12\n"),
        (["--degree", "13", "--cap", "13"],
         "error: degree 13: a dense 12486 x 12486 matrix exceeds 24000000 cells\n"),
    ):
        code = main(["compute", "beta", *argv, "--section", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", err), argv
