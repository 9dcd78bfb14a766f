import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from quivergrass import cli, grassmann
from quivergrass.cli import main
from quivergrass.construct import (
    case2_X,
    case2_Y,
    coordinate_inclusion_N,
    remark_Xprime,
)
from quivergrass.exactlinalg import FieldSpec
from quivergrass.quiverrep import (
    make_kronecker,
    make_representation,
    quiver_to_json,
    representation_to_json,
)

F3 = FieldSpec.prime(3)


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bristle_file(tmp_path, name="b.json"):
    b = make_representation(make_kronecker(2), F3, {"1": 1, "2": 1},
                            {"a1": [[1]], "a2": [[0]]})
    return write_json(tmp_path, name, representation_to_json(b))


def test_euler_kronecker3(capsys, tmp_path):
    qfile = write_json(tmp_path, "q.json", quiver_to_json(make_kronecker(3)))
    code, out, _ = run_cli(capsys, [
        "euler", "--quiver", qfile,
        "--d", '{"1": 1, "2": 1}', "--e", '{"1": 1, "2": 1}'])
    assert code == 0
    assert json.loads(out) == {"value": -1}


def test_classify(capsys, tmp_path):
    qfile = write_json(tmp_path, "q.json", quiver_to_json(make_kronecker(2)))
    code, out, _ = run_cli(capsys, ["classify", "--quiver", qfile])
    assert code == 0
    assert json.loads(out) == {"kind": "tame", "witness": "A~1"}
    code, out, _ = run_cli(capsys, ["classify", "--quiver", qfile,
                                    "--output", "text"])
    assert code == 0
    assert "kind: tame" in out
    assert "witness: A~1" in out


def test_hom_ext_brick(capsys, tmp_path):
    rep = bristle_file(tmp_path)
    code, out, _ = run_cli(capsys, ["hom", "--rep1", rep, "--rep2", rep])
    assert code == 0 and json.loads(out) == {"dim": 1}
    code, out, _ = run_cli(capsys, ["ext1", "--rep1", rep, "--rep2", rep])
    assert code == 0 and json.loads(out) == {"dim": 1}
    code, out, _ = run_cli(capsys, ["brick", "--rep", rep])
    assert code == 0 and json.loads(out) == {"is_brick": True}


def test_grassmannian_list_and_count(capsys, tmp_path):
    rep = write_json(tmp_path, "n.json",
                     representation_to_json(coordinate_inclusion_N(F3, 2)))
    code, out, _ = run_cli(capsys, [
        "grassmannian", "count", "--rep", rep, "--dimvec", '{"1": 0, "2": 1}'])
    assert code == 0
    assert json.loads(out)["count"] == 4
    code, out, _ = run_cli(capsys, [
        "grassmannian", "list", "--rep", rep, "--dimvec", '{"1": 0, "2": 1}'])
    data = json.loads(out)
    assert data["count"] == 4
    assert len(data["points"]) == 4
    code, out, _ = run_cli(capsys, [
        "grassmannian", "list", "--rep", rep, "--dimvec", '{"1": 0, "2": 1}',
        "--count-only"])
    assert "points" not in json.loads(out)


def test_eta_build(capsys, tmp_path):
    x = write_json(tmp_path, "x.json", representation_to_json(case2_X((1, 2), F3)))
    y = write_json(tmp_path, "y.json", representation_to_json(case2_Y(F3)))
    n = bristle_file(tmp_path, "n.json")
    code, out, _ = run_cli(capsys, ["eta", "build", "--x", x, "--y", y,
                                    "--nrep", n])
    assert code == 0
    data = json.loads(out)
    assert (data["a"], data["b"]) == (1, 1)
    assert data["m"]["dims"] == {"1": 3, "2": 3}


def test_check_lemma_commands(capsys, tmp_path):
    x = write_json(tmp_path, "x.json", representation_to_json(case2_X((1, 2), F3)))
    code, out, _ = run_cli(capsys, ["check-lemma2", "--x", x, "--a", "1"])
    assert code == 0
    assert json.loads(out) == {"holds": True, "counts": {"0": 1, "1": 0, "2": 1},
                               "failure_count": 0, "failures": []}
    # the (1,1) submodule of X' gives failures at w = 1, 2 and 3 in X'^2
    x = write_json(tmp_path, "xp.json", representation_to_json(remark_Xprime(1, 2, F3)))
    code, out, _ = run_cli(capsys, ["check-lemma2", "--x", x, "--a", "2"])
    assert code == 2
    data = json.loads(out)
    assert data["failure_count"] == len(data["failures"]) == 9
    assert {f["w"] for f in data["failures"]} == {1, 2, 3}
    assert all(set(f["point"]) == {"1", "2"} for f in data["failures"])
    code, out, _ = run_cli(capsys, ["check-lemma2", "--x", x, "--a", "2", "--count-only"])
    assert code == 2
    assert json.loads(out) == {key: val for key, val in data.items() if key != "failures"}


def test_bijection_command(capsys, tmp_path):
    x = write_json(tmp_path, "x.json", representation_to_json(case2_X((1, 2), F3)))
    y = write_json(tmp_path, "y.json", representation_to_json(case2_Y(F3)))
    n = write_json(tmp_path, "n.json",
                   representation_to_json(coordinate_inclusion_N(F3, 2)))
    code, out, _ = run_cli(capsys, ["bijection", "--x", x, "--y", y, "--nrep", n])
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    assert data["bristle_count"] == 0


def test_demo_exit_codes(capsys):
    code, out, _ = run_cli(capsys, ["demo", "case2"])
    assert code == 0
    data = json.loads(out)
    assert data["condition_c"]["holds"] is True
    assert data["bijection"]["equal"] is True

    code, out, _ = run_cli(capsys, ["demo", "case1"])
    assert code == 0

    code, out, _ = run_cli(capsys, ["demo", "remark"])
    assert code == 2
    data = json.loads(out)
    assert data["counterexample_found"] is True


def test_malformed_json_reports_position(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [1,]}')
    code, out, err = run_cli(capsys, ["classify", "--quiver", str(path)])
    assert code == 1
    assert "line 1" in err and "column" in err


def test_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["classify", "--quiver",
                                    str(tmp_path / "nope.json")])
    assert code == 1
    assert "error" in err


def test_bad_dimvec(capsys, tmp_path):
    rep = bristle_file(tmp_path)
    for dimvec in ('{"1": 1}', '{"1": 5, "2": 0}', '{"1": 1.5, "2": 1}',
                   '{"1": true, "2": 1}', '{"1": 1, "2": 1, "zz": 7}',
                   '{"1": "1", "2": 1}'):
        code, _, err = run_cli(capsys, [
            "grassmannian", "count", "--rep", rep, "--dimvec", dimvec])
        assert code == 1, dimvec
        assert err.startswith("error: ")


def test_malformed_representation_is_one_error_line(capsys, tmp_path):
    good = representation_to_json(make_representation(
        make_kronecker(2), FieldSpec.rational(), {"1": 1, "2": 1},
        {"a1": [[1]], "a2": [[0]]}))
    bad = []
    for dims in ({"1": 2.9, "2": 1}, {"1": True, "2": 1}, {"1": 1, "2": 1, "zz": 7}):
        bad.append(dict(good, dims=dims))
    bad.append(dict(good, matrices={"a1": [[True]], "a2": [[0]]}))
    bad.append(dict(good, matrices={"a1": [["1/0"]], "a2": [[0]]}))
    bad.append(dict(good, matrices=5))
    bad.append(dict(good, quiver=dict(good["quiver"], arrows=5)))
    bad.append(dict(good, quiver=dict(good["quiver"], arrows=[
        {"id": ["a1"], "from": "1", "to": "2"}, {"id": "a2", "from": "1", "to": "2"}])))
    for i, data in enumerate(bad):
        rep = write_json(tmp_path, f"bad{i}.json", data)
        code, out, err = run_cli(capsys, ["brick", "--rep", rep])
        assert code == 1, data
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


def test_budget_exceeded_exit_code(capsys, tmp_path):
    m = make_representation(make_kronecker(2), F3, {"1": 4, "2": 4}, {})
    rep = write_json(tmp_path, "big.json", representation_to_json(m))
    code, _, err = run_cli(capsys, [
        "grassmannian", "count", "--rep", rep, "--dimvec", '{"1": 2, "2": 2}',
        "--budget", "5"])
    assert code == 1
    assert err == "error: enumeration budget of 5 work units exceeded\n"


def test_eigenspace_budget_exceeded_is_one_error_line(capsys, tmp_path):
    # the degenerate K(2) module at (3,3) takes the eigenspace decomposition,
    # which needs 1219 units (tests/test_grassmann.py)
    ident = [[int(i == j) for j in range(5)] for i in range(5)]
    m = make_representation(make_kronecker(2), F3, {"1": 5, "2": 5},
                            {"a1": ident, "a2": ident})
    args = ["grassmannian", "count", "--rep", write_json(tmp_path, "k2.json",
                                                          representation_to_json(m)),
            "--dimvec", '{"1": 3, "2": 3}', "--budget"]
    code, out, _ = run_cli(capsys, args + ["1219"])
    assert code == 0
    assert json.loads(out)["count"] == 1210
    code, out, err = run_cli(capsys, args + ["1218"])
    assert code == 1
    assert out == ""
    assert err == "error: enumeration budget of 1218 work units exceeded\n"


@pytest.mark.parametrize("exc", [TypeError("bad operand"), ZeroDivisionError("inverse of zero"),
                                 AssertionError(), KeyError("a1")])
def test_internal_faults_are_one_error_line(capsys, tmp_path, monkeypatch, exc):
    def handler(args):
        raise exc
    monkeypatch.setitem(cli._HANDLERS, "brick", handler)
    code, out, err = run_cli(capsys, ["brick", "--rep", bristle_file(tmp_path)])
    assert code == 1
    assert out == ""
    assert err == f"error: {type(exc).__name__}: {exc}\n"


def test_budget_must_be_positive(capsys, tmp_path):
    rep = bristle_file(tmp_path)
    for value in ("0", "-1"):
        code, out, err = run_cli(capsys, [
            "grassmannian", "count", "--rep", rep, "--dimvec", '{"1": 1, "2": 1}',
            "--budget", value])
        assert code == 1, value
        assert out == ""
        assert err == f"error: --budget must be at least 1, got {value}\n"


def test_unknown_json_keys_are_rejected(capsys, tmp_path):
    good = representation_to_json(make_representation(
        make_kronecker(2), F3, {"1": 1, "2": 1}, {"a1": [[1]], "a2": [[0]]}))
    arrows = good["quiver"]["arrows"]
    bad = [
        dict(good, matrixes={"a1": [[1]], "a2": [[0]]}),
        dict(good, field={"type": "prime", "p": 3, "q": 5}),
        dict(good, field={"type": "rational", "p": 3}),
        dict(good, quiver=dict(good["quiver"], name="K2")),
        dict(good, quiver=dict(good["quiver"],
                               arrows=[dict(arrows[0], label="x"), arrows[1]])),
        dict(good, matrices=dict(good["matrices"], a3=[[0]])),
    ]
    for i, data in enumerate(bad):
        rep = write_json(tmp_path, f"extra{i}.json", data)
        code, out, err = run_cli(capsys, ["brick", "--rep", rep])
        assert code == 1, data
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "unknown key" in err
def test_bad_flags(capsys, tmp_path):
    code, _, _ = run_cli(capsys, ["classify"])           # missing --quiver
    assert code == 1
    rep = bristle_file(tmp_path)
    quiver = write_json(tmp_path, "q.json", quiver_to_json(make_kronecker(2)))
    x = write_json(tmp_path, "x.json", representation_to_json(case2_X((1, 2), F3)))
    y = write_json(tmp_path, "y.json", representation_to_json(case2_Y(F3)))
    pair = ["--x", x, "--y", y, "--nrep", rep]
    for argv, flag in (
            # flags a command does not read are refused, not ignored
            (["classify", "--quiver", quiver, "--count-only"], "--count-only"),
            (["hom", "--rep1", rep, "--rep2", rep, "--budget", "5"], "--budget"),
            (["eta", "build", *pair, "--budget", "3"], "--budget"),
            (["bijection", *pair, "--count-only"], "--count-only"),
            # argparse's usage errors are one line too
            (["hom", "--rep1", rep], "--rep2"),
            (["brick", "--rep", rep, "--bogus"], "--bogus"),
            (["check-lemma1", "--x", rep, "--a", "x"], "--a")):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1 and flag in err, err
    code, _, _ = run_cli(capsys, ["no-such-command"])
    assert code == 1
    for flag in ("--seed", "--jobs"):                    # removed options
        code, _, _ = run_cli(capsys, ["demo", "case2", flag, "2"])
        assert code == 1
    for value in ("0", "-1"):
        code, out, err = run_cli(capsys, ["demo", "case2", "--n", value])
        assert (code, out) == (1, "")
        assert err == f"error: --n must be at least 2, got {value}\n"
    for value in ("0", "4"):
        code, out, err = run_cli(capsys, ["demo", "remark", "--b", value])
        assert (code, out) == (1, "")
        assert err == f"error: --b must be 1, 2 or 3, got {value}\n"
    for command in ("check-lemma1", "check-lemma2"):
        for value in ("0", "-1"):
            code, out, err = run_cli(capsys, [command, "--x", bristle_file(tmp_path),
                                              "--a", value])
            assert (code, out) == (1, "")
            assert err == f"error: --a must be at least 1, got {value}\n"
    for argv, msg in (
            (["--lambdas", "1,x"], "--lambdas must be comma-separated integers, got '1,x'"),
            (["--n", "3", "--lambdas", "1,2"], "--lambdas needs 3 values (--n), got 2"),
            (["--lambdas", ","], "--lambdas must be comma-separated integers, got ','"),
            (["--lambdas", "1,,2"], "--lambdas must be comma-separated integers, got '1,,2'"),
            (["--lambdas", "2, 4,"],
             "--lambdas must be comma-separated integers, got '2, 4,'")):
        code, out, err = run_cli(capsys, ["demo", "case2", *argv])
        assert (code, out, err) == (1, "", f"error: {msg}\n")
    for which, argv, case in (
            ("case1", ["--n", "7", "--lambdas", "1,2"], "case2"),
            ("case1", ["--lambdas", "1,2"], "case2"),
            ("remark", ["--n", "2"], "case2"),
            ("case1", ["--b", "1"], "remark"),
            ("case2", ["--b", "3"], "remark")):
        code, out, err = run_cli(capsys, ["demo", which, *argv])
        assert (code, out) == (1, "")
        assert err == f"error: {argv[0]} applies only to demo {case}, not {which}\n"
    for argv in (["--help"], ["hom", "--help"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "") and out.startswith("usage: "), argv


def _subcommands():
    """Each subcommand's parser, by name, as `build_parser` declares them."""
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _settable(subparser):
    return [a for a in subparser._actions if not isinstance(a, argparse._HelpAction)]


def test_settable_value_count():
    # every flag and positional of every subcommand, --help aside
    assert sum(len(_settable(p)) for p in _subcommands().values()) == 54


def _attributes_read(argv):
    """The names a command's handler reads from its parsed arguments."""
    read = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    args = cli.build_parser().parse_args(argv, namespace=Recorder())
    handler = cli._HANDLERS[args.command]
    read.clear()                                         # drop argparse's own reads
    assert handler(args) in (0, 2), argv
    return read


def test_every_declared_flag_is_read(tmp_path):
    rep = bristle_file(tmp_path)
    quiver = write_json(tmp_path, "q.json", quiver_to_json(make_kronecker(2)))
    x = write_json(tmp_path, "x.json", representation_to_json(case2_X((1, 2), F3)))
    y = write_json(tmp_path, "y.json", representation_to_json(case2_Y(F3)))
    n = write_json(tmp_path, "n.json", representation_to_json(coordinate_inclusion_N(F3, 2)))
    dimvec = ["--dimvec", '{"1": 0, "2": 1}']
    pair = ["--x", x, "--y", y, "--nrep", n]
    runs = {
        "classify": [["--quiver", quiver]],
        "hom": [["--rep1", rep, "--rep2", rep]],
        "ext1": [["--rep1", rep, "--rep2", rep]],
        "euler": [["--quiver", quiver, "--d", '{"1": 1, "2": 0}', "--e", '{"1": 0, "2": 1}']],
        "brick": [["--rep", rep]],
        "grassmannian": [["count", "--rep", n, *dimvec], ["list", "--rep", n, *dimvec]],
        "eta": [["build", *pair]],
        "check-c": [pair],
        "check-lemma1": [["--x", x, "--a", "1"]],
        "check-lemma2": [["--x", x, "--a", "1"]],
        "bijection": [pair],
        "demo": [["case1"], ["remark"]],
    }
    subcommands = _subcommands()
    assert set(runs) == set(subcommands)
    for command, argvs in runs.items():
        read = set().union(*(_attributes_read([command, *argv]) for argv in argvs))
        declared = {a.dest for a in _settable(subcommands[command]) if a.option_strings}
        assert declared <= read, (command, declared - read)


def test_count_only_list_is_the_count(capsys, tmp_path, monkeypatch):
    # a list without points is counted: no point is built
    def refuse(*args, **kwargs):
        raise AssertionError("points enumerated for a count")
    monkeypatch.setattr(grassmann, "enumerate_submodules", refuse)
    ident = [[int(i == j) for j in range(5)] for i in range(5)]
    k2 = write_json(tmp_path, "k2.json", representation_to_json(make_representation(
        make_kronecker(2), F3, {"1": 5, "2": 5}, {"a1": ident, "a2": ident})))
    n = write_json(tmp_path, "n.json", representation_to_json(coordinate_inclusion_N(F3, 2)))
    zero = write_json(tmp_path, "zero.json", representation_to_json(make_representation(
        make_kronecker(2), F3, {"1": 4, "2": 4}, {})))
    results = set()
    for rep, dimvec, flags in (
            (k2, '{"1": 3, "2": 3}', ["--budget", "1219"]),   # eigenspace decomposition
            (k2, '{"1": 3, "2": 3}', ["--budget", "1218"]),
            (n, '{"1": 0, "2": 1}', ["--output", "text"]),    # the scan
            (zero, '{"1": 2, "2": 2}', ["--budget", "5"])):
        args = ["--rep", rep, "--dimvec", dimvec, *flags]
        listed = run_cli(capsys, ["grassmannian", "list", *args, "--count-only"])
        assert listed == run_cli(capsys, ["grassmannian", "count", *args])
        results.add(listed[0])
    assert results == {0, 1}


def test_demo_field_flag(capsys):
    code, out, _ = run_cli(capsys, ["demo", "remark", "--field", "p=5", "--b", "1"])
    assert code == 2
    code, _, err = run_cli(capsys, ["demo", "remark", "--field", "p=2"])
    assert code == 1
    code, _, err = run_cli(capsys, ["demo", "case2", "--field", "bogus"])
    assert code == 1


def test_console_script_runs_deterministically(tmp_path):
    q = quiver_to_json(make_kronecker(3))
    path = tmp_path / "q.json"
    path.write_text(json.dumps(q))
    argv = [sys.executable, "-m", "quivergrass.cli", "euler",
            "--quiver", str(path),
            "--d", '{"1": 1, "2": 0}', "--e", '{"1": 0, "2": 1}']
    first = subprocess.run(argv, capture_output=True, text=True, env=_child_env())
    second = subprocess.run(argv, capture_output=True, text=True, env=_child_env())
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout) == {"value": -3}


def _child_env():
    """The environment of a child that imports the package from where this
    process found it."""
    src = str(Path(cli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _modules_loaded_by(commands):
    """The quivergrass modules a fresh process holds after running commands."""
    script = ("import json, sys\n"
              "from quivergrass import cli\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert cli.main(argv) == 0\n"
              "print(json.dumps([m for m in sys.modules if m.startswith('quivergrass')]))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True, env=_child_env(), check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_commands_load_only_the_modules_they_run(tmp_path):
    rep = bristle_file(tmp_path)
    quiver = write_json(tmp_path, "q.json", quiver_to_json(make_kronecker(2)))
    light = _modules_loaded_by([["hom", "--rep1", rep, "--rep2", rep],
                                ["classify", "--quiver", quiver]])
    assert {"quivergrass.cli", "quivergrass.homext", "quivergrass.reptype"} <= light
    assert not light & {"quivergrass.construct", "quivergrass.grassmann"}
    count = _modules_loaded_by([["grassmannian", "count", "--rep", rep,
                                 "--dimvec", '{"1": 1, "2": 1}']])
    assert "quivergrass.grassmann" in count
    assert not count & {"quivergrass.construct", "quivergrass.homext",
                        "quivergrass.reptype"}


_FUZZ_VALUES = (0, 1, -1, 2, 3, 7, 2 ** 31 - 1, 1.5, True, False, None, "", "1",
                "x", "1/2", "p", [], [0], [[1]], [[1, 0], [0, 1]], {}, {"p": 3})


def _json_paths(data, path=()):
    """The path of every value inside a JSON document, the root included."""
    yield path
    if isinstance(data, dict):
        for key, val in data.items():
            yield from _json_paths(val, path + (key,))
    elif isinstance(data, list):
        for i, val in enumerate(data):
            yield from _json_paths(val, path + (i,))


def _mutate(data, rng):
    """A copy of a JSON document with one value changed, dropped or added.

    A quarter of the changes step an int, which often keeps the document
    valid; the other replacements draw from _FUZZ_VALUES.
    """
    data = json.loads(json.dumps(data))
    path = rng.choice(list(_json_paths(data)))
    if not path:
        return rng.choice(_FUZZ_VALUES)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    action = rng.randrange(4)
    if action == 0 and type(parent[path[-1]]) is int:
        parent[path[-1]] += rng.choice((-1, 1, 2))
    elif action < 2:
        parent[path[-1]] = rng.choice(_FUZZ_VALUES)
    elif action == 2:
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[rng.choice(["zz", "p", "dims", "a1", "2"])] = rng.choice(_FUZZ_VALUES)
    else:
        parent.insert(path[-1], rng.choice(_FUZZ_VALUES))
    return data


def test_mutated_json_inputs_end_in_an_exit_code(capsys, tmp_path):
    # seeded fuzz: one mutation of one input file per run, in-process, under
    # a small budget where the command takes one; every run ends with exit
    # 0, 1 or 2 and no traceback, and exit 1 prints exactly one error line
    budget = ["--budget", "500"]
    docs = {"x": representation_to_json(case2_X((1, 2), F3)),
            "y": representation_to_json(case2_Y(F3)),
            "n": representation_to_json(coordinate_inclusion_N(F3, 2)),
            "q": quiver_to_json(make_kronecker(3))}
    commands = [
        ["brick", "--rep", "x"],
        ["hom", "--rep1", "x", "--rep2", "n"],
        ["grassmannian", "count", "--rep", "x", "--dimvec", '{"1": 1, "2": 1}', *budget],
        ["grassmannian", "list", "--rep", "n", "--dimvec", '{"1": 1, "2": 1}', *budget],
        ["check-lemma1", "--x", "x", "--a", "2", *budget],
        ["check-lemma2", "--x", "x", "--a", "2", *budget],
        ["check-c", "--x", "x", "--y", "y", "--nrep", "n", *budget],
        ["bijection", "--x", "x", "--y", "y", "--nrep", "n", *budget],
        ["classify", "--quiver", "q"],
    ]
    paths = {name: write_json(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
    rng = random.Random(2017)
    codes = []
    for case in range(100):
        argv = rng.choice(commands)
        target = rng.choice([arg for arg in argv if arg in docs])
        mutated = write_json(tmp_path, "mutated.json", _mutate(docs[target], rng))
        args = [mutated if arg == target else paths.get(arg, arg) for arg in argv]
        code, _, err = run_cli(capsys, args)
        assert code in (0, 1, 2), (case, argv, code)
        assert "unrecognized arguments" not in err, (case, argv, err)
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, (case, argv, err)
        else:
            assert err == "", (case, argv, err)
        codes.append(code)
    assert {0, 1} <= set(codes)
