"""End-to-end command line checks, driving main() directly."""

import argparse
import importlib
import json
import os
import pkgutil
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import picod
from picod import oracles
from picod.cli import _build_parser, main
from picod.instance import build_complete_s, instance_wire

from util import stack_headroom

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def src_env():
    """The environment with the imported picod's source tree on PYTHONPATH,
    for child interpreters run without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(picod.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p
    )
    return env


class TestSizesArg:
    """-S is a comma list of sizes and inclusive ranges, checked at parse time."""

    def test_parse_list_and_ranges(self, capsys):
        for text, sizes in [("0,2-4,6", {0, 2, 3, 4, 6}), ("1, 2 ,3", {1, 2, 3}),
                            ("2-2", {2}), ("3", {3})]:
            rc, out, _ = run_cli(capsys, "gen", "-m", "7", "-t", "1", "-S", text)
            assert rc == 0
            assert json.loads(out) == instance_wire(build_complete_s(7, 1, sizes))

    def test_parse_rejects_garbage(self, capsys):
        for text, reason in [("", "no sizes in ''"), ("3-1", "empty size range '3-1'"),
                             ("x", "bad size 'x'"), ("-1", "bad size '-1'")]:
            with pytest.raises(SystemExit) as exc:
                main(["gen", "-m", "7", "-t", "1", "-S", text])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert [line for line in err.splitlines() if "error:" in line] == [
                f"picod gen: error: argument -S: {reason}"
            ]


class TestGen:
    def test_singleton_profile(self, capsys):
        rc, out, _ = run_cli(capsys, "gen", "-m", "3", "-t", "1", "-S", "1")
        assert rc == 0
        assert json.loads(out) == {"m": 3, "t": 1, "users": [[1], [2], [3]]}

    def test_range_profile_counts(self, capsys):
        rc, out, _ = run_cli(capsys, "gen", "-m", "4", "-t", "1", "-S", "0,2-3")
        assert rc == 0
        users = json.loads(out)["users"]
        assert len(users) == 1 + 6 + 4

    def test_instance_file(self, capsys, tmp_path):
        target = tmp_path / "inst.json"
        wire = instance_wire(build_complete_s(3, 1, {0, 2}))
        target.write_text(json.dumps(wire))
        rc, out, _ = run_cli(capsys, "gen", "--instance", str(target))
        assert rc == 0
        assert json.loads(out) == wire

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "inst.json"
        rc, out, _ = run_cli(
            capsys, "gen", "-m", "3", "-t", "1", "-S", "1", "-o", str(target)
        )
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text())["m"] == 3

    def test_missing_parameters(self, capsys):
        rc, _, err = run_cli(capsys, "gen", "-m", "3")
        assert rc == 2
        assert err.startswith("error:")

    def test_infeasible_sizes(self, capsys):
        rc, _, err = run_cli(capsys, "gen", "-m", "3", "-t", "2", "-S", "2")
        assert rc == 2
        assert err.startswith("error:")

    def test_user_cap(self, capsys):
        rc, _, err = run_cli(
            capsys, "gen", "-m", "20", "-t", "1", "-S", "10",
            "--cap-users", "100",
        )
        assert rc == 2
        assert "cap" in err


class TestOutputFormat:
    """Every command prints one JSON object, compact or with indent=2."""

    @pytest.mark.parametrize("argv", [
        ["gen", "-m", "3", "-t", "1", "-S", "1"],
        ["report", "-m", "3", "-t", "1", "-S", "1", "--exact"],
        ["verify", "-m", "3", "-t", "1", "-S", "1", "--code", "code.json"],
        ["hypergraph", "topology", "-m", "3", "-t", "1", "-S", "1"],
        ["hypergraph", "one-factor", "-m", "3", "-t", "1", "-S", "2"],
        ["hypergraph", "circular-arc", "-m", "3", "-t", "1", "-S", "1", "--trace"],
        ["oracle", "lemma3-sweep", "-s", "2"],
        ["oracle", "lemma4-random", "--trials", "50", "--seed", "3"],
        ["oracle", "block-cover", "-m", "3", "-s", "1", "-t", "1", "--max-block-size", "3"],
    ], ids=lambda argv: " ".join(a for a in argv[:2] if not a.startswith("-")))
    def test_one_serializer_per_command(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "code.json").write_text('{"q": 2, "rows": [[1, 1, 0]]}')
        rc, out, _ = run_cli(capsys, *argv)
        obj = json.loads(out)
        assert out == json.dumps(obj) + "\n"
        pretty_rc, pretty, _ = run_cli(capsys, *argv, "--pretty")
        assert pretty == json.dumps(obj, indent=2) + "\n"
        assert pretty_rc == rc


class TestReport:
    def test_smallest_interesting_instance(self, capsys):
        rc, out, _ = run_cli(capsys, "report", "-m", "3", "-t", "1", "-S", "1")
        assert rc == 0
        obj = json.loads(out)
        assert obj["m"] == 3
        assert obj["t"] == 1
        assert obj["S"] == [1]
        assert obj["lower_bound"] == 2
        assert obj["achieved"] == 2
        assert obj["tight"] is True
        assert obj["lower_bound_method"] == "mais-exact"
        assert obj["closed_form"] == {"value": 2, "rule": "singleton"}
        assert obj["witness_code"]["rows"]
        assert len(obj["witness_assignment"]) == 3

    def test_exact_chain_attachment(self, capsys):
        rc, out, _ = run_cli(
            capsys, "report", "-m", "3", "-t", "1", "-S", "1", "--exact"
        )
        assert rc == 0
        chain = json.loads(out)["chain"]
        assert chain.keys() == {"value", "ordering"}
        assert chain["value"] == 2
        assert len(chain["ordering"]) == chain["value"]

    def test_heuristic_chain_attachment(self, capsys):
        rc, out, _ = run_cli(
            capsys, "report", "-m", "4", "-t", "1", "-S", "0-2", "--heuristic"
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["chain"].keys() == {"value", "ordering"}
        assert 1 <= obj["chain"]["value"] <= obj["achieved"]

    @pytest.mark.parametrize("m,t,sizes,want", [("4", "1", "0,2", 3), ("5", "2", "0,1,3", 5)])
    def test_chain_spellings_print_the_same(self, capsys, m, t, sizes, want):
        argv = ["report", "-m", m, "-t", t, "-S", sizes]
        rc, exact, _ = run_cli(capsys, *argv, "--exact")
        assert rc == 0
        rc, heuristic, _ = run_cli(capsys, *argv, "--heuristic")
        assert rc == 0
        assert exact == heuristic
        chain = json.loads(exact)["chain"]
        assert chain.keys() == {"value", "ordering"}
        assert chain["value"] == want

    def test_instance_file_matches_parameters(self, capsys, tmp_path):
        target = tmp_path / "inst.json"
        run_cli(capsys, "gen", "-m", "4", "-t", "1", "-S", "1-2",
                "-o", str(target))
        rc, from_file, _ = run_cli(capsys, "report", "--instance", str(target))
        assert rc == 0
        rc, from_args, _ = run_cli(
            capsys, "report", "-m", "4", "-t", "1", "-S", "1-2"
        )
        assert rc == 0
        assert json.loads(from_file) == json.loads(from_args)

    @pytest.mark.parametrize("m,sizes", [("3", "1"), ("4", "0,2")])
    def test_instance_file_in_reversed_user_order(self, capsys, tmp_path, m, sizes):
        gen = tmp_path / "gen.json"
        rev = tmp_path / "rev.json"
        run_cli(capsys, "gen", "-m", m, "-t", "1", "-S", sizes, "-o", str(gen))
        inst = json.loads(gen.read_text())
        inst["users"].reverse()
        rev.write_text(json.dumps(inst))
        rc, out, _ = run_cli(capsys, "report", "--instance", str(rev), "--heuristic")
        assert rc == 0
        witness = json.loads(out)["witness_assignment"]
        assert len(witness) == len(inst["users"])
        for a, d in zip(inst["users"], witness):
            assert len(d) == 1 and not set(a) & set(d)
        chains = []
        for path in (gen, rev):
            rc, out, _ = run_cli(capsys, "report", "--instance", str(path), "--exact")
            assert rc == 0
            chains.append(json.loads(out)["chain"]["value"])
        assert chains[0] == chains[1]

    @pytest.mark.parametrize("m,t,sizes", [("4", "1", "0,2"), ("5", "2", "0,3")])
    def test_instance_file_in_shuffled_user_order(self, capsys, tmp_path, m, t, sizes):
        rc, out, _ = run_cli(capsys, "report", "-m", m, "-t", t, "-S", sizes)
        assert rc == 0
        expected = json.loads(out)
        _, out, _ = run_cli(capsys, "gen", "-m", m, "-t", t, "-S", sizes)
        users = json.loads(out)["users"]
        target = tmp_path / "inst.json"
        for seed in range(3):
            random.Random(seed).shuffle(users)
            target.write_text(json.dumps({"m": int(m), "t": int(t), "users": users}))
            rc, out, _ = run_cli(capsys, "report", "--instance", str(target))
            assert rc == 0
            obj = json.loads(out)
            for key in ("lower_bound", "achieved", "closed_form", "witness_code"):
                assert obj[key] == expected[key], (seed, key)
            assert len(obj["witness_assignment"]) == len(users)
            for a, d in zip(users, obj["witness_assignment"]):
                assert len(d) == len(set(d) - set(a)) == int(t)

    def test_builds_instance_once(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "inst.json"
        target.write_text(json.dumps(instance_wire(build_complete_s(4, 1, {1, 2}))))
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return build_complete_s(*args, **kwargs)

        patched = [
            name for name, mod in list(sys.modules.items())
            if name.split(".")[0] == "picod"
            and getattr(mod, "build_complete_s", None) is build_complete_s
        ]
        assert "picod.cli" in patched
        for name in patched:
            monkeypatch.setattr(sys.modules[name], "build_complete_s", counting)
        rc, _, _ = run_cli(capsys, "report", "-m", "4", "-t", "1", "-S", "1,2")
        assert rc == 0
        assert len(calls) == 1
        calls.clear()
        rc, _, _ = run_cli(capsys, "report", "--instance", str(target))
        assert rc == 0
        assert calls == []

    def test_rejects_incomplete_instance(self, capsys, tmp_path):
        target = tmp_path / "inst.json"
        target.write_text('{"m": 3, "t": 1, "users": [[1]]}')
        rc, _, err = run_cli(capsys, "report", "--instance", str(target))
        assert rc == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", [
        ["report"], ["verify", "--code", "code.json"], ["hypergraph", "topology"],
    ])
    def test_instance_file_over_user_cap(self, capsys, tmp_path, command):
        target = tmp_path / "inst.json"
        target.write_text(json.dumps(instance_wire(build_complete_s(5, 1, {2}))))
        (tmp_path / "code.json").write_text('{"q": 2, "rows": [[1, 1, 1, 1, 1]]}')
        command = [str(tmp_path / c) if c.endswith(".json") else c for c in command]
        rc, out, err = run_cli(
            capsys, *command, "--instance", str(target), "--cap-users", "9"
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "10 exceeds cap 9" in err
        rc, _, _ = run_cli(
            capsys, *command, "--instance", str(target), "--cap-users", "10"
        )
        assert rc in (0, 1)

    @pytest.mark.parametrize("command", [["gen"], ["report"], ["hypergraph", "topology"]], ids=" ".join)
    @pytest.mark.parametrize("params", [["-m", "2", "-t", "1", "-S", "0"], ["-t", "2"], ["-S", "0"]], ids=" ".join)
    def test_instance_file_with_parameters_rejected(self, capsys, tmp_path, command, params):
        target = tmp_path / "inst.json"
        target.write_text(json.dumps(instance_wire(build_complete_s(3, 1, {1}))))
        rc, out, err = run_cli(capsys, *command, "--instance", str(target), *params)
        assert (rc, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_instance_file(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "report", "--instance", str(tmp_path / "nope.json")
        )
        assert rc == 2
        assert err.startswith("error:")

    def test_field_is_not_an_option(self, capsys):
        # each construction fixes its own field: the partition scheme's for
        # the report's witness code, GF(2) for the circular-arc rows
        for command in (["report"], ["hypergraph", "circular-arc"]):
            with pytest.raises(SystemExit) as exc:
                main([*command, "-m", "3", "-t", "1", "-S", "1", "--field", "3"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --field 3" in capsys.readouterr().err

    def test_search_deeper_than_the_stack_exits_two(self, capsys):
        # the lower-bound search recurses once per user it branches on: 64
        # users, none of them with a single choice
        with stack_headroom(60):
            rc, out, err = run_cli(capsys, "report", "-m", "64", "-t", "1", "-S", "1")
        assert (rc, out) == (2, "")
        assert err.startswith("error: maximum recursion depth exceeded") and err.count("\n") == 1

    def test_forced_users_need_no_stack(self, capsys):
        # all 150 users have one choice each, preloaded before the search
        with stack_headroom(60):
            rc, out, _ = run_cli(capsys, "report", "-m", "150", "-t", "1", "-S", "149")
        assert rc == 0
        obj = json.loads(out)
        assert (obj["lower_bound"], obj["lower_bound_method"], obj["tight"]) == (1, "mais-exact", True)

    def test_spent_node_budget_reports_partial_bound(self, capsys):
        rc, out, _ = run_cli(
            capsys, "report", "-m", "5", "-t", "1", "-S", "0-4", "--cap-nodes", "1000"
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["lower_bound_method"] == "mais-partial"
        assert 1 <= obj["lower_bound"] <= obj["achieved"]

    def test_spent_node_budget_meeting_the_code_is_exact(self, capsys):
        rc, out, _ = run_cli(
            capsys, "report", "-m", "5", "-t", "1", "-S", "1,3", "--cap-nodes", "28400"
        )
        assert rc == 0
        obj = json.loads(out)
        assert (obj["lower_bound"], obj["lower_bound_method"], obj["achieved"]) == (4, "mais-exact", 4)

    def test_zero_node_budget_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "-m", "3", "-t", "1", "-S", "1", "--cap-nodes", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "picod report: error: argument --cap-nodes: must be positive"
        ]


class TestVerify:
    def test_valid_code(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        code = tmp_path / "code.json"
        run_cli(capsys, "gen", "-m", "3", "-t", "1", "-S", "1", "-o", str(inst))
        code.write_text('{"q": 2, "rows": [[1, 1, 0], [0, 1, 1]]}')
        rc, out, _ = run_cli(
            capsys, "verify", "--instance", str(inst), "--code", str(code)
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["valid"] is True
        assert len(obj["per_user"]) == 3
        assert obj["per_user"][0]["A"] == [1]
        assert obj["per_user"][0]["B"]

    def test_invalid_code_exits_one(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        code = tmp_path / "code.json"
        run_cli(capsys, "gen", "-m", "3", "-t", "1", "-S", "1", "-o", str(inst))
        code.write_text('{"q": 2, "rows": [[1, 0, 0]]}')
        rc, out, _ = run_cli(
            capsys, "verify", "--instance", str(inst), "--code", str(code)
        )
        assert rc == 1
        assert json.loads(out)["valid"] is False

    def test_width_mismatch(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        code = tmp_path / "code.json"
        run_cli(capsys, "gen", "-m", "3", "-t", "1", "-S", "1", "-o", str(inst))
        code.write_text('{"q": 2, "rows": [[1, 1]]}')
        rc, _, err = run_cli(
            capsys, "verify", "--instance", str(inst), "--code", str(code)
        )
        assert rc == 2
        assert err.startswith("error:")

    def test_direct_parameters(self, capsys, tmp_path):
        code = tmp_path / "code.json"
        code.write_text('{"q": 2, "rows": [[1, 1, 1]]}')
        rc, out, _ = run_cli(
            capsys, "verify", "-m", "3", "-t", "1", "-S", "2",
            "--code", str(code),
        )
        assert rc == 0
        assert json.loads(out)["valid"] is True


class TestMalformedJson:
    """A badly shaped input file exits 2 with one error line naming the field."""

    def _topology(self, capsys, tmp_path, text):
        target = tmp_path / "inst.json"
        target.write_text(text)
        return run_cli(capsys, "hypergraph", "topology", "--instance", str(target))

    def _assert_one_line_error(self, rc, out, err, field):
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(field) in err

    def test_users_not_a_list(self, capsys, tmp_path):
        rc, out, err = self._topology(capsys, tmp_path, '{"m": 3, "t": 1, "users": 5}')
        self._assert_one_line_error(rc, out, err, "users")

    def test_users_missing(self, capsys, tmp_path):
        rc, out, err = self._topology(capsys, tmp_path, '{"m": 3, "t": 1}')
        self._assert_one_line_error(rc, out, err, "users")

    def test_duplicate_message_in_user(self, capsys, tmp_path):
        rc, out, err = self._topology(
            capsys, tmp_path, '{"m": 3, "t": 1, "users": [[1, 1, 2]]}'
        )
        self._assert_one_line_error(rc, out, err, "users")
        assert "user 1" in err

    def test_code_rows_missing(self, capsys, tmp_path):
        code = tmp_path / "code.json"
        code.write_text('{"q": 2}')
        rc, out, err = run_cli(
            capsys, "verify", "-m", "3", "-t", "1", "-S", "1", "--code", str(code)
        )
        self._assert_one_line_error(rc, out, err, "rows")

    def test_unparsable_code_file_is_named(self, capsys, tmp_path):
        inst, code = tmp_path / "inst.json", tmp_path / "code.json"
        inst.write_text(json.dumps(instance_wire(build_complete_s(3, 1, {1}))))
        code.write_text("not json")
        rc, out, err = run_cli(capsys, "verify", "--instance", str(inst), "--code", str(code))
        assert (rc, out) == (2, "")
        assert err == f"error: {code}: Expecting value: line 1 column 1 (char 0)\n"

    def test_undecodable_instance_file_is_named(self, capsys, tmp_path):
        target = tmp_path / "inst.json"
        target.write_bytes(b'{"m": 3, "t": 1, "users": [[\xff]]}')
        rc, out, err = run_cli(capsys, "hypergraph", "topology", "--instance", str(target))
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {target}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    def test_top_level_must_be_an_object(self, capsys, tmp_path):
        target = tmp_path / "inst.json"
        target.write_text("[1, 2]")
        rc, out, err = run_cli(capsys, "gen", "--instance", str(target))
        assert (rc, out, err) == (2, "", f"error: {target}: the top-level value must be a JSON object\n")

    def test_code_content_error_names_the_code_file(self, capsys, tmp_path):
        inst, code = tmp_path / "inst.json", tmp_path / "code.json"
        inst.write_text(json.dumps(instance_wire(build_complete_s(3, 1, {1}))))
        code.write_text('{"q": 4, "rows": [[1, 0, 1]]}')
        rc, out, err = run_cli(capsys, "verify", "--instance", str(inst), "--code", str(code))
        assert (rc, out, err) == (2, "", f"error: {code}: q=4 is not prime\n")

    def test_width_mismatch_is_not_a_file_error(self, capsys, tmp_path):
        code = tmp_path / "code.json"
        code.write_text('{"q": 2, "rows": [[1, 1]]}')
        rc, out, err = run_cli(
            capsys, "verify", "-m", "3", "-t", "1", "-S", "1", "--code", str(code)
        )
        assert (rc, out, err) == (2, "", "error: code width 2 != instance m 3\n")


class TestInvalidInstance:
    """A well-shaped file that breaks PICOD(t) exits 2 with one exact line."""

    @pytest.mark.parametrize("text,reason", [
        ('{"m": 0, "t": 1, "users": []}', "(instance): m must be >= 1, got 0"),
        ('{"m": 2, "t": 0, "users": []}', "(instance): t must be >= 1, got 0"),
        ('{"m": 2, "t": 3, "users": []}', "(instance): t=3 exceeds m=2"),
        ('{"m": 3, "t": 1, "users": [[1], [4]]}',
         "(user 2): side information outside message range"),
        # messages are 1-based on the wire, so 0 becomes -1
        ('{"m": 3, "t": 1, "users": [[1], [0]]}',
         "(user 2): side information outside message range"),
        ('{"m": 3, "t": 2, "users": [[1], [1, 2]]}',
         "(user 2): side information of size 2 leaves fewer than t=2 new messages"),
    ])
    def test_exact_error_line(self, capsys, tmp_path, text, reason):
        target = tmp_path / "inst.json"
        target.write_text(text)
        rc, out, err = run_cli(capsys, "hypergraph", "topology", "--instance", str(target))
        assert (rc, out, err) == (2, "", f"error: {target}: invalid instance {reason}\n")


class TestHypergraphCommands:
    def test_topology(self, capsys):
        rc, out, _ = run_cli(
            capsys, "hypergraph", "topology", "-m", "3", "-t", "1", "-S", "1"
        )
        assert rc == 0
        assert json.loads(out) == {"n": 3, "edges": [[2, 3], [1, 3], [1, 2]]}

    def test_one_factor_found(self, capsys):
        rc, out, _ = run_cli(
            capsys, "hypergraph", "one-factor", "-m", "3", "-t", "1", "-S", "2"
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["factor"] == [1, 2, 3]
        assert obj["code"] == {"q": 2, "rows": [[1, 1, 1]]}

    def test_one_factor_missing(self, capsys):
        rc, out, _ = run_cli(
            capsys, "hypergraph", "one-factor", "-m", "3", "-t", "1", "-S", "1"
        )
        assert rc == 1
        assert json.loads(out) == {"factor": None, "code": None}

    def test_one_factor_needs_t_one(self, capsys, tmp_path):
        # a 1-factor's one row leaves each user a single unknown message
        path = tmp_path / "t2.json"
        path.write_text(json.dumps({"m": 3, "t": 2, "users": [[1], [2]]}))
        for source in (["--instance", str(path)], ["-m", "4", "-t", "2", "-S", "2"]):
            rc, out, err = run_cli(capsys, "hypergraph", "one-factor", *source)
            assert (rc, out, err) == (2, "", "error: the one-transmission code needs t = 1\n")

    def test_circular_arc_with_trace(self, capsys):
        rc, out, _ = run_cli(
            capsys, "hypergraph", "circular-arc",
            "-m", "3", "-t", "1", "-S", "1", "--trace",
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["rows"] == 2
        assert obj["code"] == {"q": 2, "rows": [[0, 1, 1], [0, 0, 1]]}
        assert obj["trace"]["factor"] is None
        assert obj["trace"]["dropped"] == [1]

    def test_circular_arc_explicit_order(self, capsys):
        rc, out, _ = run_cli(
            capsys, "hypergraph", "circular-arc",
            "-m", "3", "-t", "1", "-S", "1", "--order", "2,1,3",
        )
        assert rc == 0
        assert json.loads(out)["rows"] <= 2

    def test_circular_arc_order_names_bad_chunk(self, capsys):
        for text, chunk in [("1,x", "'x'"), ("1,,2", "''"), ("1, y ,3", "'y'")]:
            with pytest.raises(SystemExit) as exc:
                main(["hypergraph", "circular-arc", "-m", "3", "-t", "1", "-S", "1",
                      "--order", text])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert [line for line in err.splitlines() if "error:" in line] == [
                f"picod hypergraph circular-arc: error: argument --order: bad user {chunk}"
            ]

    def test_circular_arc_bad_order(self, capsys):
        rc, _, err = run_cli(
            capsys, "hypergraph", "circular-arc",
            "-m", "3", "-t", "1", "-S", "1", "--order", "1,2",
        )
        assert rc == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", [["one-factor"], ["circular-arc", "--trace"]])
    def test_factor_search_overflow_exits_two(self, capsys, command):
        # the factor [1, 2, 3] exists; a one-node budget must not hide it
        rc, out, err = run_cli(
            capsys, "hypergraph", *command, "-m", "3", "-t", "1", "-S", "2", "--cap-nodes", "1",
        )
        assert (rc, out, err) == (2, "", "error: 1-factor search exceeded 1 nodes\n")


class TestOracleCommands:
    def test_lemma3_sweep(self, capsys):
        rc, out, _ = run_cli(capsys, "oracle", "lemma3-sweep", "-s", "2")
        assert rc == 0
        obj = json.loads(out)
        assert obj["families"] == 27
        assert obj["failures"] == 0
        assert obj["ok"] is True

    @pytest.mark.parametrize("argv", [
        ["-s", "30"],
        ["-s", "3", "--cap-collections", "209"],
    ])
    def test_lemma3_sweep_past_its_cap_exits_two(self, capsys, argv):
        rc, out, err = run_cli(capsys, "oracle", "lemma3-sweep", *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "cap" in err and "Traceback" not in err

    def test_lemma3_sweep_has_no_jobs_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "lemma3-sweep", "-s", "2", "--jobs", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "unrecognized arguments: --jobs 2" in err

    def test_lemma4_random(self, capsys):
        rc, out, _ = run_cli(
            capsys, "oracle", "lemma4-random", "--trials", "200", "--seed", "5"
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["trials"] == 200
        assert obj["seed"] == 5
        assert obj["ok"] is True

    def test_lemma4_failed_trial_exits_one(self, capsys, monkeypatch):
        # the column just outside the ground lies in no block
        monkeypatch.setattr(oracles, "_pair", lambda masks, ground: (0, ground.bit_length()))
        rc, out, err = run_cli(
            capsys, "oracle", "lemma4-random", "--trials", "20", "--seed", "5"
        )
        assert rc == 1
        obj = json.loads(out)
        assert obj["ok"] is False
        assert obj["failures"] == 20
        assert err == ""

    def test_lemma4_requires_seed(self):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "lemma4-random", "--trials", "10"])
        assert exc.value.code == 2

    def test_block_cover_impossible(self, capsys):
        rc, out, _ = run_cli(
            capsys, "oracle", "block-cover",
            "-m", "3", "-s", "1", "-t", "1", "--max-block-size", "2",
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["impossible"] is True
        assert obj["collections_checked"] == 8
        assert obj["valid_found"] == 0

    def test_block_cover_possible_exits_one(self, capsys):
        rc, out, _ = run_cli(
            capsys, "oracle", "block-cover",
            "-m", "3", "-s", "1", "-t", "1", "--max-block-size", "3",
        )
        assert rc == 1
        assert json.loads(out)["impossible"] is False

    @pytest.mark.parametrize("s", ["5", "3"])
    def test_block_cover_without_admissible_blocks_exits_two(self, capsys, s):
        rc, out, err = run_cli(
            capsys, "oracle", "block-cover",
            "-m", "3", "-s", s, "-t", "1", "--max-block-size", "2",
        )
        assert rc == 2
        assert out == ""
        assert err == "error: block covers need 0 <= s < m and t >= 1, got m=3 s=%s t=1\n" % s

    def test_block_cover_cap(self, capsys):
        rc, _, err = run_cli(
            capsys, "oracle", "block-cover",
            "-m", "6", "-s", "1", "-t", "1", "--max-block-size", "3",
            "--cap-collections", "100",
        )
        assert rc == 2
        assert "cap" in err

    def test_block_cover_cap_past_the_digit_limit(self, capsys):
        # 39,186 candidate blocks: the refused size has 11,797 digits
        rc, out, err = run_cli(
            capsys, "oracle", "block-cover",
            "-m", "16", "-s", "1", "-t", "1", "--max-block-size", "8",
        )
        assert (rc, out) == (2, "")
        assert err == "error: block collections: size 2^39186 exceeds cap 1000000\n"


class TestParserBasics:
    @pytest.mark.parametrize("argv", [
        ["gen", "-m", "abc", "-t", "1", "-S", "1"],
        ["report", "-m", "3", "-t", "1", "-S", "1", "--cap-nodes", "abc"],
        ["oracle", "block-cover", "-m", "4", "-s", "2", "-t", "1", "--max-block-size", "abc"],
    ])
    def test_non_integer_value_names_no_private_function(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        option = argv[argv.index("abc") - 1]
        assert capsys.readouterr().err.endswith(
            f"error: argument {option}: not an integer: 'abc'\n"
        )

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_console_script_entry_point(self):
        # Run the `picod` script declared in pyproject.toml as a separate
        # process, the way the pip-generated wrapper calls it; where an
        # installed `picod` is on PATH, run that too.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["picod"]
        module, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module), attr))

        argv = ["gen", "-m", "2", "-t", "1", "-S", "0"]
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        commands = [[sys.executable, "-c", wrapper, *argv]]
        installed = shutil.which("picod")
        if installed:
            commands.append([installed, *argv])

        for cmd in commands:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=src_env(), timeout=60,
            )
            assert proc.returncode == 0
            assert json.loads(proc.stdout) == {"m": 2, "t": 1, "users": [[]]}


class TestParserReuse:
    """The parser is built on the first main() call and reused; consecutive
    calls in one process share no state."""

    REPORT = ["report", "-m", "4", "-t", "1", "-S", "0,2"]

    def test_import_builds_no_parser(self):
        # a fresh interpreter, so the import is not already done
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *a, **k):\n"
            "    built.append(self)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import picod.cli\n"
            "print(len(built))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=src_env(),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        assert run_cli(capsys, *self.REPORT)[0] == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        # every ArgumentParser from here on, subparsers included
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run_cli(capsys, *self.REPORT)[0] == 0
        assert run_cli(capsys, "gen", "-m", "3", "-t", "1", "-S", "1")[0] == 0
        assert built == []

    def test_pretty_file_output_does_not_carry_over(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        rc, out, _ = run_cli(capsys, *self.REPORT, "--pretty", "-o", str(target))
        assert (rc, out) == (0, "")
        obj = json.loads(target.read_text())
        rc, out, _ = run_cli(capsys, *self.REPORT)
        assert rc == 0
        assert out == json.dumps(obj) + "\n"

    @pytest.mark.parametrize("bad", [
        ["report", "-m", "4"],
        ["report", "-m", "4", "-t", "1", "-S", "0,2", "--cap-nodes", "0"],
    ], ids=["missing-parameters", "rejected-argument"])
    def test_failed_call_does_not_carry_over(self, capsys, bad):
        try:
            rc = main(bad)
        except SystemExit as exc:
            rc = exc.code
        err = capsys.readouterr().err
        assert rc == 2
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        rc, out, err = run_cli(capsys, *self.REPORT)
        assert rc == 0
        assert err == ""
        assert json.loads(out)["lower_bound_method"] == "mais-exact"

    def test_help_after_a_call_matches_a_fresh_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _build_parser.__wrapped__().parse_args(["report", "--help"])
        assert exc.value.code == 0
        fresh = capsys.readouterr().out
        assert fresh.startswith("usage: picod report")
        assert run_cli(capsys, *self.REPORT)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["report", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == fresh


def readme_examples():
    """(command, documented output) for every `$ picod` line in README.md's
    shell blocks that reads and writes no file; wrapped output is joined."""
    examples = []
    for block in README.read_text().split("```")[1::2]:
        if not block.startswith("sh\n"):
            continue
        for chunk in block.split("\n$ ")[1:]:
            command, *output = chunk.strip().split("\n")
            argv = command.split()
            if argv[0] == "picod" and not {"-o", "--instance", "--code"} & set(argv):
                examples.append((command, " ".join(output)))
    return examples


README_EXAMPLES = readme_examples()


def readme_cited_names():
    """(module, name) for every `module.name` or `picod.module.name` that
    README.md cites from a picod module."""
    modules = "|".join(m.name for m in pkgutil.iter_modules(picod.__path__))
    cited = re.findall(rf"`(?:picod\.)?({modules})\.(\w+)", README.read_text())
    return sorted(set(cited))


README_CITED_NAMES = readme_cited_names()


def readme_library_example():
    """The ```python block under README.md's "## Library example" heading."""
    section = README.read_text().split("\n## Library example\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


class TestReadmeExamples:
    def test_every_file_free_example_is_collected(self):
        commands = [command.split()[1] for command, _ in README_EXAMPLES]
        assert commands == [
            "gen", "report", "hypergraph", "hypergraph", "hypergraph",
            "oracle", "oracle", "oracle", "oracle",
        ]

    @pytest.mark.parametrize(
        "command,documented", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES]
    )
    def test_documented_output(self, capsys, command, documented):
        rc, out, _ = run_cli(capsys, *command.split()[1:])
        assert rc == 0
        assert json.loads(out) == json.loads(documented)

    def test_cited_names_are_collected(self):
        assert ("errors", "SearchOverflow") in README_CITED_NAMES
        assert ("verifier", "decodable_closure") in README_CITED_NAMES

    @pytest.mark.parametrize(
        "module,name", README_CITED_NAMES, ids=[f"{m}.{n}" for m, n in README_CITED_NAMES]
    )
    def test_cited_name_resolves(self, module, name):
        assert hasattr(importlib.import_module(f"picod.{module}"), name)

    def test_library_example(self, capsys):
        # run the block as written; each print must show its `# ...` comment
        code = readme_library_example()
        exec(compile(code, str(README), "exec"), {})
        documented = [
            line.split("  # ", 1)[1] for line in code.splitlines()
            if line.startswith("print(")
        ]
        assert documented
        assert capsys.readouterr().out.splitlines() == documented
