"""End-to-end command line checks, driving main() directly."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import picod
from picod.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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

    def test_pretty_prints_indented(self, capsys):
        rc, out, _ = run_cli(
            capsys, "gen", "-m", "2", "-t", "1", "-S", "1", "--pretty"
        )
        assert rc == 0
        assert out.startswith("{\n")
        assert json.loads(out)["m"] == 2

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
        assert chain["value"] == 2
        assert chain["exact"] is True
        assert len(chain["ordering"]) == chain["value"]

    def test_heuristic_chain_attachment(self, capsys):
        rc, out, _ = run_cli(
            capsys, "report", "-m", "4", "-t", "1", "-S", "0-2", "--heuristic"
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["chain"]["exact"] is False
        assert 1 <= obj["chain"]["value"] <= obj["achieved"]

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

    def test_rejects_incomplete_instance(self, capsys, tmp_path):
        target = tmp_path / "inst.json"
        target.write_text('{"m": 3, "t": 1, "users": [[1]]}')
        rc, _, err = run_cli(capsys, "report", "--instance", str(target))
        assert rc == 2
        assert err.startswith("error:")

    def test_missing_instance_file(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "report", "--instance", str(tmp_path / "nope.json")
        )
        assert rc == 2
        assert err.startswith("error:")

    def test_non_prime_field_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "-m", "3", "-t", "1", "-S", "1", "--field", "4"])
        assert exc.value.code == 2

    def test_spent_node_budget_reports_partial_bound(self, capsys):
        rc, out, _ = run_cli(
            capsys, "report", "-m", "5", "-t", "1", "-S", "0-4", "--cap-nodes", "1000"
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["lower_bound_method"] == "mais-partial"
        assert 1 <= obj["lower_bound"] <= obj["achieved"]

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

    def test_circular_arc_bad_order(self, capsys):
        rc, _, err = run_cli(
            capsys, "hypergraph", "circular-arc",
            "-m", "3", "-t", "1", "-S", "1", "--order", "1,2",
        )
        assert rc == 2
        assert err.startswith("error:")

    def test_circular_arc_larger_field(self, capsys):
        rc, out, _ = run_cli(
            capsys, "hypergraph", "circular-arc",
            "-m", "3", "-t", "1", "-S", "1", "--field", "3",
        )
        assert rc == 0
        assert json.loads(out)["code"]["q"] == 3


class TestOracleCommands:
    def test_lemma3_sweep(self, capsys):
        rc, out, _ = run_cli(capsys, "oracle", "lemma3-sweep", "-s", "2")
        assert rc == 0
        obj = json.loads(out)
        assert obj["families"] == 27
        assert obj["failures"] == 0
        assert obj["ok"] is True

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

    def test_block_cover_cap(self, capsys):
        rc, _, err = run_cli(
            capsys, "oracle", "block-cover",
            "-m", "6", "-s", "1", "-t", "1", "--max-block-size", "3",
            "--cap-collections", "100",
        )
        assert rc == 2
        assert "cap" in err


class TestParserBasics:
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

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(picod.__file__).resolve().parents[1]),
                        env.get("PYTHONPATH")) if p
        )
        for cmd in commands:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0
            assert json.loads(proc.stdout) == {"m": 2, "t": 1, "users": [[]]}


def readme_examples():
    """(command, documented output) for every `$ picod` line in README.md's
    shell blocks that reads and writes no file; wrapped output is joined."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples = []
    for block in readme.read_text().split("```")[1::2]:
        if not block.startswith("sh\n"):
            continue
        for chunk in block.split("\n$ ")[1:]:
            command, *output = chunk.strip().split("\n")
            argv = command.split()
            if argv[0] == "picod" and not {"-o", "--instance", "--code"} & set(argv):
                examples.append((command, " ".join(output)))
    return examples


README_EXAMPLES = readme_examples()


class TestReadmeExamples:
    def test_every_file_free_example_is_collected(self):
        commands = [command.split()[1] for command, _ in README_EXAMPLES]
        assert commands == ["gen", "report", "oracle", "oracle", "oracle"]

    @pytest.mark.parametrize(
        "command,documented", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES]
    )
    def test_documented_output(self, capsys, command, documented):
        rc, out, _ = run_cli(capsys, *command.split()[1:])
        assert rc == 0
        assert json.loads(out) == json.loads(documented)
