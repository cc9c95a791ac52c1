"""The README's examples, run as they are written there.

The fenced blocks are read from README.md itself, so a line added to one of
them is tested with no edit here:

* "Library quickstart": the python block runs, and each print whose line
  has a comment prints the comment's first word, or, for a comment
  `# last line: TEXT`, output whose last line is TEXT;
* "CLI": each line of the sh block runs through cli.main, in order, in one
  temporary directory, and exits 0, or N where its comment says `exits N`;
  f.json is the first "File format" example, and the other input files are
  those that earlier lines write;
* "File format": the examples of the json block load to one set function,
  which survives `mobius` then `mobius --invert` byte for byte.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from choquet.cli import main
from choquet.io import dump_document, load_set_function, set_function_to_document

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str) -> str:
    """The first fenced block of the language under the README heading."""
    text = README.read_text()
    section = re.split(rf"^#+ {re.escape(heading)}\n", text, maxsplit=1, flags=re.M)[1]
    section = re.split(r"^#+ ", section, maxsplit=1, flags=re.M)[0]
    return re.search(rf"^```{language}\n(.*?)^```", section, re.M | re.S).group(1)


def _examples() -> list[dict]:
    return [json.loads(line) for line in _block("File format", "json").splitlines()]


def _run(argv: list[str]) -> int:
    """cli.main on argv, its stdout and stderr discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def test_quickstart_prints_what_its_comments_state():
    code = _block("Library quickstart", "python")
    printed = []
    exec(compile(code, "README quickstart", "exec"),
         {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    comments = [line.partition("#")[2].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert len(printed) == len(comments)
    wrong = []
    for comment, output in zip(comments, printed):
        if comment.startswith("last line:"):
            if output.splitlines()[-1] != comment.removeprefix("last line:").strip():
                wrong.append((comment, output))
        elif comment and comment.split()[0] != output:
            wrong.append((comment, output))
    assert sum(map(bool, comments)) >= 4
    assert wrong == []


def test_each_cli_line_exits_with_the_code_it_states(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    dump_document(_examples()[0], "f.json")
    lines = _block("CLI", "sh").splitlines()
    wrong = []
    for line in lines:
        stated = re.search(r"#.*\bexits (\d+)", line)
        argv = shlex.split(line, comments=True)
        assert argv[0] == "choquet"
        code = _run(argv[1:])
        if code != (int(stated.group(1)) if stated else 0):
            wrong.append((line, code))
    assert len(lines) >= 8
    assert wrong == []


def test_file_format_examples_are_one_set_function_that_survives_the_mobius_round_trip(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = _examples()
    assert sorted(key for doc in examples for key in doc if key != "n") == ["by_mask", "by_subset"]
    loaded = []
    for i, doc in enumerate(examples):
        Path(f"example{i}.json").write_text(json.dumps(doc))
        f = load_set_function(f"example{i}.json")
        loaded.append((f.n, f.values.tolist()))
        dump_document(set_function_to_document(f), "f.json")
        assert _run(["mobius", "--capacity", "f.json", "--out", "m.json"]) == 0
        assert _run(["mobius", "--capacity", "m.json", "--invert", "--out", "back.json"]) == 0
        assert Path("back.json").read_bytes() == Path("f.json").read_bytes()
    assert loaded[0] == loaded[1]
