"""Golden outputs: SHA-256 digests of CLI stdout and of the files it writes,
and of the exact indices' witnesses.

The CLI digests were recorded before the package's graph helpers were
merged into shared functions. Enumeration order, printed values, witness
colorings and certificates must all stay byte-identical, so any drift shows
up here by command. The witness digests were recorded before the exact
search built its block lists on demand; they pin every value and witness
coloring of ``mvx_profile`` for n <= 7 and of ``mx_exact_bruteforce`` for
3 <= n <= 6 at k = 2 and 3. The cut-vertex digest was re-recorded when
every graph, sparse ones included, began to read its witness off the first
minimum connected dominating set in combinations order; the values did not
move, and 17 of its 508 rows did. The survey CSV digests live in
test_acceptance.py, which already holds the n = 5..7 survey records. The
README's Library block runs here as well, with its printed and commented
values.
"""

import argparse
import hashlib
import importlib
import pkgutil
import re
from pathlib import Path

import monoindex
from monoindex.cli import build_parser, main
from monoindex.graphs import cut_vertices, enumerate_connected_graphs, enumerate_graphs, to_graph6
from monoindex.mvx import mvx_profile, mvx_via_cut_vertex
from monoindex.mx import mx_exact_bruteforce
from monoindex.reduction import build_gadget

import oracles


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_digest(capsys, workdir, argv: str) -> str:
    """Digest of the exit code, stdout and every file the command changed."""
    before = {p.name: p.read_text() for p in workdir.iterdir()}
    code = main(argv.split())
    parts = [f"exit {code}", capsys.readouterr().out]
    for p in sorted(workdir.iterdir()):
        text = p.read_text()
        if before.get(p.name) != text:
            parts.append(f"file {p.name}\n{text}")
    return sha256("\n".join(parts))


# The command list of the README's "Command line" section, run in order in
# one directory (verify reads the certificate the mx call before it wrote).
README_COMMANDS = {
    "mx --graph C~ --k 3": "44b644dba80c49f510b37d9c2018eb57cda7fecf88a9dccbdcf2a9347aa8230e",
    "mx --graph C~ --k 2 --exact": "be82df760f3ae945de1b5999e90613ecf5d0567ed7165cf4714dfbca68c623df",
    "mvx --graph ECr_ --k 3": "c0bb1f2153473465f2c768727aa1518bba75903eca6d4d0e15f299b35fa11b6f",
    "mvx --graph Ch --k 4 --cut-vertex": "e744f2fbb9fc77137297a2a131a5dc5a4ba76d3a413b31656148aaa5004e8738",
    "mvx --graph Ch --k 3 --bound": "e744f2fbb9fc77137297a2a131a5dc5a4ba76d3a413b31656148aaa5004e8738",
    "mx --graph C~ --k 3 --witness cert.txt": "59daf24bb88e98702a57de7fc360ec3073537abbd1af6fb21a0c26ead5a5e35d",
    "verify --coloring cert.txt --k 3": "5478475b9ea68ee12a022ba5582f3c16bcf97a0a2dc7c16b98dfcb6da5e875f0",
    "gadget --graph Bw --out g.g6": "953d89207a65104fb3f1efceeef91d5946d8b0976d9947810a64edcea2b50d67",
    "reduce --graph Bw --k 1 --certificates c.txt": "e191b8be8be969f487edb7373fd20fecf137f911a0846173ac2d5e661177d49b",
    "survey --n 6": "2c4fa0608d004e01749f1dd11afb7797995c288494d76705e9970c6b7ce3314e",
    "survey --n 6 --find-f1": "f4c5b2b009ec543782fc668ef383c6947ee1d193c978f34e2661d779af230895",
    "enumerate --n 5": "498d32ee965aee8bf86067b4688d0a1557fc64492fcc9aa8351ad8c4b03681c7",
}

ENUMERATE_COMMANDS = {
    "enumerate --n 1": "0baa71d0404ec0d905d87aae99cc3641d8fe90326d1abf73fad22b8a1ebb3b31",
    "enumerate --n 2": "dcf5ac79274c1da680584452d0d1b24bf33fc2759b9ad0d0656f1742cfde147a",
    "enumerate --n 3": "732a90a94eda343203525702026a98c8ed590106173b74ecac26da2f09ab6cd0",
    "enumerate --n 4": "32e7eb0a3bd92b970a81d8c04cd4e06cf94cc80640af55887100891ee553cf38",
    "enumerate --n 5": "498d32ee965aee8bf86067b4688d0a1557fc64492fcc9aa8351ad8c4b03681c7",
    "enumerate --n 6": "009f72cff9afc8770d2b7eba737b5112d31325ebac55a0059dffb344e7d38825",
    "enumerate --n 7": "f1385a6ae1c1f2eff2f875bd2f65939177cf61b5e9c22eae32bebdca60bad3e9",
    "enumerate --n 4 --coconnected": "26d4fdb88897bb30e68e4cfa6231c805a78186083345043290edc5b2d3b958cc",
    "enumerate --n 5 --coconnected": "d07dfce7118123feb7f08baec4c1b4046b5329f9d32dafa763e8f724e225b8e9",
    "enumerate --n 6 --coconnected": "268eb82d42ebdb797f8c931f13811a16d14b113322990e686ac6063d005f534f",
    "enumerate --n 7 --coconnected": "0b0d9b5174af69025662ebaee04c74ff1227c3dc8d1635077984cf897952a084",
    "enumerate --n 1 --all": "0baa71d0404ec0d905d87aae99cc3641d8fe90326d1abf73fad22b8a1ebb3b31",
    "enumerate --n 2 --all": "9fb80b955b8efc7548b6699785ff9ac93957336227520edc973aee856646a722",
    "enumerate --n 3 --all": "16831d09580f412a5117923d056c2eddf166a7812442c7a3caee3d49377cbf8d",
    "enumerate --n 4 --all": "90dac4101b2308668c0995aea7179b90a669a4441b316ccd1c4f11e8b6cb42d1",
    "enumerate --n 5 --all": "370b6e6bd8b9d46d68c22faca1e575af817df8eb48b339d87efec02362f5e67d",
    "enumerate --n 6 --all": "a3ca99c373d2970f1faf1c4f97a51c19130b53dedc9c19f4b19f5ea5259ec616",
}


def test_readme_commands(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = {argv: run_digest(capsys, tmp_path, argv) for argv in README_COMMANDS}
    assert got == README_COMMANDS


def test_readme_library_block(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(block, scope)
    assert capsys.readouterr().out == "8\n"
    assert scope["result"].value == 7


def test_readme_names_every_budget():
    # the "Search budgets" paragraph names every module-level cap (a constant
    # with MAX_ in its name), and every constant it names exists
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("\nSearch budgets ", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", paragraph))
    constants = {
        name
        for info in pkgutil.iter_modules(monoindex.__path__)
        for name in vars(importlib.import_module(f"monoindex.{info.name}"))
        if re.fullmatch(r"[A-Z][A-Z0-9_]+", name)
    }
    assert {name for name in constants if "MAX_" in name} <= named
    assert named <= constants


def test_readme_names_every_option():
    # the "Command line" section names every option of every subcommand, and
    # every --option it names exists in the parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        flag
        for p in sub.choices.values()
        for action in p._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }
    assert options <= named
    assert named <= options | {flag for a in parser._actions for flag in a.option_strings}


def test_enumerate_stdout(capsys, tmp_path):
    got = {argv: run_digest(capsys, tmp_path, argv) for argv in ENUMERATE_COMMANDS}
    assert got == ENUMERATE_COMMANDS


def witness_digest(rows) -> str:
    """Digest of one ``"{g6} {k} {value} {colors joined by spaces}"`` line per
    row, each ending in a newline."""
    return sha256("".join(f"{g6} {k} {value} {' '.join(map(str, colors))}\n"
                          for g6, k, value, colors in rows))


def test_mvx_profile_witnesses():
    rows = [
        (to_graph6(g), k, r.value, r.witness.colors)
        for n in range(2, 8)
        for g in enumerate_connected_graphs(n)
        for k, r in enumerate(mvx_profile(g), 2)
    ]
    assert len(rows) == 5785
    assert witness_digest(rows) == "4ddc3327e371b5521f21be334b599140652a1a50e58d87ee5d1eff4c8c9b38d2"


def test_mx_exact_witnesses():
    rows = []
    for n in range(3, 7):
        for g in enumerate_connected_graphs(n):
            for k in (2, 3):
                res = mx_exact_bruteforce(g, k)
                rows.append((to_graph6(g), k, res.value, res.witness.colors))
    assert len(rows) == 282
    # the values on their own, as the witnesses depend on which tree spans a set
    assert sha256("".join(f"{g6} {k} {value}\n" for g6, k, value, _ in rows)) == (
        "5a22ec819975422f7334cda83104b8466c6d74362d7458222072ed35caccab81")
    assert witness_digest(rows) == "836244ed9d42ac64ab98aafcdad76f8ee91ed5b4051048e676bfa7eb980f2631"


def test_cut_vertex_witnesses():
    # the witness's one-color core (color 0) is the first connected
    # dominating set that the combinations scan finds
    graphs = [g for n in range(3, 8) for g in enumerate_connected_graphs(n) if cut_vertices(g)]
    graphs += [build_gadget(s) for n in range(1, 6) for s in enumerate_graphs(n)]
    rows = []
    for g in graphs:
        value, witness = mvx_via_cut_vertex(g, 2)
        core = sum(1 << v for v, c in enumerate(witness.colors) if c == 0)
        assert core == oracles.first_connected_dominating_set(g), to_graph6(g)
        rows.append((to_graph6(g), 2, value, witness.colors))
    assert len(rows) == 508
    assert witness_digest(rows) == "b29f9963f41c87dd5d8425ba0acd60a12ef2b21f67c0c183247f267639e96cee"
