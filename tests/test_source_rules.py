"""The repository's source rules, each a test, read over one parse of each file.

Every gate takes a ``Sources`` (the files under one root) and returns its
findings as ``path:line: what`` lines, paths relative to that root; its test
prints them under the rule's header on failure:
- no build artifact or log is tracked by git;
- numpy is the library's one runtime dependency: ``scipy`` appears nowhere
  under ``src/``;
- failures are named and counted, never swallowed: no except clause under
  ``src/`` is bare or names Exception or BaseException, alone, in a tuple or
  as an attribute (read with ast, not a regex);
- a deletion can leave an import behind that nothing uses: every name a
  library module, test or demo imports must appear in it as a name;
- a private helper, constant or class that a change leaves behind: every
  module-level ``_name`` defined in ``src/superpos`` must be loaded, as a name
  or an attribute, somewhere in ``src/superpos`` (a test-only use does not count);
- a record's fields are set, and its arrays made read-only, in one place: in
  ``src/superpos``, ``object.__setattr__`` is called, and a ``.flags.writeable``
  attribute assigned, only inside ``linalg._Record._store``, and every
  ``@dataclass`` is ``frozen=True``.

The planted tests copy ``src/``, ``tests/`` and ``demos/``, plant one breach
in the copy and check that exactly its gate reports exactly that line, so a
gate that stops finding things fails too.
"""
import ast
import pathlib
import re
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACT = re.compile(r"(^|/)([^/]+\.egg-info|__pycache__|\.perfbench-out)/|\.(pyc|log)$")
BROAD = {"Exception", "BaseException"}


class Sources:
    """The files under ``root`` that the gates read, each .py file parsed once;
    a file whose text is that of the same file in ``like`` reuses its tree."""

    def __init__(self, root: pathlib.Path, like: "Sources | None" = None):
        self.root = root
        self.sources = sorted(p.relative_to(root) for p in (root / "src").rglob("*.py"))
        self.library = sorted(p.relative_to(root) for p in (root / "src/superpos").glob("*.py"))
        self.importers = [p.relative_to(root) for d in ("src/superpos", "tests", "demos")
                          for p in sorted((root / d).glob("*.py"))]
        self.texts = {path: (root / path).read_text(encoding="utf-8")
                      for path in {*self.sources, *self.importers}}
        self.trees = {path: like.trees[path] if like and like.texts.get(path) == text
                      else ast.parse(text, str(path)) for path, text in self.texts.items()}


def in_git_checkout(root: pathlib.Path) -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"], cwd=root,
                           capture_output=True, text=True)
    return probe.returncode == 0 and probe.stdout.strip() == "true"


def tracked_artifacts(src: Sources) -> list:
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=src.root, capture_output=True,
                            text=True, check=True).stdout
    return [path for path in listed.split("\0") if ARTIFACT.search(path)]


def scipy_in_src(src: Sources) -> list:
    found = []
    for path in sorted((src.root / "src").rglob("*")):
        # build outputs, which git ignores and the artifact gate fails on if
        # tracked: `pip install -e ".[test]"` writes scipy into the egg-info
        parts = path.relative_to(src.root).parts[:-1]
        if not path.is_file() or any(p == "__pycache__" or p.endswith(".egg-info") for p in parts):
            continue
        for lineno, line in enumerate(path.read_bytes().split(b"\n"), 1):
            if b"scipy" in line:
                text = line.decode("utf-8", errors="replace").strip()
                found.append(f"{path.relative_to(src.root)}:{lineno}: {text}")
    return found


def broad_excepts(src: Sources) -> list:
    found = []
    for path in src.sources:
        for node in ast.walk(src.trees[path]):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                found.append(f"{path}:{node.lineno}: bare except")
            elif BROAD & {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}:
                found.append(f"{path}:{node.lineno}: except {ast.unparse(node.type)}")
    return found


def unused_imports(src: Sources) -> list:
    unused = []
    for path in src.importers:
        if path.name == "__init__.py":
            continue
        tree = src.trees[path]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path}:{node.lineno}: {name}")
    return unused


def unused_private_names(src: Sources) -> list:
    loaded = set()
    for path in src.library:
        for node in ast.walk(src.trees[path]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    private = []
    for path in src.library:
        for node in src.trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            private += [f"{path}:{node.lineno}: {name}" for name in names
                        if name.startswith("_") and not name.startswith("__") and name not in loaded]
    return private


def record_writes(src: Sources) -> list:
    linalg = src.trees.get(pathlib.Path("src/superpos/linalg.py"))
    store = next((f for c in (linalg.body if linalg else ())
                  if isinstance(c, ast.ClassDef) and c.name == "_Record"
                  for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "_store"), None)
    inside = {id(node) for node in ast.walk(store)} if store else set()
    writes = []
    for path in src.library:
        for node in ast.walk(src.trees[path]):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__" \
                    and id(node) not in inside:
                writes.append(f"{path}:{node.lineno}: object.__setattr__ outside _Record._store")
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and id(node) not in inside:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(ast.unparse(t).endswith(".flags.writeable") for t in targets):
                    writes.append(f"{path}:{node.lineno}: .flags.writeable assigned outside _Record._store")
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                frozen = call is not None and any(
                    k.arg == "frozen" and getattr(k.value, "value", None) is True for k in call.keywords)
                if ast.unparse(call.func if call else dec).split(".")[-1] == "dataclass" and not frozen:
                    writes.append(f"{path}:{node.lineno}: @dataclass without frozen=True: {node.name}")
    return writes


# each gate's header, printed above its findings
GATES = {
    tracked_artifacts: "tracked build artifacts or logs:",
    scipy_in_src: "scipy named in src/:",
    broad_excepts: "bare except, or except Exception or BaseException, in src/:",
    unused_imports: "unused imports:",
    unused_private_names: "module-level private names that nothing in src/superpos loads:",
    record_writes: "record fields set, or arrays made read-only, outside linalg._Record._store, "
                   "or a @dataclass not frozen=True, in src/superpos:",
}


def assert_none_found(gate, src: Sources):
    findings = gate(src)
    assert not findings, "\n".join([GATES[gate], *findings])


@pytest.fixture(scope="module")
def repo():
    return Sources(ROOT)


def test_no_tracked_build_artifacts_or_logs(repo):
    if not in_git_checkout(ROOT):
        pytest.skip("not a git checkout")
    assert_none_found(tracked_artifacts, repo)


def test_no_scipy_in_src(repo):
    assert_none_found(scipy_in_src, repo)


def test_no_bare_or_broad_except_in_src(repo):
    assert_none_found(broad_excepts, repo)


def test_no_unused_imports(repo):
    assert_none_found(unused_imports, repo)


def test_no_unused_private_names_in_the_library(repo):
    assert_none_found(unused_private_names, repo)


def test_records_written_only_through_store(repo):
    assert_none_found(record_writes, repo)


@pytest.fixture
def copy(tmp_path):
    for d in ("src", "tests", "demos"):
        shutil.copytree(ROOT / d, tmp_path / d, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return tmp_path


def plant(root: pathlib.Path, rel: str, snippet: str, offset: int) -> str:
    """Append ``snippet`` to ``root/rel``; returns ``rel:line`` of its line ``offset`` (from 1)."""
    path = root / rel
    text = path.read_text(encoding="utf-8")
    path.write_text(text + "\n\n" + snippet, encoding="utf-8")
    return f"{rel}:{len(text.splitlines()) + 2 + offset}"


TRY = "def planted():\n    try:\n        pass\n    except{}:\n        pass\n"
# (gate, file, snippet, line of the breach in the snippet, what the gate names)
PLANTS = {
    "bare-except": (broad_excepts, "src/superpos/states.py", TRY.format(""), 4, "bare except"),
    "except-Exception": (broad_excepts, "src/superpos/states.py", TRY.format(" Exception"), 4,
                         "except Exception"),
    "except-tuple": (broad_excepts, "src/superpos/sdp.py", TRY.format(" (ValueError, BaseException)"),
                     4, "except (ValueError, BaseException)"),
    "except-attribute": (broad_excepts, "src/superpos/kraus.py", TRY.format(" builtins.Exception"), 4,
                         "except builtins.Exception"),
    "unused-import-src": (unused_imports, "src/superpos/states.py", "import fractions\n", 1, "fractions"),
    "unused-import-tests": (unused_imports, "tests/test_states.py", "from fractions import Fraction\n", 1,
                            "Fraction"),
    "unused-import-demos": (unused_imports, "demos/01_free_bases_and_frames.py", "import os.path\n",
                            1, "os"),
    "unused-private-name": (unused_private_names, "src/superpos/states.py", "_planted = 1\n", 1,
                            "_planted"),
    "setattr-outside-store": (record_writes, "src/superpos/states.py",
                              "def planted(record):\n    object.__setattr__(record, 'x', 1)\n", 2,
                              "object.__setattr__ outside _Record._store"),
    "writeable-outside-store": (record_writes, "src/superpos/linalg.py",
                                "def planted(a):\n    a.flags.writeable = False\n", 2,
                                ".flags.writeable assigned outside _Record._store"),
    "dataclass-not-frozen": (record_writes, "src/superpos/states.py",
                             "@dataclass(eq=False)\nclass Planted:\n    x: int = 0\n", 2,
                             "@dataclass without frozen=True: Planted"),
    "dataclass-frozen-false": (record_writes, "src/superpos/game.py",
                               "@dataclasses.dataclass(frozen=False)\nclass Planted:\n    x: int = 0\n", 2,
                               "@dataclass without frozen=True: Planted"),
    "scipy-in-src": (scipy_in_src, "src/superpos/sdp.py",
                     "def planted(a):\n    from scipy.linalg import expm\n    return expm(a)\n", 2,
                     "from scipy.linalg import expm"),
}


@pytest.mark.parametrize("case", sorted(PLANTS))
def test_each_gate_reports_its_planted_breach(case, copy, repo):
    gate, rel, snippet, offset, what = PLANTS[case]
    where = plant(copy, rel, snippet, offset)
    assert gate(Sources(copy, like=repo)) == [f"{where}: {what}"]


@pytest.mark.parametrize("artifact", ["foo.pyc", "run.log", "src/superpos.egg-info/PKG-INFO",
                                      "src/superpos/__pycache__/states.cpython-311.pyc",
                                      ".perfbench-out/report.json"])
def test_artifact_gate_reports_a_tracked_artifact(artifact, copy, repo):
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    subprocess.run(["git", "init", "-q"], cwd=copy, check=True)
    (copy / artifact).parent.mkdir(parents=True, exist_ok=True)
    (copy / artifact).write_bytes(b"scipy\n")
    subprocess.run(["git", "add", "-A"], cwd=copy, check=True)
    src = Sources(copy, like=repo)
    assert tracked_artifacts(src) == [artifact]
    # the scipy gate leaves build outputs to this one
    assert scipy_in_src(src) == []
