"""Seeded fuzzing of the CLI's input contract.

One or two nodes of a valid grid, co-normal, forms or seed file are replaced
by a hostile value: null, a bool, a string, +-1e308, +-10^400, a list or a
dict.  ``check``, ``integrate``, ``reconstruct`` or ``compare`` then
reads the file through ``cli.main``, in-process, with ``RuntimeWarning`` as an
error.  The contract: ``main`` returns 0, 1 or 2 and never raises; exit 2
names the mutated file and leaves no output file, and neither does a failed
``integrate`` or ``reconstruct``.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from affmin.cli import main
from affmin.gridio import read_grid

HOSTILE = [None, True, False, "", "1.5", "vertex", 1e308, -1e308, 10**400, -10**400,
           [], [1.0], {}, {"values": [1.0]}]


def _nodes(obj, path=()):
    """Paths of every node under ``obj`` (dict values and list items), ``obj`` first."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _nodes(value, path + (key,))


def _replace(obj, path, value):
    """``obj`` with its node at ``path`` replaced by ``value``."""
    if not path:
        return value
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Co-normal, surface, forms and seed files of the cubic on (1, 4, 1, 5)."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {name: root / f"{name}.json" for name in ("conormal", "surface", "forms", "seed")}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--example", "cubic", "--box", "1", "4", "1", "5",
                     "--out", str(files["conormal"])]) == 0
        assert main(["integrate", "--conormal", str(files["conormal"]),
                     "--out", str(files["surface"])]) == 0
        assert main(["forms", "--surface", str(files["surface"]),
                     "--out", str(files["forms"])]) == 0
    p = read_grid(files["surface"]).values
    files["seed"].write_text(json.dumps({"points": [p[0, 0].tolist(), p[1, 0].tolist(),
                                                    p[0, 1].tolist(), p[1, 1].tolist()]}))
    return root, files, {name: json.loads(path.read_text()) for name, path in files.items()}


# File kind -> commands that read it, of the valid files (with the mutated one
# in its place) and an output path.
COMMANDS = {
    "surface": [lambda f, out: ["check", "--surface", f["surface"], "--report", out],
                lambda f, out: ["check", "--surface", f["surface"], "--conormal", f["conormal"],
                                "--report", out],
                lambda f, out: ["compare", "--a", f["surface"], "--b", f["valid_surface"],
                                "--report", out],
                lambda f, out: ["compare", "--a", f["valid_surface"], "--b", f["surface"],
                                "--report", out]],
    "conormal": [lambda f, out: ["integrate", "--conormal", f["conormal"], "--out", out],
                 lambda f, out: ["check", "--surface", f["surface"], "--conormal", f["conormal"],
                                 "--report", out]],
    "forms": [lambda f, out: ["reconstruct", "--forms", f["forms"], "--out", out],
              lambda f, out: ["reconstruct", "--forms", f["forms"], "--seed", f["seed"],
                              "--out", out]],
    "seed": [lambda f, out: ["reconstruct", "--forms", f["forms"], "--seed", f["seed"],
                             "--out", out]],
}


@st.composite
def mutations(draw):
    kind = draw(st.sampled_from(sorted(COMMANDS)))
    command = draw(st.integers(0, len(COMMANDS[kind]) - 1))
    # (node, value) pairs; a node number is taken modulo the file's node count.
    picks = draw(st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(HOSTILE)),
                          min_size=1, max_size=2))
    return kind, command, picks


@settings(max_examples=2000, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=mutations())
def test_a_mutated_file_exits_cleanly(valid_files, case):
    root, files, objs = valid_files
    kind, command, picks = case
    obj = json.loads(json.dumps(objs[kind]))
    paths = list(_nodes(obj))
    # Deepest first, so a replaced parent does not hide a later child.
    for path, value in sorted(((paths[n % len(paths)], v) for n, v in picks),
                              key=lambda pv: -len(pv[0])):
        obj = _replace(obj, path, value)
    mutated, out = root / f"mutated_{kind}.json", root / "out.json"
    mutated.write_text(json.dumps(obj))
    argv = COMMANDS[kind][command]({**files, kind: mutated, "valid_surface": files["surface"]},
                                   out)
    stderr = io.StringIO()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error", RuntimeWarning)
            code = main([str(a) for a in argv])
        assert code in (0, 1, 2), code
        if code == 2:
            assert str(mutated) in stderr.getvalue(), stderr.getvalue()
        if code == 2 or (code == 1 and argv[0] in ("integrate", "reconstruct")):
            assert not out.exists(), (argv, stderr.getvalue())
    finally:
        out.unlink(missing_ok=True)

