"""Production code holds no code, constant or parameter that only tests
use, no setting that nothing reads and no import hidden in a function.

Every module-level function, class or constant of ``src/gptlab``, and
every method of its classes, must be named (as a whole word) on some other
line of ``src/gptlab`` or ``perfbench/``. Dunder names are exempt: Python
reads them. Every parameter with a default of those functions and methods
must be passed by some call in ``src/gptlab`` or ``perfbench/``. The
README's config table lists exactly the keys that the readers of
``cli.py`` and ``config.py`` name, since no other list of keys exists.
Imports sit at module level, so the import graph of the package is the one
its module headers show. The README names only modules that exist, and
each number of its results tables is the one in the ``runs/`` file that
the table names. Under the repository's pytest settings, which turn every
warning into an error, a failing Hypothesis test still reports its
falsifying example and the tests after it still run.
"""
import ast
import csv
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "gptlab"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module):
    """(name, line) of each module-level function and class, and of each
    method of those classes."""
    defs = FUNCTIONS + (ast.ClassDef,)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not is_dunder(item.name):
                    yield item.name, item.lineno


def constants(tree: ast.Module):
    """(name, line) of each name bound by a module-level assignment."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not is_dunder(name.id):
                    yield name.id, node.lineno


def production_sources() -> list[Path]:
    """The modules of ``src/gptlab`` and ``perfbench/``."""
    return sorted(PACKAGE.glob("*.py")) + sorted(
        (REPO / "perfbench").glob("*.py"))


def named_only_by_tests(names) -> list[str]:
    """``path:line name`` of each (name, line) that ``names(tree)`` yields
    for a module of ``src/gptlab`` and that no other line of the package or
    of ``perfbench/`` names."""
    lines = [(path, no, text) for path in production_sources()
             for no, text in enumerate(path.read_text(encoding="utf-8")
                                       .splitlines(), start=1)]
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, lineno in names(tree):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for p, no, text in lines
                       if (p, no) != (path, lineno)):
                unused.append(f"{path.name}:{lineno} {name}")
    return unused


def test_every_definition_is_named_outside_tests():
    unused = named_only_by_tests(definitions)
    assert not unused, "named only by tests: " + ", ".join(unused)


def test_every_module_constant_is_named_outside_tests():
    unused = named_only_by_tests(constants)
    assert not unused, "constants named only by tests: " + ", ".join(unused)


def test_no_import_inside_a_function():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, FUNCTIONS):
                found += [f"{path.name}:{node.lineno} in {func.name}"
                          for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, "imports inside functions: " + ", ".join(found)


# parameters with a default that only tests pass, and why each stays
OPTIONAL_ALLOWED = {
    ("init_parameters", "dtype"):
        "the float64 verification suites build float64 parameters",
    ("init_prompts", "dtype"):
        "the float64 verification suites build float64 prompts",
    ("adamw_step", "beta1"): "the hand-traced AdamW oracle sets every "
                             "hyper-parameter, eps=1e-15 among them",
    ("adamw_step", "beta2"): "the hand-traced AdamW oracle, as beta1",
    ("adamw_step", "eps"): "the hand-traced AdamW oracle, as beta1",
}


def optional_parameters(tree: ast.Module):
    """(callee, parameter, index, line) of each parameter with a default of
    a module-level function or method. The callee is the name a call uses:
    the class for ``__init__``. The index counts the positional arguments
    a call passes before it (None for a keyword-only parameter)."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield from _defaults(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    callee = (node.name if item.name == "__init__"
                              else item.name)
                    yield from _defaults(item, callee, 0 if static else 1)


def _defaults(func, callee: str, bound: int):
    args = func.args
    positional = args.posonlyargs + args.args
    start = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[start:], start=start - bound):
        yield callee, arg.arg, index, func.lineno
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield callee, arg.arg, None, func.lineno


def _called_name(func) -> str:
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else ""


def calls(tree: ast.Module):
    """(callee, positional count, keyword names, unpacks) of each call in
    ``tree``, with ``import … as`` aliases resolved to their targets and
    ``functools.partial(f, …)`` counted as a call of f."""
    aliases = {alias.asname: alias.name.rsplit(".", 1)[-1]
               for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names if alias.asname}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args = _called_name(node.func), node.args
        if name == "partial" and args:
            name, args = _called_name(args[0]), args[1:]
        unpacks = (any(isinstance(a, ast.Starred) for a in args)
                   or any(k.arg is None for k in node.keywords))
        yield (aliases.get(name, name), len(args),
               {k.arg for k in node.keywords}, unpacks)


def test_every_optional_parameter_is_passed_outside_tests():
    seen = [call for path in production_sources()
            for call in calls(ast.parse(path.read_text(encoding="utf-8")))]
    unpassed = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for callee, param, index, lineno in optional_parameters(tree):
            if (callee, param) in OPTIONAL_ALLOWED:
                continue
            if not any(name == callee and (
                    param in keywords or unpacks
                    or (index is not None and n_args > index))
                    for name, n_args, keywords, unpacks in seen):
                unpassed.append(f"{path.name}:{lineno} {callee}({param})")
    assert not unpassed, ("parameters only tests pass: "
                          + ", ".join(unpassed))


def test_readme_names_only_existing_modules():
    """Each `gptlab.<name>` the README names is a module of the package."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`gptlab\.(\w+)", readme))
    missing = sorted(name for name in named
                     if not (PACKAGE / f"{name}.py").is_file())
    assert named, "the README names no module"
    assert not missing, "README names missing modules: " + ", ".join(
        f"gptlab.{name}" for name in missing)


ACCESSORS = {"str_", "int_", "float_", "bool_", "path_", "paths_"}


def key_arguments(tree: ast.Module):
    """The config key literals of ``tree``: the first argument of each KV
    accessor call, the argument a call passes to a parameter named ``key``
    or ``…_key`` of the module's own functions (``_out_file``,
    ``_load_eval_pieces``), and the key of each (key, field, reader)
    triple of the ``*_KEYS`` and ``present`` tables."""
    key_params = {func.name: i for func in tree.body
                  if isinstance(func, FUNCTIONS)
                  for i, arg in enumerate(func.args.args)
                  if arg.arg == "key" or arg.arg.endswith("_key")}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _called_name(node.func)
            index = 0 if name in ACCESSORS else key_params.get(name)
            if index is not None and len(node.args) > index:
                yield node.args[index]
        elif (isinstance(node, ast.Tuple) and len(node.elts) == 3
              and isinstance(node.elts[2], (ast.Attribute, ast.Lambda))):
            yield node.elts[0]


def readme_config_keys() -> set[str]:
    """Every key of the README's config table, ``a.b/c`` read as ``a.b``
    and ``a.c``."""
    keys, in_table = set(), False
    for line in (REPO / "README.md").read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip("| ").split("|")]
        if cells[0] == "key":
            in_table = True
        elif not line.startswith("|"):
            in_table = False
        elif in_table and not set(line) <= set("|- "):
            for name in re.findall(r"`([^`]+)`", cells[0]):
                head, *rest = name.split("/")
                prefix = head.rpartition(".")[0]
                keys |= {head, *(f"{prefix}.{field}" for field in rest)}
    return keys


def test_readme_lists_every_config_key():
    read = {node.value for name in ("cli.py", "config.py")
            for node in key_arguments(ast.parse(
                (PACKAGE / name).read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    listed = readme_config_keys()
    assert read, "found no config key in the readers"
    assert listed == read, (
        f"read but not in the README: {sorted(read - listed)}; "
        f"in the README but never read: {sorted(listed - read)}")


def _builds_or_records(node) -> bool:
    """Whether ``node`` calls ``Tensor(…)`` or ``….entries.append(…)``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "Tensor") or (
        isinstance(func, ast.Attribute) and func.attr == "append"
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "entries")


def test_autodiff_builds_and_records_tensors_in_one_helper():
    """Every op names its inputs once: only ``_op`` makes a tensor or
    appends to the tape, so no op can record inputs other than those its
    result's requires_grad was decided from."""
    tree = ast.parse((PACKAGE / "autodiff.py").read_text(encoding="utf-8"))
    owners = {getattr(top, "name", "<module>") for top in tree.body
              for node in ast.walk(top) if _builds_or_records(node)}
    assert owners == {"_op"}


def _starts_threads_or_queues(node) -> bool:
    """Whether ``node`` calls ``Thread(…)`` or ``SimpleQueue(…)``, by bare
    name or as an attribute such as ``threading.Thread``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return name in ("Thread", "SimpleQueue")


def test_one_pool_dispatches_all_work():
    """The package keeps one thread pool and one way of handing it work:
    only ``autodiff.spread`` starts threads or makes their queues."""
    owners = {(path.name, getattr(top, "name", "<module>"))
              for path in sorted(PACKAGE.glob("*.py"))
              for top in ast.parse(path.read_text(encoding="utf-8")).body
              for node in ast.walk(top) if _starts_threads_or_queues(node)}
    assert owners == {("autodiff.py", "spread")}


def test_every_error_class_maps_to_an_exit_code():
    """Each class that ``errors.py`` defines is named by an ``except``
    clause of ``cli.main``, so each one is an exit category of its own and
    none is a distinction only tests can see."""
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body
               if isinstance(node, ast.ClassDef)}
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    main = next(node for node in cli.body
                if isinstance(node, FUNCTIONS) and node.name == "main")
    caught = {name.id for handler in ast.walk(main)
              if isinstance(handler, ast.ExceptHandler) and handler.type
              for name in ast.walk(handler.type)
              if isinstance(name, ast.Name)}
    unmapped = sorted(defined - caught)
    assert defined, "errors.py defines no class"
    assert not unmapped, "error classes with no exit code: " + ", ".join(
        unmapped)


def readme_result_rows() -> list[dict[str, str]]:
    """{header: cell} of each row of each README table with a ``source``
    column, backquotes stripped."""
    rows, header = [], None
    for line in (REPO / "README.md").read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            header = None
            continue
        cells = [c.strip().strip("`") for c in line.strip("| ").split("|")]
        if header is None:
            header = cells
        elif "source" in header and not set(line) <= set("|- "):
            rows.append(dict(zip(header, cells)))
    return rows


def read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def source_ppl(row: dict[str, str]) -> float:
    """The perplexity that a README row's source file holds for it."""
    path = REPO / row["source"]
    if path.name == "eval.txt":
        return float(path.read_text(encoding="utf-8").partition("=")[2])
    if path.name == "metrics.csv":
        return float([r["eval_ppl"] for r in read_csv(path)
                      if r["eval_ppl"]][-1])
    assert path.name == "ablation.csv", f"no reader for {path}"
    return float({r["variant"]: r["ppl"]
                  for r in read_csv(path)}[row["variant"]])


def test_readme_results_come_from_runs():
    """Every README result cell equals its source's value rounded to the
    cell's decimals, and the ablation table has every variant in order."""
    rows = readme_result_rows()
    assert {row["source"] for row in rows} == {
        "runs/eval-baseline/eval.txt", "runs/finetune/metrics.csv",
        "runs/ptune/metrics.csv", "runs/ablate/ablation.csv"}
    for row in rows:
        cell = row["test PPL"]
        decimals = len(cell.partition(".")[2])
        assert f"{source_ppl(row):.{decimals}f}" == cell, row
    ablation = REPO / "runs" / "ablate" / "ablation.csv"
    assert [row["variant"] for row in rows if "variant" in row] == \
        [r["variant"] for r in read_csv(ablation)]


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    """Hypothesis prints a failing example through libcst, whose import
    warns; pytest must report the failure, not stop with INTERNALERROR
    (exit 3) before the next test."""
    (tmp_path / "test_example.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n"
        "def test_passes():\n"
        "    pass\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_example.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
