"""The package surface, and the names that the benchmark's tracer patches."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import frbl

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
SRC = Path(frbl.__file__).resolve().parent

# Names the package exported before its surface was built from the
# submodules' own ``__all__``, less those in ``REMOVED``; all of them are
# still exported.
EARLIER_EXPORTS = (
    "CenteredGaussian", "DatumValidationError", "DefectField", "EquivalenceTransform",
    "ExtremizerVerdict", "FrblDatum", "GaussianTuple", "GeometricCertificate", "GridFunction",
    "PreservationPreconditionError", "RelationResult", "SigmaSearchResult", "SpaceLayout",
    "SymMatrix", "apply_equivalence", "check_geometric", "check_loewner", "compose_transforms",
    "datum_to_json", "default_integration_box", "evolve_tuple", "extract_constant",
    "extremizer_check", "find_sigma", "geometrize_from_extremizers", "grid_from_json",
    "grid_to_json", "heat_evolve", "heat_step",
    "holder", "log_frbl_ratio", "log_gaussian_integral", "long_time_limit", "loomis_whitney_2d",
    "make_datum", "marginal_residuals", "monotone_functional", "prekopa_leindler",
    "psd_project", "random_admissible_tuple", "relation_check", "rescaled_heat_value",
    "transform_from_json", "transform_to_json", "tuple_from_json", "tuple_to_json",
    "validate_datum", "verify_adjoint_contraction", "verify_preservation",
    "verify_trace_implication", "young_frame",
)

# Earlier exports deleted because nothing but their own tests called them.
REMOVED = ("lambda_maps", "datum_from_json", "discrete_mass", "frbl_ratio", "gaussian_integral",
           "sqrt_psd")

# Exports that nothing in ``src/frbl`` or ``perfbench/`` uses, each kept for
# the reason given.
LEMMA = "a proof step of the paper, reproduced by tests/test_acceptance.py"
UNUSED_EXPORTS = {
    "extract_constant": LEMMA,
    "long_time_limit": LEMMA,
    "rescaled_heat_value": LEMMA,
    "verify_adjoint_contraction": LEMMA,
    "verify_trace_implication": LEMMA,
    "grid_to_json": "the JSON inverse of grid_from_json, which the CLI reads grids with",
    "tuple_to_json": "the JSON inverse of tuple_from_json, which the CLI reads tuples with",
    "compose_transforms": "planned geometrization by operator scaling composes its rounds with it",
    "transform_from_json": "a planned re-check of a transformed datum reads the transform with it",
}

# Public methods and properties of exported classes that nothing in
# ``src/frbl`` or ``perfbench/`` reads, each kept for the reason given.
UNUSED_METHODS: dict[str, str] = {}

# Public fields of exported dataclasses and NamedTuples that nothing in
# ``src/frbl`` or ``perfbench/`` reads and no report writes, each kept for
# the reason given.
UNUSED_FIELDS = {
    **{f"AdjointContractionResult.{name}": LEMMA for name in ("lhs", "rhs")},
    **{f"TraceImplicationResult.{name}": LEMMA
       for name in ("hypothesis_holds", "hypothesis_min_eig", "conclusion_holds", "lhs_trace",
                    "rhs_trace")},
    "DefectField.thresholds": "the bound each min_defect is held to, so a verdict can be re-checked",
}


def test_library_imports_leave_the_environment_alone():
    """``import frbl`` loads no module of the package and not numpy; neither
    it nor the modules' imports change the environment, whatever the BLAS
    thread variables say."""
    code = ("import os, sys\n"
            "before = dict(os.environ)\n"
            "import frbl\n"
            "assert 'numpy' not in sys.modules and 'frbl.heatflow' not in sys.modules\n"
            "from frbl import *\n"
            "import frbl.datum, frbl.gaussian, frbl.geometry, frbl.heatflow, frbl.instances\n"
            "assert dict(os.environ) == before\n")
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC.parent), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr


def test_all_is_unique_and_resolves():
    assert len(frbl.__all__) == len(set(frbl.__all__))
    for name in frbl.__all__:
        assert hasattr(frbl, name), name
    assert set(EARLIER_EXPORTS) <= set(frbl.__all__)
    assert not set(REMOVED) & set(frbl.__all__)


def _referenced(tree) -> set[str]:
    """Names and attribute names that the module ``tree`` reads, outside the
    ``__all__`` list and outside the top-level statement defining each name."""
    names = set()
    for stmt in tree.body:
        targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
        defined = {getattr(stmt, "name", None), *(getattr(t, "id", None) for t in targets)}
        if "__all__" not in defined:
            names |= {node.id if isinstance(node, ast.Name) else node.attr
                      for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))
                      and isinstance(node.ctx, ast.Load)} - defined
    return names


def _perfbench_words() -> set[str]:
    """Identifiers, attribute names, imported names and string constants of
    ``perfbench/*.py``: the tracer patches some names given as strings."""
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name", ast.Constant: "value"}
    words = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            word = getattr(node, fields.get(type(node), ""), None)
            if isinstance(word, str):
                words.add(word)
    return words


def test_every_export_has_a_caller():
    """Each exported name is read somewhere in ``src/frbl`` other than its
    own definition, or by the benchmark, or is listed with its reason."""
    used = _perfbench_words()
    for path in SRC.glob("*.py"):
        used |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    assert {name for name in frbl.__all__ if name not in used} == set(UNUSED_EXPORTS)


def _attribute_reads(tree) -> Counter:
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def test_every_method_has_a_caller():
    """Each public method or property of an exported class is read as an
    attribute in ``src/frbl`` outside its own definition, or is a word of
    ``perfbench/*.py``, or is listed with its reason.

    The check goes by name, like :func:`test_every_export_has_a_caller`, so
    any read of the same name counts: it would not flag a member such as a
    ``CenteredGaussian.standard``, since perfbench has a local ``standard``."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    reads = sum(map(_attribute_reads, trees), Counter())
    words = _perfbench_words()
    unread = {
        f"{cls.name}.{fn.name}"
        for tree in trees for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in frbl.__all__
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and reads[fn.name] == _attribute_reads(fn)[fn.name] and fn.name not in words
    }
    assert unread == set(UNUSED_METHODS)


def _is_record(cls: ast.ClassDef) -> bool:
    """A class declared ``@dataclass`` (with or without arguments) or as a ``NamedTuple``."""
    decorators = {getattr(d, "id", None) or getattr(getattr(d, "func", None), "id", None)
                  for d in cls.decorator_list}
    return "dataclass" in decorators or any(getattr(b, "id", None) == "NamedTuple" for b in cls.bases)


def _report_keys(tree) -> set[str]:
    """The string keys of the dict literals in ``tree`` and the key tuples
    that it passes to ``_to_json``: the names reports are written under."""
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys |= {key.value for key in node.keys if isinstance(key, ast.Constant)}
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_to_json":
            keys |= {e.value for arg in node.args if isinstance(arg, ast.Tuple) for e in arg.elts}
    return keys


def test_every_field_has_a_reader():
    """Each public field of an exported dataclass or NamedTuple (not an
    ``InitVar``) is read as an attribute in ``src/frbl``, is a word of
    ``perfbench/*.py`` or a key that ``src/frbl`` writes a report under, or
    is listed with its reason.  Like :func:`test_every_method_has_a_caller`,
    the check goes by name."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    reads = sum(map(_attribute_reads, trees), Counter())
    used = _perfbench_words().union(*map(_report_keys, trees))
    unread = {
        f"{cls.name}.{stmt.target.id}"
        for tree in trees for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in frbl.__all__ and _is_record(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and not stmt.target.id.startswith("_") and "InitVar" not in ast.unparse(stmt.annotation)
        and not reads[stmt.target.id] and stmt.target.id not in used
    }
    assert unread == set(UNUSED_FIELDS)


def test_benchmark_tracer_installs_and_uninstalls():
    """Every name that ``perfbench/tracing.py`` patches exists, so a rename
    fails here and not only in the benchmark's own smoke test."""
    import frbl.cli
    import frbl.datum

    main, validate = frbl.cli.main, frbl.datum.validate_datum
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing

        tracer = tracing.Tracer()
        try:
            tracing.install(tracer)
            assert frbl.cli.main is not main
        finally:
            tracer.uninstall()
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("tracing", None)
    assert frbl.cli.main is main and frbl.datum.validate_datum is validate


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs(workload, tmp_path, monkeypatch):
    """One smoke round of each benchmark workload, in process: the library
    surface that the workloads build on (``SymMatrix``, ``CenteredGaussian``,
    ``evolve_tuple``, the commands) still answers every verdict correctly."""
    import numpy as np

    import frbl.cli

    # perfbench/run.py pins the BLAS thread count when imported
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import run
        import workloads

        bench = workloads.BUILDERS[workload](np.random.default_rng(3),
                                             workloads.Inputs(tmp_path), True)
        failures = []
        run.run_round(bench.verdicts, frbl.cli, None, [], failures)
    finally:
        for name in ("run", "workloads", "tracing", "checks"):
            sys.modules.pop(name, None)
    assert bench.verdicts and not failures


def _dotted_uses(node, scope="<module>"):
    """(enclosing top-level function, dotted name) for every attribute chain
    such as ``np.fft.rfft`` and every ``from a import b`` (as ``a.b``) under
    ``node``; a function nested in another counts as its enclosing one, and
    a method of a top-level class as ``Class.method``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute):
            names, value = [child.attr], child.value
            while isinstance(value, ast.Attribute):
                names, value = [value.attr, *names], value.value
            if isinstance(value, ast.Name):
                yield scope, ".".join([value.id, *names])
        if isinstance(child, ast.ImportFrom):
            yield from ((scope, f"{child.module}.{a.name}") for a in child.names)
        inner = scope
        if scope == "<module>" and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                      ast.ClassDef)):
            inner = child.name
        elif isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef):
            inner = f"{scope}.{child.name}"
        yield from _dotted_uses(child, inner)


def _uses(*names):
    """(file, enclosing top-level function, dotted name) for every use in
    ``src/frbl`` of one of ``names`` or of a name under them."""
    return {(path.name, *use) for path in sorted(SRC.glob("*.py"))
            for use in _dotted_uses(ast.parse(path.read_text(encoding="utf-8")))
            if any(use[1] == n or use[1].startswith(f"{n}.") for n in names)}


def test_one_json_decoder():
    """Every JSON input is decoded in ``cli._load_json``, so every command
    reads the same dialect."""
    assert _uses("json.load", "json.loads", "orjson.loads") == {
        ("cli.py", "_load_json", "orjson.loads")}


def test_one_fft_routine_and_one_thread_helper():
    """A heat step's FFTs run in ``_convolve_axis``, or for a full 2-D
    kernel in ``heat_step``; every thread starts in ``_on_threads``."""
    assert {use[:2] for use in _uses("np.fft", "numpy.fft")} == {
        ("heatflow.py", "_convolve_axis"), ("heatflow.py", "heat_step")}
    assert _uses("threading.Thread") == {("heatflow.py", "_on_threads", "threading.Thread")}


def test_eigh_only_where_a_spectrum_is_new():
    """An identity heat flow takes its spectra from the tuple that keeps
    them, ``GaussianTuple._spectra``; ``np.linalg.eigh`` runs there, once in
    ``heat_evolve`` (its weighted branch), in ``_heat_weight`` and in
    ``_eig_map``."""
    assert _uses("np.linalg.eigh", "numpy.linalg.eigh") == {
        ("gaussian.py", "GaussianTuple._spectra", "np.linalg.eigh"),
        ("gaussian.py", "heat_evolve", "np.linalg.eigh"),
        ("linalg.py", "_heat_weight", "np.linalg.eigh"),
        ("linalg.py", "_eig_map", "np.linalg.eigh")}
    tree = ast.parse((SRC / "gaussian.py").read_text(encoding="utf-8"))
    heat_evolve = next(fn for fn in tree.body if getattr(fn, "name", "") == "heat_evolve")
    assert [use for _, use in _dotted_uses(heat_evolve)].count("np.linalg.eigh") == 1
