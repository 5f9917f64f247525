import ast
import contextlib
import io
import os
import sys

import spindj.core
import spindj.oracle
import spindj.protocol
from spindj import cli

# The run modules hold what a run executes. Every function and method they
# define at module or class level must be called by one of these commands,
# or be listed in UNREACHED with the reason it stays; anything else is code
# that no command runs, and belongs in the pulse-level model or the tests.
RUN_MODULES = (spindj.core, spindj.oracle, spindj.protocol)

# (argv, exit code); "{table}" stands for a file holding the table 0110.
COMMANDS = [
    (["run", "--n", "3", "--oracle", "constant0", "--backend", "both", "--epsilon", "0.5"], 0),
    (["run", "--n", "3", "--oracle", "balanced-random", "--seed", "42", "--backend", "both",
      "--detection", "separate", "--thermal-p", "0.2", "--format", "csv"], 0),
    (["run", "--n", "2", "--oracle", "random", "--seed", "9", "--backend", "dense"], 0),
    (["run", "--oracle", "file:{table}", "--epsilon", "1"], 0),
    (["run", "--n", "30", "--oracle", "constant0"], 4),
    (["sweep", "--n", "1..3", "--seed", "5", "--trials", "2", "--detection", "separate"], 0),
    (["oracle", "--oracle", "balanced-random", "--n", "2", "--seed", "5"], 0),
]

UNREACHED = {
    "core.Operator.__repr__": "debugging",
    "core.BasisPermutation.__repr__": "debugging",
    "core.DensityOperator.__repr__": "debugging",
    "core.DiagonalState.__repr__": "debugging",
    "oracle.TruthTable.__repr__": "debugging",
    "oracle.TruthTable.to_string": "debugging: a table as its 0/1 line, used by __repr__",
    "oracle.TruthTable.__init__": "a table from a vector of 0/1 entries, which it checks and packs "
    "(the tests, library callers); the commands' tables are written packed, through held",
    "oracle.TruthTable.bits": "a table one byte per entry, read by to_string and the tests; "
    "a run reads the packed bytes",
    "core.DensityOperator.trace": "a state's trace, read by __repr__ and the tests",
    "core.DiagonalState.trace": "a state's trace, read by __repr__ and the tests",
    "core.BasisPermutation.to_operator": "the dense matrix the tests check the gather against",
    "core.SpinSystem.basis_index": "names a basis state by its 0/1 configuration",
    "core.is_unitary_matrix": "the check an Operator built without check=False runs (rotation_unitary, the tests)",
    "core.polarization_operator": "an observable perfbench's tracer names in core",
    "core.pauli_z": "2Iz as a matrix, the tests' reference for both readouts; perfbench traces it",
    "core.expectation": "Tr(rho O), the tests' reference readout; perfbench traces it",
}


def defined_functions(module):
    """``{(file, first line): "module.Class.name"}`` of the module- and
    class-level defs; a decorated def starts at its first decorator, as its
    code object's ``co_firstlineno`` does."""
    path = os.path.realpath(module.__file__)
    prefix = module.__name__.rpartition(".")[2]
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = {}
    for node in tree.body:
        is_class = isinstance(node, ast.ClassDef)
        scope = f"{prefix}.{node.name}." if is_class else f"{prefix}."
        for member in node.body if is_class else [node]:
            if isinstance(member, ast.FunctionDef):
                first = member.decorator_list[0].lineno if member.decorator_list else member.lineno
                found[(path, first)] = scope + member.name
    return found


def called_code(commands):
    """The code objects of every Python function called while ``cli.main``
    runs each argv, and the exit codes."""
    codes, exits = set(), []

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                exits.append(cli.main(argv))
            finally:
                sys.setprofile(previous)
    return codes, exits


def test_every_run_module_function_is_reached_or_listed(tmp_path):
    table = tmp_path / "xor.tt"
    table.write_text("0110\n")
    argvs = [[arg.format(table=table) for arg in argv] for argv, _ in COMMANDS]
    codes, exits = called_code(argvs)
    assert exits == [code for _, code in COMMANDS]

    defined = {}
    for module in RUN_MODULES:
        defined.update(defined_functions(module))
    reached = {
        defined[key]
        for key in {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in codes}
        if key in defined
    }
    names = set(defined.values())
    assert len(names) == len(defined)  # no two defs share a name

    assert sorted(names - reached - UNREACHED.keys()) == [], "no command reaches these"
    assert sorted(UNREACHED.keys() - names) == [], "listed, but no longer defined"
    assert sorted(UNREACHED.keys() & reached) == [], "listed, but a command now reaches them"
