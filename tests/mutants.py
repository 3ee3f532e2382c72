"""Sample operator mutants of one module and run the tests against each.

    python tests/mutants.py src/score/retrieval.py --seed 7 --count 15 --scratch DIR [-- PYTEST-ARGS]

Each mutant flips one operator at a site drawn with `--seed`: a comparison
(`<`/`<=`, `>`/`>=`, `==`/`!=`, `is`/`is not`, `in`/`not in`), a boolean
operator (`and`/`or`) or a binary `+`/`-`. The repository's `src/`,
`tests/` and `scorebench/` (which the tests read) are copied once into a new
directory under `--scratch`. pytest runs there with `-x` over PYTEST-ARGS
(default: `tests`), first on the copy as it is, which must pass, then once
per mutant, with the module rewritten (`ast.unparse`). A mutant whose run
passes is a survivor; a run past `--timeout` counts as killed. One line is
printed per mutant, then the mutation score. The checkout itself is never
written. pytest does not collect this file: its name does not start with
`test_`.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.And: ast.Or, ast.Or: ast.And, ast.Add: ast.Sub, ast.Sub: ast.Add,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is",
    ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in", ast.And: "and", ast.Or: "or", ast.Add: "+", ast.Sub: "-",
}


def sites(tree: ast.AST) -> list[tuple[ast.AST, str, int]]:
    """(node, field, position) of each flippable operator, in `ast.walk` order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            found += [(node, "ops", i) for i, op in enumerate(node.ops) if type(op) in FLIPS]
        elif isinstance(node, (ast.BoolOp, ast.BinOp)) and type(node.op) in FLIPS:
            found.append((node, "op", -1))
    return found


def mutant(source: str, k: int) -> tuple[str, str]:
    """The module with its `k`-th site flipped, and a label naming the line and the flip."""
    tree = ast.parse(source)
    node, name, i = sites(tree)[k]
    old = node.ops[i] if name == "ops" else node.op
    new = FLIPS[type(old)]()
    if name == "ops":
        node.ops[i] = new
    else:
        node.op = new
    return ast.unparse(tree), f"line {node.lineno}: {SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}"


def main(argv: list[str]) -> int:
    argv, pytest_args = (argv[: argv.index("--")], argv[argv.index("--") + 1 :]) if "--" in argv else (argv, [])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="the module to mutate, relative to the repository root")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=15)
    parser.add_argument("--scratch", required=True, help="a directory outside the checkout for the copy")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per mutant; a run past it counts as killed")
    args = parser.parse_args(argv)

    source = (ROOT / args.module).read_text("utf-8")
    chosen = sorted(random.Random(args.seed).sample(range(len(sites(ast.parse(source)))), args.count))
    copy = Path(tempfile.mkdtemp(prefix="mutants-", dir=args.scratch))
    for part in ("src", "tests", "scorebench"):
        shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *(pytest_args or ["tests"])]

    def outcome() -> str:
        try:
            run = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=args.timeout)
        except subprocess.TimeoutExpired:
            return "killed (timed out)"
        return "SURVIVED" if run.returncode == 0 else "killed"

    survivors = 0
    try:
        if outcome() != "SURVIVED":
            print(f"the tests fail on an unmutated copy of the checkout: {' '.join(command[2:])}", file=sys.stderr)
            return 2
        for k in chosen:
            text, label = mutant(source, k)
            (copy / args.module).write_text(text, "utf-8")
            result = outcome()
            survivors += result == "SURVIVED"
            print(f"{args.module} {label}: {result}", flush=True)
    finally:
        shutil.rmtree(copy)
    print(f"{args.module}: {len(chosen) - survivors} of {len(chosen)} killed (seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
