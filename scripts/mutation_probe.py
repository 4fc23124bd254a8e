#!/usr/bin/env python3
"""Mutation probe: do a module's tests fail when one operator or integer in it changes?

    python3 scripts/mutation_probe.py src/coexsim/montecarlo.py tests/test_montecarlo.py \\
        --sites 40 --seed 20161

A site is a comparison, arithmetic operator or integer constant of the module.
A mutant swaps < and <=, > and >=, + and -, * and /, or == and !=, or adds 1 to
the integer.  --sites of them are drawn with random.Random(--seed), and each
mutant runs against the test files in its own temporary copy of the checkout
(the module's, found as the parent of its src directory), one pytest -x
process at a time: the checkout itself is never written.  A mutant whose tests
fail, error or time out is killed; one whose tests pass survived.

Prints each mutant as file:line, killed or survived, and the score.  A survivor
is accepted when scripts/mutation_accepted.txt lists it, with the reason it
cannot be told apart from the program on a correct run; every other survivor
is a missing test, and the probe exits 1.  A sweep takes minutes, so it is not
part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
         ast.Mult: ast.Div, ast.Div: ast.Mult}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
ACCEPTED = Path(__file__).with_name("mutation_accepted.txt")
_ADDRESS_SPACE = 4 << 30  # bytes of address space a test process may map
IGNORED = shutil.ignore_patterns(".git", ".bench_out", "__pycache__", ".pytest_cache",
                                 ".hypothesis", "*.egg-info")


def sites(tree: ast.AST) -> list[tuple[ast.AST, int | None]]:
    """Every mutable spot in walk order: (node, op index) for an operator, (node, None) for
    an integer constant."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            found += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((node, 0))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node, None))
    return found


def mutate(node: ast.AST, i: int | None) -> str:
    """Apply the mutation of one site in place; returns it as text, "< -> <=" or "64 -> 65"."""
    if i is None:
        node.value += 1
        return f"{node.value - 1} -> {node.value}"
    if isinstance(node, ast.Compare):
        old = node.ops[i]
        node.ops[i] = SWAPS[type(old)]()
    else:
        old = node.op
        node.op = SWAPS[type(old)]()
    return f"{SYMBOLS[type(old)]} -> {SYMBOLS[SWAPS[type(old)]]}"


def key(module: Path, line: str, segment: str, mutation: str) -> str:
    """How a mutant is named in the accepted list: file, its line's text, the mutated
    expression's text and the mutation."""
    return f"{module.name} :: {line.strip()} :: {segment} :: {mutation}"


def accepted() -> set[str]:
    """The accepted survivors: each line of the list is a key, then ' :: ' and a reason."""
    lines = ACCEPTED.read_text().splitlines() if ACCEPTED.exists() else []
    return {line.rsplit(" :: ", 1)[0] for line in lines if line and not line.startswith("#")}


def limit_memory() -> None:
    """A mutant that asks for an array of many GiB fails, as a killed one, in its own process."""
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


def run_tests(copy: Path, tests: list[str], timeout: float | None) -> str:
    """'passed', 'failed' or 'timeout' for one pytest -x run in copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *tests], cwd=copy, env=env, capture_output=True, timeout=timeout,
                              preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("module", type=Path, help="a .py file under a checkout's src directory")
    p.add_argument("tests", nargs="+", type=Path, help="test files of the same checkout")
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    module = args.module.resolve()
    parts = module.parts
    if "src" not in parts:
        p.error(f"{args.module} is not under a src directory")
    root = Path(*parts[:len(parts) - parts[::-1].index("src") - 1])
    tests = [str(t.resolve().relative_to(root)) for t in args.tests]
    source = module.read_text()
    lines = source.splitlines()
    count = len(sites(ast.parse(source)))
    chosen = sorted(random.Random(args.seed).sample(range(count), min(args.sites, count)))
    with tempfile.TemporaryDirectory(prefix="mutation_probe_") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(root, copy, ignore=IGNORED)
        target = copy / module.relative_to(root)
        start = time.perf_counter()
        if run_tests(copy, tests, timeout=None) != "passed":
            print("the unmutated tests fail; nothing to probe", file=sys.stderr)
            return 2
        timeout = max(60.0, 10 * (time.perf_counter() - start))
        killed, survivors = 0, []
        for n, index in enumerate(chosen, 1):
            tree = ast.parse(source)
            node, i = sites(tree)[index]
            mutation = mutate(node, i)
            target.write_text(ast.unparse(tree))
            outcome = run_tests(copy, tests, timeout)
            where = f"{module.relative_to(root)}:{node.lineno}"
            segment = " ".join(ast.get_source_segment(source, node).split())
            verdict = "survived" if outcome == "passed" else f"killed ({outcome})"
            print(f"[{n}/{len(chosen)}] {where}  {segment}  {mutation}  {verdict}", flush=True)
            if outcome == "passed":
                survivors.append((where, key(module, lines[node.lineno - 1], segment, mutation)))
            else:
                killed += 1
    print(f"{module.name}: {killed} of {len(chosen)} killed, {len(survivors)} survived "
          f"(--sites {args.sites} --seed {args.seed})")
    new = [(where, k) for where, k in survivors if k not in accepted()]
    for where, k in new:
        print(f"not in {ACCEPTED.name}: {where}  {k}")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
