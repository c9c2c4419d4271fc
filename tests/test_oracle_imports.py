"""The oracles stay independent of the code they check: a check that shares
the checked code agrees with it by construction."""
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_names(path, package):
    """(module, name) for every import in the file, relative modules resolved
    against `package`; the name is None for a plain `import module`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            found |= {(module, alias.name) for alias in node.names}
    return found


def test_oracles_import_nothing_from_the_package():
    found = imported_names(ROOT / "tests" / "oracles.py", "")
    assert not {module for module, _ in found if module.split(".")[0] == "offloadsim"}


def test_gametheory_takes_the_bidder_and_payoff_not_clearing_or_learner():
    found = imported_names(ROOT / "src" / "offloadsim" / "gametheory.py", "offloadsim")
    ours = {(module, name) for module, name in found if module.split(".")[0] == "offloadsim"}
    assert ours <= {
        ("offloadsim.agents.utility", "AgentConfig"),
        ("offloadsim.agents.utility", "valuation"),
        ("offloadsim.agents.utility", "utility_per_type"),
        ("offloadsim.agents.utility", "utility_total"),
        ("offloadsim.engine", "left_sum"),
        ("offloadsim.engine", "require_count"),
    }
    # the clearing and the learner are what the oracles check
    checked = {"offloadsim.auction"} | {f"offloadsim.agents.{m}" for m in ("bidder", "policy", "nets", "behavior")}
    imported = {module for module, _ in found} | {f"{module}.{name}" for module, name in found if name}
    assert not imported & checked
    others = {module.split(".")[0] for module, _ in found} - {"offloadsim"}
    assert others <= set(sys.stdlib_module_names) | {"numpy"}
