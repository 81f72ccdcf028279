"""No dead imports: every name a module in src/ or tests/ imports is used
in that module or exported through its __all__."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# (module path, name) pairs imported for a side effect; each cites the
# comment at its import
EXEMPT = {
    # "perfbench re-imports the package, then its tracer looks the stub up
    # in sys.modules"
    ('src/pkernels/__init__.py', 'cosets'),
}


def _unused_imports(tree):
    imported = {}
    used = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split('.')[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == '__all__' for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return {name: line for name, line in imported.items()
            if name not in used and name not in exported}


def test_no_unused_imports():
    dead = []
    for path in sorted(list((ROOT / 'src').rglob('*.py')) + list((ROOT / 'tests').rglob('*.py'))):
        rel = path.relative_to(ROOT).as_posix()
        for name, line in _unused_imports(ast.parse(path.read_text())).items():
            if (rel, name) not in EXEMPT:
                dead.append('%s:%d %s' % (rel, line, name))
    assert not dead, 'unused imports:\n' + '\n'.join(dead)


def test_scan_sees_a_dead_import():
    tree = ast.parse('import json\nimport re\nfrom os import path as p\n'
                     '__all__ = ["p"]\nre.compile("x")\n')
    assert _unused_imports(tree) == {'json': 1}
