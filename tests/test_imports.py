"""No dead imports: every name a module in src/ or tests/ imports is used
in that module or exported through its __all__.  No stale exports: every
name in the __all__ of a module in src/ is defined there, since the
benchmark's tracer looks each one up, and is used outside that module
or public in pkernels.__all__.  numpy stays where it is needed: the
package, its CLI and the oracle import without it, and only the modules in
NUMPY_MODULES import it at all.  Integer inputs have one reader:
errors.integers is the only module of src/ that uses operator.index."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
import types

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


def _missing_exports(mod):
    return [name for name in getattr(mod, '__all__', ()) if not hasattr(mod, name)]


def test_every_export_is_defined():
    stale = []
    for path in sorted((ROOT / 'src').rglob('*.py')):
        parts = path.relative_to(ROOT / 'src').with_suffix('').parts
        if parts[-1] == '__init__':
            parts = parts[:-1]
        mod = importlib.import_module('.'.join(parts))
        stale += ['%s.%s' % (mod.__name__, name) for name in _missing_exports(mod)]
    assert not stale, 'names in __all__ that are not defined:\n' + '\n'.join(stale)


def test_scan_sees_a_stale_export():
    mod = types.ModuleType('stale')
    mod.__all__ = ['kept', 'removed']
    mod.kept = len
    assert _missing_exports(mod) == ['removed']


def _references(tree):
    """Identifiers a module uses: names, attributes, imported names, and
    the dotted parts of string constants (monkeypatch targets, the
    tracer's 'layer.function' names)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split('.')[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split('.'))
    return out


def _unreferenced_exports(exports, used, public):
    return [name for name in exports if name not in used and name not in public]


def test_every_export_is_used():
    # a name exported but used by no other module, test or the benchmark
    # is private: keep it out of __all__, which the tracer wraps
    import pkernels
    refs = {path: _references(ast.parse(path.read_text()))
            for d in ('src', 'tests', 'perfbench') for path in sorted((ROOT / d).rglob('*.py'))}
    unused = []
    for path in sorted((ROOT / 'src').rglob('*.py')):
        parts = path.relative_to(ROOT / 'src').with_suffix('').parts
        if parts[-1] == '__init__':
            parts = parts[:-1]
        mod = importlib.import_module('.'.join(parts))
        used = set().union(*(names for other, names in refs.items() if other != path))
        unused += ['%s.%s' % (mod.__name__, name) for name in
                   _unreferenced_exports(getattr(mod, '__all__', ()), used, pkernels.__all__)]
    assert not unused, 'names in __all__ used nowhere else:\n' + '\n'.join(unused)


def test_scan_sees_an_unused_export():
    used = _references(ast.parse('from stale import imported\nimport stale\nstale.attr()\n'
                                 'setattr(stale, "patched", None)\n'))
    exports = ['imported', 'attr', 'patched', 'public', 'unused']
    assert _unreferenced_exports(exports, used, ['public']) == ['unused']


def _tracer_names(source):
    """KERNELS, CORE and LAYERS of the benchmark's tracer, read with ast so
    that the tracer is never imported."""
    out = {}
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ('KERNELS', 'CORE', 'LAYERS')):
            out[node.targets[0].id] = ast.literal_eval(node.value)
    return out


def _unresolved(names):
    # KERNELS are names in pkernels._kernels; CORE are 'layer.function'
    # with the layer's module in LAYERS
    kernels = importlib.import_module('pkernels._kernels')
    missing = ['_kernels.' + k for k in names['KERNELS'] if not callable(getattr(kernels, k, None))]
    for name in names['CORE']:
        layer, attr = name.split('.')
        mod = importlib.import_module(names['LAYERS'][layer])
        if not callable(getattr(mod, attr, None)):
            missing.append(name)
    return missing


def test_traced_benchmark_names_resolve():
    # perfbench/run.py --trace 1 wraps these names; a rename in src/ would
    # break it without failing any other test
    names = _tracer_names((ROOT / 'perfbench' / 'tracer.py').read_text())
    assert names['KERNELS'] and names['CORE']
    missing = _unresolved(names)
    assert not missing, 'names the tracer wraps that pkernels lacks:\n' + '\n'.join(missing)


def test_scan_sees_a_renamed_kernel():
    names = _tracer_names("KERNELS = ('gf_rref', 'gf_gone')\nCORE = ('core.bt1_of', 'bt1.gone')\n"
                          "LAYERS = {'core': 'pkernels.shtuka.core', 'bt1': 'pkernels.shtuka.bt1'}\n")
    assert _unresolved(names) == ['_kernels.gf_gone', 'bt1.gone']


# the modules of src/pkernels that import numpy, at module level or in a
# function; a module leaves the set when its last import goes
NUMPY_MODULES = {'_kernels'}


def _imports_numpy(tree):
    nodes = list(ast.walk(tree))
    names = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in nodes if isinstance(node, ast.ImportFrom) and not node.level]
    return any(name.split('.')[0] == 'numpy' for name in names)


def test_numpy_stays_in_its_modules():
    pkg = ROOT / 'src' / 'pkernels'
    found = {path.relative_to(pkg).with_suffix('').as_posix()
             for path in pkg.rglob('*.py') if _imports_numpy(ast.parse(path.read_text()))}
    assert found == NUMPY_MODULES


def test_scan_sees_a_numpy_import():
    for source in ('import numpy as np', 'import os, numpy.random',
                   'from numpy.random import default_rng', 'def f():\n    import numpy\n'):
        assert _imports_numpy(ast.parse(source)), source
    for source in ('import numbers', 'from .numpy import x', 'np = None'):
        assert not _imports_numpy(ast.parse(source)), source


def _loaded(imports, names):
    """Which of the module names a fresh interpreter holds after
    ``import sys, <imports>``, as a sorted list."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / 'src'))
    code = ('import sys, %s\nprint(sorted({m.split(".")[0] for m in sys.modules} & %r))'
            % (imports, set(names)))
    out = subprocess.run([sys.executable, '-c', code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.strip()


def test_package_and_cli_import_without_numpy():
    assert _loaded('pkernels, pkernels.cli, pkernels.shtuka', {'numpy'}) == '[]'


def test_oracle_imports_without_openssl():
    # core draws from _blake2's blake2b, the class hashlib hands out;
    # importing hashlib would also load OpenSSL through _hashlib (3.6 MB)
    assert _loaded('pkernels.shtuka', {'hashlib', '_hashlib'}) == '[]'


def _reads_index(tree):
    """Whether a module uses operator.index, as an attribute or by import."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == 'index'
                and isinstance(node.value, ast.Name) and node.value.id == 'operator'):
            return True
        if (isinstance(node, ast.ImportFrom) and node.module == 'operator'
                and any(alias.name == 'index' for alias in node.names)):
            return True
    return False


def test_integers_have_one_reader():
    # every integer input goes through errors.integers, which refuses bools
    pkg = ROOT / 'src' / 'pkernels'
    found = {path.relative_to(pkg).as_posix()
             for path in pkg.rglob('*.py') if _reads_index(ast.parse(path.read_text()))}
    assert found == {'errors.py'}


def test_scan_sees_an_index_read():
    for source in ('import operator\noperator.index(3)', 'f = map(operator.index, xs)',
                   'from operator import index', 'from operator import add, index as ix'):
        assert _reads_index(ast.parse(source)), source
    for source in ('import operator\noperator.add(1, 2)', 'row.index(1)', 'index = 3'):
        assert not _reads_index(ast.parse(source)), source
