"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the package, every public function of
each pkernels layer (the names in each module's ``__all__``, the four
kernels of ``_kernels``, and ``Element.__mul__`` on the class).  A name
is patched in the module that defines it and in every loaded pkernels
module that imported it, since ``from .affine import length`` binds the
function at import time.

Each call records one span: name, parent span, start and end.  All spans
of a run share the tracer's run id.  Spans stay in memory as flat arrays
and are written out once, by ``save``; the per-layer metrics are
computed from them by ``layer_metrics``.  A span's self time is its
duration minus the durations of its direct children; calls are
synchronous, so children never overlap one another.
"""

import contextlib
import sys
import time
from array import array

import numpy as np

# span-name prefix -> module whose __all__ functions are wrapped
LAYERS = {
    'weyl': 'pkernels.weyl',
    'affine': 'pkernels.affine',
    'cosets': 'pkernels.cosets',
    'semimodules': 'pkernels.semimodules',
    'polygons': 'pkernels.polygons',
    'criterion': 'pkernels.criterion',
    'gf': 'pkernels.shtuka.gf',
    'polymat': 'pkernels.shtuka.polymat',
    'core': 'pkernels.shtuka.core',
    'bt1': 'pkernels.shtuka.bt1',
    'reduction': 'pkernels.shtuka.reduction',
}
KERNELS = ('gf_matmul', 'gf_rref', 'gf_conv2', 'polymat_mul')
POLYMAT = ('pm_mul', 'pm_det', 'pm_char_poly', 'pm_adjugate', 'poly_mul',
           'poly_series_inv')
CORE = ('core.sample_shtuka', 'core.bt1_of', 'core.newton_polygon_of',
        'bt1.eo_classify', 'core.sigma_conjugate_sample')
SUPPORT_TABLES = ('cosets.left_support_table', 'cosets.right_support_table')
FOLDS = ('cosets.fold_simple', 'cosets.fold_simple_left')


def _kernel_work(kernel, args, out):
    """(table lookups, bytes moved) of one kernel call, computed from the
    argument shapes as if every entry were nonzero, so an upper bound for
    the loops that skip zeros.  Each lookup reads one int64 table entry;
    bytes add the int64 operands and the result."""
    a = args[0]
    if kernel == 'gf_rref':
        # per pivot: scale the row, then negate and eliminate every other row
        r, c = a.shape
        lookups = min(r, c) * (c + (r - 1) * (2 * c + 1))
        return lookups, 8 * (2 * a.size + lookups)
    b = args[1]
    if kernel == 'gf_matmul':
        lookups = 2 * a.shape[0] * a.shape[1] * b.shape[1]
    elif kernel == 'gf_conv2':
        lookups = 2 * a.size * b.size
    else:                                             # polymat_mul
        n, k, da = a.shape
        lookups = 2 * n * k * da * b.shape[1] * b.shape[2]
    return lookups, 8 * (a.size + b.size + out.size + lookups)


class Tracer:
    """Records spans for the wrapped pkernels functions while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.span_name = array('i')
        self.span_parent = array('i')
        self.span_start = array('d')
        self.span_end = array('d')
        self.span_raised = bytearray()
        self._stack = [-1]
        self._patches = []
        self.counters = dict.fromkeys(
            ('criterion.cells', 'criterion.nonempty', 'criterion.searched_empty',
             'cosets.support_elements', 'reduction.cosets'), 0)
        for k in KERNELS:
            self.counters['kernels.%s.lookups' % k] = 0
            self.counters['kernels.%s.bytes' % k] = 0

    # ------------------------------------------------------------ spans

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name, fn, hook=None):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, raised = self.span_start, self.span_end, self.span_raised
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            raised.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[sid] = clock()
                starts[sid] = t0
                raised[sid] = 1
                stack.pop()
                raise
            ends[sid] = clock()
            starts[sid] = t0
            stack.pop()
            if hook is not None:
                hook(args, kwargs, result, len(starts) > sid + 1)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, '__name__', name)
        traced.__doc__ = getattr(fn, '__doc__', None)
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        sid = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1])
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.span_raised.append(0)
        self._stack.append(sid)
        try:
            yield
        except BaseException:
            self.span_raised[sid] = 1
            raise
        finally:
            self.span_end[sid] = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------ hooks

    def _hooks(self):
        c = self.counters

        def table(args, kwargs, t, _):
            c['criterion.cells'] += len(t.rows) * len(t.cols)
            c['criterion.nonempty'] += sum(map(sum, t.values))
            c['criterion.searched_empty'] += sum(t.searched.values())

        def cell(args, kwargs, res, _):
            c['criterion.cells'] += 1
            c['criterion.nonempty'] += bool(res[0] if isinstance(res, tuple) else res)

        def support(args, kwargs, tab, built):
            if built:
                c['cosets.support_elements'] += sum(map(len, tab.values()))

        def orbit(args, kwargs, size, _):
            c['reduction.cosets'] += size

        hooks = {
            'criterion.incidence_table': table,
            'criterion.lifts_to': cell,
            'cosets.left_support_table': support,
            'cosets.right_support_table': support,
            'reduction.iwahori_orbit_size': orbit,
        }
        for k in KERNELS:
            def kernel(args, kwargs, out, _, k=k):
                lookups, nbytes = _kernel_work(
                    k, args, out[0] if isinstance(out, tuple) else out)
                c['kernels.%s.lookups' % k] += lookups
                c['kernels.%s.bytes' % k] += nbytes
            hooks['kernels.' + k] = kernel
        return hooks

    # ------------------------------------------------------ installation

    def _targets(self):
        out = []
        for prefix, modname in LAYERS.items():
            mod = sys.modules[modname]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if callable(obj) and not isinstance(obj, type):
                    out.append(('%s.%s' % (prefix, attr), obj))
        kern = sys.modules['pkernels._kernels']
        out.extend(('kernels.' + k, getattr(kern, k)) for k in KERNELS)
        return out, sys.modules['pkernels.affine'].Element

    def install(self):
        """Patch every target in every loaded pkernels module."""
        if self._patches:
            raise RuntimeError('tracer already installed')
        targets, element = self._targets()
        hooks = self._hooks()
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == 'pkernels' or n.startswith('pkernels.')) and m is not None]
        for name, fn in targets:
            wrapper = self._wrap(name, fn, hooks.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        self._patches.append((element, '__mul__', element.__mul__))
        element.__mul__ = self._wrap('affine.mul', element.__mul__)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ----------------------------------------------------------- output

    def arrays(self):
        return {
            'name': np.frombuffer(self.span_name, dtype=np.int32),
            'parent': np.frombuffer(self.span_parent, dtype=np.int32),
            'start': np.frombuffer(self.span_start, dtype=np.float64),
            'end': np.frombuffer(self.span_end, dtype=np.float64),
            'raised': np.frombuffer(bytes(self.span_raised), dtype=np.uint8),
        }

    def save(self, path):
        """Write every span, the name table and the run id to an .npz file."""
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names, dtype=str),
                 **self.arrays())

    def layer_metrics(self, caches: dict) -> dict:
        """The per-layer metrics of this run, as {name: (value, unit)}.

        ``caches`` holds the module-cache sizes read after the timed phase.
        """
        a = self.arrays()
        n = len(a['name'])
        nnames = max(len(self.names), 1)
        dur = a['end'] - a['start']
        has_parent = a['parent'] >= 0
        child_time = np.bincount(a['parent'][has_parent], weights=dur[has_parent], minlength=n)
        child_count = np.bincount(a['parent'][has_parent], minlength=n)
        self_time = dur - child_time
        calls = np.bincount(a['name'], minlength=nnames)
        self_s = np.bincount(a['name'], weights=self_time, minlength=nnames)
        ids = self._name_ids

        def n_calls(*names):
            return int(sum(calls[ids[x]] for x in names if x in ids))

        def s_self(*names):
            return float(sum(self_s[ids[x]] for x in names if x in ids))

        def spans_of(*names):
            want = [ids[x] for x in names if x in ids]
            return np.isin(a['name'], want) if want else np.zeros(n, dtype=bool)

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        table_spans = spans_of(*SUPPORT_TABLES)
        table_calls = int(table_spans.sum())
        table_builds = int((table_spans & (child_count > 0)).sum())
        retry = spans_of('reduction.iwahori_class_of') & (a['raised'] == 1) & has_parent
        retry &= spans_of('core.sigma_conjugate_sample')[np.maximum(a['parent'], 0)]
        lattice_calls = n_calls('reduction.lattice_key')
        weyl_names = [x for x in self.names if x.startswith('weyl.')]

        m = {
            'weyl.compose.calls': (n_calls('weyl.compose'), 'count'),
            'weyl.is_permutation.calls': (n_calls('weyl.is_permutation'), 'count'),
            'weyl.self_s': (s_self(*weyl_names), 's'),
            'affine.mul.calls': (n_calls('affine.mul'), 'count'),
            'affine.mul.self_s': (s_self('affine.mul'), 's'),
            'affine.length.calls': (n_calls('affine.length'), 'count'),
            'affine.length.self_s': (s_self('affine.length'), 's'),
            'affine.length_cache.entries': (caches['affine._length_cache'], 'count'),
            'cosets.support_table.calls': (table_calls, 'count'),
            'cosets.support_table.builds': (table_builds, 'count'),
            'cosets.support_table.hit_ratio':
                (ratio(table_calls - table_builds, table_calls), 'ratio'),
            'cosets.support_table.self_s': (s_self(*SUPPORT_TABLES), 's'),
            'cosets.support_elements': (c['cosets.support_elements'], 'count'),
            'cosets.fold.calls': (n_calls(*FOLDS), 'count'),
            'cosets.fold.self_s': (s_self(*FOLDS), 's'),
            'cosets.cache.entries':
                (caches['cosets._left_tables'] + caches['cosets._right_tables'], 'count'),
            'semimodules.enumerate_profiles.self_s':
                (s_self('semimodules.enumerate_profiles'), 's'),
            'semimodules.middle_element.calls': (n_calls('semimodules.middle_element'), 'count'),
            'polygons.eo_representative.calls': (n_calls('polygons.eo_representative'), 'count'),
            'polygons.enumerate_polygons.self_s': (s_self('polygons.enumerate_polygons'), 's'),
            'criterion.incidence_table.self_s': (s_self('criterion.incidence_table'), 's'),
            'criterion.lifts_to.self_s': (s_self('criterion.lifts_to'), 's'),
            'criterion.cells': (c['criterion.cells'], 'count'),
            'criterion.nonempty_ratio':
                (ratio(c['criterion.nonempty'], c['criterion.cells']), 'ratio'),
            'criterion.searched_empty': (c['criterion.searched_empty'], 'count'),
            'criterion.calibrate.self_s': (s_self('criterion.calibrate'), 's'),
        }
        for k in KERNELS:
            m['kernels.%s.calls' % k] = (n_calls('kernels.' + k), 'count')
            m['kernels.%s.self_s' % k] = (s_self('kernels.' + k), 's')
            m['kernels.%s.lookups' % k] = (c['kernels.%s.lookups' % k], 'count-computed')
            m['kernels.%s.bytes' % k] = (c['kernels.%s.bytes' % k], 'B-computed')
        m['gf.field.self_s'] = (s_self('gf.field'), 's')
        for f in POLYMAT:
            m['polymat.%s.calls' % f] = (n_calls('polymat.' + f), 'count')
            m['polymat.%s.self_s' % f] = (s_self('polymat.' + f), 's')
        for name in CORE:
            m[name + '.self_s'] = (s_self(name), 's')
        m.update({
            'reduction.iwahori_class_of.calls': (n_calls('reduction.iwahori_class_of'), 'count'),
            'reduction.iwahori_class_of.self_s': (s_self('reduction.iwahori_class_of'), 's'),
            'reduction.precision_retries': (int(retry.sum()), 'count'),
            'reduction.lattice_key.calls': (lattice_calls, 'count'),
            'reduction.lattice_key.self_s': (s_self('reduction.lattice_key'), 's'),
            'reduction.key_ratio': (ratio(c['reduction.cosets'], lattice_calls), 'ratio'),
        })
        return m

