r"""Command line interface.

Exit codes: 0 success, 2 validation error (bad arguments or
incompatible inputs), 3 resource limit exceeded.
"""

import argparse
import ast
import json
import sys

from . import criterion
from .affine import Element
from .criterion import ConventionManifest, __version__
from .errors import ConventionError, ResourceLimitError
from .polygons import HodgeDatum, enumerate_polygons, parse_polygon
from .semimodules import enumerate_cochar_block, enumerate_profiles

__all__ = ['main', 'parse_element', 'format_element']


def parse_element(text: str) -> Element:
    """Parse "perm=[2,1];lam=(0,1)" (field order free, spaces ignored)."""
    perm = lam = None
    for part in text.replace(' ', '').split(';'):
        if not part:
            continue
        key, _, val = part.partition('=')
        if key == 'perm':
            perm = _parse_perm(val)
        elif key == 'lam':
            parsed = _literal(val, 'lam')
            lam = _ints(parsed if isinstance(parsed, (tuple, list)) else (parsed,), 'lam')
        else:
            raise ValueError('unknown element field %r' % key)
    if perm is None or lam is None:
        raise ValueError('element needs both perm=[...] and lam=(...)')
    return Element(lam, perm)


def format_element(x: Element) -> str:
    return 'perm=%s;lam=(%s)' % (json.dumps(list(x.perm)),
                                 ','.join(str(v) for v in x.lam))


def _field_from_args(args):
    from .shtuka import field
    return field(args.prime, args.ext)


def _manifest_from_args(args):
    if getattr(args, 'manifest', None):
        return ConventionManifest.load(args.manifest)
    return criterion.load_manifest(None)


def _emit(text, out):
    if out:
        with open(out, 'w') as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_field_args(p):
    p.add_argument('--prime', type=int, default=2)
    p.add_argument('--ext', type=int, default=2)


def _literal(text, what):
    """ast.literal_eval, reporting malformed input as ValueError (exit 2)."""
    try:
        return ast.literal_eval(text)
    except (SyntaxError, TypeError, ValueError) as exc:
        raise ValueError('malformed %s: %r' % (what, text)) from exc


def _ints(val, what):
    if not isinstance(val, (tuple, list)) or not all(isinstance(v, int) for v in val):
        raise ValueError('%s must be a list of integers, got %r' % (what, val))
    return tuple(val)


def _parse_perm(text):
    return _ints(_literal(text, 'permutation'), 'permutation')


def _parse_probe(text):
    parts = text.split(',')
    if len(parts) != 2:
        raise ValueError('probe must be "h,d", got %r' % text)
    return tuple(int(v) for v in parts)


def _build_parser():
    ap = argparse.ArgumentParser(prog='pkernels',
                                 description='incidence tables between residue-module '
                                             'classes and Newton strata')
    ap.add_argument('--version', action='version', version='pkernels %s' % __version__)
    sub = ap.add_subparsers(dest='cmd', required=True)

    p = sub.add_parser('check', help='evaluate one cell of the incidence table')
    p.add_argument('--height', type=int, required=True)
    p.add_argument('--dim', type=int, required=True)
    p.add_argument('--eo', required=True, help='row permutation, e.g. [2,1]')
    p.add_argument('--np', required=True, help='polygon string, e.g. 1/2x2')
    p.add_argument('--manifest')
    p.add_argument('--out')

    p = sub.add_parser('incidence', help='full table for a stratum')
    p.add_argument('--height', type=int, required=True)
    p.add_argument('--dim', type=int, required=True)
    p.add_argument('--format', choices=('csv', 'json'), default='csv')
    p.add_argument('--manifest')
    p.add_argument('--out')

    p = sub.add_parser('adlv', help='whether I·x·I meets the stratum of a polygon')
    p.add_argument('--x', required=True, help='element, e.g. "perm=[2,1];lam=(0,1)"')
    p.add_argument('--np', required=True)
    p.add_argument('--manifest')
    p.add_argument('--out')

    p = sub.add_parser('enumerate-cochars', help='cocharacters of a block or polygon')
    p.add_argument('--block', help='coprime block "n,m"')
    p.add_argument('--np', help='polygon string (profiles over all blocks)')
    p.add_argument('--out')

    p = sub.add_parser('enumerate-polygons', help='all polygons of a stratum')
    p.add_argument('--height', type=int, required=True)
    p.add_argument('--dim', type=int, required=True)
    p.add_argument('--out')

    p = sub.add_parser('oracle', help='matrix-level sampling and verification')
    osub = p.add_subparsers(dest='oracle_cmd', required=True)

    q = osub.add_parser('sample', help='sample matrices; JSONL of class and polygon')
    q.add_argument('--height', type=int, required=True)
    q.add_argument('--dim', type=int, required=True)
    q.add_argument('--count', type=int, default=10)
    q.add_argument('--seed', type=int, default=0)
    q.add_argument('--degree', type=int, default=2)
    _add_field_args(q)
    q.add_argument('--out')

    q = osub.add_parser('verify', help='random-input consistency suite')
    q.add_argument('--height', type=int, required=True)
    q.add_argument('--dim', type=int, required=True)
    q.add_argument('--count', type=int, default=50)
    q.add_argument('--seed', type=int, default=0)
    q.add_argument('--degree', type=int, default=2)
    _add_field_args(q)
    q.add_argument('--out')

    p = sub.add_parser('calibrate', help='check the incidence engine against the oracle')
    p.add_argument('--probe', action='append', default=None,
                   help='stratum "h,d" (repeatable; default 2,1 3,1 3,2)')
    p.add_argument('--count', type=int, default=None,
                   help='samples per probe (default 1000 for 2,1, else 300)')
    p.add_argument('--seed', type=int, default=20240801)
    p.add_argument('--degree', type=int, default=2)
    p.add_argument('--sigma-trials', type=int, default=200)
    _add_field_args(p)
    p.add_argument('--out', default='calibration.json')
    return ap


def _cmd_check(args):
    hd = HodgeDatum(args.height, args.dim)
    P = parse_polygon(args.np)
    w = _parse_perm(args.eo)
    mani = _manifest_from_args(args)
    value, info = criterion.lifts_to(hd, w, P, mani, return_info=True)
    out = {
        'hodge': [hd.height, hd.dimension],
        'eo': list(w),
        'np': str(P),
        'value': bool(value),
        'witness': info['witness'],
        'searched': info['searched'],
        'manifest': mani.to_dict(with_report=False),
        'version': __version__,
    }
    _emit(json.dumps(out, sort_keys=True, indent=2) + '\n', args.out)
    return 0


def _cmd_incidence(args):
    hd = HodgeDatum(args.height, args.dim)
    mani = _manifest_from_args(args)
    table = criterion.incidence_table(hd, mani)
    text = table.to_csv() if args.format == 'csv' else table.to_json()
    _emit(text, args.out)
    return 0


def _cmd_adlv(args):
    x = parse_element(args.x)
    P = parse_polygon(args.np)
    mani = _manifest_from_args(args)
    value, info = criterion.adlv_nonempty(x, P, mani, return_info=True)
    out = {
        'x': x.to_dict(),
        'np': str(P),
        'value': bool(value),
        'witness': info['witness'],
        'searched': info['searched'],
        'manifest': mani.to_dict(with_report=False),
        'version': __version__,
    }
    _emit(json.dumps(out, sort_keys=True, indent=2) + '\n', args.out)
    return 0


def _cmd_enumerate_cochars(args):
    if bool(args.block) == bool(args.np):
        raise ValueError('give exactly one of --block or --np')
    if args.block:
        n, m = (int(v) for v in args.block.split(','))
        rows = [list(lam) for lam in enumerate_cochar_block(n, m)]
        out = {'block': [n, m], 'cochars': rows, 'count': len(rows)}
    else:
        P = parse_polygon(args.np)
        profs = enumerate_profiles(P)
        out = {'np': str(P), 'profiles': [list(pr.lam) for pr in profs],
               'count': len(profs)}
    _emit(json.dumps(out, sort_keys=True, indent=2) + '\n', args.out)
    return 0


def _cmd_enumerate_polygons(args):
    hd = HodgeDatum(args.height, args.dim)
    polys = enumerate_polygons(hd)
    out = {'hodge': [hd.height, hd.dimension],
           'polygons': [str(P) for P in polys], 'count': len(polys)}
    _emit(json.dumps(out, sort_keys=True, indent=2) + '\n', args.out)
    return 0


def _cmd_oracle_sample(args):
    import numpy as np
    from .shtuka import bt1_of, eo_classify, newton_polygon_of, sample_shtuka
    hd = HodgeDatum(args.height, args.dim)
    cfg = _field_from_args(args)
    lines = []
    for k in range(args.count):
        rng = np.random.default_rng([args.seed, k])
        sh = sample_shtuka(hd, cfg, deg=args.degree, rng=rng)
        w = eo_classify(bt1_of(sh), hd.dimension)
        P = newton_polygon_of(sh)
        lines.append(json.dumps({'eo': list(w), 'np': str(P)}, sort_keys=True))
    _emit(''.join(line + '\n' for line in lines), args.out)
    return 0


def _cmd_oracle_verify(args):
    from .shtuka import run_consistency_suite
    hd = HodgeDatum(args.height, args.dim)
    cfg = _field_from_args(args)
    report = run_consistency_suite(hd, cfg, samples=args.count, seed=args.seed,
                                   deg=args.degree)
    _emit(json.dumps(report, sort_keys=True, indent=2) + '\n', args.out)
    return 0 if report['ok'] else 2


def _cmd_calibrate(args):
    cfg = _field_from_args(args)
    probes = None
    if args.probe:
        probes = [_parse_probe(p) for p in args.probe]
    mani = criterion.calibrate(probes=probes, samples=args.count, seed=args.seed,
                               cfg=cfg, deg=args.degree,
                               sigma_trials=args.sigma_trials)
    mani.save(args.out)
    summary = {
        'written': args.out,
        'manifest': mani.to_dict(with_report=False),
        'observed_cells': sum(map(len, mani.report['observed'].values())),
        'sigma_classes': len(mani.report['sigma']['classes']),
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True, indent=2) + '\n')
    return 0


_DISPATCH = {
    'check': _cmd_check,
    'incidence': _cmd_incidence,
    'adlv': _cmd_adlv,
    'enumerate-cochars': _cmd_enumerate_cochars,
    'enumerate-polygons': _cmd_enumerate_polygons,
    'calibrate': _cmd_calibrate,
}


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.cmd == 'oracle':
            fn = _cmd_oracle_sample if args.oracle_cmd == 'sample' else _cmd_oracle_verify
            return fn(args)
        return _DISPATCH[args.cmd](args)
    except ResourceLimitError as exc:
        print('resource limit: %s' % exc, file=sys.stderr)
        return 3
    except (ValueError, ConventionError) as exc:
        print('error: %s' % exc, file=sys.stderr)
        return 2


if __name__ == '__main__':
    sys.exit(main())
