r"""Command line interface.

Exit codes: 0 success, 2 validation error (bad arguments, incompatible
inputs or an unwritable --out), 3 resource limit exceeded (a height
above criterion.Bounds, or a field larger than gf.MAX_ORDER), checked
before any enumeration, sampling or field table is built.
"""

import argparse
import ast
import json
import sys

from . import criterion
from .affine import Element
from .criterion import __version__
from .errors import ConventionError, ResourceLimitError, integers
from .polygons import HodgeDatum, enumerate_polygons, parse_polygon
from .semimodules import enumerate_cochar_block, enumerate_profiles

__all__ = ['main', 'parse_element']


def parse_element(text: str) -> Element:
    """Parse "perm=[2,1];lam=(0,1)", or "perm=2,1;lam=0,1" (each field
    once, in either order, spaces ignored)."""
    fields = {}
    for part in text.replace(' ', '').split(';'):
        if not part:
            continue
        key, _, val = part.partition('=')
        if key not in ('perm', 'lam'):
            raise ValueError('unknown element field %r' % key)
        if key in fields:
            raise ValueError('element field %r given twice' % key)
        fields[key] = _int_list(val, key)
    if len(fields) < 2:
        raise ValueError('element needs both perm=[...] and lam=(...)')
    return Element(fields['lam'], fields['perm'])


def _field_from_args(args):
    from .shtuka import field
    return field(args.prime, args.ext)


def _emit(text, out):
    if out:
        with open(out, 'w') as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out):
    _emit(json.dumps(obj, sort_keys=True, indent=2) + '\n', out)


def _int_list(text, option, pair=None):
    """The integers of an option value: comma-separated, brackets optional,
    one integer a list of one, each read by errors.integers; with ``pair``,
    the form of the value (e.g. 'n,m'), exactly two.  ValueError naming
    the option and its form on anything else."""
    try:
        val = ast.literal_eval(text)
        val = integers(*val) if isinstance(val, (tuple, list)) else integers(val)
        if pair and len(val) != 2:
            raise ValueError
    except (SyntaxError, TypeError, ValueError):
        form = '"%s"' % pair if pair else 'a list of integers'
        raise ValueError('%s must be %s, got %r' % (option, form, text)) from None
    return val


def _build_parser():
    """The argument parser; each command names its handler as ``run``."""
    ap = argparse.ArgumentParser(prog='pkernels',
                                 description='incidence tables between residue-module '
                                             'classes and Newton strata')
    ap.add_argument('--version', action='version', version='pkernels %s' % __version__)
    sub = ap.add_subparsers(dest='cmd', required=True)
    # the options several commands share, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument('--out')
    stratum = argparse.ArgumentParser(add_help=False)
    stratum.add_argument('--height', type=int, required=True)
    stratum.add_argument('--dim', type=int, required=True)
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument('--prime', type=int, default=2)
    field.add_argument('--ext', type=int, default=2)

    p = sub.add_parser('check', parents=[stratum, out],
                       help='evaluate one cell of the incidence table')
    p.add_argument('--eo', required=True, help='row permutation, e.g. [2,1]')
    p.add_argument('--np', required=True, help='polygon string, e.g. 1/2x2')
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser('incidence', parents=[stratum, out], help='full table for a stratum')
    p.add_argument('--format', choices=('csv', 'json'), default='csv')
    p.set_defaults(run=_cmd_incidence)

    p = sub.add_parser('adlv', parents=[out],
                       help='whether I·x·I meets the stratum of a polygon')
    p.add_argument('--x', required=True, help='element, e.g. "perm=[2,1];lam=(0,1)"')
    p.add_argument('--np', required=True)
    p.set_defaults(run=_cmd_adlv)

    p = sub.add_parser('enumerate-cochars', parents=[out],
                       help='cocharacters of a block or polygon')
    p.add_argument('--block', help='coprime block "n,m"')
    p.add_argument('--np', help='polygon string (profiles over all blocks)')
    p.set_defaults(run=_cmd_enumerate_cochars)

    p = sub.add_parser('enumerate-polygons', parents=[stratum, out],
                       help='all polygons of a stratum')
    p.set_defaults(run=_cmd_enumerate_polygons)

    p = sub.add_parser('oracle', help='matrix-level sampling and verification')
    osub = p.add_subparsers(dest='oracle_cmd', required=True)
    for name, count, run, text in (
            ('sample', 10, _cmd_oracle_sample, 'sample matrices; JSONL of class and polygon'),
            ('verify', 50, _cmd_oracle_verify, 'random-input consistency suite')):
        q = osub.add_parser(name, parents=[stratum, field, out], help=text)
        q.add_argument('--count', type=int, default=count)
        q.add_argument('--seed', type=int, default=0)
        q.set_defaults(run=run)

    p = sub.add_parser('calibrate', parents=[field],
                       help='check the incidence engine against the oracle')
    p.add_argument('--probe', action='append', default=None,
                   help='stratum "h,d" (repeatable; default 2,1 3,1 3,2)')
    p.add_argument('--count', type=int, default=None,
                   help='samples per probe (default 1000 for 2,1, else 300)')
    p.add_argument('--seed', type=int, default=20240801)
    p.add_argument('--sigma-trials', type=int, default=200)
    p.add_argument('--out', default='calibration.json')
    p.set_defaults(run=_cmd_calibrate)
    return ap


def _emit_answer(out, answer, **query):
    """Write a check or adlv answer: the query, the value and the
    engine's witness, search size and provenance."""
    value, info = answer
    _emit_json(dict(query, value=bool(value), **info), out)
    return 0


def _cmd_check(args):
    hd = HodgeDatum(args.height, args.dim)
    P = parse_polygon(args.np)
    w = _int_list(args.eo, '--eo')
    return _emit_answer(args.out, criterion.lifts_to(hd, w, P, return_info=True),
                        hodge=[hd.height, hd.dimension], eo=list(w), np=str(P))


def _cmd_incidence(args):
    hd = HodgeDatum(args.height, args.dim)
    table = criterion.incidence_table(hd)
    text = table.to_csv() if args.format == 'csv' else table.to_json()
    _emit(text, args.out)
    return 0


def _cmd_adlv(args):
    x = parse_element(args.x)
    P = parse_polygon(args.np)
    return _emit_answer(args.out, criterion.adlv_nonempty(x, P, return_info=True),
                        x=x.to_dict(), np=str(P))


def _cmd_enumerate_cochars(args):
    if bool(args.block) == bool(args.np):
        raise ValueError('give exactly one of --block or --np')
    if args.block:
        n, m = _int_list(args.block, '--block', 'n,m')
        criterion.Bounds().check_height(n + m)
        rows = [list(lam) for lam in enumerate_cochar_block(n, m)]
        out = {'block': [n, m], 'cochars': rows, 'count': len(rows)}
    else:
        P = parse_polygon(args.np)
        criterion.Bounds().check_height(P.height)
        profs = enumerate_profiles(P)
        out = {'np': str(P), 'profiles': [list(pr.lam) for pr in profs],
               'count': len(profs)}
    _emit_json(out, args.out)
    return 0


def _cmd_enumerate_polygons(args):
    criterion.Bounds().check_height(args.height)
    hd = HodgeDatum(args.height, args.dim)
    polys = enumerate_polygons(hd)
    _emit_json({'hodge': [hd.height, hd.dimension],
                'polygons': [str(P) for P in polys], 'count': len(polys)}, args.out)
    return 0


def _oracle_stratum(args):
    """The stratum of an oracle command, checked before any sampling: a
    height above the bound raises ResourceLimitError (the height bound of
    the table commands: the oracle samples only strata whose tables the
    engine builds), a --count below one ValueError."""
    criterion.Bounds().check_height(args.height)
    if args.count < 1:
        raise ValueError('--count must be at least 1, got %d' % args.count)
    return HodgeDatum(args.height, args.dim)


def _cmd_oracle_sample(args):
    from .shtuka import sample_cells
    hd = _oracle_stratum(args)
    cells = sample_cells(hd, _field_from_args(args), args.seed, args.count)
    _emit(''.join(json.dumps({'eo': list(w), 'np': str(P)}, sort_keys=True) + '\n'
                  for w, P in cells), args.out)
    return 0


def _cmd_oracle_verify(args):
    from .shtuka import run_consistency_suite
    hd = _oracle_stratum(args)
    cfg = _field_from_args(args)
    report = run_consistency_suite(hd, cfg, samples=args.count, seed=args.seed)
    _emit_json(report, args.out)
    return 0 if report['ok'] else 2


def _cmd_calibrate(args):
    probes = None
    if args.probe:
        probes = [_int_list(p, '--probe', 'h,d') for p in args.probe]
        for h, _ in probes:
            criterion.Bounds().check_height(h)
    cfg = _field_from_args(args)
    report = criterion.calibrate(probes=probes, samples=args.count, seed=args.seed,
                                 cfg=cfg, sigma_trials=args.sigma_trials)
    _emit_json(report, args.out)
    _emit_json({
        'written': args.out,
        'seed': report['seed'],
        'observed_cells': sum(map(len, report['observed'].values())),
        'sigma_classes': len(report['sigma']['classes']),
    }, None)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ResourceLimitError as exc:
        print('resource limit: %s' % exc, file=sys.stderr)
        return 3
    except (ValueError, ConventionError, OSError) as exc:
        print('error: %s' % exc, file=sys.stderr)
        return 2


if __name__ == '__main__':
    sys.exit(main())
