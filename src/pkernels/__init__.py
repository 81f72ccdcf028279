"""Incidence between residue-module classes and Newton strata for
minuscule matrix data over k[[t]], decided by the Deligne-Lusztig
reduction in the extended affine Weyl group and checked against exact
matrix oracles."""

from . import cosets  # noqa: F401  (perfbench re-imports the package, then its tracer looks the stub up in sys.modules)
from .affine import Element
from .criterion import (Bounds, ConventionManifest, IncidenceTable, __version__,
                        adlv_nonempty, calibrate, default_manifest,
                        incidence_table, lifts_to)
from .errors import ConventionError, ResourceLimitError
from .polygons import (HodgeDatum, NewtonPolygon, enumerate_polygons,
                       eo_representative, hodge_of, parse_polygon,
                       polygon_from_slopes, x_block, x_of_polygon)
from .semimodules import (CocharacterProfile, SemimoduleBeginning,
                          enumerate_cochar_block, enumerate_profiles,
                          is_beginning, middle_element)

__all__ = [
    '__version__', 'Element', 'Bounds', 'ConventionManifest', 'IncidenceTable',
    'adlv_nonempty', 'calibrate', 'default_manifest', 'incidence_table',
    'lifts_to', 'ConventionError', 'ResourceLimitError', 'HodgeDatum',
    'NewtonPolygon', 'enumerate_polygons', 'eo_representative', 'hodge_of',
    'parse_polygon', 'polygon_from_slopes', 'x_block', 'x_of_polygon',
    'CocharacterProfile', 'SemimoduleBeginning', 'enumerate_cochar_block',
    'enumerate_profiles', 'is_beginning', 'middle_element',
]
