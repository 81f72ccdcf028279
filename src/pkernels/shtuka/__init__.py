"""Matrix-level models: finite-field linear algebra over k[[t]], residue
modules with Frobenius/Verschiebung, Iwahori reduction, Newton polygons
of twisted matrix products, and filtered lifts."""

from .gf import FieldConfig, field
from .bt1 import Bt1Module, graded_bt1_from_beginning, canonical_filtration, eo_classify
from .core import (LocalShtuka, shtuka_from_element, minimal_shtuka,
                   sample_shtuka, sample_cell, sample_cells, bt1_of, newton_polygon_of,
                   sigma_conjugate_sample)
from .reduction import iwahori_class_of, iwahori_orbit_size
from .lifts import FiltrationData, random_filtration_data, lift_from_filtration, verify_lift
from .verify import run_consistency_suite

__all__ = [
    'FieldConfig', 'field', 'Bt1Module', 'graded_bt1_from_beginning',
    'canonical_filtration', 'eo_classify', 'LocalShtuka',
    'shtuka_from_element', 'minimal_shtuka', 'sample_shtuka', 'sample_cell',
    'sample_cells', 'bt1_of', 'newton_polygon_of', 'sigma_conjugate_sample',
    'iwahori_class_of', 'iwahori_orbit_size', 'FiltrationData', 'random_filtration_data',
    'lift_from_filtration', 'verify_lift', 'run_consistency_suite',
]
