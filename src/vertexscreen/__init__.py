"""Exact vertex-superalgebra calculus over Q(k): root data, lambda
brackets, screening operators, kernels and BRST reduction."""

from .errors import InputError
from .scalars import QQ, RationalFunction, RationalFunctionField
from .superdata import (SuperRootDatum, GoodGrading, RestrictedBase,
                        LevelForm, ChiFunctional, DatumError, NotGoodGrading,
                        DegreeMismatch, build_sl, build_osp, good_grading,
                        load_datum, datum_from_json, datum_to_json)
from .vertexcalc import (FieldExpr, Module, comb,
                         apply_field_coeff, bracket, derive, field_state,
                         graded_basis, normal_order, state_field,
                         sugawara_field,
                         CriticalLevel, GradingMismatch, NonAbelianMomentum,
                         NonVacuumModule, UndefinedAction, UnknownGenerator)
from .screening import (ScreeningContext, ScreeningOp, KernelReport,
                        NonCartanZeroPart,
                        choose_screenings, exponential_screenings,
                        generic_screenings,
                        expected_character, character_of_generators,
                        kernel_basis)
from .walgebras import (BRSTComplex, WBnFields, WBnModel, W2nModel,
                        WakimotoMap, TopCoefficientMismatch, NonZeroCharge,
                        ModelTooSmall,
                        build_complex,
                        miura_project, verify_fs, verify_wbn_screening)
from .presets import PRESETS, build_preset, preset_context, preset_names

__version__ = "0.1.0"
