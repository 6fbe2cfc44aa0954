"""Moving-window Gaussian-process mapping of scattered ocean profile data.

Locally stationary interpolation: covariance parameters are estimated
by maximum likelihood inside a moving spatio-temporal window around
each grid cell, then used for kriging-style prediction at the cell
center, with either a Gaussian or a heavy-tailed Student-t microscale
(nugget) component.
"""

from .covariance import (
    KM_PER_DEG,
    RG_DEFAULT,
    CovParams,
    RGCovConfig,
    SpaceTimePoint,
    cov_matrix,
    rg_distances,
    rg_tropic_factor,
    wrap_dlon,
    wrap_lon,
)
from .errors import (
    EmptyInputError,
    FactorizationError,
    InputError,
    InsufficientDataError,
    InsufficientVarianceError,
    InvalidParameterError,
    MappingError,
    ModeFindingError,
    SchemaError,
)
from .gaussian import (
    FitReport,
    GaussianPredictive,
    YearBlock,
    fit_mle_gaussian,
    gaussian_interval,
    predict_gaussian,
)
from .ingest import (
    MeanField,
    MeanFieldConfig,
    ProfileRecord,
    ProfileTable,
    apply_filters,
    estimate_mean_field,
    load_mask,
    parse_profiles,
    profiles_to_level,
    read_mean_field,
    subtract_mean,
    write_mean_field,
    write_profiles,
)
from .student import (
    LaplaceState,
    StudentParams,
    StudentPredictive,
    find_mode,
    fit_mle_student,
    predict_student,
    student_cdf,
    student_interval,
)
from .validation import (
    CalibrationReport,
    CVRecord,
    CVResult,
    MetricTable,
    calibration,
    point_metrics,
    run_cv,
    simulate_field,
    synthetic_float_blocks,
)
from .windows import (
    VARIANTS,
    CellFit,
    CellPrediction,
    GridField,
    GridSpec,
    ModelVariant,
    ReferenceParams,
    WindowSpec,
    correlation_at_lag,
    fit_grid_point,
    get_variant,
    map_grid,
    month_halfwidth_days,
    select_window,
)

__version__ = "0.1.0"
