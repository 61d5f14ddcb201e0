"""Spatial prediction from gridded samples: a median-polish trend plus
ordinary kriging of the residuals, with either piecewise-linear (MPK) or
biharmonic-spline (IMPK) interpolation of the trend between grid nodes."""

from .errors import (
    DataError,
    DuplicateLocationError,
    GreenSingularityError,
    GridStructureError,
    ModelFormatError,
    PolishKrigeError,
    SingularSystemError,
)
from .kriging import (
    EmpiricalVariogram,
    KrigingPrediction,
    KrigingSystem,
    KrigingWeights,
    VariogramModel,
    covariance,
    empirical_semivariogram,
    fit_variogram,
    ok_predict,
    ok_solve,
    semivariance,
)
from .mean_surface import (
    BiharmonicModel,
    LinearMeanModel,
    biharmonic_eval,
    biharmonic_fit,
    green_function,
    linear_mean_at,
)
from .median_polish import MedianPolishFit, decompose, node_mean, residuals_as_scatter
from .model_io import load_model, save_model
from .predictor import (
    CvRecord,
    CvReport,
    FitConfig,
    PredictionGrid,
    SkippedFold,
    SurfaceModel,
    cross_validate,
    fit,
    loocv,
    predict,
    predict_grid,
    predict_many,
    rmse,
)
from .spatial_core import (
    CellRef,
    CsvOptions,
    GridLattice,
    GridTable,
    Location2D,
    Observation,
    ScatterSet,
    cell_containing,
    load_observations_csv,
    to_grid,
)

__version__ = "0.1.0"
