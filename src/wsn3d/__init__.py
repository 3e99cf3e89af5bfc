"""Clustering, information-accuracy estimation, and node-placement search for
3D sensor deployments under an exponential spatial-correlation model."""

from .clustering import (
    Cluster,
    ClusterSet,
    Deployment,
    capture_clusters,
    form_clusters,
)
from .data_io import (
    ReadingMatrix,
    generate_synthetic,
    load_bundled_deployment,
    parse_nodes,
    parse_readings,
    sun_shade_groups,
    sun_shade_readings,
    write_cluster_report,
    write_cost_curves,
)
from .errors import ConfigurationError, DataFormatError
from .estimation import (
    AccuracyReport,
    cluster_accuracy,
    information_accuracy,
    predict_dead,
    predict_dead_nodes,
    prediction_accuracy,
)
from .geometry import (
    CorrelationModel,
    correlation,
    correlation_radius,
    dodeca_circumradius,
    dodeca_edge_from_circumradius,
    dodeca_vertices,
    dodeca_volume,
    event_volume,
    pairwise_distances,
)
from .placement import (
    PlacementState,
    placement_step,
    run_placement,
    select_nodes,
)

__version__ = "0.1.0"
