"""In-place relational transformation of ROI features in convolutional
video classifiers, plus the synthetic benchmark and harnesses that
exercise it."""

from .backbone import BackboneSpec, VideoClassifier, load_checkpoint, save_checkpoint
from .encoder import Encoder, EncoderLayer
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    InvalidBoxError,
    NumericError,
    TroikitError,
)
from .posenc import CoordEncoder, encoding_matrix, order_rois
from .rois import (
    RoiBox,
    RoiFeatureSet,
    RoiFootprint,
    box_to_footprint,
    clip_box,
    extract_features,
    roi_align,
    write_back,
)
from .synth import (
    CLASSES,
    CORRUPT_MODES,
    SynthVideo,
    build_dataset,
    corrupt_rois,
    generate,
    load_dataset,
    save_dataset,
)
from .tensor import (
    Tensor,
    backward,
    conv2d,
    cross_entropy,
    layer_norm,
    linear,
    matmul,
    max_pool2d,
    no_grad,
    precision,
    reduce_max,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    set_precision,
    softmax_rows,
    zero_grad,
)
from .train import TrainConfig, evaluate, lr_at, sgd_step, train_model
from .troi import TroiConfig, TroiModule

__version__ = "0.1.0"
