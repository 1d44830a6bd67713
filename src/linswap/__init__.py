"""linswap: linearize small decoder-only transformers.

Swap causal softmax attention for learnable linear + sliding-window attention,
train the new layers to mimic the originals (attention transfer), then recover
quality with low-rank adapters. Everything runs on a small numpy tensor library
with reverse-mode autodiff so each mathematical component can be checked
against brute-force oracles.
"""

from . import attention, bench, checkpoint, config, errors, model, planner, tensor, training
from .attention import (
    FeatureMapParams,
    HybridAttnConfig,
    HybridDecodeState,
    LinearAttentionState,
    attention_entropy,
    effective_sequence_length,
    feature_map_apply,
    hybrid_attention_prefill,
    hybrid_decode_step,
    init_feature_map,
    linear_attention_parallel,
    linear_attention_recurrent_step,
    linear_attention_state,
    make_hybrid_config,
    softmax_attention,
    terraced_prefill_chunked,
)
from .bench import BenchResult, bench_generation
from .checkpoint import load_checkpoint, load_corpus, save_checkpoint, save_corpus
from .model import (
    HybridSpec,
    LoraAdapter,
    Model,
    ModelConfig,
    build_model,
    convert_model,
    detokenize,
    generate_greedy,
    lora_attach,
    tokenize,
)
from .planner import BlockPlan, plan_blockwise_storage
from .tensor import Tensor, backpropagate, finite_difference_check, no_grad
from .training import (
    AdamW,
    AttentionTransfer,
    LoraAdjust,
    TransferReport,
    blockwise_loss,
    hedgehog_weight_xent_loss,
    layerwise_diagnostics,
    mse_attention_loss,
    next_token_loss,
    pretrain_base,
    synthetic_corpus,
)

__version__ = "0.1.0"
