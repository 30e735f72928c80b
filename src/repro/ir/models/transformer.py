"""Decoder-only transformer graph builders (decode and prefill phases).

The decode graph models one token-generation step: every request in the batch
contributes one query token, and attention reads the per-request KV cache of
length ``seq_len`` from HBM.  The prefill graph (also used for the training
forward pass in Fig. 24) processes ``seq_len`` tokens per request, making the
workload compute-intensive instead of bandwidth-bound.

Operator labels follow the paper's figures (``Attention_QKV``,
``Attention_Head``, ``Layer_Norm``, ``Output_FFN``) so figure-reproduction
benchmarks can select the same representative operators as Fig. 5.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.ir.graph import GraphBuilder, OperatorGraph
from repro.ir.models.config import TransformerConfig
from repro.ir.operators import (
    make_batch_matmul,
    make_elementwise,
    make_matmul,
    make_norm,
    make_rotary,
    make_softmax,
)
from repro.ir.tensor import TensorSpec


def _weight(name: str, shape: tuple[int, ...], config: TransformerConfig) -> TensorSpec:
    return TensorSpec(name, shape, config.dtype, kind="weight")


def _add_decoder_layer(
    builder: GraphBuilder,
    config: TransformerConfig,
    layer: int,
    hidden_in: TensorSpec,
    batch_size: int,
    query_len: int,
    kv_len: int,
    use_kv_cache: bool,
) -> TensorSpec:
    """Append one decoder layer and return its output activation tensor."""
    prefix = f"layer{layer}"
    tokens = batch_size * query_len
    hidden = config.hidden_size

    # --- attention -----------------------------------------------------------
    norm1 = builder.add(
        make_norm(
            f"{prefix}.attn.norm",
            hidden_in,
            _weight(f"{prefix}.attn.norm.w", (hidden,), config),
            norm_type=config.norm_type,
            label="Layer_Norm",
        )
    ).output

    qkv = builder.add(
        make_matmul(
            f"{prefix}.attn.qkv",
            norm1,
            _weight(f"{prefix}.attn.qkv.w", (hidden, config.qkv_dim), config),
            label="Attention_QKV",
        )
    ).output

    rotary = builder.add(
        make_rotary(f"{prefix}.attn.rope", qkv, label="Rotary")
    ).output

    # Queries reshaped to (batch, heads, query_len, head_dim); the reshape is
    # free at this IR granularity so we construct the shaped view directly.
    q_view = TensorSpec(
        rotary.name,
        (batch_size, config.num_heads, query_len, config.head_dim),
        config.dtype,
        kind="activation",
    )

    kv_kind = "kv_cache" if use_kv_cache else "activation"
    k_cache = TensorSpec(
        f"{prefix}.attn.k_cache",
        (batch_size, config.num_kv_heads, config.head_dim, kv_len),
        config.dtype,
        kind=kv_kind,
    )
    v_cache = TensorSpec(
        f"{prefix}.attn.v_cache",
        (batch_size, config.num_kv_heads, kv_len, config.head_dim),
        config.dtype,
        kind=kv_kind,
    )

    scores = builder.add(
        make_batch_matmul(
            f"{prefix}.attn.scores", q_view, k_cache, label="Attention_Head"
        )
    ).output

    probs = builder.add(
        make_softmax(f"{prefix}.attn.softmax", scores, label="Softmax")
    ).output

    context = builder.add(
        make_batch_matmul(
            f"{prefix}.attn.context", probs, v_cache, label="Attention_Head"
        )
    ).output

    context_flat = TensorSpec(
        context.name, (tokens, config.q_dim), config.dtype, kind="activation"
    )
    attn_out = builder.add(
        make_matmul(
            f"{prefix}.attn.out_proj",
            context_flat,
            _weight(f"{prefix}.attn.out_proj.w", (config.q_dim, hidden), config),
            label="Output_Proj",
        )
    ).output

    attn_residual = builder.add(
        make_elementwise(
            f"{prefix}.attn.residual", [hidden_in, attn_out], function="add",
            label="Residual",
        )
    ).output

    # --- feed-forward ---------------------------------------------------------
    norm2 = builder.add(
        make_norm(
            f"{prefix}.ffn.norm",
            attn_residual,
            _weight(f"{prefix}.ffn.norm.w", (hidden,), config),
            norm_type=config.norm_type,
            label="Layer_Norm",
        )
    ).output

    if config.gated_ffn:
        gate = builder.add(
            make_matmul(
                f"{prefix}.ffn.gate",
                norm2,
                _weight(f"{prefix}.ffn.gate.w", (hidden, config.ffn_dim), config),
                label="FFN_Gate",
            )
        ).output
        up = builder.add(
            make_matmul(
                f"{prefix}.ffn.up",
                norm2,
                _weight(f"{prefix}.ffn.up.w", (hidden, config.ffn_dim), config),
                label="FFN_Up",
            )
        ).output
        ffn_hidden = builder.add(
            make_elementwise(
                f"{prefix}.ffn.act", [gate, up], function="silu_mul", label="Activation"
            )
        ).output
    else:
        up = builder.add(
            make_matmul(
                f"{prefix}.ffn.up",
                norm2,
                _weight(f"{prefix}.ffn.up.w", (hidden, config.ffn_dim), config),
                label="FFN_Up",
            )
        ).output
        ffn_hidden = builder.add(
            make_elementwise(
                f"{prefix}.ffn.act", [up], function="relu", label="Activation"
            )
        ).output

    down = builder.add(
        make_matmul(
            f"{prefix}.ffn.down",
            ffn_hidden,
            _weight(f"{prefix}.ffn.down.w", (config.ffn_dim, hidden), config),
            label="Output_FFN",
        )
    ).output

    return builder.add(
        make_elementwise(
            f"{prefix}.ffn.residual", [attn_residual, down], function="add",
            label="Residual",
        )
    ).output


def build_decode_graph(
    config: TransformerConfig,
    batch_size: int,
    seq_len: int,
    num_layers: int | None = None,
    include_lm_head: bool = True,
) -> OperatorGraph:
    """Build the single-step decode graph of a decoder-only LLM.

    Args:
        config: Architecture description.
        batch_size: Number of concurrent requests.
        seq_len: KV-cache length attended over by the new token.
        num_layers: Optional override of ``config.num_layers`` for scaled runs.
        include_lm_head: Whether to append the vocabulary projection.

    Returns:
        An :class:`OperatorGraph` with one layer span per decoder layer.
    """
    return _build_transformer(
        config,
        batch_size=batch_size,
        query_len=1,
        kv_len=seq_len,
        use_kv_cache=True,
        num_layers=num_layers,
        include_lm_head=include_lm_head,
        phase="decode",
    )


def build_prefill_graph(
    config: TransformerConfig,
    batch_size: int,
    seq_len: int,
    num_layers: int | None = None,
    include_lm_head: bool = False,
) -> OperatorGraph:
    """Build the prefill / training-forward graph (all tokens processed at once)."""
    return _build_transformer(
        config,
        batch_size=batch_size,
        query_len=seq_len,
        kv_len=seq_len,
        use_kv_cache=False,
        num_layers=num_layers,
        include_lm_head=include_lm_head,
        phase="prefill",
    )


def _build_transformer(
    config: TransformerConfig,
    *,
    batch_size: int,
    query_len: int,
    kv_len: int,
    use_kv_cache: bool,
    num_layers: int | None,
    include_lm_head: bool,
    phase: str,
) -> OperatorGraph:
    if batch_size <= 0 or query_len <= 0 or kv_len <= 0:
        raise ConfigurationError("batch size and sequence lengths must be positive")
    layers = num_layers if num_layers is not None else config.num_layers
    if layers <= 0 or layers > config.num_layers:
        raise ConfigurationError(
            f"num_layers must be in [1, {config.num_layers}], got {layers}"
        )

    tokens = batch_size * query_len
    builder = GraphBuilder(
        f"{config.name}-{phase}-b{batch_size}-s{kv_len}",
        metadata={
            "model": config.name,
            "phase": phase,
            "batch_size": batch_size,
            "seq_len": kv_len,
            "query_len": query_len,
            "num_layers": layers,
            "hidden_size": config.hidden_size,
            "uses_gqa": config.uses_gqa,
        },
    )

    hidden = TensorSpec(
        "embeddings", (tokens, config.hidden_size), config.dtype, kind="input"
    )
    for layer in range(layers):
        builder.begin_layer(f"layer{layer}", template="decoder_layer")
        hidden = _add_decoder_layer(
            builder,
            config,
            layer,
            hidden,
            batch_size=batch_size,
            query_len=query_len,
            kv_len=kv_len,
            use_kv_cache=use_kv_cache,
        )
        builder.end_layer()

    if include_lm_head:
        builder.begin_layer("lm_head", template="lm_head")
        final_norm = builder.add(
            make_norm(
                "final.norm",
                hidden,
                TensorSpec("final.norm.w", (config.hidden_size,), config.dtype, "weight"),
                norm_type=config.norm_type,
                label="Layer_Norm",
            )
        ).output
        builder.add(
            make_matmul(
                "lm_head",
                final_norm,
                TensorSpec(
                    "lm_head.w",
                    (config.hidden_size, config.vocab_size),
                    config.dtype,
                    "weight",
                ),
                label="LM_Head",
            )
        )
        builder.end_layer()

    return builder.build()
