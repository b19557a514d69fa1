"""Independent reference computations used to pin expected test values.

Nothing here imports the implementation paths it is checking: gradients
come from central finite differences, the graph-attention reference is a
dense masked recomputation, and the marginal-homogeneity statistic is
solved in exact rational arithmetic.  The self-attention reference runs
one head at a time in plain numpy, and span pooling resolves a span against
token offsets itself rather than reading the token indices a graph stores.
The GATv2 edge scores are recomputed with polarity as one-hot rows and
their projection as a matrix product, with numpy's own gradient formulas.
The toy encoder's attention and feed-forward blocks and GAT's per-head
projection are composed from the separate primitives, one tape node per
array op.  The fused projection must reproduce them bit for bit; the
encoder's forward must too, and its batch backward within 1e-12.
Adam is replayed densely over every cell, and the checkpoint layout is
rebuilt with a fresh float64 copy of every payload.  Encoder-state files are
written and read field by field with no check at all, so a test can write
what the reader must refuse.
The whole model's logits are recomputed from its parameter arrays in plain
numpy, record by record, opinion by opinion, node by node and head by head,
with no tape, packing or batching.
"""

from __future__ import annotations

import json
import struct
from fractions import Fraction

import numpy as np

import opfuse.autodiff as ad
from opfuse.autodiff import Tensor
from opfuse.data import POLARITIES, Span
from opfuse.encoder import hash_bucket, sinusoidal_positions, tokenize
from opfuse.graphs import ROLES, STAR_TOPOLOGY


def numeric_gradient(f, param: Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. every entry of param.

    A loss change of at most 8 ulps of the larger loss reads as zero slope:
    a change that small is rounding in the two forward passes, and divided
    by 2·eps it would read as a slope where the true one may be exactly 0.
    """
    base = param.data.copy()
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += eps
        param.write_rows(..., bumped.reshape(base.shape))
        up = f()
        bumped[i] -= 2 * eps
        param.write_rows(..., bumped.reshape(base.shape))
        down = f()
        change = up - down
        if abs(change) <= 8 * np.spacing(max(abs(up), abs(down))):
            change = 0.0
        grad.reshape(-1)[i] = change / (2 * eps)
    param.write_rows(..., base)
    return grad


class NoTokenOverlap(Exception):
    """A span intersects no token's character range."""


def span_pool(output, seq, span) -> Tensor:
    """(1, d) mean hidden state over all tokens whose character range meets the span.

    ``seq`` holds each token's (start, end) offsets; a zero-width token has
    no character, so it meets no span.
    """
    indices = [i for i, (start, end) in enumerate(seq)
               if start < end and Span(start, end).overlaps(span)]
    if not indices:
        raise NoTokenOverlap(f"span [{span.start}, {span.end}) overlaps no token")
    return Tensor(output.hidden.data[indices].mean(axis=0, keepdims=True))


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |analytic - numeric| / (|numeric| + 1e-8), elementwise."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    return float(np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)))


def dense_gat_reference(features: np.ndarray, edges: list[tuple[int, int]],
                        edge_polarity: np.ndarray, theta_s: list[np.ndarray],
                        theta_t: list[np.ndarray], theta_e: list[np.ndarray],
                        attn: list[np.ndarray], slope: float) -> np.ndarray:
    """O(|V|^2) masked-attention recomputation of one GATv2 layer.

    Builds the full score matrix per head, masks non-neighbors with -inf,
    softmax-normalizes each row over N(i) ∪ {i}, and mixes the transformed
    target features.  Neighborhoods follow the out-edge convention.  Edge
    ``m`` carries the one-hot vector of polarity ``edge_polarity[m]``;
    self-loops carry zeros.
    """
    n = features.shape[0]
    heads = len(theta_s)
    mask = np.eye(n, dtype=bool)
    attr = np.zeros((n, n, theta_e[0].shape[1]))
    for (src, dst), polarity in zip(edges, edge_polarity):
        mask[src, dst] = True
        attr[src, dst, polarity] = 1.0
    outputs = []
    for k in range(heads):
        s = features @ theta_s[k].T          # (n, d_out)
        t = features @ theta_t[k].T
        e = attr @ theta_e[k].T              # (n, n, d_out)
        pre = s[:, None, :] + t[None, :, :] + e
        pre = np.where(pre >= 0, pre, slope * pre)
        scores = pre @ attn[k].reshape(-1)   # (n, n)
        scores = np.where(mask, scores, -np.inf)
        shifted = scores - scores.max(axis=1, keepdims=True)
        ex = np.where(mask, np.exp(shifted), 0.0)
        alpha = ex / ex.sum(axis=1, keepdims=True)
        outputs.append(alpha @ t)
    return np.concatenate(outputs, axis=1)


def one_hot_edge_scores(src_proj: np.ndarray, tgt_proj: np.ndarray, theta_e: np.ndarray,
                        attn: np.ndarray, src: np.ndarray, dst: np.ndarray | None,
                        edge_type: np.ndarray, slope: float, g: np.ndarray):
    """GATv2 edge scores with each edge's attribute a one-hot row, and their gradients.

    Edge type ``c < C`` (``theta_e`` is (H, d, C)) becomes the one-hot row
    of class ``c`` and type ``C`` a zero row; the (E, C) rows are projected
    into an (E, H·d) edge term as ``attr @ Θeᵀ``.  Returns the (E, H) scores
    and, for the upstream gradient ``g``, the gradients of ``src_proj``,
    ``tgt_proj`` (per edge when ``dst`` is None), ``theta_e`` and ``attn``.
    """
    heads, d, n_types = theta_e.shape
    n_edges, width = len(src), heads * d
    attr = np.zeros((n_edges, n_types))
    for row, kind in zip(attr, edge_type):
        if kind < n_types:
            row[kind] = 1.0
    edge_proj = attr @ theta_e.reshape(width, n_types).T
    pre = src_proj[src] + (tgt_proj if dst is None else tgt_proj[dst]) + edge_proj
    act = np.maximum(pre * slope, pre).reshape(n_edges, heads, d)
    scores = np.einsum("ekj,kj->ek", act, attn[:, :, 0])

    slope_of_pre = np.where(pre >= 0.0, 1.0, slope).reshape(n_edges, heads, d)
    d_pre_unscaled = slope_of_pre * g[:, :, None]
    d_attn = np.einsum("ekj,ekj->kj", d_pre_unscaled, pre.reshape(n_edges, heads, d))
    d_pre = (d_pre_unscaled * attn[:, :, 0]).reshape(n_edges, width)
    d_src = np.zeros_like(src_proj)
    np.add.at(d_src, src, d_pre)
    if dst is None:
        d_tgt = d_pre
    else:
        d_tgt = np.zeros_like(tgt_proj)
        np.add.at(d_tgt, dst, d_pre)
    d_theta = (attr.T @ d_pre).T.reshape(theta_e.shape)
    return scores, d_src, d_tgt, d_theta, d_attn[:, :, None]


def self_attention_reference(x: np.ndarray, wq: list[np.ndarray], wk: list[np.ndarray],
                             wv: list[np.ndarray], wo: np.ndarray) -> np.ndarray:
    """Multi-head scaled dot-product self-attention, one head at a time.

    Head ``k`` projects ``x`` with its own (width, d_h) matrices; the head
    outputs are concatenated, head 0 first, and mixed by ``wo``.
    """
    outputs = []
    for q_w, k_w, v_w in zip(wq, wk, wv):
        q, k, v = x @ q_w, x @ k_w, x @ v_w
        scores = q @ k.T / np.sqrt(q_w.shape[1])
        ex = np.exp(scores - scores.max(axis=1, keepdims=True))
        outputs.append(ex / ex.sum(axis=1, keepdims=True) @ v)
    return np.concatenate(outputs, axis=1) @ wo


def composed_attention_block(x, wq, wk, wv, wo, scale: float) -> Tensor:
    """``x + merge(softmax(q·kᵀ·scale)·v) @ wo`` from twelve separate primitives."""
    q, k, v = (ad.matmul(x, w) for w in (wq, wk, wv))
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 2, 1))), scale)
    heads = ad.matmul(ad.softmax(scores, axis=2), v)  # (heads, |T|, head_dim)
    merged = ad.reshape(ad.transpose(heads, (1, 0, 2)), (x.shape[0], wo.shape[0]))
    return ad.add(x, ad.matmul(merged, wo))


def composed_ffn_block(x, w1, b1, w2, b2, slope: float) -> Tensor:
    """``x + (leaky(x·w1 + b1)·w2 + b2)`` from six separate primitives."""
    h = ad.leaky_relu(ad.add(ad.matmul(x, w1), b1), slope)
    return ad.add(x, ad.add(ad.matmul(h, w2), b2))


def composed_project_heads(rows, theta) -> Tensor:
    """Each head's ``theta[k]`` on its block of rows, as six separate primitives."""
    n_rows, (heads, d_out, d_in) = rows.shape[0], theta.shape
    per_head = ad.transpose(ad.reshape(rows, (n_rows, heads, d_in)), (1, 0, 2))
    projected = ad.matmul(per_head, ad.transpose(theta, (0, 2, 1)))
    return ad.reshape(ad.transpose(projected, (1, 0, 2)), (n_rows, heads * d_out))


def composed_encode(encoder, text: str, seq) -> tuple[Tensor, Tensor]:
    """A ``ToyEncoder``'s (hidden, pooled) with each block composed op by op."""
    p = {name.removeprefix("encoder."): t for name, t in encoder.parameters().items()}
    buckets = [hash_bucket(text[start:end].lower(), encoder.vocab_buckets)
               for start, end in seq] or [0]
    x = ad.add(ad.gather_rows(p["embedding"], buckets),
               sinusoidal_positions(len(buckets), encoder.width))
    for layer in range(encoder.layers):
        w = {name: p[f"block{layer}.{name}"] for name in
             ("wq", "wk", "wv", "wo", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2")}
        x = composed_attention_block(x, w["wq"], w["wk"], w["wv"], w["wo"],
                                     1.0 / np.sqrt(encoder.head_dim))
        x = composed_ffn_block(x, w["ffn_w1"], w["ffn_b1"], w["ffn_w2"], w["ffn_b2"], 0.2)
    return x, ad.tmean(x, axis=0, keepdims=True)


def fraction_stuart_maxwell(table: list[list[int]]) -> Fraction:
    """d' S^{-1} d in exact rational arithmetic (drops the last category)."""
    size = len(table)
    rows = [sum(table[i]) for i in range(size)]
    cols = [sum(table[i][j] for i in range(size)) for j in range(size)]
    d = [Fraction(rows[k] - cols[k]) for k in range(size - 1)]
    s = [[Fraction(0)] * (size - 1) for _ in range(size - 1)]
    for k in range(size - 1):
        for l in range(size - 1):
            if k == l:
                s[k][l] = Fraction(rows[k] + cols[k] - 2 * table[k][k])
            else:
                s[k][l] = Fraction(-(table[k][l] + table[l][k]))
    x = _solve_exact(s, d)
    return sum(dk * xk for dk, xk in zip(d, x))


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def dense_adam_reference(param: np.ndarray, m: np.ndarray, v: np.ndarray,
                         grad: np.ndarray, step: int, lr: float):
    """One step of textbook Adam (β=(0.9, 0.999), ε=1e-8) over every cell.

    Returns the new (param, m, v) and leaves its inputs as they were; the
    new param may hold non-finite cells, which the caller checks.
    """
    m = m * 0.9 + (1.0 - 0.9) * grad
    v = v * 0.999 + (1.0 - 0.999) * grad * grad
    update = (lr / (1.0 - 0.9 ** step)) * m / (np.sqrt(v / (1.0 - 0.999 ** step)) + 1e-8)
    return param - update, m, v


def checkpoint_bytes_reference(params: dict[str, np.ndarray]) -> bytes:
    """An ``OPFUSE-CKPT-1`` file: magic, JSON manifest, then float64 payloads.

    Every payload is copied to a contiguous float64 array and then to
    little-endian bytes, one copy at a time.
    """
    arrays = {name: np.asarray(arr, dtype=np.float64, order="C") for name, arr in params.items()}
    manifest = [{"name": name, "shape": list(arr.shape)} for name, arr in arrays.items()]
    return (b"OPFUSE-CKPT-1\n" + json.dumps({"params": manifest}, sort_keys=True).encode("utf-8")
            + b"\n" + b"".join(arr.astype("<f8").tobytes() for arr in arrays.values()))


def raw_encoder_states(path, entries) -> None:
    """An ``OPFUSE-ENC-1`` file of (id, offsets, hidden, pooled) entries, unchecked.

    Magic, the int64 record count, then per record: the id's byte length
    and UTF-8 bytes, int64 width and token count, each token's int64
    (start, end), and the little-endian float64 hidden rows and pooled row.
    """
    out = [b"OPFUSE-ENC-1\n", struct.pack("<q", len(entries))]
    for rid, offsets, hidden, pooled in entries:
        hidden = np.asarray(hidden, dtype=np.float64)
        rid_bytes = rid.encode("utf-8")
        out += [struct.pack("<q", len(rid_bytes)), rid_bytes,
                struct.pack("<qq", hidden.shape[1], hidden.shape[0])]
        out += [struct.pack("<qq", start, end) for start, end in offsets]
        out += [hidden.astype("<f8").tobytes(),
                np.asarray(pooled, dtype=np.float64).astype("<f8").tobytes()]
    with open(path, "wb") as fh:
        fh.write(b"".join(out))


def read_raw_encoder_states(path) -> dict[str, tuple[list, np.ndarray, np.ndarray]]:
    """Each id's (offsets, hidden, pooled) in an ``OPFUSE-ENC-1`` file, unchecked.

    The inverse of ``raw_encoder_states``; ``pooled`` is a (width,) row.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    pos = len(b"OPFUSE-ENC-1\n")

    def take(fmt):
        nonlocal pos
        values = struct.unpack_from(fmt, raw, pos)
        pos += struct.calcsize(fmt)
        return values

    def floats(count):
        nonlocal pos
        values = np.frombuffer(raw, dtype="<f8", count=count, offset=pos)
        pos += 8 * count
        return values

    states = {}
    for _ in range(take("<q")[0]):
        (rid_len,) = take("<q")
        rid = raw[pos:pos + rid_len].decode("utf-8")
        pos += rid_len
        width, n_tokens = take("<qq")
        offsets = [take("<qq") for _ in range(n_tokens)]
        hidden = floats(n_tokens * width).reshape(n_tokens, width)
        states[rid] = (offsets, hidden, floats(width))
    return states


# Node role -> the annotation field holding its span.
_ROLE_FIELD = {"holder": "holder", "sentiment": "sentiment_expression", "target": "target",
               "qualifier": "qualifier", "aspect": "aspect_term"}


def _reference_toy_hidden(p: dict, encoder, text: str, seq) -> np.ndarray:
    """Toy encoder token states: hashed embeddings plus positions, then per
    layer ``x + attention(x)`` and ``x + (leaky(x·w1 + b1)·w2 + b2)``."""
    buckets = [hash_bucket(text[start:end].lower(), encoder.vocab_buckets)
               for start, end in seq] or [0]  # one padding token for empty text
    x = p["encoder.embedding"][buckets] + sinusoidal_positions(len(buckets), encoder.width)
    for layer in range(encoder.layers):
        w = {name: p[f"encoder.block{layer}.{name}"] for name in
             ("wq", "wk", "wv", "wo", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2")}
        x = x + self_attention_reference(x, list(w["wq"]), list(w["wk"]), list(w["wv"]),
                                         w["wo"])
        inner = x @ w["ffn_w1"] + w["ffn_b1"][0]
        x = x + (np.where(inner >= 0, inner, 0.2 * inner) @ w["ffn_w2"] + w["ffn_b2"][0])
    return x


def _reference_graph(opinion, seq, hidden: np.ndarray, pooled: np.ndarray,
                     role_rows: np.ndarray | None):
    """One opinion's node features and (source, target) edges, or None when
    no span shares a character with any token.

    A span node's feature is the mean of the tokens it shares a character
    with; a missing or unanchored sentiment node falls back to the pooled row.
    """
    features = {}
    for role in ROLES:
        span = getattr(opinion, _ROLE_FIELD[role])
        if span is None:
            continue
        anchored = [i for i, (start, end) in enumerate(seq)
                    if start < end and start < span.end and span.start < end]
        if anchored:
            features[role] = hidden[anchored].mean(axis=0)
    if not features:
        return None
    features.setdefault("sentiment", pooled)
    roles = [role for role in ROLES if role in features]
    edges = []
    for role, partner, fallback in STAR_TOPOLOGY:
        other = partner if partner in features else fallback
        if role in features and other in features:
            i, j = roles.index(role), roles.index(other)
            edges += [(i, j), (j, i)]
    rows = [features[role] + (0.0 if role_rows is None else role_rows[ROLES.index(role)])
            for role in roles]
    return np.array(rows), edges


def _reference_gat_layer(h: np.ndarray, edges, polarity: int, p: dict, prefix: str,
                         slope: float) -> np.ndarray:
    """One GATv2 layer, node by node and head by head.

    Node ``i`` attends to its out-edge targets, each edge carrying Θ_e's
    column for ``polarity``, and to itself with no edge term; its output
    concatenates, per head, the softmax-weighted sum of Θ_t h_j.
    """
    theta_s, theta_t, theta_e, attn = (p[f"{prefix}.{name}"] for name in
                                       ("theta_s", "theta_t", "theta_e", "attn"))
    out = []
    for i in range(len(h)):
        neighbours = [(j, theta_e[:, :, polarity]) for src, j in edges if src == i]
        neighbours.append((i, np.zeros(theta_e.shape[:2])))
        per_head = []
        for k in range(theta_s.shape[0]):
            scores, messages = [], []
            for j, edge_term in neighbours:
                pre = theta_s[k] @ h[i] + theta_t[k] @ h[j] + edge_term[k]
                scores.append(attn[k, :, 0] @ np.where(pre >= 0, pre, slope * pre))
                messages.append(theta_t[k] @ h[j])
            weights = np.exp(np.array(scores) - max(scores))
            per_head.append(weights @ np.array(messages) / weights.sum())
        out.append(np.concatenate(per_head))
    return np.array(out)


def _reference_fuse(kind: str, p: dict, h_seq: np.ndarray, h_graph: np.ndarray,
                    hidden: np.ndarray) -> np.ndarray:
    """``cat``, ``gate`` or ``attn`` fusion of one record's (d,) rows."""
    if kind == "attn":
        scores = hidden @ h_graph / np.sqrt(len(h_seq))
        if not len(scores):
            return np.zeros_like(h_seq)
        weights = np.exp(scores - scores.max())
        return weights @ hidden / weights.sum()
    z = np.concatenate([h_seq, h_graph]) @ p[f"fusion.{kind}.weight"] + p[f"fusion.{kind}.bias"][0]
    if kind == "cat":
        return z
    gate = 1.0 / (1.0 + np.exp(-z))
    return gate * h_seq + (1.0 - gate) * h_graph


def reference_logits(model, records) -> np.ndarray:
    """(len(records), classes) logits of ``model``, one record at a time.

    Each record is encoded (toy encoder, or its rows read back from the
    state file), each of its opinions becomes a star graph run through every
    GAT layer and sum-pooled, the record's graph vector is the mean of those
    readouts (zero without one), and fusion, the residual
    ``H_seq + α_res · H_f`` and the head follow on its own rows.
    """
    config = model.config
    p = {name: tensor.data for name, tensor in model.parameters().items()}
    states = (read_raw_encoder_states(config.encoder.states_path)
              if config.encoder.provider == "file" else None)
    role_rows = p.get("role_embedding")
    logits = []
    for record in records:
        if states is None:
            seq = tokenize(record.text)
            hidden = _reference_toy_hidden(p, config.encoder, record.text, seq)
            pooled = hidden.mean(axis=0)
        else:
            seq, hidden, pooled = states[record.id]
        h = pooled
        if config.architecture == "fused":
            readouts = []
            for opinion in record.opinions:
                graph = _reference_graph(opinion, seq, hidden, pooled, role_rows)
                if graph is None:
                    continue
                nodes, edges = graph
                for depth in range(config.gat.depth):
                    nodes = _reference_gat_layer(nodes, edges,
                                                 POLARITIES.index(opinion.polarity), p,
                                                 f"gat.l{depth}", config.gat.leaky_slope)
                readouts.append(nodes.sum(axis=0))
            width = config.gat.heads * config.gat.out_dim
            graph_vec = np.mean(readouts, axis=0) if readouts else np.zeros(width)
            h_graph = graph_vec @ p["fusion.graph_projection"]
            fused = _reference_fuse(config.fusion.type, p, pooled, h_graph, hidden)
            h = pooled + config.fusion.alpha_res * fused
        logits.append(h @ p["head.weight"] + p["head.bias"][0])
    return np.array(logits)
