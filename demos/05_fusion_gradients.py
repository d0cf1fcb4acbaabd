"""The three fusion heads, their verified gradients, and attention export.

Run: python3 demos/05_fusion_gradients.py
"""

import numpy as np

from t2ifuse.fusion import FeaturePack, FusionConfig, PackBatch, build_fusion_head, export_attention, fuse_forward
from t2ifuse.tensorcore import cross_entropy, grad_check

rng = np.random.default_rng(0)
text_tokens = rng.standard_normal((4, 12))
image_tokens = rng.standard_normal((3, 10))
pack = FeaturePack(
    text_tokens=text_tokens,
    image_tokens=image_tokens,
    text_pooled=text_tokens.mean(axis=0),
    image_pooled=image_tokens.mean(axis=0),
)
batch = PackBatch.from_packs([pack])  # the heads take padded batches; this one holds one sample

for mechanism in ("concat", "cross_attention", "deep_prefix"):
    config = FusionConfig(
        mechanism=mechanism, model_dim=16, heads=2, num_classes=3,
        hidden_dim=24, encoder_layers=2, visual_prefix_len=2,
    )
    # float64 build mode for finite-difference verification
    head = build_fusion_head(config, text_dim=12, image_dim=10, seed=1, dtype=np.float64)

    def loss_fn():
        out = fuse_forward(head, batch)
        loss, back = cross_entropy(out.logits, [1])
        out.backward(back())
        return loss

    report = grad_check(loss_fn, head.params, tolerance=1e-4)
    print(f"{mechanism:>16}: {head.num_params:>5} params, "
          f"grad check max rel err {report.max_rel_err:.2e} "
          f"({'pass' if report.passed else 'FAIL'})")

print("\ncross-attention heatmap (rows = text tokens, columns = image tokens):")
head = build_fusion_head(
    FusionConfig(mechanism="cross_attention", model_dim=16, heads=2, num_classes=3, hidden_dim=24),
    text_dim=12, image_dim=10, seed=1,
)
out = fuse_forward(head, batch)
table = export_attention(out.attention, [f"tok{i}" for i in range(4)], [f"img{j}" for j in range(3)])
for line in table.strip().split("\n"):
    cells = line.split("\t")
    print("  " + "  ".join(c[:8].ljust(8) for c in cells))
print("\neach row of post-softmax weights sums to 1")
