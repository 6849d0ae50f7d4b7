"""GPU-scale evaluation (Table 8 substitution).

The paper generates CUDA kernels via TVM on an A100 and measures the
FLAT-RGran baseline against the TileFlow dataflow for very long
sequences.  Offline we evaluate the same two dataflows analytically on
the GPU-like architecture spec (see DESIGN.md).  The two properties
Table 8 demonstrates are structural and survive the substitution:

1. The baseline stages full softmax rows; at 256k sequence length a row
   no longer fits in shared memory -> OOM.
2. The TileFlow dataflow tiles the key/column dimension too, fits at
   every length, and is faster throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..analysis import TileFlowModel
from ..arch import Architecture, gpu_like
from ..dataflows import ATTENTION_DATAFLOWS
from ..workloads import self_attention
from .report import format_table

#: (model name, heads, hidden) of the Table 8 workloads.
GPU_MODELS = {"T5": (16, 1024), "XLM": (12, 768)}

#: Sequence lengths of Table 8.
GPU_SEQ_LENS = (1024, 4096, 16384, 65536, 262144)


@dataclass
class GpuRow:
    """One (model, seq_len, dataflow) measurement."""

    model: str
    seq_len: int
    dataflow: str
    runtime_ms: Optional[float]    # None = OOM
    oom: bool

    def to_dict(self) -> Dict[str, object]:
        return {"runtime_ms": self.runtime_ms, "oom": self.oom}


@obs.traced()
def gpu_evaluation(models: Optional[Sequence[str]] = None,
                   seq_lens: Optional[Sequence[int]] = None,
                   arch: Optional[Architecture] = None) -> List[GpuRow]:
    """Table 8: baseline (FLAT-RGran) vs TileFlow on the GPU-like spec."""
    arch = arch or gpu_like()
    model = TileFlowModel(arch)
    rows: List[GpuRow] = []
    for name in models or tuple(GPU_MODELS):
        heads, hidden = GPU_MODELS[name]
        for seq in seq_lens or GPU_SEQ_LENS:
            workload = self_attention(heads, seq, hidden,
                                      expand_softmax=False,
                                      name=f"{name}-{seq}")
            for df_label, df_name in (("baseline", "flat_rgran"),
                                      ("TileFlow", "tileflow")):
                tree = ATTENTION_DATAFLOWS[df_name](workload, arch)
                # Table 8 reports no latency for OOM rows.
                result = model.evaluate(tree)
                oom = any(v.startswith("memory") for v in result.violations)
                rows.append(GpuRow(
                    model=name, seq_len=seq, dataflow=df_label,
                    runtime_ms=(None if oom
                                else result.latency_seconds * 1e3),
                    oom=oom))
    return rows


def format_gpu(rows: List[GpuRow]) -> str:
    seqs = sorted({r.seq_len for r in rows})
    table: Dict[Tuple[str, str], Dict[int, GpuRow]] = {}
    for row in rows:
        table.setdefault((row.model, row.dataflow), {})[row.seq_len] = row
    body = []
    for (model_name, dataflow), per_seq in sorted(table.items()):
        cells = []
        for seq in seqs:
            row = per_seq.get(seq)
            if row is None:
                cells.append("-")
            elif row.oom:
                cells.append("OOM")
            else:
                cells.append(f"{row.runtime_ms:.2f}")
        body.append([model_name, dataflow] + cells)
    header = ["model", "dataflow"] + [_seq_label(s) for s in seqs]
    return format_table("Table 8: runtime (ms) on the GPU-like spec",
                        header, body)


def _seq_label(seq: int) -> str:
    if seq % 1024 == 0:
        return f"{seq // 1024}k"
    return str(seq)
