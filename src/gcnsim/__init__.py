"""gcnsim: software model of a lightweight sparse-GCN accelerator.

Submodules:
    matrix     exact fixed-point types and reference matrix kernels
    costmodel  analytic op/storage cost estimates
    pcoo       packet codec and its on-disk .pcoo stream container
    schedule   row assignment, tiling, and collision stalling
    simulator  cycle-level unified PE array
    report     counter aggregation and formatting
    runtime    quantized GCN / GraphSAGE layer execution
    graphs     synthetic graph generators
    formats    bundle files (edges, features, weights) and metadata
"""

__version__ = "0.1.0"
