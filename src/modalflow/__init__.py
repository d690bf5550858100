"""Double-flow self-distillation for multimodal valence regression with missing text.

The Python API lives in the submodules (modalflow.training, modalflow.data,
modalflow.config, ...); the package root re-exports nothing.
"""

__version__ = "0.1.0"
